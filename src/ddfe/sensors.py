"""LiDAR emission geometry: beam layouts, spherical coordinates, image projection.

A spinning LiDAR is modelled by the number of horizontal and vertical beams
and the vertical field of view.  Beams are assumed uniformly spaced; azimuth
is periodic and handled modulo 2*pi throughout.  All angles are radians
internally; degrees appear only in configs and config files.
"""

from __future__ import annotations

import math
import os
import sys
import typing
from dataclasses import dataclass

import numpy as np

from .io import check_cloud, check_count, check_real, format_value, parse_key_values, read_ascii

TWO_PI = 2.0 * math.pi

# Least spacing of a sensor's vertical beams.  |phi - elevation| for angles in
# [-90, 90] degrees rounds by less than 3e-14 degrees, so no point is equally
# near two beams this far apart: augment.nearest_beam needs no tie rule.
MIN_BEAM_SPACING_DEG = 1e-9


@dataclass(frozen=True)
class ProjectionParams:
    """The one spherical projection image every sensor's density is read from.

    512 x 5120 pixels over [-30, +15] degrees elevation: fixed, so densities
    are comparable across sensors, and wide enough to hold every supported
    sensor's beams.
    """

    height = 512
    width = 5120
    proj_fov_min_deg = -30.0
    proj_fov_max_deg = 15.0
    proj_fov_min_rad = math.radians(proj_fov_min_deg)
    proj_fov_max_rad = math.radians(proj_fov_max_deg)


@dataclass(frozen=True)
class SensorConfig:
    """Beam counts and vertical field of view of one LiDAR sensor.

    Beam counts are integers of at least one.  Both field-of-view bounds lie
    in [-90, 90] degrees, the lower one below the upper.  The beams fit the
    projection image's columns and rows, and vertical beams lie
    MIN_BEAM_SPACING_DEG or more apart: code that reads the beam grid relies
    on these rules.
    """

    name: str
    h_beams: int
    v_beams: int
    fov_min_deg: float
    fov_max_deg: float

    def __post_init__(self):
        for name in ("h_beams", "v_beams"):
            check_count(name, getattr(self, name), 1)
        for name in ("fov_min_deg", "fov_max_deg"):
            check_real(name, getattr(self, name), -90, 90)
        if not self.fov_min_deg < self.fov_max_deg:
            raise ValueError(
                f"fov_min_deg ({self.fov_min_deg}) must be below "
                f"fov_max_deg ({self.fov_max_deg})"
            )
        image = ProjectionParams()
        for axis, count, size, unit in (("horizontal", self.h_beams, image.width, "columns"),
                                        ("vertical", self.v_beams, image.height, "rows")):
            if count > size:
                raise ValueError(
                    f"sensor {self.name!r} has {format_value(count)} {axis} beams, more than "
                    f"the projection image's {size} {unit}")
        spacing = (self.fov_max_deg - self.fov_min_deg) / self.v_beams
        if self.v_beams > 1 and spacing < MIN_BEAM_SPACING_DEG:
            raise ValueError(
                f"sensor {self.name!r} has vertical beams {spacing} degrees apart, "
                f"closer than the {MIN_BEAM_SPACING_DEG} degree minimum")


# Production sensor presets (beam counts and vertical FOV per dataset sensor).
PRESETS = {
    "waymo": SensorConfig("waymo", 2560, 64, -17.6, 2.4),
    "semantickitti": SensorConfig("semantickitti", 2048, 64, -24.8, 2.0),
    "nuscenes": SensorConfig("nuscenes", 1080, 32, -30.0, 10.0),
    "pandaset": SensorConfig("pandaset", 1800, 64, -25.0, 15.0),
    "semanticposs": SensorConfig("semanticposs", 1800, 40, -16.0, 7.0),
}


def get_preset(name: str) -> SensorConfig:
    try:
        return PRESETS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown sensor preset {name!r}; known presets: "
            + ", ".join(sorted(PRESETS))
        ) from None


@dataclass(frozen=True)
class SphericalCoords:
    """One point in sensor-centric spherical coordinates (radians, meters): finite, and
    range at least the least normal float, sys.float_info.min.  Every smoothed beam
    value is <= 1, so the density sqrt(Bh * Bv) / range stays finite."""

    azimuth: float
    elevation: float
    range: float

    def __post_init__(self):
        check_real("azimuth", self.azimuth)
        check_real("elevation", self.elevation)
        check_real("range", self.range, sys.float_info.min)


def beam_inclinations(config: SensorConfig) -> tuple[np.ndarray, np.ndarray]:
    """Angular positions of every beam.

    Returns:
        (azimuth_rad, elevation_deg): the h_beams horizontal beam azimuths
        2*pi*i/h_beams in radians (i = 1..h_beams) and the v_beams vertical
        inclinations spaced uniformly over (fov_min, fov_max] in degrees.
    """
    i = np.arange(1, config.h_beams + 1, dtype=np.float64)
    j = np.arange(1, config.v_beams + 1, dtype=np.float64)
    azimuth_rad = TWO_PI * i / config.h_beams
    span = config.fov_max_deg - config.fov_min_deg
    elevation_deg = span * j / config.v_beams + config.fov_min_deg
    return azimuth_rad, elevation_deg


def spherical_of_cloud(cloud: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized spherical conversion of an (N, 3) cloud.

    Returns (azimuth, elevation, range) arrays in radians/meters.  Raises on
    a non-finite or zero-length point, naming its index (io.check_cloud).
    """
    cloud = check_cloud(cloud)
    phi, r = elevation_range_of_cloud(cloud)
    return azimuth_of_cloud(cloud), phi, r


def azimuth_of_cloud(cloud: np.ndarray) -> np.ndarray:
    """Azimuth in [0, 2*pi) of each point of an (N, 3) float64 cloud."""
    return np.arctan2(cloud[:, 1], cloud[:, 0]) % TWO_PI


def elevation_range_of_cloud(cloud: np.ndarray, first: int = 0
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Elevation (radians) and range of each point of an (N, 3) float64 cloud
    that io.check_cloud accepts.  A zero-length point raises, naming its index
    plus `first`, the cloud's offset in a larger one.

    The range is the np.linalg.norm(cloud, axis=1) sum, (x*x + y*y) + z*z, in
    one buffer.
    """
    x, y, z = cloud[:, 0], cloud[:, 1], cloud[:, 2]
    r = x * x
    square = y * y
    r += square
    np.multiply(z, z, out=square)
    r += square
    np.sqrt(r, out=r)
    bad = np.flatnonzero(r == 0.0)
    if bad.size:
        raise ValueError(
            f"degenerate point at sensor origin (point index {first + bad[0]})"
        )
    phi = np.divide(z, r, out=square)
    np.clip(phi, -1.0, 1.0, out=phi)
    return np.arcsin(phi, out=phi), r


def project_cols(theta, params: ProjectionParams):
    """Azimuth (radians) to column index; periodic, so wraps modulo width."""
    col = np.floor(np.asarray(theta, dtype=np.float64) / TWO_PI * params.width)
    return (col.astype(np.int64)) % params.width


def project_rows(phi, params: ProjectionParams):
    """Elevation (radians) to row index, clamped into the projected FOV."""
    lo, hi = params.proj_fov_min_rad, params.proj_fov_max_rad
    row = np.floor((np.asarray(phi, dtype=np.float64) - lo) / (hi - lo) * params.height)
    return np.clip(row.astype(np.int64), 0, params.height - 1)


# --- sensor config files -------------------------------------------------
#
# The `key = value` format of io.parse_key_values, one key per SensorConfig
# field, every key required:
#
#     name = my-sensor
#     h_beams = 512
#     v_beams = 64
#     fov_min_deg = -25.0
#     fov_max_deg = 3.0


def parse_sensor_config(text: str) -> SensorConfig:
    types = typing.get_type_hints(SensorConfig)
    fields = parse_key_values(text, types)
    missing = [k for k in types if k not in fields]
    if missing:
        raise ValueError("missing keys: " + ", ".join(missing))
    return SensorConfig(**fields)


def load_sensor_config(path) -> SensorConfig:
    return parse_sensor_config(read_ascii(path))


def resolve_sensor(spec: str) -> SensorConfig:
    """Resolve a preset name or a config-file path (ValueError if neither)."""
    if spec.lower() in PRESETS:
        return PRESETS[spec.lower()]
    if os.path.exists(spec):
        return load_sensor_config(spec)
    raise ValueError(
        f"sensor {spec!r} is neither a preset ({', '.join(sorted(PRESETS))}) "
        "nor an existing config file"
    )
