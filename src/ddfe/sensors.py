"""LiDAR emission geometry: beam layouts, spherical coordinates, image projection.

A spinning LiDAR is modelled by the number of horizontal and vertical beams
and the vertical field of view.  Beams are assumed uniformly spaced; azimuth
is periodic and handled modulo 2*pi throughout.  All angles are radians
internally; degrees appear only in configs and config files.
"""

from __future__ import annotations

import math
import os
import typing
from dataclasses import dataclass

import numpy as np

from .io import check_cloud, parse_key_values, read_ascii

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SensorConfig:
    """Beam counts and vertical field of view of one LiDAR sensor."""

    name: str
    h_beams: int
    v_beams: int
    fov_min_deg: float
    fov_max_deg: float

    def __post_init__(self):
        if self.h_beams < 1 or self.v_beams < 1:
            raise ValueError(
                f"beam counts must be >= 1, got h_beams={self.h_beams}, "
                f"v_beams={self.v_beams}"
            )
        if not self.fov_min_deg < self.fov_max_deg:
            raise ValueError(
                f"fov_min_deg ({self.fov_min_deg}) must be below "
                f"fov_max_deg ({self.fov_max_deg})"
            )


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
class SphericalCoords:
    """One point in sensor-centric spherical coordinates (radians, meters)."""

    azimuth: float
    elevation: float
    range: float

    def __post_init__(self):
        if not self.range > 0:
            raise ValueError(f"range must be positive, got {self.range}")


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
    r = np.linalg.norm(cloud, axis=1)
    bad = np.flatnonzero(r == 0.0)
    if bad.size:
        raise ValueError(
            f"degenerate point at sensor origin (point index {bad[0]})"
        )
    theta = np.arctan2(cloud[:, 1], cloud[:, 0]) % TWO_PI
    phi = np.arcsin(np.clip(cloud[:, 2] / r, -1.0, 1.0))
    return theta, phi, r


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
