"""Beam density estimation.

The beam layout of a sensor is rasterized into binary indicator vectors on
the projected image axes, smoothed with a bank of 1-D Gaussians, and turned
into a per-point multi-scale density value: the smoothed vectors read as
"expected beams per pixel", and density falls off as 1/r with range because
emitted rays spread over spheres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .io import DEFAULT_SIGMAS, check_cloud, check_positive
from .parallel import ROW_BLOCK, run_blocks
from .sensors import (
    ProjectionParams,
    SensorConfig,
    SphericalCoords,
    azimuth_of_cloud,
    beam_inclinations,
    elevation_range_of_cloud,
    project_cols,
    project_rows,
)


@dataclass(frozen=True)
class BeamProfile:
    """Gaussian-smoothed beam indicator vectors of one sensor.

    smooth_h / smooth_v hold one row per DEFAULT_SIGMAS scale, ascending
    sigma, each as long as its projected image axis.  smooth_profile stores
    them in Fortran order, so one pixel's scales lie side by side.
    """

    smooth_h: np.ndarray
    smooth_v: np.ndarray


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Sum-normalized 1-D Gaussian truncated at +/- 4 sigma.

    Its radius ceil(4 sigma) may not exceed the projection image's width, the
    widest axis a kernel is ever applied to.
    """
    sigma = check_positive("sigma", sigma)
    width = ProjectionParams.width
    if 4.0 * sigma > width:  # ceil(4 sigma) > width, but 4 sigma may be inf
        raise ValueError(f"sigma must be <= {width / 4:g}, a kernel radius of at most the "
                         f"projection image's {width} columns, got {sigma}")
    radius = int(math.ceil(4.0 * sigma))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    with np.errstate(over="ignore"):  # sigma < 1 / float max: t / sigma is inf, exp gives 0
        kernel = np.exp(-0.5 * (t / sigma) ** 2)
    return kernel / kernel.sum()


def _convolve_circular(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    radius = (kernel.size - 1) // 2
    if radius >= x.size:
        raise ValueError(
            f"kernel radius {radius} exceeds vector length {x.size}"
        )
    padded = np.concatenate([x[-radius:], x, x[:radius]]) if radius else x
    full = np.convolve(padded, kernel)
    return full[2 * radius : 2 * radius + x.size]


def _convolve_zero_padded(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    radius = (kernel.size - 1) // 2
    full = np.convolve(x, kernel)
    return full[radius : radius + x.size]


def rasterize_beams(
    config: SensorConfig, params: ProjectionParams
) -> tuple[np.ndarray, np.ndarray]:
    """Binary beam indicators on the projected image axes.

    Beams falling into the same pixel OR together, so the popcount can be
    below the beam count.  The projections are algebraically rearranged
    (floor(i*W/H_b) instead of floor((2*pi*i/H_b)/(2*pi)*W), and degrees
    end to end vertically) so beams sitting exactly on pixel boundaries
    land where exact arithmetic puts them.  A vertical beam outside the
    image's elevation band (edges included) is rejected, naming its 0-based
    index: clamped into an edge row, it would OR together with its
    neighbours there.  SensorConfig keeps the horizontal beams within the
    image's columns, one per column.
    """
    i = np.arange(1, config.h_beams + 1, dtype=np.float64)
    cols = np.floor(i * params.width / config.h_beams).astype(np.int64) % params.width
    raw_h = np.zeros(params.width, dtype=np.float64)
    raw_h[cols] = 1.0

    _, elevation_deg = beam_inclinations(config)
    outside = np.flatnonzero((elevation_deg < params.proj_fov_min_deg)
                             | (elevation_deg > params.proj_fov_max_deg))
    if outside.size:
        j = outside[0]
        raise ValueError(
            f"vertical beam {j} of sensor {config.name!r} at "
            f"{float(elevation_deg[j])} deg lies outside the projection image's "
            f"[{params.proj_fov_min_deg}, {params.proj_fov_max_deg}] deg elevation band"
        )
    proj_span = params.proj_fov_max_deg - params.proj_fov_min_deg
    rows = np.floor(
        (elevation_deg - params.proj_fov_min_deg) * params.height / proj_span
    ).astype(np.int64)
    rows = np.clip(rows, 0, params.height - 1)
    raw_v = np.zeros(params.height, dtype=np.float64)
    raw_v[rows] = 1.0
    return raw_h, raw_v


def smooth_profile(raw_h: np.ndarray, raw_v: np.ndarray) -> BeamProfile:
    """Smooth raw indicators with one Gaussian per DEFAULT_SIGMAS scale.

    The horizontal axis is periodic (azimuth), so its convolution wraps;
    the vertical axis is zero-padded.  Kernels are sum-normalized, making
    smoothed values expected beams per pixel.
    """
    raw_h = np.asarray(raw_h, dtype=np.float64)
    raw_v = np.asarray(raw_v, dtype=np.float64)
    smooth_h = np.empty((len(DEFAULT_SIGMAS), raw_h.size), order="F")
    smooth_v = np.empty((len(DEFAULT_SIGMAS), raw_v.size), order="F")
    for k, sigma in enumerate(DEFAULT_SIGMAS):
        kernel = gaussian_kernel(sigma)
        smooth_h[k] = _convolve_circular(raw_h, kernel)
        smooth_v[k] = _convolve_zero_padded(raw_v, kernel)
    return BeamProfile(smooth_h, smooth_v)


def beam_profile(config: SensorConfig, params: ProjectionParams | None = None) -> BeamProfile:
    """Rasterize and smooth at the DEFAULT_SIGMAS scales in one step."""
    params = params or ProjectionParams()
    raw_h, raw_v = rasterize_beams(config, params)
    return smooth_profile(raw_h, raw_v)


def _density(profile: BeamProfile, theta, phi, r, params: ProjectionParams,
             out: np.ndarray) -> np.ndarray:
    """sqrt(Bh * Bv) / r of n points into out, (n, C): one column per scale."""
    np.take(profile.smooth_h.T, project_cols(theta, params), axis=0, out=out, mode="clip")
    out *= profile.smooth_v.T[project_rows(phi, params)]
    np.sqrt(out, out=out)
    out /= r[:, None]
    return out


def point_density(
    profile: BeamProfile, coords: SphericalCoords, params: ProjectionParams
) -> np.ndarray:
    """Multi-scale beam density of one point, one value per scale."""
    out = np.empty((1, profile.smooth_h.shape[0]))
    theta, phi, r = np.array([[coords.azimuth], [coords.elevation], [coords.range]],
                             dtype=np.float64)
    return _density(profile, theta, phi, r, params, out)[0]


def density_for_cloud(
    profile: BeamProfile, cloud: np.ndarray, params: ProjectionParams
) -> np.ndarray:
    """Per-point density embedding of an (N, 3) cloud, shape (N, len(DEFAULT_SIGMAS)).

    Row order follows the cloud; a non-finite point, then a zero-length one,
    names its index.  Runs in row blocks (parallel.run_blocks), each writing
    its rows in place.
    """
    cloud = check_cloud(cloud)
    out = np.empty((cloud.shape[0], profile.smooth_h.shape[0]))

    def fill(rows):
        block = cloud[rows]
        phi, r = elevation_range_of_cloud(block, rows.start)
        _density(profile, azimuth_of_cloud(block), phi, r, params, out[rows])

    run_blocks(cloud.shape[0], ROW_BLOCK, fill)
    return out


def band_center_density(
    profile: BeamProfile,
    config: SensorConfig,
    params: ProjectionParams,
    distance: float,
) -> np.ndarray:
    """Density at the center of the sensor's beam band, per scale.

    Probes azimuth pi (any azimuth works, the horizontal comb covers the
    full circle) and the mid elevation of the vertical FOV, at the given
    range.  This is the natural operating point for comparing sensors.
    """
    mid_deg = 0.5 * (config.fov_min_deg + config.fov_max_deg)
    coords = SphericalCoords(math.pi, math.radians(mid_deg), distance)
    return point_density(profile, coords, params)
