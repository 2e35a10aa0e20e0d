"""Shared geometric oracles, scenes and thread settings for the test suite.

ddfe is imported inside the functions that use it: tests/checkpoint_digest.py
imports this file against older source trees too, which lack some modules.
"""

import functools
import os
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.spatial import cKDTree


def knn_areal_density(plane_coords: np.ndarray, k: int = 16) -> np.ndarray:
    """Empirical points-per-square-meter via the k-th nearest neighbor.

    plane_coords are 2-D in-surface coordinates; the estimate is
    k / (pi * R_k^2) with R_k the distance to the k-th neighbor.
    """
    tree = cKDTree(plane_coords)
    dist, _ = tree.query(plane_coords, k=k + 1)  # first hit is the point itself
    rk = dist[:, -1]
    return k / (np.pi * rk**2)


def beam_edge_cloud(elevation_deg: np.ndarray, fov_deg: tuple[float, float]) -> np.ndarray:
    """Points where the nearest beam is hardest to pick.

    They lie at every beam elevation, every midpoint between two beams, both
    edges of the field of view and +-89 degrees (outside any supported FOV).
    Each angle gets 49 points whose x and z are nudged by up to 3 ulps, so
    some land exactly on the elevation or midpoint as arcsin computes it.
    """
    angles = np.concatenate([elevation_deg, (elevation_deg[:-1] + elevation_deg[1:]) / 2,
                             fov_deg, (-89.0, 89.0)])
    rad = np.radians(angles[np.abs(angles) <= 89.0])
    x, z = np.cos(rad), np.sin(rad)
    steps = np.arange(-3, 4)
    x, z = np.broadcast_arrays(x[:, None, None] + steps[:, None] * np.spacing(x)[:, None, None],
                               z[:, None, None] + steps * np.spacing(z)[:, None, None])
    return np.stack([x.ravel(), np.zeros(x.size), z.ravel()], axis=1)


def spaced_fov(v_beams: int, fov_min_deg: float, spacing_deg: float) -> tuple[float, float]:
    """The field of view from fov_min_deg up whose v_beams vertical beams lie
    spacing_deg apart, as SensorConfig computes the spacing: the least
    fov_max_deg with (fov_max_deg - fov_min_deg) / v_beams >= spacing_deg."""
    fov_max_deg = fov_min_deg + spacing_deg * v_beams
    while (fov_max_deg - fov_min_deg) / v_beams < spacing_deg:
        fov_max_deg = np.nextafter(fov_max_deg, np.inf)
    return fov_min_deg, float(fov_max_deg)


def set_blas_threads(monkeypatch, value):
    """The BLAS thread variables as `ddfe.parallel.threads` reads them: one
    set, or none.  None leaves one thread, so every row-block job runs as one
    block; "1" gives one thread per core."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    if value is not None:
        monkeypatch.setenv("OMP_NUM_THREADS", value)


def traced_peak(fn):
    """(fn(), the most bytes tracemalloc saw allocated above the start while fn ran)."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def recorded_pools(monkeypatch, cores):
    """The worker count of each pool ddfe builds, on `cores` cores."""
    from ddfe import parallel

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    workers = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers, initializer):
            workers.append(max_workers)
            super().__init__(max_workers, initializer=initializer)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", RecordingPool)
    return workers


@functools.cache
def far_cloud() -> np.ndarray:
    """2,000 points over +-3e5 m on every axis: 500 spread ones (two of them
    at the corners) and three copies nudged by up to 0.05 m, shuffled, so
    cells repeat.  At 0.2 m voxels the cell spans (3e6 each) multiply past
    2**63, so voxelize cannot key them and sorts them by np.lexsort."""
    rng = np.random.default_rng(5)
    spread = rng.uniform(-3e5, 3e5, size=(500, 3))
    spread[:2] = [[-3e5] * 3, [3e5] * 3]
    nudged = [spread + rng.uniform(-0.05, 0.05, size=spread.shape) for _ in range(3)]
    cloud = rng.permutation(np.concatenate([spread, *nudged]))
    cloud.flags.writeable = False
    return cloud


@functools.cache
def mixed_scan() -> np.ndarray:
    """Two simulated semantickitti scans (seed 3) mixed as enhanced_mix3d
    mixes them under default_rng(0): 223,809 points, many row blocks."""
    from ddfe.augment import AugmentConfig, enhanced_mix3d
    from ddfe.sensors import PRESETS
    from ddfe.simulate import make_dataset

    first, second = make_dataset(2, PRESETS["semantickitti"], seed=3)
    cloud, _ = enhanced_mix3d(first, second, AugmentConfig(), np.random.default_rng(0))
    cloud.flags.writeable = False
    return cloud


def edge_scenes() -> list:
    """Hand-built scenes at the edges of the ray caster, each over a ground
    plane: a box canopy whose footprint holds the origin and a pole around
    the sensor; a box and two poles straddling the +x axis, with boxes on
    the +-y axes whose top or bottom face is level with the sensor; a pole
    whose center lies 1.005 radii from the origin; a box with lo > hi on x;
    and a wall wider than max_range reaches."""
    from ddfe.simulate import BUILDING, GROUND, POLE, VEHICLE, Box, Cylinder, GroundPlane, Scene

    def over_ground(*prims, max_range=120.0):
        return Scene([GroundPlane(-2.0, GROUND), *prims], max_range=max_range)

    near = 0.5 * 1.005
    return [
        over_ground(Box((-30.0, -25.0, 0.5), (30.0, 25.0, 1.5), BUILDING)),
        over_ground(Cylinder((0.2, -0.1), 0.6, -1.0, 0.5, POLE)),
        over_ground(Box((8.0, -1.5, -2.0), (11.0, 2.0, -1.0), VEHICLE),
                    Cylinder((14.0, 0.05), 0.4, -2.0, -0.5, POLE),
                    Cylinder((18.0, -0.01), 0.3, -2.0, 4.0, POLE),
                    Box((-1.0, 9.0, -2.0), (1.0, 12.0, 0.0), VEHICLE),
                    Box((-1.0, -12.0, 0.0), (1.0, -9.0, 2.0), BUILDING)),
        over_ground(Cylinder((near * np.cos(2.0), near * np.sin(2.0)), 0.5, -2.0, 1.0, POLE),
                    Box((12.0, 3.0, -2.0), (9.0, 9.0, 1.0), VEHICLE)),
        over_ground(Box((30.0, -60.0, -6.0), (30.5, 60.0, 4.0), BUILDING), max_range=40.0),
    ]
