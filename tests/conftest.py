"""Shared geometric oracles for the test suite."""

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
