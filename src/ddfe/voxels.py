"""Cubic voxel partitioning of point clouds.

Cells are floor(coord / voxel_size); voxel ordinals follow first occurrence
in the cloud, so the partition is deterministic and order-dependent only in
its numbering, not its structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .io import LABEL_LIMIT, check_cloud, check_labels, check_positive

_INT64_LIMIT = 2.0 ** 63  # cell indices must lie in [-2**63, 2**63)
_KEY_LIMIT = 2 ** 63  # one-key sort: the product of the cell spans must lie below


@dataclass
class VoxelGrid:
    cells: np.ndarray           # (M, 3) integer cell indices
    centers: np.ndarray         # (M, 3) geometric cell centers
    point_to_voxel: np.ndarray  # (N,) voxel ordinal of each point

    @property
    def num_voxels(self) -> int:
        return self.cells.shape[0]


def voxelize(cloud: np.ndarray, voxel_size: float) -> VoxelGrid:
    """Partition an (N, 3) cloud into cubic voxels represented by cell centers.

    Points are grouped by one int64 sort key: each cell column shifted by its
    least cell, the three combined in mixed radix by their spans, so keys
    sort as cells do, x first.  Where the spans multiply to 2**63 or more
    (at 0.2 m, a cloud over about 420 km on every axis), np.lexsort sorts
    the three columns instead.
    """
    voxel_size = check_positive("voxel_size", voxel_size)
    # Column-wise on a (3, N) copy: numpy reduces and slices an (N, 3) array's
    # columns several times slower.
    with np.errstate(over="ignore"):  # a cell past int64 raises below, naming its point
        scaled = np.floor(np.divide(check_cloud(cloud).T, voxel_size, order="C"))
    lo, hi = (scaled.min(axis=1), scaled.max(axis=1)) if scaled.size else (np.zeros(3),) * 2
    if lo.min() < -_INT64_LIMIT or hi.max() >= _INT64_LIMIT:
        fits = ((scaled >= -_INT64_LIMIT) & (scaled < _INT64_LIMIT)).all(axis=0)
        raise ValueError(
            f"cell index outside int64 range at point index {np.flatnonzero(~fits)[0]}"
        )
    cells_per_point = scaled.astype(np.int64)
    spans = [int(h) - int(low) + 1 for low, h in zip(lo, hi)]

    # A stable sort groups equal cells with the first occurrence leading its run.
    run_start = np.ones(scaled.shape[1], dtype=bool)
    if math.prod(spans) < _KEY_LIMIT:
        least = lo.astype(np.int64)
        key = cells_per_point[0] - least[0]
        for axis in (1, 2):
            key *= spans[axis]
            key += cells_per_point[axis] - least[axis]
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        run_start[1:] = sorted_key[1:] != sorted_key[:-1]
    else:
        order = np.lexsort(cells_per_point[::-1])
        sorted_cells = cells_per_point[:, order]
        run_start[1:] = (sorted_cells[:, 1:] != sorted_cells[:, :-1]).any(axis=0)
    first_index = order[run_start]
    # Renumber runs (sorted order) to first-occurrence order.
    rank = np.empty_like(first_index)
    rank[np.argsort(first_index)] = np.arange(first_index.size)
    point_to_voxel = np.empty_like(order)
    point_to_voxel[order] = rank[np.cumsum(run_start) - 1]
    cells = np.ascontiguousarray(cells_per_point[:, np.sort(first_index)].T)
    return VoxelGrid(cells, (cells + 0.5) * voxel_size, point_to_voxel)


def voxel_offsets(grid: VoxelGrid, cloud: np.ndarray) -> np.ndarray:
    """Per-point offset from its voxel's center; max-norm <= voxel_size/2."""
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.shape[0] != grid.point_to_voxel.shape[0]:
        raise ValueError(
            f"grid was built from {grid.point_to_voxel.shape[0]} points, "
            f"got cloud with {cloud.shape[0]}"
        )
    return cloud - grid.centers[grid.point_to_voxel]


def majority_label(grid: VoxelGrid, point_labels: np.ndarray) -> np.ndarray:
    """Most frequent member label per voxel; ties break to the smallest id."""
    labels = check_labels(point_labels, grid.point_to_voxel.shape[0], LABEL_LIMIT)
    # One sort counts the (voxel, label) pairs, ordered by voxel, then by label.
    pairs, votes = np.unique(grid.point_to_voxel * LABEL_LIMIT + labels, return_counts=True)
    voxel = pairs // LABEL_LIMIT
    top = np.maximum.reduceat(votes, np.flatnonzero(np.diff(voxel, prepend=-1)))
    # A voxel's first pair with its top count holds the smallest such id.
    leaders = np.flatnonzero(votes == top[voxel])
    return pairs[leaders[np.diff(voxel[leaders], prepend=-1) > 0]] % LABEL_LIMIT
