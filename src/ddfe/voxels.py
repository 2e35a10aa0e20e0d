"""Cubic voxel partitioning of point clouds.

Cells are floor(coord / voxel_size); voxel ordinals follow first occurrence
in the cloud, so the partition is deterministic and order-dependent only in
its numbering, not its structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .io import LABEL_LIMIT, check_cloud, check_labels

_INT64_LIMIT = 2.0 ** 63  # cell indices must lie in [-2**63, 2**63)


@dataclass
class VoxelGrid:
    cells: np.ndarray           # (M, 3) integer cell indices
    centers: np.ndarray         # (M, 3) geometric cell centers
    point_to_voxel: np.ndarray  # (N,) voxel ordinal of each point

    @property
    def num_voxels(self) -> int:
        return self.cells.shape[0]


def check_voxel_size(voxel_size: float, name: str = "voxel_size") -> None:
    """Raise unless voxel_size is finite and > 0, naming it as `name`."""
    if not 0.0 < voxel_size < np.inf:
        raise ValueError(f"{name} must be finite and > 0, got {voxel_size}")


def voxelize(cloud: np.ndarray, voxel_size: float) -> VoxelGrid:
    """Partition an (N, 3) cloud into cubic voxels represented by cell centers."""
    check_voxel_size(voxel_size)
    scaled = np.floor(check_cloud(cloud) / voxel_size)
    fits = ((scaled >= -_INT64_LIMIT) & (scaled < _INT64_LIMIT)).all(axis=1)
    if not fits.all():
        raise ValueError(
            f"cell index outside int64 range at point index {np.flatnonzero(~fits)[0]}"
        )
    cells_per_point = scaled.astype(np.int64)

    # Stable sort groups equal cells with the first occurrence leading its run.
    order = np.lexsort(cells_per_point.T[::-1])
    sorted_cells = cells_per_point[order]
    run_start = np.ones(order.size, dtype=bool)
    run_start[1:] = (sorted_cells[1:] != sorted_cells[:-1]).any(axis=1)
    first_index = order[run_start]
    # Renumber runs (lexicographic order) to first-occurrence order.
    rank = np.empty_like(first_index)
    rank[np.argsort(first_index)] = np.arange(first_index.size)
    point_to_voxel = np.empty_like(order)
    point_to_voxel[order] = rank[np.cumsum(run_start) - 1]
    cells = cells_per_point[np.sort(first_index)]
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
