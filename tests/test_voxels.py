import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import far_cloud

from ddfe import voxels
from ddfe.voxels import majority_label, voxel_offsets, voxelize

# Multiples of 0.25 sit exactly on cell boundaries for the 0.25 and 0.5 sizes.
_COORD = st.one_of(
    st.integers(-12, 12).map(lambda k: k * 0.25),
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _clouds(draw):
    """Clouds of N >= 0 points drawn with repetition from a few distinct ones."""
    base = draw(st.lists(st.tuples(_COORD, _COORD, _COORD), max_size=10))
    picks = draw(st.lists(st.sampled_from(base), max_size=40)) if base else []
    return np.array(picks, dtype=np.float64).reshape(-1, 3)


# Every cell of a 2 x 5 x 3 box, shuffled: a sort key with the wrong radix
# for these unequal spans would merge some of them.
_UNEVEN_BOX = np.random.default_rng(4).permutation(
    np.stack(np.meshgrid(range(2), range(-2, 3), range(3), indexing="ij"), -1).reshape(-1, 3)
) + 0.5


def _reference_partition(cloud, voxel_size):
    """Brute force: one dict entry per cell, ordinals in order of first occurrence."""
    ordinals: dict[tuple[int, int, int], int] = {}
    point_to_voxel = [
        ordinals.setdefault(tuple(math.floor(c / voxel_size) for c in point), len(ordinals))
        for point in cloud.tolist()
    ]
    return list(ordinals), point_to_voxel


def test_positive_octant_cell():
    grid = voxelize(np.array([[0.05, 0.05, 0.05]]), 0.2)
    assert np.array_equal(grid.cells, [[0, 0, 0]])
    assert np.allclose(grid.centers, [[0.1, 0.1, 0.1]])


def test_negative_coordinate_floors_down():
    grid = voxelize(np.array([[-0.05, 0.3, 0.0]]), 0.2)
    assert np.array_equal(grid.cells, [[-1, 1, 0]])
    assert np.allclose(grid.centers, [[-0.1, 0.3, 0.1]])


def test_boundary_splits_neighbors():
    grid = voxelize(np.array([[0.19, 0.0, 0.0], [0.21, 0.0, 0.0]]), 0.2)
    assert grid.num_voxels == 2
    assert not np.array_equal(grid.cells[0], grid.cells[1])


def test_ordinals_follow_first_occurrence():
    cloud = np.array([
        [1.0, 0.0, 0.0],
        [2.0, 0.0, 0.0],
        [1.0, 0.05, 0.0],  # same voxel as point 0
        [0.0, 0.0, 0.0],
    ])
    grid = voxelize(cloud, 0.2)
    assert np.array_equal(grid.point_to_voxel, [0, 1, 0, 2])


@settings(max_examples=300, deadline=None)
@given(cloud=_clouds(), voxel_size=st.sampled_from([0.2, 0.25, 0.5]))
@example(cloud=np.zeros((0, 3)), voxel_size=0.2)
@example(cloud=np.array([[-0.25, 0.0, 0.5]]), voxel_size=0.25)
@example(cloud=_UNEVEN_BOX, voxel_size=1.0)
def test_voxelize_matches_first_occurrence_reference(cloud, voxel_size):
    cells, point_to_voxel = _reference_partition(cloud, voxel_size)
    grid = voxelize(cloud, voxel_size)
    assert grid.num_voxels == len(cells)
    assert grid.cells.tolist() == [list(c) for c in cells]
    assert grid.point_to_voxel.tolist() == point_to_voxel
    expected_centers = [[(k + 0.5) * voxel_size for k in c] for c in cells]
    assert grid.centers.tolist() == expected_centers


def _lexsort_calls(monkeypatch):
    calls = []
    lexsort = np.lexsort

    def recording(keys):
        calls.append(len(keys))
        return lexsort(keys)

    monkeypatch.setattr(voxels.np, "lexsort", recording)
    return calls


def test_a_cloud_too_wide_to_key_is_lexsorted_as_the_reference(monkeypatch):
    cloud = far_cloud()
    calls = _lexsort_calls(monkeypatch)
    grid = voxelize(cloud, 0.2)
    assert calls == [3]
    cells, point_to_voxel = _reference_partition(cloud, 0.2)
    assert 500 <= len(cells) < len(cloud)
    assert grid.cells.tolist() == [list(c) for c in cells]
    assert grid.point_to_voxel.tolist() == point_to_voxel
    assert grid.centers.tolist() == [[(k + 0.5) * 0.2 for k in c] for c in cells]
    # a key path cloud never reaches np.lexsort
    voxelize(cloud / 10.0, 0.2)
    assert calls == [3]


@settings(max_examples=200, deadline=None)
@given(cloud=_clouds(), voxel_size=st.sampled_from([0.2, 0.25, 0.5]),
       offset=st.sampled_from([0.0, -1e15, 3e17]))
def test_one_key_and_lexsort_give_equal_grids(cloud, voxel_size, offset):
    cloud = cloud + offset  # far from the origin, the keys are still small
    with pytest.MonkeyPatch.context() as mp:
        calls = _lexsort_calls(mp)
        keyed = voxelize(cloud, voxel_size)
        mp.setattr(voxels, "_KEY_LIMIT", 1)  # no key fits: always lexsort
        sorted_by_columns = voxelize(cloud, voxel_size)
    assert calls == [3]
    for field in ("cells", "centers", "point_to_voxel"):
        a, b = getattr(keyed, field), getattr(sorted_by_columns, field)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_offsets_examples_and_bound():
    cloud = np.array([[0.1, 0.1, 0.1], [0.19, 0.1, 0.1]])
    grid = voxelize(cloud, 0.2)
    offsets = voxel_offsets(grid, cloud)
    assert np.allclose(offsets[0], 0.0, atol=1e-12)
    assert np.allclose(offsets[1], [0.09, 0.0, 0.0], atol=1e-12)

    rng = np.random.default_rng(1)
    cloud = rng.uniform(-10.0, 10.0, size=(2000, 3))
    grid = voxelize(cloud, 0.2)
    offsets = voxel_offsets(grid, cloud)
    assert np.max(np.abs(offsets)) <= 0.1 + 1e-12


def test_translation_covariance():
    rng = np.random.default_rng(2)
    cloud = rng.uniform(-3.0, 3.0, size=(300, 3))
    shift = np.array([5, -3, 2]) * 0.2  # exact voxel multiples
    base = voxelize(cloud, 0.2)
    moved = voxelize(cloud + shift, 0.2)
    assert np.array_equal(base.point_to_voxel, moved.point_to_voxel)
    assert np.array_equal(base.cells + [5, -3, 2], moved.cells)
    assert np.allclose(base.centers + shift, moved.centers, atol=1e-9)


def test_majority_label_examples():
    cloud = np.array([
        [0.0, 0.0, 0.0], [0.01, 0.0, 0.0], [0.02, 0.0, 0.0],  # voxel 0
        [1.0, 0.0, 0.0], [1.01, 0.0, 0.0],                    # voxel 1
        [2.0, 0.0, 0.0],                                      # voxel 2
    ])
    grid = voxelize(cloud, 0.2)
    labels = np.array([2, 2, 7, 5, 3, 9])
    assert np.array_equal(majority_label(grid, labels), [2, 3, 9])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
@example(data=None)
def test_majority_label_matches_brute_force(data):
    if data is None:  # a two-way tie at the top of the id range
        cells, labels = [0, 0, 1, 1, 0], [65535, 65534, 7, 7, 65535]
    else:
        cells = data.draw(st.lists(st.integers(0, 5), max_size=40))
        labels = data.draw(st.lists(st.sampled_from([0, 1, 2, 65533, 65534, 65535]),
                                    min_size=len(cells), max_size=len(cells)))
    grid = voxelize(np.array([[c, 0.0, 0.0] for c in cells]).reshape(-1, 3), 1.0)
    votes = [Counter() for _ in range(grid.num_voxels)]
    for voxel, label in zip(grid.point_to_voxel.tolist(), labels):
        votes[voxel][label] += 1
    expected = [min(k for k, v in c.items() if v == max(c.values())) for c in votes]
    got = majority_label(grid, np.array(labels, dtype=np.int64))
    assert got.dtype == np.int64 and got.tolist() == expected


def test_majority_label_memory_does_not_grow_with_the_largest_id():
    rng = np.random.default_rng(3)
    grid = voxelize(rng.uniform(0.0, 10.0, size=(2000, 3)), 1.0)  # 869 voxels
    labels = rng.integers(0, 4, size=2000)
    labels[0] = 65535
    tracemalloc.start()
    try:
        majority_label(grid, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a voxels x (max id + 1) vote table would take about 450 MB here
    assert peak < 1_000_000


def test_majority_label_validates():
    cloud = np.array([[0.0, 0.0, 0.0]])
    grid = voxelize(cloud, 0.2)
    with pytest.raises(ValueError):
        majority_label(grid, np.array([1, 2]))
    with pytest.raises(ValueError):
        majority_label(grid, np.array([-1]))


def test_voxelize_errors():
    for size in (0.0, -0.2, np.inf, np.nan):
        with pytest.raises(ValueError, match=f"voxel_size must be finite and > 0, got {size}"):
            voxelize(np.zeros((1, 3)), size)
    with pytest.raises(ValueError, match="point index 1"):
        voxelize(np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]]), 0.2)
    with pytest.raises(ValueError):
        voxelize(np.zeros((3, 2)), 0.2)
    # floor(x / size) must fit in int64: 1e20 and 3e20 would wrap into one cell.
    with pytest.raises(ValueError, match="int64 range at point index 1"):
        voxelize(np.array([[0.0, 0.0, 0.0], [1e20, 0.0, 0.0], [3e20, 0.0, 0.0]]), 0.2)
    with pytest.raises(ValueError, match="point index 0"):
        voxelize(np.array([[0.0, 2.0 ** 63, 0.0]]), 1.0)
    # x / size overflows to inf: the check names the point, with no overflow warning first
    for cloud, size in (([[1.0, 1.0, 1.0]], 1e-320), ([[1e308, 1.0, 1.0]], 0.2)):
        with pytest.raises(ValueError, match="int64 range at point index 0"):
            voxelize(np.array(cloud), size)
    assert voxelize(np.array([[0.0, 0.0, -2.0 ** 63]]), 1.0).cells.tolist() == [[0, 0, -2 ** 63]]
    grid = voxelize(np.zeros((2, 3)), 0.2)
    with pytest.raises(ValueError):
        voxel_offsets(grid, np.zeros((3, 3)))
