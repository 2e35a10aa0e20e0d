import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import edge_scenes, knn_areal_density, traced_peak
from ddfe.sensors import MIN_BEAM_SPACING_DEG, PRESETS, SensorConfig
from ddfe.simulate import (
    BUILDING,
    GROUND,
    NUM_CLASSES,
    POLE,
    VEHICLE,
    Box,
    Cylinder,
    GroundPlane,
    Scene,
    box_on_ground,
    make_dataset,
    random_scene,
    ray_directions,
    raycast_scan,
    wall_scene,
)

SIM64 = SensorConfig("sim64", 512, 64, -25.0, 3.0)
SIM32 = SensorConfig("sim32", 512, 32, -25.0, 3.0)


def test_wall_hit_on_axis():
    # v_beams=2 over [-30, 30] puts one beam at elevation 0; azimuth 2*pi
    # (i = h_beams) aims straight down +x
    cfg = SensorConfig("tiny", 4, 2, -30.0, 30.0)
    scene = wall_scene(10.0, half_width=20.0, z_lo=-15.0, z_hi=15.0)
    cloud, labels = raycast_scan(scene, cfg)
    on_axis = cloud[(np.abs(cloud[:, 1]) < 1e-9) & (np.abs(cloud[:, 2]) < 1e-9)]
    assert on_axis.shape[0] == 1
    assert np.allclose(on_axis[0], [10.0, 0.0, 0.0], atol=1e-9)
    assert np.all(labels == BUILDING)


def test_ground_hit_at_30_degrees():
    # single beam at exactly -30 degrees elevation (span j/V_b + f_min, j=1)
    cfg = SensorConfig("down", 4, 1, -30.0000001, -30.0)
    scene = Scene([GroundPlane(-2.0, GROUND)])
    cloud, labels = raycast_scan(scene, cfg)
    assert cloud.shape[0] == 4
    radii = np.linalg.norm(cloud, axis=1)
    assert np.allclose(radii, 4.0, atol=1e-6)  # r = 2 / sin(30 deg)
    on_axis = cloud[(np.abs(cloud[:, 1]) < 1e-9) & (cloud[:, 0] > 0)]
    assert np.allclose(on_axis[0], [2.0 * math.sqrt(3.0), 0.0, -2.0], atol=1e-6)


def test_return_count_bounded_by_rays():
    scans = make_dataset(3, SIM64, seed=7)
    for cloud, labels in scans:
        assert cloud.shape[0] <= SIM64.h_beams * SIM64.v_beams
        assert cloud.shape[0] == labels.shape[0]
        assert set(np.unique(labels)) <= set(range(NUM_CLASSES))


def test_dataset_deterministic_per_seed():
    a = make_dataset(3, SIM64, seed=11)
    b = make_dataset(3, SIM64, seed=11)
    for (ca, la), (cb, lb) in zip(a, b):
        assert np.array_equal(ca, cb)
        assert np.array_equal(la, lb)
    c = make_dataset(3, SIM64, seed=12)
    assert not np.array_equal(a[0][0], c[0][0])


def test_same_seed_other_sensor_scans_same_world():
    dense = make_dataset(2, SIM64, seed=5)
    sparse = make_dataset(2, SIM32, seed=5)
    for (cd, _), (cs, _) in zip(dense, sparse):
        # 32 uniform beams over the same FOV are the even-indexed half of 64,
        # so every sparse return also appears in the dense scan
        dense_set = {tuple(np.round(p, 9)) for p in cd}
        sparse_set = {tuple(np.round(p, 9)) for p in cs}
        assert sparse_set <= dense_set
        assert 0.35 <= len(cs) / len(cd) <= 0.65


def test_labels_match_reintersection():
    scans = make_dataset(1, SIM64, seed=3)
    cloud, labels = scans[0]
    rng = np.random.default_rng(0)
    scene_rng = np.random.default_rng(np.random.SeedSequence(3).spawn(1)[0])
    scene = random_scene(scene_rng)
    idx = rng.choice(cloud.shape[0], size=200, replace=False)
    dirs = cloud[idx] / np.linalg.norm(cloud[idx], axis=1, keepdims=True)
    ts = np.stack([prim.intersect(dirs) for prim in scene.primitives])
    nearest = ts.argmin(axis=0)
    prim_labels = np.array([p.label for p in scene.primitives])
    assert np.array_equal(prim_labels[nearest], labels[idx])


def test_no_point_inside_any_primitive():
    scans = make_dataset(1, SIM64, seed=9)
    cloud, _ = scans[0]
    scene = random_scene(np.random.default_rng(np.random.SeedSequence(9).spawn(1)[0]))
    tol = 1e-9
    for prim in scene.primitives:
        if isinstance(prim, Box):
            lo, hi = np.asarray(prim.lo), np.asarray(prim.hi)
            inside = np.all((cloud > lo + tol) & (cloud < hi - tol), axis=1)
        elif isinstance(prim, Cylinder):
            d2 = (cloud[:, 0] - prim.center_xy[0]) ** 2 + (cloud[:, 1] - prim.center_xy[1]) ** 2
            inside = (
                (d2 < (prim.radius - tol) ** 2)
                & (cloud[:, 2] > prim.z_lo + tol)
                & (cloud[:, 2] < prim.z_hi - tol)
            )
        else:
            continue  # planes have no interior
        assert not inside.any()


def test_max_range_drops_far_returns():
    scene = wall_scene(10.0)
    scene.max_range = 5.0
    cloud, _ = raycast_scan(scene, SIM64)
    assert cloud.shape[0] == 0


def test_empty_scene_rejected():
    with pytest.raises(ValueError):
        raycast_scan(Scene([]), SIM64)


def test_ray_order_is_vertical_then_horizontal():
    dirs = ray_directions(SensorConfig("t", 3, 2, -10.0, 10.0))
    assert dirs.shape == (6, 3)
    # first three rays share the first elevation
    assert np.allclose(dirs[:3, 2], dirs[0, 2])
    assert not np.allclose(dirs[3, 2], dirs[0, 2])


def test_box_on_ground_helper():
    box = box_on_ground((5.0, 1.0), (2.0, 4.0), 1.5, BUILDING, ground_z=-2.0)
    assert box.lo == (4.0, -1.0, -2.0)
    assert box.hi == (6.0, 3.0, -0.5)


def test_wall_areal_density_follows_inverse_square():
    """Frontal wall patches at 5/10/20 m: points per m^2 scale as 1/r^2."""
    cfg = SensorConfig("kitti-like", 2048, 64, -24.8, 2.0)
    densities = {}
    for r in (5.0, 10.0, 20.0):
        scene = Scene([Box((r, -1.0, -2.0), (r + 0.5, 1.0, 0.0), BUILDING)])
        cloud, _ = raycast_scan(scene, cfg)
        assert cloud.shape[0] > 200
        planar = cloud[:, 1:]  # wall is x = const: (y, z) are in-plane
        dens = knn_areal_density(planar, k=16)
        # interior points only, away from the patch edges
        interior = (np.abs(cloud[:, 1]) < 0.5) & (cloud[:, 2] > -1.5) & (cloud[:, 2] < -0.5)
        assert interior.sum() > 50
        densities[r] = float(np.median(dens[interior]))
    assert densities[5.0] / densities[10.0] == pytest.approx(4.0, rel=0.10)
    assert densities[10.0] / densities[20.0] == pytest.approx(4.0, rel=0.10)


def _reference_slab(box, dirs):
    """Box.intersect as one (N, 3) slab test with axis reductions."""
    lo = np.asarray(box.lo, dtype=np.float64)
    hi = np.asarray(box.hi, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 / dirs
        t1 = lo[None, :] * inv
        t2 = hi[None, :] * inv
    t1 = np.where(np.isnan(t1), -np.inf, t1)
    t2 = np.where(np.isnan(t2), np.inf, t2)
    tnear = np.minimum(t1, t2).max(axis=1)
    tfar = np.maximum(t1, t2).min(axis=1)
    return np.where((tfar >= tnear) & (tnear > 0.0), tnear, np.inf)


def _brute_force_scan(scene, config):
    """raycast_scan by brute force: every primitive on every ray, then the
    nearest by argmin over the stacked ray parameters."""
    dirs = ray_directions(config)
    ts = np.stack([_reference_slab(prim, dirs) if isinstance(prim, Box) else prim.intersect(dirs)
                   for prim in scene.primitives])
    nearest = ts.argmin(axis=0)
    t = ts[nearest, np.arange(dirs.shape[0])]
    valid = np.isfinite(t) & (t <= scene.max_range)
    prim_labels = np.array([prim.label for prim in scene.primitives], dtype=np.int64)
    return dirs[valid] * t[valid, None], prim_labels[nearest[valid]]


def _assert_scans_bytewise_equal(scene, config):
    cloud, labels = raycast_scan(scene, config)
    ref_cloud, ref_labels = _brute_force_scan(scene, config)
    assert cloud.dtype == ref_cloud.dtype and cloud.shape == ref_cloud.shape
    assert cloud.tobytes() == ref_cloud.tobytes()
    assert labels.dtype == ref_labels.dtype and labels.tobytes() == ref_labels.tobytes()


# Anywhere, near the origin, or just off the +x axis.
_COORDS = st.one_of(st.floats(-60.0, 60.0), st.floats(-2.0, 2.0), st.floats(-0.05, 0.05))


@st.composite
def _primitives(draw):
    """A box given by a center and signed half extents (a negative one gives
    lo > hi on that axis), or a pole of any radius up to 10 m."""
    if draw(st.booleans()):
        center = [draw(_COORDS) for _ in range(3)]
        half = [draw(st.floats(-4.0, 4.0)) for _ in range(3)]
        return Box(tuple(c - h for c, h in zip(center, half)),
                   tuple(c + h for c, h in zip(center, half)),
                   draw(st.sampled_from((BUILDING, VEHICLE))))
    z_lo = draw(_COORDS)
    return Cylinder((draw(_COORDS), draw(_COORDS)), draw(st.floats(0.01, 10.0)),
                    z_lo, z_lo + draw(st.floats(0.0, 8.0)), POLE)


@st.composite
def _scenes(draw):
    prims = draw(st.lists(_primitives(), min_size=1, max_size=6))
    if draw(st.booleans()):
        prims.insert(draw(st.integers(0, len(prims))), GroundPlane(draw(st.floats(-5.0, 5.0)), GROUND))
    return Scene(prims, max_range=draw(st.floats(0.5, 150.0)))


@st.composite
def _sensors(draw):
    fov_min = draw(st.floats(-90.0, 90.0, exclude_max=True))
    fov_max = draw(st.floats(fov_min, 90.0, exclude_min=True))
    v_beams = draw(st.integers(1, 8))
    assume(v_beams == 1 or (fov_max - fov_min) / v_beams >= MIN_BEAM_SPACING_DEG)
    return SensorConfig("drawn", draw(st.integers(1, 64)), v_beams, fov_min, fov_max)


@settings(max_examples=300, deadline=None)
@given(scene=_scenes(), config=_sensors())
# Nearly level rays: a cap's or plane's ray parameter overflows to inf (no hit), quietly.
@example(scene=Scene([Cylinder((0.0, 0.0), 1.0, 0.0, 1.0, POLE)], max_range=1.0),
         config=SensorConfig("level", 1, 1, 0.0, 1e-218))
@example(scene=Scene([GroundPlane(-2.0, GROUND), Box((1.0, -1.0, -1.0), (2.0, 1.0, 1.0), BUILDING)]),
         config=SensorConfig("level", 8, 1, 0.0, 1e-310))
def test_raycast_scan_is_bytewise_the_brute_force_scan(scene, config):
    """Testing each primitive on its reachable columns only, the per-axis
    slab test and the running nearest hit change no byte of the scan."""
    _assert_scans_bytewise_equal(scene, config)


@pytest.mark.parametrize("config", [SIM64, SensorConfig("4x2", 4, 2, -30.0, 30.0),
                                    SensorConfig("7x5", 7, 5, -90.0, 90.0), PRESETS["waymo"]],
                         ids=lambda c: c.name)
def test_edge_scenes_are_bytewise_the_brute_force_scan(config):
    for scene in edge_scenes():
        _assert_scans_bytewise_equal(scene, config)


def test_a_tie_goes_to_the_earlier_primitive():
    first = Box((10.0, -1.0, -2.0), (11.0, 1.0, 1.0), BUILDING)
    second = Box((10.0, -3.0, -2.0), (10.5, 3.0, 1.0), VEHICLE)
    cloud, labels = raycast_scan(Scene([first, second]), SIM64)
    front = np.abs(cloud[:, 1]) < 1.0
    assert front.any() and np.all(labels[front] == BUILDING)
    assert np.all(labels[~front] == VEHICLE)


@pytest.mark.parametrize("make", [
    lambda bad: Box((bad, 0.0, 0.0), (1.0, 1.0, 1.0), BUILDING),
    lambda bad: Box((0.0, 0.0, 0.0), (1.0, 1.0, bad), BUILDING),
], ids=["lo", "hi"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, "1.0", None])
def test_box_corners_are_finite_reals(make, bad):
    with pytest.raises(ValueError, match=r"Box\.(lo\[0\]|hi\[2\]) must be finite"):
        make(bad)


@pytest.mark.parametrize("field, make", [
    ("center_xy\\[1\\]", lambda bad: Cylinder((15.0, bad), 0.4, -2.0, 3.0, POLE)),
    ("z_lo", lambda bad: Cylinder((15.0, 0.0), 0.4, bad, 3.0, POLE)),
    ("z_hi", lambda bad: Cylinder((15.0, 0.0), 0.4, -2.0, bad, POLE)),
], ids=["center_xy", "z_lo", "z_hi"])
@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_cylinder_coordinates_are_finite(field, make, bad):
    with pytest.raises(ValueError, match=f"Cylinder\\.{field} must be finite"):
        make(bad)


@pytest.mark.parametrize("radius", [-0.4, 0.0, math.nan, math.inf])
def test_cylinder_radius_is_positive(radius):
    with pytest.raises(ValueError, match=r"Cylinder\.radius must be finite and > 0"):
        Cylinder((15.0, 0.0), radius, -2.0, 3.0, POLE)


@pytest.mark.parametrize("z", [math.nan, math.inf])
def test_ground_plane_height_is_finite(z):
    with pytest.raises(ValueError, match=r"GroundPlane\.z must be finite"):
        GroundPlane(z, GROUND)


@pytest.mark.parametrize("max_range", [math.nan, -5.0, 0.0, math.inf])
def test_max_range_is_positive_when_scanned(max_range):
    scene = wall_scene(10.0)
    scene.max_range = max_range
    with pytest.raises(ValueError, match=r"Scene\.max_range must be finite and > 0"):
        raycast_scan(scene, SIM64)


def test_raycast_scan_holds_no_ray_parameters_per_primitive():
    """A waymo-preset scan (163,840 rays) of a random scene of 8 primitives
    peaks near its rays and output, not one float per primitive and ray."""
    scene = random_scene(np.random.default_rng(1))
    _, peak = traced_peak(lambda: raycast_scan(scene, PRESETS["waymo"]))
    assert peak < 20e6
