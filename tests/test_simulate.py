import math

import numpy as np
import pytest

from conftest import knn_areal_density
from ddfe.sensors import SensorConfig
from ddfe.simulate import (
    BUILDING,
    GROUND,
    NUM_CLASSES,
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
