import math
import tracemalloc

import numpy as np
import pytest
from conftest import beam_edge_cloud, spaced_fov
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ddfe.augment import (
    AugmentConfig,
    augment_pipeline,
    beam_sample,
    enhanced_mix3d,
    nearest_beam,
    random_keep_set,
    rotate_yaw,
)
from ddfe.beams import band_center_density, beam_profile
from ddfe.sensors import (
    MIN_BEAM_SPACING_DEG,
    PRESETS,
    ProjectionParams,
    SensorConfig,
    beam_inclinations,
    spherical_of_cloud,
)
from ddfe.simulate import raycast_scan, wall_scene

SIM64 = SensorConfig("sim64", 512, 64, -25.0, 3.0)
SIM32 = SensorConfig("sim32", 512, 32, -25.0, 3.0)


def _wall_scan(config=SIM64):
    # wall tall/wide enough that every beam in the azimuth window hits it
    scene = wall_scene(10.0, half_width=8.0, z_lo=-6.0, z_hi=2.0)
    return raycast_scan(scene, config)


def test_keep_all_beams_is_identity():
    cloud, labels = _wall_scan()
    kept_cloud, kept_labels = beam_sample(cloud, labels, SIM64, np.arange(64))
    assert np.array_equal(kept_cloud, cloud)
    assert np.array_equal(kept_labels, labels)


def test_halving_beams_halves_point_count():
    cloud, labels = _wall_scan()
    even = np.arange(1, 64, 2)  # beams 2, 4, ... in 1-based terms
    kept_cloud, _ = beam_sample(cloud, labels, SIM64, even)
    ratio = kept_cloud.shape[0] / cloud.shape[0]
    assert abs(ratio - 0.5) <= 0.02


def test_halved_scan_is_exact_beam_subset():
    cloud, labels = _wall_scan()
    labels = np.arange(cloud.shape[0])  # tag points by original index
    keep = np.arange(1, 64, 2)
    kept_cloud, kept_idx = beam_sample(cloud, labels, SIM64, keep)
    # every kept point is the original point it claims to be
    assert np.array_equal(kept_cloud, cloud[kept_idx])
    # and its beam is in the keep set
    assert np.all(np.isin(nearest_beam(kept_cloud, SIM64), keep))


def _argmin_beam(cloud, config):
    """The reference: argmin over the (N, V) distance matrix, first index on ties."""
    _, elevation_deg = beam_inclinations(config)
    phi_deg = np.degrees(spherical_of_cloud(cloud)[1])
    return np.argmin(np.abs(phi_deg[:, None] - elevation_deg[None, :]), axis=1)


@st.composite
def _beam_grids(draw):
    """A vertical beam count and a field of view that SensorConfig accepts:
    bounds anywhere in [-90, 90], or beams 1-4 times the spacing floor apart."""
    v_beams = draw(st.integers(1, 128))
    if draw(st.booleans()):
        return v_beams, spaced_fov(v_beams, draw(st.floats(-90.0, 89.9999)),
                                   draw(st.floats(1.0, 4.0)) * MIN_BEAM_SPACING_DEG)
    fov = sorted(draw(st.lists(st.floats(-90.0, 90.0), min_size=2, max_size=2, unique=True)))
    assume(v_beams == 1 or (fov[1] - fov[0]) / v_beams >= MIN_BEAM_SPACING_DEG)
    return v_beams, fov


@settings(max_examples=200, deadline=None)
@given(grid=_beam_grids())
@example(grid=(64, [-24.8, 2.0]))        # semantickitti
@example(grid=(128, spaced_fov(128, 88.9999998, MIN_BEAM_SPACING_DEG)))  # the floor near +89
def test_nearest_beam_is_argmin_bytewise(grid):
    v_beams, fov = grid
    config = SensorConfig("s", 16, v_beams, *fov)
    cloud = beam_edge_cloud(beam_inclinations(config)[1], fov)
    assert nearest_beam(cloud, config).tobytes() == _argmin_beam(cloud, config).tobytes()


def test_nearest_beam_breaks_exact_ties_toward_the_lower_beam():
    for config in PRESETS.values():
        _, elevation_deg = beam_inclinations(config)
        cloud = beam_edge_cloud(elevation_deg, (config.fov_min_deg, config.fov_max_deg))
        phi_deg = np.degrees(spherical_of_cloud(cloud)[1])
        distance = np.abs(phi_deg[:, None] - elevation_deg)
        upper = config.v_beams - 1 - np.argmin(distance[:, ::-1], axis=1)
        beam = nearest_beam(cloud, config)
        tied = beam != upper
        assert tied.sum() > 100, config.name
        assert np.array_equal(distance[tied, beam[tied]], distance[tied, upper[tied]])
        assert np.array_equal(beam, _argmin_beam(cloud, config))


def test_beam_sample_memory_is_linear_in_points():
    n = 200_000
    cloud = np.random.default_rng(6).normal(size=(n, 3))
    labels = np.zeros(n, dtype=np.int64)
    tracemalloc.start()
    try:
        beam_sample(cloud, labels, SIM64, np.arange(0, 64, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an (N, V) float64 distance matrix alone would take 64 * 8 bytes per point
    assert peak < 200 * n


def test_beam_sample_idempotent():
    cloud, labels = _wall_scan()
    keep = np.array([0, 5, 10, 20, 40, 63])
    once = beam_sample(cloud, labels, SIM64, keep)
    twice = beam_sample(once[0], once[1], SIM64, keep)
    assert np.array_equal(once[0], twice[0])
    assert np.array_equal(once[1], twice[1])


def test_beam_sample_validates_keep():
    cloud, labels = _wall_scan()
    with pytest.raises(ValueError, match="empty"):
        beam_sample(cloud, labels, SIM64, np.array([], dtype=int))
    with pytest.raises(ValueError):
        beam_sample(cloud, labels, SIM64, np.array([64]))


def test_halving_scales_density_by_sqrt_half():
    """Keeping the even-indexed half of a uniform 64-beam set reproduces the
    32-beam sensor, whose band-center density is sqrt(1/2) of the original."""
    proj = ProjectionParams()
    d64 = band_center_density(beam_profile(SIM64, proj), SIM64, proj, 10.0)[0]
    d32 = band_center_density(beam_profile(SIM32, proj), SIM32, proj, 10.0)[0]
    assert d32 / d64 == pytest.approx(math.sqrt(0.5), rel=0.05)


def test_even_indexed_half_is_the_32_beam_sensor():
    from ddfe.sensors import beam_inclinations

    _, elev64 = beam_inclinations(SIM64)
    _, elev32 = beam_inclinations(SIM32)
    assert np.allclose(elev64[1::2], elev32, atol=1e-12)


def _replay_mix_draws(seed):
    """The yaw and ego-axis shift enhanced_mix3d draws first from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    yaw = rng.uniform(0.0, 2.0 * np.pi)
    shift = rng.uniform(0.0, 20.0)
    return yaw, shift


def test_mix3d_concatenates_b_after_the_drawn_yaw_and_shift():
    a = (np.array([[1.0, 0.0, 0.0]]), np.array([3]))
    b = (np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 1.0]]), np.array([1, 2]))
    cloud, labels = enhanced_mix3d(a, b, AugmentConfig(), np.random.default_rng(0))
    yaw, shift = _replay_mix_draws(0)
    moved = rotate_yaw(b[0], yaw)
    moved[:, 0] += shift
    assert np.array_equal(cloud, np.concatenate([a[0], moved]))
    assert np.array_equal(labels, [3, 1, 2])


def test_mix3d_counts_and_scene_a_untouched():
    rng = np.random.default_rng(1)
    a_cloud = np.random.default_rng(2).normal(size=(50, 3))
    b_cloud = np.random.default_rng(3).normal(size=(70, 3))
    a = (a_cloud.copy(), np.zeros(50, dtype=int))
    b = (b_cloud, np.ones(70, dtype=int))
    cloud, labels = enhanced_mix3d(a, b, AugmentConfig(), rng)
    assert cloud.shape[0] == 120
    assert np.array_equal(cloud[:50], a_cloud)
    assert np.array_equal(labels, [0] * 50 + [1] * 70)


@pytest.mark.parametrize("side", ["a", "b"])
def test_mix3d_and_rotation_reject_what_check_cloud_rejects(side):
    good = np.random.default_rng(5).uniform(1.0, 20.0, size=(3, 3))
    nan = good.copy()
    nan[2, 1] = np.nan
    labels = np.zeros(3, dtype=np.int64)
    for bad, message in ((np.ones((3, 4)), r"^expected \(N, 3\) cloud, got shape \(3, 4\)$"),
                         (nan, "^non-finite coordinates at point index 2$")):
        scenes = {"a": (good, labels), "b": (good, labels), side: (bad, labels)}
        with pytest.raises(ValueError, match=message):
            enhanced_mix3d(scenes["a"], scenes["b"], AugmentConfig(), np.random.default_rng(0))
        with pytest.raises(ValueError, match=message):
            rotate_yaw(bad, 0.5)


@pytest.mark.parametrize("yaw", [math.nan, math.inf, -math.inf])
def test_rotation_rejects_a_non_finite_yaw(yaw):
    # raised before any arithmetic, so np.cos warns of nothing
    with np.errstate(all="raise"), pytest.raises(ValueError,
                                                 match=f"^yaw must be finite, got {yaw}$"):
        rotate_yaw(np.array([[1.0, 2.0, 3.0]]), yaw)


def test_rotation_maps_azimuth_additively():
    point = np.array([[1.0, 0.0, 0.5]])
    rotated = rotate_yaw(point, math.pi / 2.0)
    assert np.allclose(rotated, [[0.0, 1.0, 0.5]], atol=1e-12)
    cloud, _ = enhanced_mix3d(
        (np.zeros((0, 3)), np.zeros(0, dtype=int)),
        (point, np.array([0])), AugmentConfig(), np.random.default_rng(4))
    yaw, shift = _replay_mix_draws(4)
    cloud[:, 0] -= shift
    theta, _, _ = spherical_of_cloud(cloud)
    assert theta[0] == pytest.approx(yaw, abs=1e-12)  # the point's azimuth was 0
    assert cloud[0, 2] == 0.5


def test_pipeline_prob_zero_is_identity():
    cloud, labels = _wall_scan()
    cfg = AugmentConfig(apply_prob=0.0)
    rng = np.random.default_rng(5)
    out_cloud, out_labels = augment_pipeline((cloud, labels), SIM64, cfg, rng, (cloud, labels))
    assert np.array_equal(out_cloud, cloud)
    assert np.array_equal(out_labels, labels)


def test_pipeline_deterministic_given_seed():
    cloud, labels = _wall_scan()
    cfg = AugmentConfig(apply_prob=1.0)
    outs = []
    for _ in range(2):
        rng = np.random.default_rng(99)
        outs.append(augment_pipeline((cloud, labels), SIM64, cfg, rng, (cloud, labels)))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][1], outs[1][1])


def test_pipeline_fires_each_augmentation_half_the_time():
    cloud, labels = _wall_scan()
    cfg = AugmentConfig(apply_prob=0.5)
    rng = np.random.default_rng(123)
    # the partner's points carry a label of their own, so the output shows
    # whether it was mixed in and how many of the scan's own points remain
    tag = labels.max() + 1
    partner = (cloud, np.full_like(labels, tag))
    mixes = 0
    drops = 0
    for _ in range(1000):
        _, out_labels = augment_pipeline((cloud, labels), SIM64, cfg, rng, partner)
        mixes += bool(np.any(out_labels == tag))
        drops += int(np.sum(out_labels != tag)) < cloud.shape[0]
    assert abs(mixes - 500) <= 50   # binomial 3-sigma band
    assert abs(drops - 500) <= 50


def test_random_keep_set_fractions():
    cfg = AugmentConfig()
    rng = np.random.default_rng(7)
    sizes = {random_keep_set(SIM64, cfg, rng).size for _ in range(50)}
    assert sizes == {32, 48}


def test_augment_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(apply_prob=1.5)
    # the ranges are fixed: only apply_prob is settable
    cfg = AugmentConfig()
    assert cfg.mix_translation_max == 20.0
    assert cfg.mix_rotation == (0.0, 2.0 * np.pi)
    assert cfg.keep_fractions == (0.5, 0.75)
    for field in ("mix_translation_max", "mix_rotation", "keep_fractions"):
        with pytest.raises(TypeError):
            AugmentConfig(**{field: getattr(cfg, field)})
    with pytest.raises(TypeError):
        AugmentConfig(0.5, 20.0)
