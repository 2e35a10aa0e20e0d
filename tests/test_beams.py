import math
import re
import sys

import numpy as np
import pytest
from conftest import mixed_scan, recorded_pools, set_blas_threads
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ddfe.augment import nearest_beam
from ddfe.beams import (
    DEFAULT_SIGMAS,
    band_center_density,
    beam_profile,
    density_for_cloud,
    gaussian_kernel,
    point_density,
    rasterize_beams,
    smooth_profile,
)
from ddfe.sensors import (
    PRESETS,
    ProjectionParams,
    SensorConfig,
    SphericalCoords,
    beam_inclinations,
    get_preset,
    spherical_of_cloud,
)
from ddfe.parallel import ROW_BLOCK

PP = ProjectionParams()
PROFILES = {name: beam_profile(cfg, PP) for name, cfg in PRESETS.items()}


def test_waymo_rasterization_every_second_column():
    raw_h, raw_v = rasterize_beams(get_preset("waymo"), PP)
    assert raw_h.sum() == 2560
    assert np.all(raw_h[0::2] == 1.0) and np.all(raw_h[1::2] == 0.0)
    assert raw_v.sum() == 64


def test_nuscenes_rasterization_popcounts():
    raw_h, raw_v = rasterize_beams(get_preset("nuscenes"), PP)
    assert raw_h.sum() == 1080
    assert raw_v.sum() == 32


def test_identical_inclinations_or_together():
    # two vertical beams crammed into a sliver of FOV land in one pixel
    cfg = SensorConfig("twins", 4, 2, 0.0, 1e-6)
    _, raw_v = rasterize_beams(cfg, PP)
    assert raw_v.sum() == 1


@pytest.mark.parametrize("config, index, elevation", [
    # 64 beams over [-40, 0]: the 16 below -30 would all land in row 0
    (SensorConfig("low", 512, 64, -40.0, 0.0), 0, "-39.375"),
    (SensorConfig("high", 64, 8, -10.0, 16.0), 7, "16.0"),
    (SensorConfig("just-below", 64, 32, -31.2500001, 8.75), 0, "-30.0000000968"),
])
def test_beam_outside_the_image_band_is_rejected(config, index, elevation):
    with pytest.raises(ValueError, match=(
            rf"vertical beam {index} of sensor '{config.name}' at {elevation}\S* deg "
            r"lies outside the projection image's \[-30.0, 15.0\] deg elevation band")):
        beam_profile(config, PP)


def test_horizontal_beams_beyond_the_image_width_are_rejected():
    assert rasterize_beams(SensorConfig("full", PP.width, 32, -25.0, 3.0), PP)[0].sum() == PP.width
    with pytest.raises(ValueError, match=(
            r"sensor 'wide' has 5121 horizontal beams, more than the projection "
            r"image's 5120 columns")):
        SensorConfig("wide", PP.width + 1, 32, -25.0, 3.0)


def test_beams_on_the_image_band_edges_are_kept():
    # lowest beam at exactly -30.0 and (pandaset) top beam at exactly 15.0
    edge = SensorConfig("edge", 64, 32, -31.25, 8.75)
    assert beam_inclinations(edge)[1][0] == -30.0
    assert rasterize_beams(edge, PP)[1][0] == 1.0
    pandaset = get_preset("pandaset")
    assert beam_inclinations(pandaset)[1][-1] == 15.0
    assert rasterize_beams(pandaset, PP)[1][-1] == 1.0
    for config in PRESETS.values():
        assert rasterize_beams(config, PP)[1].sum() == config.v_beams


def test_raw_vectors_binary():
    for name in ("waymo", "nuscenes", "semanticposs"):
        raw_h, raw_v = rasterize_beams(get_preset(name), PP)
        assert set(np.unique(raw_h)) <= {0.0, 1.0}
        assert set(np.unique(raw_v)) <= {0.0, 1.0}


def test_smooth_zero_vector_stays_zero():
    profile = smooth_profile(np.zeros(512), np.zeros(512))
    assert np.all(profile.smooth_h == 0.0)
    assert np.all(profile.smooth_v == 0.0)


def test_smooth_single_impulse_peak():
    raw = np.zeros(1024)
    raw[500] = 1.0
    profile = smooth_profile(raw, raw.copy())
    for k, sigma in enumerate(DEFAULT_SIGMAS):
        expected_peak = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
        for smoothed in (profile.smooth_h[k], profile.smooth_v[k]):
            assert smoothed.argmax() == 500
            assert smoothed[500] == pytest.approx(expected_peak, rel=1e-4)
            assert np.all(smoothed >= 0.0)


def test_smooth_uniform_comb_reads_beams_per_pixel():
    # interior of a spacing-14 comb: smoothed value ~ 1/14, ripple < 1e-3
    spacing, height = 14, 512
    raw_v = np.zeros(height)
    raw_v[40::spacing] = 1.0
    profile = smooth_profile(np.zeros(1024), raw_v)
    interior = profile.smooth_v[0][90:420]  # sigma = 10
    assert np.max(np.abs(interior * spacing - 1.0)) < 1e-3


def test_smooth_circular_preserves_mass():
    rng = np.random.default_rng(3)
    raw_h = (rng.uniform(size=5120) < 0.3).astype(float)
    profile = smooth_profile(raw_h, np.zeros(512))
    for k in range(len(DEFAULT_SIGMAS)):
        assert profile.smooth_h[k].sum() == pytest.approx(raw_h.sum(), rel=1e-9)


def test_smooth_rejects_bad_sigma():
    with pytest.raises(ValueError):
        gaussian_kernel(0.0)
    with pytest.raises(ValueError):
        gaussian_kernel(-1.0)
    for sigma in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^sigma must be finite and > 0, got {sigma}$"):
            gaussian_kernel(sigma)


def test_a_kernel_radius_is_at_most_the_projection_width():
    # radius ceil(4 sigma) <= 5120; 1e9 would otherwise allocate 59.6 GiB
    for sigma in (1e300, 1e9, 1280.001, sys.float_info.max):
        with pytest.raises(ValueError, match=f"^sigma must be <= 1280, .* got {re.escape(str(sigma))}$"):
            gaussian_kernel(sigma)
    kernel = gaussian_kernel(1280)
    assert kernel.size == 2 * 5120 + 1 and kernel.sum() == pytest.approx(1.0)


def test_a_sigma_below_one_over_float_max_is_a_unit_impulse():
    # t / sigma overflows to inf off center; under the suite's error::RuntimeWarning
    assert gaussian_kernel(1e-320).tolist() == [0.0, 1.0, 0.0]


def test_band_center_density_is_finite_down_to_the_least_range():
    waymo = get_preset("waymo")
    density = band_center_density(PROFILES["waymo"], waymo, PP, sys.float_info.min)
    assert np.isfinite(density).all() and density[0] > 1e307
    with pytest.raises(ValueError, match=r"^range must be finite and in \[2.2250738585072014e-308, "
                                         r"inf\], got 1e-320$"):
        band_center_density(PROFILES["waymo"], waymo, PP, 1e-320)


def test_sigma_support_nesting():
    profile = beam_profile(get_preset("nuscenes"), PP)
    for k in range(len(DEFAULT_SIGMAS) - 1):
        small_v = profile.smooth_v[k] > 0
        large_v = profile.smooth_v[k + 1] > 0
        assert np.all(large_v[small_v])  # superset of the support
    # strictly larger while the axis is not yet saturated
    assert (profile.smooth_v[1] > 0).sum() > (profile.smooth_v[0] > 0).sum()


def test_point_density_halves_when_range_doubles():
    profile = beam_profile(get_preset("semantickitti"), PP)
    rng = np.random.default_rng(7)
    for _ in range(50):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        phi = math.radians(rng.uniform(-24.8, 2.0))
        r = rng.uniform(2.0, 60.0)
        near = point_density(profile, SphericalCoords(theta, phi, r), PP)
        far = point_density(profile, SphericalCoords(theta, phi, 2.0 * r), PP)
        assert np.allclose(far * 2.0, near, rtol=1e-12)


def test_band_center_values_match_beam_rate_analysis():
    # beams-per-pixel estimates: sqrt((Hb/W) * (Vb/band_px)) / r
    nus = get_preset("nuscenes")
    way = get_preset("waymo")
    d_n = band_center_density(beam_profile(nus, PP), nus, PP, 12.0)[0]
    d_w = band_center_density(beam_profile(way, PP), way, PP, 35.0)[0]
    assert d_n == pytest.approx(0.01015, rel=0.02)
    assert d_w == pytest.approx(0.01071, rel=0.02)
    assert d_w == pytest.approx(d_n, rel=0.10)


def test_cross_sensor_density_equivalence():
    way, kit, nus = (get_preset(n) for n in ("waymo", "semantickitti", "nuscenes"))
    d_w = band_center_density(beam_profile(way, PP), way, PP, 35.0)[0]
    d_k = band_center_density(beam_profile(kit, PP), kit, PP, 25.0)[0]
    d_n = band_center_density(beam_profile(nus, PP), nus, PP, 12.0)[0]
    assert 0.8 <= d_w / d_n <= 1.25
    assert 0.75 <= d_k / d_n <= 1.35


def test_density_channel_order_follows_ascending_sigma():
    from ddfe.sensors import project_cols, project_rows

    profile = beam_profile(get_preset("waymo"), PP)
    coords = SphericalCoords(math.pi, math.radians(-7.6), 10.0)
    d = point_density(profile, coords, PP)
    col = int(project_cols(coords.azimuth, PP))
    row = int(project_rows(coords.elevation, PP))
    for k in range(len(DEFAULT_SIGMAS)):
        expected = math.sqrt(profile.smooth_h[k, col] * profile.smooth_v[k, row]) / 10.0
        assert d[k] == pytest.approx(expected, rel=1e-12)


def test_density_for_cloud_empty_and_single():
    profile = PROFILES["semantickitti"]
    empty = density_for_cloud(profile, np.zeros((0, 3)), PP)
    assert empty.shape == (0, 4)
    row = density_for_cloud(profile, np.array([[5.0, 1.0, -1.0]]), PP)
    assert row.shape == (1, 4)
    assert np.all(row >= 0.0) and np.all(np.isfinite(row))


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(PRESETS)),
       cloud=hnp.arrays(np.float64, st.tuples(st.integers(1, 16), st.just(3)),
                        elements=st.floats(-500.0, 500.0, allow_nan=False)))
def test_point_density_is_density_for_cloud_row_bytewise(name, cloud):
    assume(np.all(np.linalg.norm(cloud, axis=1) > 0.0))
    profile = PROFILES[name]
    rows = density_for_cloud(profile, cloud, PP)
    theta, phi, r = spherical_of_cloud(cloud)
    for i in range(len(cloud)):
        single = point_density(profile, SphericalCoords(theta[i], phi[i], r[i]), PP)
        assert single.tobytes() == rows[i].tobytes()


def test_density_for_cloud_permutation_equivariance():
    profile = beam_profile(get_preset("nuscenes"), PP)
    rng = np.random.default_rng(11)
    cloud = rng.uniform(-20.0, 20.0, size=(100, 3)) + np.array([5.0, 0.0, 0.0])
    perm = rng.permutation(100)
    base = density_for_cloud(profile, cloud, PP)
    permuted = density_for_cloud(profile, cloud[perm], PP)
    assert np.array_equal(permuted, base[perm])


def test_density_for_cloud_names_offending_point():
    profile = beam_profile(get_preset("nuscenes"), PP)
    cloud = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="point index 1"):
        density_for_cloud(profile, cloud, PP)


def _spread_cloud(n):
    rng = np.random.default_rng(n)
    return rng.uniform(-40.0, 40.0, size=(n, 3)) + np.array([0.5, 0.0, 0.0])


# Two jobs on the prep path that run in row blocks, as each one's digest.
_ROW_JOBS = {
    "density_for_cloud": lambda cloud: density_for_cloud(
        PROFILES["semantickitti"], cloud, PP).tobytes(),
    "nearest_beam": lambda cloud: nearest_beam(cloud, PRESETS["semantickitti"]).tobytes(),
}


# (rows, blocks): just below and above the block floor, two uneven blocks,
# and a mixed two-scan scene of 13 blocks on two and on eight cores
@pytest.mark.parametrize("rows,blocks,cores", [
    (ROW_BLOCK - 1, 1, 2),
    (ROW_BLOCK + 1, 1, 2),
    (2 * ROW_BLOCK + 1, 2, 2),
    (None, 13, 2),
    (None, 13, 8),
])
@pytest.mark.parametrize("job", sorted(_ROW_JOBS))
def test_row_blocks_are_bitwise_one_block(monkeypatch, job, rows, blocks, cores):
    cloud = mixed_scan() if rows is None else _spread_cloud(rows)
    assert max(1, len(cloud) // ROW_BLOCK) == blocks
    set_blas_threads(monkeypatch, None)
    want = _ROW_JOBS[job](cloud)
    set_blas_threads(monkeypatch, "1")
    pools = recorded_pools(monkeypatch, cores)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # blocks switching often must each write their own rows
    try:
        got = _ROW_JOBS[job](cloud)
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    assert pools == ([min(blocks, cores)] if blocks > 1 else [])


@pytest.mark.parametrize("job", sorted(_ROW_JOBS))
def test_row_blocks_name_the_first_bad_point_of_the_whole_cloud(monkeypatch, job):
    set_blas_threads(monkeypatch, "1")
    recorded_pools(monkeypatch, cores=2)
    cloud = _spread_cloud(3 * ROW_BLOCK)
    last = len(cloud) - 1
    cloud[last - 5] = 0.0
    with pytest.raises(ValueError, match=rf"sensor origin \(point index {last - 5}\)"):
        _ROW_JOBS[job](cloud)
    cloud[7] = 0.0
    with pytest.raises(ValueError, match=r"sensor origin \(point index 7\)"):
        _ROW_JOBS[job](cloud)
    cloud[last, 2] = np.nan  # checked on the whole cloud before any block
    with pytest.raises(ValueError, match=f"non-finite coordinates at point index {last}"):
        _ROW_JOBS[job](cloud)
