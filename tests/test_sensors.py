import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ddfe.sensors import (
    PRESETS,
    ProjectionParams,
    SensorConfig,
    SphericalCoords,
    beam_inclinations,
    get_preset,
    load_sensor_config,
    parse_sensor_config,
    project_cols,
    project_rows,
    resolve_sensor,
    spherical_of_cloud,
)

TABLE = {
    "waymo": (2560, 64, -17.6, 2.4),
    "semantickitti": (2048, 64, -24.8, 2.0),
    "nuscenes": (1080, 32, -30.0, 10.0),
    "pandaset": (1800, 64, -25.0, 15.0),
    "semanticposs": (1800, 40, -16.0, 7.0),
}


def test_presets_match_sensor_table():
    assert set(PRESETS) == set(TABLE)
    for name, (h, v, lo, hi) in TABLE.items():
        cfg = get_preset(name)
        assert (cfg.h_beams, cfg.v_beams, cfg.fov_min_deg, cfg.fov_max_deg) == (h, v, lo, hi)


def test_config_invariants():
    with pytest.raises(ValueError, match="^h_beams must be >= 1, got 0$"):
        SensorConfig("bad", 0, 64, -10.0, 10.0)
    with pytest.raises(ValueError, match="^v_beams must be >= 1, got 0$"):
        SensorConfig("bad", 64, 0, -10.0, 10.0)
    for h_beams, v_beams, message in ((2.5, 3, "h_beams must be an integer, got 2.5"),
                                      (True, 3, "h_beams must be an integer, got True"),
                                      (64, 3.0, "v_beams must be an integer, got 3.0")):
        with pytest.raises(ValueError, match=message):
            SensorConfig("bad", h_beams, v_beams, -10.0, 10.0)
    assert SensorConfig("ok", np.int64(64), 3, -10.0, 10.0).h_beams == 64
    with pytest.raises(ValueError):
        SensorConfig("bad", 64, 64, 10.0, -10.0)
    with pytest.raises(KeyError):
        get_preset("velodyne9000")


@pytest.mark.parametrize("bound", [-np.inf, np.inf, np.nan, -1e308, 1e308, -90.5, 90.5])
@pytest.mark.parametrize("field", ["fov_min_deg", "fov_max_deg"])
def test_fov_bounds_must_be_finite_angles(tmp_path, field, bound):
    fov = {"fov_min_deg": -10.0, "fov_max_deg": 10.0, field: bound}
    message = re.escape(f"{field} must be finite and in [-90, 90], got {bound}")
    with pytest.raises(ValueError, match=message):
        SensorConfig("bad", 64, 64, fov["fov_min_deg"], fov["fov_max_deg"])
    path = tmp_path / "bad.cfg"
    path.write_text("name = bad\nh_beams = 64\nv_beams = 64\n"
                    + "".join(f"{k} = {v!r}\n" for k, v in fov.items()))
    with pytest.raises(ValueError, match=message):
        load_sensor_config(path)


_CLOSER = "degrees apart, closer than the 1e-09 degree minimum"


# each beam-grid rule at its limit and just past it; message None: accepted
@pytest.mark.parametrize("h_beams,v_beams,fov,message", [
    (5120, 64, (-25.0, 3.0), None),
    (5121, 64, (-25.0, 3.0),
     "has 5121 horizontal beams, more than the projection image's 5120 columns"),
    (512, 512, (-25.0, 3.0), None),
    (512, 513, (-25.0, 3.0), "has 513 vertical beams, more than the projection image's 512 rows"),
    (512, 2, (0.0, 2e-9), None),
    (512, 2, (0.0, 1.9999999999999997e-09), f"has vertical beams 9.999999999999999e-10 {_CLOSER}"),
    (512, 128, (0.0, 5e-324), f"has vertical beams 0.0 {_CLOSER}"),
    (512, 1, (0.0, 5e-324), None),
])
def test_beam_grid_rules(tmp_path, h_beams, v_beams, fov, message):
    path = tmp_path / "grid.cfg"
    path.write_text(f"name = grid\nh_beams = {h_beams}\nv_beams = {v_beams}\n"
                    f"fov_min_deg = {fov[0]!r}\nfov_max_deg = {fov[1]!r}\n")
    if message is None:
        assert load_sensor_config(path) == SensorConfig("grid", h_beams, v_beams, *fov)
        return
    message = re.escape(f"sensor 'grid' {message}")
    with pytest.raises(ValueError, match=message):
        SensorConfig("grid", h_beams, v_beams, *fov)
    with pytest.raises(ValueError, match=message):
        load_sensor_config(path)


def test_fov_bounds_may_reach_the_poles():
    _, elevation_deg = beam_inclinations(SensorConfig("full", 64, 64, -90.0, 90.0))
    assert np.isfinite(elevation_deg).all() and elevation_deg[-1] == 90.0


def test_beam_inclinations_semantickitti():
    azim, elev = beam_inclinations(get_preset("semantickitti"))
    assert azim.shape == (2048,)
    assert elev.shape == (64,)
    assert elev[0] == pytest.approx(-24.38125, abs=1e-12)
    assert elev[-1] == pytest.approx(2.0, abs=1e-12)
    assert azim[0] == pytest.approx(2.0 * math.pi / 2048, rel=1e-12)
    assert np.all(np.diff(azim) > 0) and np.all(np.diff(elev) > 0)


def test_beam_inclinations_nuscenes_span():
    _, elev = beam_inclinations(get_preset("nuscenes"))
    assert elev.shape == (32,)
    assert elev[0] > -30.0
    assert elev[-1] == pytest.approx(10.0, abs=1e-12)
    spacings = np.diff(elev)
    assert np.allclose(spacings, 1.25, atol=1e-12)


def test_beam_inclination_lengths_all_presets():
    for cfg in PRESETS.values():
        azim, elev = beam_inclinations(cfg)
        assert azim.shape == (cfg.h_beams,)
        assert elev.shape == (cfg.v_beams,)


def test_to_spherical_axis_point():
    theta, phi, r = spherical_of_cloud([[1.0, 0.0, 0.0]])
    assert (theta[0], phi[0], r[0]) == (0.0, 0.0, 1.0)


def test_to_spherical_345_triangle():
    theta, phi, r = spherical_of_cloud([[0.0, 3.0, 4.0]])
    assert theta[0] == pytest.approx(math.pi / 2, abs=1e-12)
    assert phi[0] == pytest.approx(math.asin(0.8), abs=1e-12)
    assert r[0] == pytest.approx(5.0, abs=1e-12)


def test_to_spherical_origin_rejected():
    with pytest.raises(ValueError, match=r"origin \(point index 0\)"):
        spherical_of_cloud([[0.0, 0.0, 0.0]])


_COORDINATES = st.one_of(st.floats(-1e150, 1e150), st.floats(-1e-150, 1e-150),
                         st.sampled_from([0.0, -0.0, 5e-324, 1.0, -1.0]))


@settings(max_examples=300, deadline=None)
@given(cloud=hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.just(3)),
                        elements=_COORDINATES),
       fortran=st.booleans())
def test_spherical_range_and_elevation_are_the_norm_formula_bytewise(cloud, fortran):
    # elevation_range_of_cloud sums the squares itself; np.linalg.norm is the reference
    cloud = np.asfortranarray(cloud) if fortran else cloud
    norm = np.linalg.norm(cloud, axis=1)
    assume(np.all(norm > 0.0))
    theta, phi, r = spherical_of_cloud(cloud)
    assert r.tobytes() == norm.tobytes()
    assert phi.tobytes() == np.arcsin(np.clip(cloud[:, 2] / norm, -1.0, 1.0)).tobytes()
    assert theta.tobytes() == (np.arctan2(cloud[:, 1], cloud[:, 0]) % (2 * math.pi)).tobytes()


def test_to_spherical_wraps_azimuth():
    theta, _, _ = spherical_of_cloud([[1.0, -1e-6, 0.0]])
    assert 0.0 <= theta[0] < 2.0 * math.pi
    assert theta[0] > math.pi  # just below 2*pi, not negative


def test_spherical_coords_positive_range():
    with pytest.raises(ValueError):
        SphericalCoords(0.0, 0.0, 0.0)
    at_least = r"range must be finite and in \[2.2250738585072014e-308, inf\]"
    with pytest.raises(ValueError, match=f"^{at_least}, got -1.0$"):
        SphericalCoords(0.0, 0.0, -1.0)
    for args, rule, value in (((math.nan, 0.0, 10.0), "azimuth must be finite", "nan"),
                              ((0.0, -math.inf, 10.0), "elevation must be finite", "-inf"),
                              ((0.0, 0.0, math.inf), at_least, "inf"),
                              ((0.0, 0.0, math.nan), at_least, "nan")):
        with pytest.raises(ValueError, match=f"^{rule}, got {value}$"):
            SphericalCoords(*args)


def test_projection_image_is_fixed():
    params = ProjectionParams()
    assert (params.height, params.width) == (512, 5120)
    assert (params.proj_fov_min_deg, params.proj_fov_max_deg) == (-30.0, 15.0)
    assert params.proj_fov_min_rad == math.radians(-30.0)
    assert params.proj_fov_max_rad == math.radians(15.0)
    for field in ("height", "width", "proj_fov_min_deg", "proj_fov_max_deg"):
        with pytest.raises(TypeError):
            ProjectionParams(**{field: getattr(params, field)})
    with pytest.raises(TypeError):
        ProjectionParams(512)
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.width = 1024


def test_project_midpoints():
    params = ProjectionParams()
    assert int(project_cols(math.pi, params)) == 2560
    assert int(project_rows(math.radians(-7.5), params)) == 256


def test_project_lower_bounds():
    params = ProjectionParams()
    assert int(project_cols(0.0, params)) == 0
    assert int(project_rows(math.radians(-30.0), params)) == 0


def test_project_upper_edge_wraps_and_clamps():
    params = ProjectionParams()
    theta = 2.0 * math.pi * (1.0 - 1e-9)
    assert int(project_cols(theta, params)) == 5119
    assert int(project_rows(math.radians(15.0), params)) == 511
    # a full turn maps to column 0, not W
    assert int(project_cols(2.0 * math.pi, params)) == 0


def test_project_clamps_out_of_fov_elevations():
    params = ProjectionParams()
    assert int(project_rows(math.radians(-45.0), params)) == 0
    assert int(project_rows(math.radians(30.0), params)) == 511


def test_project_unproject_round_trip_sampled():
    # the angular center of each sampled pixel projects back onto it
    params = ProjectionParams()
    rng = np.random.default_rng(0)
    cols = rng.integers(0, params.width, size=500)
    rows = rng.integers(0, params.height, size=500)
    theta = (cols + 0.5) / params.width * (2.0 * math.pi)
    lo, hi = params.proj_fov_min_rad, params.proj_fov_max_rad
    phi = lo + (rows + 0.5) / params.height * (hi - lo)
    assert np.array_equal(project_cols(theta, params), cols)
    assert np.array_equal(project_rows(phi, params), rows)


def test_projection_monotonicity():
    params = ProjectionParams()
    thetas = np.sort(np.random.default_rng(1).uniform(0.0, 2.0 * math.pi, 1000))
    cols = project_cols(thetas, params)
    assert np.all(np.diff(cols) >= 0)
    phis = np.sort(np.random.default_rng(2).uniform(
        params.proj_fov_min_rad, params.proj_fov_max_rad, 1000))
    rows = project_rows(phis, params)
    assert np.all(np.diff(rows) >= 0)


# --- config files ----------------------------------------------------------


def test_sensor_config_file_round_trip(tmp_path):
    path = tmp_path / "sim64.cfg"
    path.write_text("name = sim64\nh_beams = 512\nv_beams = 64\n"
                    "fov_min_deg = -25.0\nfov_max_deg = 3.0\n")
    assert load_sensor_config(path) == SensorConfig("sim64", 512, 64, -25.0, 3.0)


def test_sensor_config_parsing_comments_and_order():
    text = """
    # demo sensor
    v_beams = 64
    fov_max_deg = 3.0   # degrees
    h_beams = 512
    name = demo
    fov_min_deg = -25.0
    """
    cfg = parse_sensor_config(text)
    assert cfg == SensorConfig("demo", 512, 64, -25.0, 3.0)


@pytest.mark.parametrize("text,fragment", [
    ("h_beams = 512", "missing keys"),
    ("bogus = 1\nname=x\nh_beams=1\nv_beams=1\nfov_min_deg=0\nfov_max_deg=1", "unknown key"),
    ("name=x\nname=y\nh_beams=1\nv_beams=1\nfov_min_deg=0\nfov_max_deg=1", "duplicate"),
    ("just a line", "key=value"),
    ("name=x\nh_beams=abc\nv_beams=1\nfov_min_deg=0\nfov_max_deg=1", "invalid"),
])
def test_sensor_config_parse_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_sensor_config(text)


def test_resolve_sensor(tmp_path):
    assert resolve_sensor("waymo") is PRESETS["waymo"]
    path = tmp_path / "c.cfg"
    path.write_text("name = c\nh_beams = 8\nv_beams = 4\nfov_min_deg = -5.0\nfov_max_deg = 5.0\n")
    assert resolve_sensor(str(path)).h_beams == 8
    with pytest.raises(ValueError, match="neither a preset"):
        resolve_sensor("no-such-sensor")
