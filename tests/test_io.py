import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddfe import io as dio
from ddfe import nn
from ddfe.augment import AugmentConfig, beam_sample, enhanced_mix3d, rotate_yaw
from ddfe.beams import beam_profile, density_for_cloud, gaussian_kernel, point_density
from ddfe.embedding import (
    EmbeddingConfig,
    EmbeddingParams,
    Model,
    TrainConfig,
    binned_voxel_features,
    encode_scene,
    evaluate,
    train,
)
from ddfe.sensors import ProjectionParams, SensorConfig, SphericalCoords, spherical_of_cloud
from ddfe.simulate import make_dataset
from ddfe.stats import DensityReservoir
from ddfe.voxels import majority_label, voxelize

SIM = SensorConfig("sim16", 128, 16, -20.0, 4.0)
PP = ProjectionParams()


def test_scan_round_trip_bitwise(tmp_path):
    # dyadic values survive the float32 narrowing exactly
    cloud = np.array([[1.5, -0.25, 3.0], [0.0, 2.0, -8.5], [100.125, 0.5, 7.75]])
    path = tmp_path / "scan.bin"
    dio.write_scan(cloud, path)
    assert path.stat().st_size == 3 * 16
    back = dio.read_scan(path)
    assert np.array_equal(back, cloud)


def test_empty_scan_file(tmp_path):
    path = tmp_path / "empty.bin"
    dio.write_scan(np.zeros((0, 3)), path)
    assert dio.read_scan(path).shape == (0, 3)


def test_truncated_scan_names_offset(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 17)
    with pytest.raises(ValueError, match="truncated record at offset 16"):
        dio.read_scan(path)


def test_signalling_nan_is_named_without_a_cast_warning(tmp_path):
    snan = b"\x00\x00\x81\x7f"  # float32 0x7f810000; widening it to float64 warns
    path = tmp_path / "snan.bin"
    path.write_bytes(b"\x00" * 24 + snan + b"\x00" * 4)  # point 1's z
    with pytest.raises(ValueError, match="non-finite coordinates at point index 1$"):
        dio.read_scan(path)


def test_write_scan_rejects_coordinates_beyond_float32(tmp_path):
    top = float(np.finfo(np.float32).max)
    path = tmp_path / "top.bin"
    dio.write_scan(np.array([[top, -top, 1.0]]), path)
    assert np.array_equal(dio.read_scan(path), [[top, -top, 1.0]])
    for value in (1e39, -1e39):
        path = tmp_path / "over.bin"
        with pytest.raises(ValueError, match="beyond float32 range at point index 1$"):
            dio.write_scan(np.array([[0.0, 0.0, 1.0], [2.0, value, 1.0]]), path)
        assert not path.exists()


def test_write_density_rejects_values_beyond_float32(tmp_path):
    top = float(np.finfo(np.float32).max)
    path = tmp_path / "top.f32"
    dio.write_density(np.array([[top, 1.0, 2.0, 3.0]]), path)
    assert np.array_equal(dio.read_density(path), [[top, 1.0, 2.0, 3.0]])
    for value in (1e39, -1e39):
        path = tmp_path / "over.f32"
        with pytest.raises(ValueError, match="density beyond float32 range at row 1$"):
            dio.write_density(np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, value]]), path)
        assert not path.exists()


@pytest.mark.parametrize("writer", [dio.write_density, dio.write_density_csv])
def test_density_writers_reject_what_their_readers_reject(tmp_path, writer):
    path = tmp_path / "d.out"
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^non-finite density at row 1$"):
            writer(np.array([[1.0, 2.0, 3.0, 4.0], [1.0, value, 3.0, 4.0]]), path)
        assert not path.exists()
    for shape in ((2, 3), (2, 5), (8,), (1, 2, 4)):
        with pytest.raises(ValueError, match=re.escape(f"expected (N, 4) densities, got shape {shape}")):
            writer(np.ones(shape), path)
        assert not path.exists()


def test_intensity_discarded_and_written_as_zero(tmp_path):
    path = tmp_path / "scan.bin"
    records = np.array([[1.0, 2.0, 3.0, 0.73]], dtype="<f4")
    path.write_bytes(records.tobytes())
    assert np.array_equal(dio.read_scan(path), [[1.0, 2.0, 3.0]])
    dio.write_scan(np.array([[1.0, 2.0, 3.0]]), path)
    assert np.frombuffer(path.read_bytes(), dtype="<f4")[3] == 0.0


def test_label_low_16_bits(tmp_path):
    path = tmp_path / "x.label"
    path.write_bytes(np.array([0x00010002], dtype="<u4").tobytes())
    assert dio.read_labels(path, 1)[0] == 2


def test_label_round_trip(tmp_path):
    path = tmp_path / "x.label"
    labels = np.arange(10)
    dio.write_labels(labels, path)
    assert np.array_equal(dio.read_labels(path, 10), labels)


def test_label_count_mismatch_names_both_counts(tmp_path):
    path = tmp_path / "x.label"
    dio.write_labels(np.arange(3), path)
    with pytest.raises(ValueError, match="3.*5"):
        dio.read_labels(path, 5)


def test_label_truncated_and_range(tmp_path):
    path = tmp_path / "x.label"
    path.write_bytes(b"\x00" * 6)
    with pytest.raises(ValueError, match="offset 4"):
        dio.read_labels(path, 1)
    with pytest.raises(ValueError):
        dio.write_labels(np.array([70000]), path)


def test_density_round_trip(tmp_path):
    values = np.array([[0.5, 0.25, 0.125, 1.0], [2.0, 0.0, 0.75, 3.5]])
    path = tmp_path / "d.f32"
    dio.write_density(values, path)
    assert path.stat().st_size == 2 * 16
    assert np.array_equal(dio.read_density(path), values)
    with pytest.raises(ValueError, match="offset"):
        (tmp_path / "bad.f32").write_bytes(b"\x00" * 15)
        dio.read_density(tmp_path / "bad.f32")
    (tmp_path / "nan.f32").write_bytes(np.array([1, 2, 3, 4, 5, np.nan, 7, 8], "<f4").tobytes())
    with pytest.raises(ValueError, match=r"non-finite density at offset 20 \(row 1\)"):
        dio.read_density(tmp_path / "nan.f32")


def test_density_csv_round_trip(tmp_path):
    values = np.array([[0.1, 0.2, 0.3, 0.4]])
    path = tmp_path / "d.csv"
    dio.write_density_csv(values, path)
    text = path.read_text()
    assert text.splitlines()[0] == "d10,d30,d50,d70"
    assert np.allclose(dio.read_density_csv(path), values, rtol=0, atol=0)


def test_density_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,c,d\n1,2,3,4\n")
    with pytest.raises(ValueError, match="line 1"):
        dio.read_density_csv(path)
    path.write_text("d10,d30,d50,d70\n1,2,3\n")
    with pytest.raises(ValueError, match="line 2"):
        dio.read_density_csv(path)
    path.write_text("d10,d30,d50,d70\n1,2,3,4\n1,x,3,4\n")
    with pytest.raises(ValueError, match="line 3: expected 4 finite values, got '1,x,3,4'"):
        dio.read_density_csv(path)
    for value in ("nan", "inf", "-inf"):
        path.write_text(f"d10,d30,d50,d70\n\n1,2,{value},4\n")
        with pytest.raises(ValueError, match=f"line 3: .* got '1,2,{value},4'"):
            dio.read_density_csv(path)
    path.write_bytes(b"d10,d30,d50,d70\n1,2,3,\xb4\n")
    with pytest.raises(ValueError, match="non-ASCII byte at offset 22"):
        dio.read_density_csv(path)


def test_checkpoint_round_trip(tmp_path):
    tensors = {
        "layer.w": np.random.default_rng(0).normal(size=(4, 16)),
        "layer.b": np.zeros(16),
        "epoch": np.float64(17.0),
    }
    path = tmp_path / "m.ckpt"
    dio.save_checkpoint(tensors, path)
    back = dio.load_checkpoint(path)
    assert list(back) == list(tensors)
    for name in tensors:
        assert np.array_equal(back[name], tensors[name])
        assert back[name].shape == np.asarray(tensors[name]).shape


def test_checkpoint_header_is_ascii(tmp_path):
    path = tmp_path / "m.ckpt"
    dio.save_checkpoint({"a.w": np.ones((2, 2))}, path)
    raw = path.read_bytes()
    header = raw.split(b"\n")[:2]
    assert header[0] == b"ddfe-checkpoint 1"
    assert header[1] == b"a.w 2 2"


def test_checkpoint_rejects_malformed(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"not a checkpoint\n")
    with pytest.raises(ValueError, match="not a checkpoint"):
        dio.load_checkpoint(path)

    dio.save_checkpoint({"a": np.ones(4)}, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])  # drop half the payload
    with pytest.raises(ValueError, match="truncated checkpoint payload"):
        dio.load_checkpoint(path)
    path.write_bytes(raw + b"xx")
    with pytest.raises(ValueError, match="trailing bytes"):
        dio.load_checkpoint(path)

    with pytest.raises(ValueError, match="whitespace"):
        dio.save_checkpoint({"bad name": np.ones(1)}, path)


@pytest.mark.parametrize("header,fragment", [
    (b"ddfe-checkpoint x\n", "tensor count must be a non-negative integer, got 'x'"),
    (b"ddfe-checkpoint 2\na 4\nb.w 2 a\n", r"tensor 1 \('b.w'\): dim 1 must be .*, got 'a'"),
    (b"ddfe-checkpoint 1\nw -3\n", r"tensor 0 \('w'\): dim 0 must be .*, got '-3'"),
    (b"ddfe-checkpoint 1\n\xffa 2\n", r"tensor 0: non-ASCII byte in header line at offset 18"),
    (b"ddfe-checkpoint 1\nw 0 99999999999999999999\n", r"tensor 'w' at offset 43: "),
    (b"ddfe-checkpoint 2\na 1\na 1\n", r"tensor 1: duplicate name 'a'"),
])
def test_checkpoint_header_errors_name_tensor_and_field(tmp_path, header, fragment):
    path = tmp_path / "m.ckpt"
    path.write_bytes(header + np.ones(4, dtype="<f8").tobytes())
    with pytest.raises(ValueError, match=fragment):
        dio.load_checkpoint(path)


def test_checkpoint_little_endian_on_disk(tmp_path):
    path = tmp_path / "m.ckpt"
    dio.save_checkpoint({"v": np.array([1.0])}, path)
    payload = path.read_bytes().split(b"\n", 2)[2]
    assert payload == np.array([1.0], dtype="<f8").tobytes()


# --- readers under fuzzing --------------------------------------------------
#
# Every reader either returns well-formed data or raises a ValueError that
# names where the problem is.  Inputs are arbitrary bytes, or arbitrary bytes
# behind the format's own prefix so the fuzzing reaches past the first check.

_POSITION = r"(offset|line|tensor|index) \d+"
_TYPES = {"a": int, "b": float, "c": str}


def _well_formed_cloud(cloud):
    assert cloud.dtype == np.float64 and cloud.ndim == 2 and cloud.shape[1] == 3
    assert np.isfinite(cloud).all()


def _well_formed_labels(labels):
    assert labels.dtype == np.int64 and labels.shape == (3,)
    assert labels.min() >= 0 and labels.max() < dio.LABEL_LIMIT


def _well_formed_density(values):
    assert values.dtype == np.float64 and values.ndim == 2 and values.shape[1] == 4
    assert np.isfinite(values).all()


def _well_formed_tensors(tensors):
    assert all(isinstance(v, np.ndarray) and v.dtype == np.float64
               for v in tensors.values())


def _well_formed_fields(fields):
    assert all(isinstance(v, _TYPES[k]) for k, v in fields.items())


_READERS = {
    "read_scan": (dio.read_scan, _well_formed_cloud, b""),
    "read_labels": (lambda p: dio.read_labels(p, 3), _well_formed_labels, b""),
    "read_density": (dio.read_density, _well_formed_density, b""),
    "read_density_csv": (dio.read_density_csv, _well_formed_density,
                         b"d10,d30,d50,d70\n"),
    "load_checkpoint": (dio.load_checkpoint, _well_formed_tensors, b"ddfe-checkpoint "),
    "parse_key_values": (
        lambda p: dio.parse_key_values(p.read_bytes().decode("latin-1"), _TYPES),
        _well_formed_fields, b"a = "),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_readers_return_well_formed_data_or_name_the_position(
        reader, data, tmp_path_factory):
    read, well_formed, prefix = _READERS[reader]
    body = data.draw(st.one_of(
        st.binary(max_size=48),
        st.binary(max_size=48).map(lambda tail: prefix + tail),
        st.lists(st.sampled_from([b"1", b"2", b" ", b",", b"\n", b"=", b"a", b"b",
                                  b"nan", b"-", b".", b"\xff", b"\x00" * 4]),
                 max_size=16).map(lambda parts: prefix + b"".join(parts)),
        # little-endian float32 words: NaN, inf, 1.0
        st.lists(st.sampled_from([b"\x00\x00\xc0\x7f", b"\x00\x00\x80\x7f",
                                  b"\x00\x00\x80\x3f"]),
                 max_size=12).map(b"".join),
    ))
    path = tmp_path_factory.getbasetemp() / f"fuzz_{reader}"
    path.write_bytes(body)
    try:
        result = read(path)
    except UnicodeDecodeError:
        pytest.fail(f"{reader} leaked a UnicodeDecodeError on {body!r}")
    except ValueError as exc:
        assert re.search(_POSITION, str(exc)), f"{reader}: {exc} ({body!r})"
    else:
        well_formed(result)


# --- one gate for clouds and labels -----------------------------------------

_PROFILE = beam_profile(SIM, PP)
_CONFIG = EmbeddingConfig(num_classes=4)
_MODEL = Model(EmbeddingParams(_CONFIG, np.random.default_rng(0)), None)


def _read_written_scan(cloud, tmp_dir):
    records = np.zeros((cloud.shape[0], 4), dtype="<f4")
    records[:, :3] = cloud
    (tmp_dir / "bad.bin").write_bytes(records.tobytes())
    dio.read_scan(tmp_dir / "bad.bin")


_CLOUD_ENTRIES = {
    "read_scan": _read_written_scan,
    "write_scan": lambda cloud, tmp_dir: dio.write_scan(cloud, tmp_dir / "out.bin"),
    "spherical_of_cloud": lambda cloud, _: spherical_of_cloud(cloud),
    "density_for_cloud": lambda cloud, _: density_for_cloud(_PROFILE, cloud, PP),
    "voxelize": lambda cloud, _: voxelize(cloud, 0.2),
    "encode_scene": lambda cloud, _: encode_scene(cloud, _PROFILE, PP, 0.2),
    "beam_sample": lambda cloud, _: beam_sample(
        cloud, np.zeros(cloud.shape[0], dtype=np.int64), SIM, np.arange(8)),
    "enhanced_mix3d": lambda cloud, _: enhanced_mix3d(
        (np.zeros((0, 3)), np.zeros(0, dtype=np.int64)),
        (cloud, np.zeros(cloud.shape[0], dtype=np.int64)), AugmentConfig(), np.random.default_rng(0)),
}

# entry -> (its class count K, call with (cloud, labels, tmp_dir))
_LABEL_ENTRIES = {
    "train": (4, lambda cloud, labels, _: train(
        [(cloud, labels)], SIM, TrainConfig(epochs=1, num_classes=4))),
    "evaluate": (4, lambda cloud, labels, _: evaluate([(cloud, labels)], _MODEL, SIM)),
    "binned_voxel_features": (4, lambda cloud, labels, _: binned_voxel_features(
        [(cloud, labels)], _MODEL, SIM)),
    "majority_label": (dio.LABEL_LIMIT,
                       lambda cloud, labels, _: majority_label(voxelize(cloud, 0.2), labels)),
    "weighted_cross_entropy": (3, lambda cloud, labels, _: nn.weighted_cross_entropy(
        np.zeros((len(cloud), 3)), labels, np.ones(3))),
    "lovasz_softmax": (3, lambda cloud, labels, _: nn.lovasz_softmax(
        np.full((len(cloud), 3), 1.0 / 3.0), labels)),
    "write_labels": (dio.LABEL_LIMIT, lambda cloud, labels, tmp_dir: dio.write_labels(
        labels, tmp_dir / "out.label")),
    "beam_sample": (dio.LABEL_LIMIT, lambda cloud, labels, _: beam_sample(
        cloud, labels, SIM, np.arange(8))),
    "enhanced_mix3d": (dio.LABEL_LIMIT, lambda cloud, labels, _: enhanced_mix3d(
        (cloud, labels), (cloud, np.zeros(len(cloud), dtype=np.int64)),
        AugmentConfig(), np.random.default_rng(0))),
}


@pytest.mark.parametrize("entry", sorted(_CLOUD_ENTRIES))
@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 12), data=st.data())
def test_non_finite_point_is_named_at_every_cloud_entry(entry, n, data, tmp_path_factory):
    i = data.draw(st.integers(0, n - 1))
    column = data.draw(st.integers(0, 2))
    value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    cloud = np.random.default_rng(n).uniform(1.0, 20.0, size=(n, 3))
    cloud[i, column] = value
    with pytest.raises(ValueError, match=rf"point index {i}$"):
        _CLOUD_ENTRIES[entry](cloud, tmp_path_factory.getbasetemp())


@pytest.mark.parametrize("entry", sorted(_LABEL_ENTRIES))
@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_out_of_range_label_is_named_at_every_label_entry(entry, n, data, tmp_path_factory):
    num_classes, call = _LABEL_ENTRIES[entry]
    i = data.draw(st.integers(0, n - 1))
    excess = data.draw(st.integers(0, 3))
    labels = np.zeros(n, dtype=np.int64)
    labels[i] = -1 - excess if data.draw(st.booleans()) else num_classes + excess
    cloud = np.random.default_rng(n).uniform(1.0, 20.0, size=(n, 3))
    with pytest.raises(ValueError, match=rf"invalid label {labels[i]} at index {i};"):
        call(cloud, labels, tmp_path_factory.getbasetemp())


@pytest.mark.parametrize("entry", ["beam_sample", "enhanced_mix3d"])
def test_augment_rejects_label_count_mismatch(entry):
    cloud = np.random.default_rng(0).uniform(1.0, 20.0, size=(5, 3))
    with pytest.raises(ValueError, match="label count 4 does not match point count 5"):
        _LABEL_ENTRIES[entry][1](cloud, np.zeros(4, dtype=np.int64), None)


def test_check_labels_rejects_shape_count_and_dtype():
    with pytest.raises(ValueError, match="1-D"):
        dio.check_labels(np.zeros((2, 1), dtype=int), 2, 4)
    with pytest.raises(ValueError, match="label count 2 does not match point count 3"):
        dio.check_labels(np.zeros(2, dtype=int), 3, 4)
    with pytest.raises(ValueError, match="integer"):
        dio.check_labels(np.zeros(2), 2, 4)
    assert dio.check_labels([0, 3], 2, 4).dtype == np.int64


# site -> (its field, call with a value, a finite value outside the field's range or None)
_REAL_SITES = {
    "voxelize": ("voxel_size", lambda v: voxelize(np.zeros((1, 3)), v), 0.0),
    "EmbeddingConfig": ("voxel_size", lambda v: EmbeddingConfig(4, v), -0.2),
    "TrainConfig.base_lr": ("base_lr", lambda v: TrainConfig(base_lr=v), 0.0),
    "TrainConfig.lr_decay": ("lr_decay", lambda v: TrainConfig(lr_decay=v), -0.5),
    "gaussian_kernel": ("sigma", gaussian_kernel, -1.0),
    "SphericalCoords.range": ("range", lambda v: SphericalCoords(0.0, 0.0, v), 0.0),
    "SphericalCoords.azimuth": ("azimuth", lambda v: SphericalCoords(v, 0.0, 1.0), None),
    "SphericalCoords.elevation": ("elevation", lambda v: SphericalCoords(0.0, v, 1.0), None),
    "rotate_yaw": ("yaw", lambda v: rotate_yaw(np.zeros((1, 3)), v), None),
    "SensorConfig.fov_min_deg": ("fov_min_deg", lambda v: SensorConfig("s", 64, 64, v, 10), -91),
    "SensorConfig.fov_max_deg": ("fov_max_deg", lambda v: SensorConfig("s", 64, 64, -10, v), 91),
    "AugmentConfig": ("apply_prob", lambda v: AugmentConfig(apply_prob=v), 1.5),
    "DensityReservoir.percentile": ("percentile", lambda v: DensityReservoir().percentile(v), -0.5),
}
_COUNT_SITES = {
    "SensorConfig.h_beams": ("h_beams", lambda v: SensorConfig("s", v, 64, -10.0, 10.0), 0),
    "SensorConfig.v_beams": ("v_beams", lambda v: SensorConfig("s", 64, v, -10.0, 10.0), 0),
    "DensityReservoir.seed": ("seed", lambda v: DensityReservoir(seed=v), -1),
    "make_dataset.n_scenes": ("n_scenes", lambda v: make_dataset(v, SIM, 0), 0),
    "make_dataset.seed": ("seed", lambda v: make_dataset(1, SIM, v), -1),
}
_SCALAR_SITES = {**_REAL_SITES, **_COUNT_SITES}
_NOT_A_FINITE_REAL = ("a", None, True, math.nan, math.inf, -math.inf)


# An int past float range is not a finite real; a count site takes it as the
# integer it is (make_dataset would try to build that many scenes).
@pytest.mark.parametrize("site,value", [
    (site, value) for site, (_, _, outside) in _SCALAR_SITES.items()
    for value in _NOT_A_FINITE_REAL + (() if outside is None else (outside,))] + [
    pytest.param(site, sign * 10**400, id=f"{site}-{'-' * (sign < 0)}10**400")
    for site in _REAL_SITES for sign in (1, -1)])
def test_every_scalar_setting_raises_a_value_error_naming_its_field(site, value):
    field, call, _ = _SCALAR_SITES[site]
    with pytest.raises(ValueError, match=f"^{field} must be "):
        call(value)


# str() of an int over 4,300 digits raises, so a message shows such an int by its size.
@pytest.mark.parametrize("field,call", [
    ("voxel_size", lambda v: voxelize(np.zeros((1, 3)), v)),
    ("num_classes", lambda v: EmbeddingConfig(v, 0.2)),
])
@pytest.mark.parametrize("sign,size", [(1, "an"), (-1, "a negative")])
def test_an_int_of_thousands_of_digits_is_shown_by_its_size(field, call, sign, size):
    message = f"^{field} must be .+, got {size} int of about 5000 digits$"
    with pytest.raises(ValueError, match=message):
        call(sign * 10**5000)


def test_an_int_setting_computes_as_its_float():
    profile = beam_profile(SIM, PP)
    for call in (lambda v: rotate_yaw(np.ones((2, 3)), v),
                 lambda v: point_density(profile, SphericalCoords(0.0, 0.0, v), PP)):
        assert call(2**70).tobytes() == call(float(2**70)).tobytes()


def _float_is_finite(value) -> bool:
    """Whether float(value) is finite; an int too large for a float is not."""
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def _accepts(gate, value) -> bool:
    """Whether gate("x", value) returns; a ValueError must name the field."""
    try:
        gate("x", value)
    except ValueError as exc:
        assert str(exc).startswith("x must be finite")
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(), st.integers(), st.booleans(), st.text(), st.none()))
@example(10**400)
@example(-10**400)
@example(2**1024 - 2**970 - 1)  # the largest int float() rounds to a finite float
@example(2**1024 - 2**970)
def test_real_gates_accept_exactly_the_finite_reals_in_range(value):
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    finite = real and _float_is_finite(value)
    assert _accepts(dio.check_real, value) == finite
    assert _accepts(lambda name, v: dio.check_real(name, v, -90, 90), value) == (
        finite and -90 <= value <= 90)
    assert _accepts(dio.check_positive, value) == (finite and value > 0)
