import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddfe import io as dio
from ddfe import nn
from ddfe.augment import AugmentConfig, beam_sample, enhanced_mix3d
from ddfe.beams import DEFAULT_SIGMAS, beam_profile, density_for_cloud
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
from ddfe.sensors import ProjectionParams, SensorConfig, spherical_of_cloud
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


def test_density_formats_have_one_channel_per_sigma():
    # io cannot import beams (beams -> sensors -> io), so the width is pinned here
    assert dio.DENSITY_CHANNELS == len(DEFAULT_SIGMAS)
    assert dio.DENSITY_CSV_HEADER == ",".join(f"d{int(s)}" for s in DEFAULT_SIGMAS)


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
_MODEL = Model(_CONFIG, EmbeddingParams(_CONFIG, np.random.default_rng(0)), None)


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
