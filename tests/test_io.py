import numpy as np
import pytest

from ddfe import io as dio


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
