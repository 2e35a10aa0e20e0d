import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ddfe import io as dio
from ddfe.cli import run
from ddfe.embedding import EmbeddingConfig, EmbeddingParams, Model, checkpoint_tensors


def _sensor_text(name, v_beams):
    return (f"name = {name}\nh_beams = 128\nv_beams = {v_beams}\n"
            "fov_min_deg = -20.0\nfov_max_deg = 4.0\n")


@pytest.fixture()
def sim_cfg(tmp_path):
    path = tmp_path / "sim16.cfg"
    path.write_text(_sensor_text("sim16", 16))
    return str(path)


def _simulate(tmp_path, sim_cfg, scenes=3, seed=5, sub="scans"):
    out = str(tmp_path / sub)
    assert run(["simulate", "--sensor", sim_cfg, "--scenes", str(scenes),
                "--seed", str(seed), "--out", out]) == 0
    return out


def test_simulate_writes_pairs_deterministically(tmp_path, sim_cfg, capsys):
    out_a = _simulate(tmp_path, sim_cfg, sub="a")
    out_b = _simulate(tmp_path, sim_cfg, sub="b")
    names = sorted(os.listdir(out_a))
    assert names == ["000000.bin", "000000.label", "000001.bin", "000001.label",
                     "000002.bin", "000002.label"]
    for name in names:
        with open(os.path.join(out_a, name), "rb") as fa, \
             open(os.path.join(out_b, name), "rb") as fb:
            assert fa.read() == fb.read()


def test_density_single_point_scan_writes_16_bytes(tmp_path, capsys):
    scan = tmp_path / "one.bin"
    dio.write_scan(np.array([[5.0, 1.0, -1.0]]), scan)
    out = tmp_path / "d.f32"
    assert run(["density", "--sensor", "nuscenes", "--input", str(scan),
                "--out", str(out)]) == 0
    assert out.stat().st_size == 16
    csv = tmp_path / "d.csv"
    assert run(["density", "--sensor", "nuscenes", "--input", str(scan),
                "--out", str(csv), "--csv"]) == 0
    assert csv.read_text().splitlines()[0] == "d10,d30,d50,d70"


def test_density_beyond_float32_exits_2_and_writes_no_file(tmp_path, capsys):
    scan = tmp_path / "near.bin"
    dio.write_scan(np.array([[5.0, 1.0, -1.0], [1e-40, 0.0, 0.0]]), scan)
    out = tmp_path / "d.f32"
    assert run(["density", "--sensor", "waymo", "--input", str(scan),
                "--out", str(out)]) == 2
    assert "density beyond float32 range at row 1" in capsys.readouterr().err
    assert not out.exists()


def test_stats_prints_clip_params_per_channel(tmp_path, sim_cfg, capsys):
    scans = _simulate(tmp_path, sim_cfg)
    capsys.readouterr()
    assert run(["stats", "--sensor", sim_cfg, "--inputs", scans]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "fit clip on 3 scans"
    assert [line.split(":")[0].strip() for line in lines[1:]] == ["d10", "d30", "d50", "d70"]
    for line in lines[1:]:
        fields = dict(field.split("=") for field in line.split(":")[1].split())
        assert list(fields) == ["P10", "P90", "m", "l"]
        for value in fields.values():
            float(value)  # parsable values
    # stats writes no file, so it takes no output path
    assert run(["stats", "--sensor", sim_cfg, "--inputs", scans,
                "--out", str(tmp_path / "clip.txt")]) == 1


def test_stats_prints_the_clip_that_train_stores(tmp_path, sim_cfg, capsys):
    scans = _simulate(tmp_path, sim_cfg)
    capsys.readouterr()
    assert run(["stats", "--sensor", sim_cfg, "--inputs", scans, "--seed", "3"]) == 0
    printed = [dict(field.split("=") for field in line.split(":")[1].split())
               for line in capsys.readouterr().out.splitlines()[1:]]
    ckpt = str(tmp_path / "m.ckpt")
    assert run(["train", "--sensor", sim_cfg, "--data", scans, "--epochs", "1",
                "--seed", "3", "--out", ckpt, "--quiet"]) == 0
    tensors = dio.load_checkpoint(ckpt)
    assert [(p["m"], p["l"]) for p in printed] == [
        (f"{m:.6g}", f"{l:.6g}")
        for m, l in zip(tensors["clip.mid"], tensors["clip.half_span"])]


def test_augment_deterministic(tmp_path, sim_cfg, capsys):
    scans = _simulate(tmp_path, sim_cfg)
    a = os.path.join(scans, "000000.bin")
    b = os.path.join(scans, "000001.bin")
    out1, out2 = str(tmp_path / "aug1"), str(tmp_path / "aug2")
    for out in (out1, out2):
        assert run(["augment", "--sensor", sim_cfg, "--input", a, "--mix", b,
                    "--seed", "3", "--prob", "1.0", "--out", out]) == 0
    f1 = Path(out1, "000000_aug.bin").read_bytes()
    f2 = Path(out2, "000000_aug.bin").read_bytes()
    assert f1 == f2
    labels = dio.read_labels(os.path.join(out1, "000000_aug.label"),
                             len(f1) // 16)
    assert labels.size == len(f1) // 16


def test_train_evaluate_and_reports(tmp_path, sim_cfg, capsys):
    scans = _simulate(tmp_path, sim_cfg, scenes=4)
    ckpt = str(tmp_path / "model.ckpt")
    assert run(["train", "--sensor", sim_cfg, "--data", scans, "--epochs", "2",
                "--seed", "0", "--out", ckpt, "--quiet"]) == 0
    assert os.path.exists(ckpt)

    report = str(tmp_path / "report.txt")
    assert run(["evaluate", "--sensor", sim_cfg, "--data", scans,
                "--model", ckpt, "--report", report]) == 0
    text = Path(report).read_text()
    assert "mIoU" in text

    # rerunning training with the same seed gives a byte-identical checkpoint
    ckpt2 = str(tmp_path / "model2.ckpt")
    assert run(["train", "--sensor", sim_cfg, "--data", scans, "--epochs", "2",
                "--seed", "0", "--out", ckpt2, "--quiet"]) == 0
    assert Path(ckpt).read_bytes() == Path(ckpt2).read_bytes()


def test_train_ablation_flags(tmp_path, sim_cfg, capsys):
    scans = _simulate(tmp_path, sim_cfg, scenes=2)
    ckpt = str(tmp_path / "ablated.ckpt")
    assert run(["train", "--sensor", sim_cfg, "--data", scans, "--epochs", "1",
                "--seed", "0", "--out", ckpt, "--quiet",
                "--no-clip", "--no-attn", "--no-density"]) == 0
    tensors = dio.load_checkpoint(ckpt)
    assert tensors["meta.use_attention"] == 0.0
    assert tensors["meta.use_density"] == 0.0
    assert "clip.mid" not in tensors


def test_train_reads_config_file(tmp_path, sim_cfg, capsys):
    scans = _simulate(tmp_path, sim_cfg, scenes=2)
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\nbatch_size = 1\nseed = 4\n")
    ckpt = str(tmp_path / "m.ckpt")
    assert run(["train", "--sensor", sim_cfg, "--data", scans,
                "--config", str(cfg), "--out", ckpt, "--quiet"]) == 0
    assert os.path.exists(ckpt)


def test_report_density_match_prints_anchor_ratio(capsys):
    assert run(["report-density-match", "--sensors", "waymo", "nuscenes",
                "--distances", "35", "12"]) == 0
    out = capsys.readouterr().out
    assert "waymo@35m ~ nuscenes@12m" in out
    line = [l for l in out.splitlines() if l.strip().startswith("waymo@35m")][0]
    ratio = float(line.split("ratio=")[1])
    assert 0.8 <= ratio <= 1.25


def test_report_density_match_rejects_a_sensor_of_zero_band_center_density(tmp_path, capsys):
    # its one beam at 15 deg, its band center at -7 deg, beyond the smoothing
    path = tmp_path / "high1.cfg"
    path.write_text("name = high1\nh_beams = 128\nv_beams = 1\n"
                    "fov_min_deg = -29\nfov_max_deg = 15\n")
    assert run(["report-density-match", "--sensors", "waymo", str(path),
                "--distances", "10", "20"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "data error: sensor 'high1' has band-center density 0 at 10 m, " \
                  "so no density matches it\n"


def test_report_feature_similarity(tmp_path, sim_cfg, capsys):
    # scans for two sensors of the same scenes, dirs named after the sensors
    cfg32_path = tmp_path / "sim8.cfg"
    cfg32_path.write_text(_sensor_text("sim8", 8))
    data = str(tmp_path / "fs")
    assert run(["simulate", "--sensor", sim_cfg, "--scenes", "2", "--seed", "5",
                "--out", os.path.join(data, "sim16")]) == 0
    assert run(["simulate", "--sensor", str(cfg32_path), "--scenes", "2",
                "--seed", "5", "--out", os.path.join(data, "sim8")]) == 0
    scans = _simulate(tmp_path, sim_cfg, scenes=2)
    ckpt = str(tmp_path / "m.ckpt")
    assert run(["train", "--sensor", sim_cfg, "--data", scans, "--epochs", "1",
                "--seed", "0", "--out", ckpt, "--quiet"]) == 0
    assert run(["report-feature-similarity", "--model", ckpt,
                "--sensors", sim_cfg, str(cfg32_path), "--data", data]) == 0
    out = capsys.readouterr().out
    assert "rows sim16" in out
    assert "0-5m" in out


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run([]) == 1
    assert run(["density", "--bogus-flag", "x"]) == 1
    assert run(["report-density-match", "--sensors", "waymo",
                "--distances", "10"]) == 1
    capsys.readouterr()
    # 1e-320 is positive, but below the least range whose density is finite
    for distance in ("-5", "0", "1e-320", "inf", "nan"):
        assert run(["report-density-match", "--sensors", "waymo", "nuscenes",
                    "--distances", distance, "12"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --distances: range must be finite and in [")
    for sensors, message in ((["a"], "expected 2 arguments"),
                             (["a", "b", "c"], "unrecognized arguments: c")):
        assert run(["report-feature-similarity", "--model", "m.ckpt", "--data", str(tmp_path),
                    "--sensors", *sensors]) == 1
        assert message in capsys.readouterr().err
    for scenes in ("0", "-2"):
        out = tmp_path / f"sim_{scenes}"
        assert run(["simulate", "--sensor", "nuscenes", "--scenes", scenes,
                    "--out", str(out)]) == 1
        assert f"--scenes must be >= 1, got {scenes}" in capsys.readouterr().err
        assert not out.exists()
    assert run(["train", "--sensor", "nuscenes", "--data", str(tmp_path),
                "--batch", "0", "--out", str(tmp_path / "m.ckpt")]) == 1
    assert "batch_size must be >= 1, got 0" in capsys.readouterr().err
    for flag, field in (("--voxel", "voxel_size"), ("--classes", "num_classes")):
        assert run(["train", "--sensor", "nuscenes", "--data", str(tmp_path),
                    flag, "0", "--out", str(tmp_path / "m.ckpt")]) == 1
        assert f"{field} must be" in capsys.readouterr().err
    missing = str(tmp_path / "nope.bin")
    for prob in ("2", "-0.5", "nan"):
        assert run(["augment", "--sensor", "nuscenes", "--input", missing,
                    "--mix", missing, "--prob", prob, "--out", str(tmp_path)]) == 1
        assert "apply_prob must be finite and in [0, 1]" in capsys.readouterr().err


def test_classes_beyond_the_label_limit_is_a_usage_error(tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", "--sensor", "nuscenes", "--data", str(tmp_path),
                "--classes", "100000000", "--out", str(ckpt)]) == 1
    assert "num_classes must be <= 65536, got 100000000" in capsys.readouterr().err
    assert not ckpt.exists()


def test_sensor_file_with_an_infinite_fov_bound_is_rejected(tmp_path, capsys):
    sensor = tmp_path / "inf.cfg"
    sensor.write_text(_sensor_text("inf", 16).replace("-20.0", "-inf"))
    scan = tmp_path / "one.bin"
    dio.write_scan(np.array([[5.0, 1.0, -1.0]]), scan)
    out = tmp_path / "d.f32"
    assert run(["density", "--sensor", str(sensor), "--input", str(scan),
                "--out", str(out)]) == 2
    assert "fov_min_deg must be finite and in [-90, 90], got -inf" \
        in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_learning_rate_exits_2_without_a_traceback(tmp_path):
    sensor = tmp_path / "sim8.cfg"
    sensor.write_text(_sensor_text("sim8", 8))
    scans = _simulate(tmp_path, str(sensor), scenes=2)
    config = tmp_path / "t.cfg"
    config.write_text("lr_decay = 1e200\nbase_lr = 1e-300\nepochs = 3\n")
    model = tmp_path / "m.ckpt"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "ddfe", "train", "--sensor", str(sensor),
                           "--data", scans, "--config", str(config), "--out", str(model)],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 2
    assert "data error: learning rate overflows at epoch 2" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "epoch" not in proc.stdout
    assert not model.exists()


@pytest.mark.parametrize("field,count,limit", [("h_beams", 10**8, "5120 columns"),
                                               ("v_beams", 10**11, "512 rows")])
@pytest.mark.parametrize("command", ["simulate", "density"])
def test_huge_beam_count_exits_2_without_a_traceback(tmp_path, command, field, count, limit):
    sensor = tmp_path / "huge.cfg"
    sensor.write_text(_sensor_text("huge", 16).replace(
        "h_beams = 128" if field == "h_beams" else "v_beams = 16", f"{field} = {count}"))
    scan = tmp_path / "one.bin"
    dio.write_scan(np.array([[5.0, 1.0, -1.0]]), scan)
    out = tmp_path / "out"
    args = {"simulate": ["--scenes", "1"], "density": ["--input", str(scan)]}[command]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "ddfe", command, "--sensor", str(sensor),
                           *args, "--out", str(out)],
                          capture_output=True, text=True, env=env, check=False)
    axis = "horizontal" if field == "h_beams" else "vertical"
    assert proc.returncode == 2
    assert (f"data error: sensor 'huge' has {count} {axis} beams, more than the "
            f"projection image's {limit}") in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "stats", "augment", "train"])
def test_negative_seed_exits_1_before_any_output(tmp_path, capsys, command):
    out = tmp_path / "out"
    missing = str(tmp_path / "nope.bin")
    args = {
        "simulate": ["--scenes", "1", "--out", str(out)],
        "stats": ["--inputs", str(tmp_path)],
        "augment": ["--input", missing, "--mix", missing, "--out", str(out)],
        "train": ["--data", str(tmp_path), "--out", str(out)],
    }[command]
    assert run([command, "--sensor", "nuscenes", "--seed", "-1", *args]) == 1
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_data_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.bin")
    assert run(["density", "--sensor", "nuscenes", "--input", missing,
                "--out", str(tmp_path / "d.f32")]) == 2
    capsys.readouterr()
    assert run(["density", "--sensor", "not-a-sensor", "--input", missing,
                "--out", str(tmp_path / "d.f32")]) == 2
    assert "data error: sensor 'not-a-sensor' is neither a preset" in capsys.readouterr().err
    assert run(["train", "--sensor", "nuscenes", "--data", str(tmp_path),
                "--out", str(tmp_path / "m.ckpt")]) == 2
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x00" * 17)
    assert run(["density", "--sensor", "nuscenes", "--input", str(bad),
                "--out", str(tmp_path / "d.f32")]) == 2
    # A NaN or infinite coordinate stops density and stats before any output.
    for value in (np.nan, np.inf):
        scans = tmp_path / f"scans_{value}"
        scans.mkdir()
        records = np.array([[5.0, 1.0, -1.0, 0.0], [6.0, value, 0.0, 0.0]], dtype="<f4")
        (scans / "000000.bin").write_bytes(records.tobytes())
        out = tmp_path / "nan.f32"
        capsys.readouterr()
        assert run(["density", "--sensor", "nuscenes", "--input",
                    str(scans / "000000.bin"), "--out", str(out)]) == 2
        assert "point index 1" in capsys.readouterr().err
        assert not out.exists()
        assert run(["stats", "--sensor", "nuscenes", "--inputs", str(scans)]) == 2
        assert "point index 1" in capsys.readouterr().err

    # 64 beams over [-40, 0]: 16 of them lie below the image's -30 deg edge
    low = tmp_path / "low.cfg"
    low.write_text("name = low\nh_beams = 512\nv_beams = 64\n"
                   "fov_min_deg = -40.0\nfov_max_deg = 0.0\n")
    scan = tmp_path / "one.bin"
    dio.write_scan(np.array([[5.0, 1.0, -1.0]]), scan)
    out = tmp_path / "low.f32"
    capsys.readouterr()
    assert run(["density", "--sensor", str(low), "--input", str(scan),
                "--out", str(out)]) == 2
    assert "vertical beam 0 of sensor 'low' at -39.375 deg" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "report-feature-similarity",
                                     "stats"])
def test_empty_scan_exits_2_naming_it(tmp_path, sim_cfg, command):
    data = tmp_path / "data"
    scans = _simulate(data, sim_cfg, scenes=1, sub="sim16")
    model = str(tmp_path / "m.ckpt")
    if command in ("evaluate", "report-feature-similarity"):
        assert run(["train", "--sensor", sim_cfg, "--data", scans, "--epochs", "1",
                    "--out", model, "--quiet"]) == 0
    for ext in (".bin", ".label"):
        open(os.path.join(scans, "000001" + ext), "wb").close()
    args = {
        "train": ["--sensor", sim_cfg, "--data", scans, "--epochs", "1",
                  "--out", model, "--quiet"],
        "evaluate": ["--sensor", sim_cfg, "--data", scans, "--model", model],
        "report-feature-similarity": ["--sensors", sim_cfg, sim_cfg,
                                      "--data", str(data), "--model", model],
        "stats": ["--sensor", sim_cfg, "--inputs", scans],
    }[command]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "ddfe", command, *args],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 2
    assert "scan 1 of the dataset is empty" in proc.stderr
    assert "Traceback" not in proc.stderr


def _evaluate_with_meta(tmp_path, num_classes):
    """`ddfe evaluate` on a checkpoint whose meta.num_classes is replaced."""
    config = EmbeddingConfig()
    tensors = checkpoint_tensors(
        Model(EmbeddingParams(config, np.random.default_rng(0)), None))
    tensors["meta.num_classes"] = num_classes
    model = tmp_path / "m.ckpt"
    dio.save_checkpoint(tensors, model)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-m", "ddfe", "evaluate", "--sensor", "nuscenes",
                           "--data", str(tmp_path), "--model", str(model)],
                          capture_output=True, text=True, env=env, check=False)


def test_checkpoint_with_vector_meta_exits_2(tmp_path):
    proc = _evaluate_with_meta(tmp_path, np.array([4.0, 4.0]))
    assert proc.returncode == 2
    assert "checkpoint tensor 'meta.num_classes' has shape (2,), expected ()" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_checkpoint_with_huge_class_count_exits_2(tmp_path):
    proc = _evaluate_with_meta(tmp_path, np.float64(1e12))
    assert proc.returncode == 2
    assert "checkpoint meta: num_classes must be <= 65536, got 1000000000000" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, flag", [("stats", "--inputs"), ("train", "--data")])
def test_directory_without_scans_exits_2(tmp_path, sim_cfg, capsys, command, flag):
    empty = tmp_path / "none"
    empty.mkdir()
    extra = ["--out", str(tmp_path / "m.ckpt")] if command == "train" else []
    assert run([command, "--sensor", sim_cfg, flag, str(empty), *extra]) == 2
    assert f"no .bin scans found in {empty}" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
