"""Tests of the benchmark's own logic (not of ddfe)."""

import json
from pathlib import Path

import numpy as np
import pytest

import harness
import tracing
import workloads


def test_same_seed_gives_identical_inputs(tmp_path):
    for cls in (workloads.TrainSim64, workloads.PrepKitti):
        a = cls(7, str(tmp_path / f"{cls.name}-a"))
        b = cls(7, str(tmp_path / f"{cls.name}-b"))
        other = cls(8, str(tmp_path / f"{cls.name}-c"))
        for w in (a, b, other):
            Path(w.workdir).mkdir()
        assert a.setup() == b.setup() != other.setup()
    scan = np.random.default_rng(0).normal(size=(50, 3))
    infer = workloads.InferWaymo(7, str(tmp_path))
    infer.pool = [(scan, np.zeros(50, dtype=np.int64))]
    infer.POOL = 1
    first, again = infer.prepare(3)[0], infer.prepare(3)[0]
    assert np.array_equal(first, again)
    assert not np.array_equal(first, infer.prepare(4)[0])


def test_self_time_on_hand_built_span_tree():
    spans = [
        ["op", 0.0, 10.0, None],
        ["a", 1.0, 6.0, 0],     # children cover 2..3 and 4..5.5 -> self 2.5
        ["b", 2.0, 3.0, 1],
        ["c", 4.0, 5.5, 1],
        ["d", 5.0, 9.0, 0],     # overlaps "a" by 1 s inside the root
        ["setup", 20.0, 21.0, None],
        ["a", 20.25, 20.75, 5],
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 2.5, 1.0, 1.5, 4.0, 0.5, 0.5])
    assert tracing.layer_totals(spans, ("op",)) == {
        "a": pytest.approx((2.5, 1)), "b": (1.0, 1), "c": (1.5, 1), "d": (4.0, 1)}
    assert tracing.layer_totals(spans, ("setup",)) == {"a": (0.5, 1)}


def test_instrumented_traces_and_restores():
    from ddfe import embedding, nn, voxels

    original = (embedding.voxelize, nn.linear, nn.Tensor.backward, nn.Tensor.__init__)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        with tracer.span("op"):
            embedding.voxelize(np.random.default_rng(0).uniform(0, 1, (100, 3)), 0.5)
            y = nn.linear(np.ones((2, 3)), nn.Tensor(np.ones((3, 1)), requires_grad=True),
                          np.zeros(1))
            nn.tensor_sum(y).backward()
    assert (embedding.voxelize, nn.linear, nn.Tensor.backward, nn.Tensor.__init__) == original
    assert voxels.voxelize is embedding.voxelize
    metrics = tracing.layer_metrics(tracer, n_ops=1, n_setups=1)
    assert metrics["voxels.voxelize.calls"] == 1
    assert metrics["voxels.voxelize.voxels"] == 8
    assert metrics["nn.linear.calls"] == 1
    assert metrics["nn.backward.calls"] == 1
    assert metrics["nn.tensors.count"] >= 4


class _BigSetup:
    """A set-up that allocates and frees 96 MB and keeps a small input."""

    def setup(self):
        big = np.ones(12_000_000)
        self.data = np.arange(10) + big[:10]
        return harness.digest(self.data)


def test_setups_run_in_a_child_and_hand_back_their_inputs():
    workload = _BigSetup()
    peak = harness.peak_rss_mb()
    tracer = tracing.Tracer()
    times, digests = harness.timed_setups(workload, 2, tracer)
    assert harness.peak_rss_mb() - peak < 48
    assert np.array_equal(workload.data, np.arange(10) + 1.0)
    assert len(times) == 2 and len(digests) == 1
    assert [span[0] for span in tracer.spans] == ["setup", "setup"]


class _Injected:
    """Five ops; op 1 is refused as bad input, op 2 raises, op 3 fails its check."""

    min_ops, cycle = 5, 1

    def prepare(self, i):
        return i

    def run(self, i):
        if i == 1:
            raise ValueError("degenerate point at sensor origin (point index 0)")
        if i == 2:
            raise RuntimeError("injected")
        return i

    def rejects(self, i, exc):
        return i == 1 and isinstance(exc, ValueError)

    def check(self, i, x, out):
        if i == 3:
            raise harness.CheckFailed("wrong output")


def test_error_rate_counts_injected_failure():
    log = harness.run_ops(_Injected(), seconds=0.0)
    assert (log.attempted, log.rejected, log.failed) == (5, 1, 2)
    assert harness.error_rate([log]) == pytest.approx(0.4)
    assert len(log.latencies_s) == 5
    assert "injected" in log.errors[0] and "wrong output" in log.errors[1]


def test_figures_are_medians_over_blocks_of_whole_cycles():
    assert harness.blocks(10) == [range(0, 3), range(3, 6), range(6, 10)]
    assert harness.blocks(32, unit=16) == [range(0, 16), range(16, 32)]
    # One slow block (ops 6..8, 3x slower) does not move any figure.
    latencies = [0.1] * 6 + [0.3] * 3
    figures = harness.phase_figures(latencies, [1] * 9, [1000] * 9)
    assert figures["scene_steps_per_s"] == pytest.approx(10.0)
    assert figures["points_per_s"] == pytest.approx(10_000.0)
    assert figures["scan_ms_p50"] == pytest.approx(100.0)
    assert figures["scan_ms_p90"] == pytest.approx(100.0)
    assert figures["scan_samples"] == 9


def test_benchmark_spec_names_match_the_code():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer()
    assert {m["name"] for m in spec["per_layer"]} == (
        set(tracing.layer_metrics(tracer, 1, 1))
        | {"trace.overhead.scene_steps_per_s", "trace.overhead.scan_ms_p50"})
