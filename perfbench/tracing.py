"""Spans around ddfe's public functions, recorded from the benchmark side.

`instrumented(tracer)` replaces each traced function with a wrapper in every
ddfe module that looks it up (and each traced method on its class), and puts
the originals back on exit.  The library source is not touched.  Spans are
kept in memory as [name, start, end, parent] and written out when the run
ends; a span's self time is its duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter


def _voxel_count(tracer, args, result):
    tracer.count("voxels.voxelize.voxels", result.num_voxels)


def _beam_sample_points(tracer, args, result):
    tracer.count("augment.beam_sample.points_in", len(args[0]))
    tracer.count("augment.beam_sample.points_kept", len(result[0]))


def _scan_megabytes(tracer, args, result):
    tracer.count("io.read_scan.mb", result.shape[0] * 16 / 1e6)


# (ddfe module, function or Class.method, span name, counter of the result)
TRACED = (
    ("sensors", "spherical_of_cloud", "sensors.spherical_of_cloud", None),
    ("beams", "beam_profile", "beams.beam_profile", None),
    ("beams", "density_for_cloud", "beams.density_for_cloud", None),
    ("stats", "DensityReservoir.update", "stats.update", None),
    ("stats", "fit_clip", "stats.fit_clip", None),
    ("stats", "soft_clip", "stats.soft_clip", None),
    ("voxels", "voxelize", "voxels.voxelize", _voxel_count),
    ("voxels", "majority_label", "voxels.majority_label", None),
    ("voxels", "voxel_offsets", "voxels.voxel_offsets", None),
    ("nn", "linear", "nn.linear", None),
    ("nn", "softmax", "nn.softmax", None),
    ("nn", "segment_max", "nn.segment_max", None),
    ("nn", "segment_mean", "nn.segment_mean", None),
    ("nn", "lovasz_softmax", "nn.lovasz_softmax", None),
    ("nn", "weighted_cross_entropy", "nn.weighted_cross_entropy", None),
    ("nn", "Tensor.backward", "nn.backward", None),
    ("nn", "Adam.step", "nn.adam_step", None),
    ("embedding", "encode_scene", "embedding.encode_scene", None),
    ("embedding", "forward_encoded", "embedding.forward_encoded", None),
    ("embedding", "point_predictions", "embedding.point_predictions", None),
    ("embedding", "scene_loss", "embedding.scene_loss", None),
    ("augment", "beam_sample", "augment.beam_sample", _beam_sample_points),
    ("augment", "enhanced_mix3d", "augment.enhanced_mix3d", None),
    ("io", "read_scan", "io.read_scan", _scan_megabytes),
    ("io", "write_density", "io.write_density", None),
    ("simulate", "make_dataset", "simulate.make_dataset", None),
)
SPAN_NAMES = tuple(entry[2] for entry in TRACED)
# Layers that only run while inputs are made: reported per set-up, not per operation.
SETUP_SPANS = ("simulate.make_dataset",)
# Roots under which an operation's work runs (the loop's `op`, the phase's `finish`).
OP_ROOTS = ("op", "finish")


class Tracer:
    """In-memory span and counter store for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[tuple[str, str], float] = {}  # (root name, counter) -> total
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name: str, value: float) -> None:
        root = self.spans[self._stack[0]][0] if self._stack else None
        key = (root, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def counted(self, name: str, roots=OP_ROOTS) -> float:
        return sum(v for (root, n), v in self.counts.items() if n == name and root in roots)


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def layer_totals(spans, roots) -> dict[str, tuple[float, int]]:
    """Self seconds and call count per span name, over trees whose root is in `roots`.

    The roots themselves are the benchmark's own glue and are left out.
    """
    selfs = self_times(spans)
    root_of: list[int] = []
    totals: dict[str, tuple[float, int]] = {}
    for i, (name, _, _, parent) in enumerate(spans):
        root_of.append(i if parent is None else root_of[parent])
        if parent is not None and spans[root_of[i]][0] in roots:
            seconds, calls = totals.get(name, (0.0, 0))
            totals[name] = (seconds + selfs[i], calls + 1)
    return totals


def layer_metrics(tracer: Tracer, n_ops: int, n_setups: int) -> dict[str, float]:
    """Per-layer self ms and calls per operation, plus the layers' counters."""
    per_op = layer_totals(tracer.spans, OP_ROOTS)
    per_setup = layer_totals(tracer.spans, ("setup",))
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        totals, n = (per_setup, n_setups) if name in SETUP_SPANS else (per_op, n_ops)
        seconds, calls = totals.get(name, (0.0, 0))
        out[f"{name}.ms"] = seconds * 1000.0 / n
        out[f"{name}.calls"] = calls / n
    kept_in = tracer.counted("augment.beam_sample.points_in")
    out["augment.kept_ratio"] = (
        tracer.counted("augment.beam_sample.points_kept") / kept_in if kept_in else 0.0)
    out["nn.tensors.count"] = tracer.counted("nn.tensors.count") / n_ops
    out["voxels.voxelize.voxels"] = tracer.counted("voxels.voxelize.voxels") / n_ops
    out["io.read_scan.mb"] = tracer.counted("io.read_scan.mb") / n_ops
    out["sensors.spherical_of_cloud.errors"] = (
        tracer.counted("sensors.spherical_of_cloud.errors") / n_ops)
    return out


def _wrap(fn, name, tracer, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            tracer.count(f"{name}.errors", 1)
            raise
        finally:
            tracer.close(idx)
        if counter is not None:
            counter(tracer, args, result)
        return result

    return traced


@contextmanager
def instrumented(tracer: Tracer):
    """Trace every TRACED function and count Tensors created, until exit."""
    from ddfe import nn

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "ddfe" or name.startswith("ddfe.")]
    patches = []  # (owner, attribute, original)
    for module, qualname, name, counter in TRACED:
        owner = importlib.import_module(f"ddfe.{module}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(owner, cls_name)
            original = vars(cls)[attr]
            patches.append((cls, attr, original))
            setattr(cls, attr, _wrap(original, name, tracer, counter))
            continue
        original = getattr(owner, qualname)
        wrapper = _wrap(original, name, tracer, counter)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    patches.append((m, attr, original))
                    setattr(m, attr, wrapper)

    tensor_init = nn.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        tracer.count("nn.tensors.count", 1)
        tensor_init(self, *args, **kwargs)

    patches.append((nn.Tensor, "__init__", tensor_init))
    nn.Tensor.__init__ = counting_init
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
