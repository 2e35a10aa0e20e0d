"""Workload-independent parts of the benchmark.

The closed loop (one caller, the next operation starts when the
previous one has ended), failure accounting, set-up timing, percentiles and
the host record.  Nothing here imports ddfe.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pickle
import platform
import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np


class CheckFailed(Exception):
    """An output check found a wrong result; the operation counts as failed."""


@dataclass
class OpLog:
    """What one measured phase did: one latency per attempted operation."""

    latencies_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rejected: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, where: str, exc: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{where}: {type(exc).__name__}: {exc}")


def run_ops(workload, seconds: float, tracer=None) -> OpLog:
    """Run operations back to back until `seconds` have passed.

    At least `workload.min_ops` operations run, and the count is a multiple
    of `workload.cycle`, so counts that depend on which input an operation
    saw (rejections, the first scans' mIoU) repeat exactly from run to run.
    Only `workload.run` is timed; input preparation and output checks are
    not.  An exception that `workload.rejects` accepts is the library
    refusing bad input as documented and counts as rejected; any other
    exception, and any failed check, counts as failed.
    """
    log = OpLog()
    start = time.perf_counter()
    i = 0
    while i < workload.min_ops or i % workload.cycle or time.perf_counter() - start < seconds:
        x = workload.prepare(i)
        root = tracer.span("op") if tracer is not None else nullcontext()
        t0 = time.perf_counter()
        try:
            with root:
                out = workload.run(x)
        except Exception as exc:  # every failure is counted
            log.latencies_s.append(time.perf_counter() - t0)
            if workload.rejects(i, exc):
                log.rejected += 1
            else:
                log.fail(f"op {i}", exc)
        else:
            log.latencies_s.append(time.perf_counter() - t0)
            try:
                workload.check(i, x, out)
            except Exception as exc:  # a broken check is a failure too
                log.fail(f"check {i}", exc)
        log.attempted += 1
        i += 1
    return log


def error_rate(logs) -> float:
    """Failed operations over attempted operations, across phases."""
    return sum(log.failed for log in logs) / sum(log.attempted for log in logs)


def run_phase(workload, seconds: float, tracer=None) -> tuple[OpLog, dict]:
    """One measured phase: fresh per-phase state, the loop, the end step."""
    workload.begin()
    log = run_ops(workload, seconds, tracer)
    root = tracer.span("finish") if tracer is not None else nullcontext()
    try:
        with root:
            workload.finish()
    except Exception as exc:  # a failed end step counts like a failed operation
        log.fail("finish", exc)
    return log, workload.metrics(log)


def in_child(fn):
    """Run fn() in a forked child process and return what it returns.

    The child's memory, its peak included, is its own: the parent's peak
    resident set does not grow by what fn allocates and frees.  The result
    comes back pickled through a pipe; the child is waited for.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns into the caller's code
        os.close(read_fd)
        code = 0
        try:
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(fn(), fh, protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException:
            traceback.print_exc()
            code = 1
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"child process failed (wait status {status})")
    return pickle.loads(data)


def timed_setups(workload, reps: int, tracer=None):
    """Set the workload up `reps` times; returns (seconds of each, input digests).

    Each set-up runs in a child process (see `in_child`) and hands the
    attributes it set on the workload back to this one, so that the peak
    resident set of this process is that of the measured loop, not of the
    set-up's transient memory (on infer_waymo a whole train() call).  Spans
    recorded in the child are appended to `tracer`.  Every repetition must
    produce the same input digest: the inputs are a function of the seed
    alone.
    """
    def one():
        before = dict(vars(workload))
        n_spans = len(tracer.spans) if tracer is not None else 0
        root = tracer.span("setup") if tracer is not None else nullcontext()
        t0 = time.perf_counter()
        with root:
            dig = workload.setup()
        seconds = time.perf_counter() - t0
        state = {k: v for k, v in vars(workload).items()
                 if k not in before or before[k] is not v}
        trace = (tracer.spans[n_spans:], tracer.counts) if tracer is not None else None
        return seconds, dig, state, trace

    times, digests = [], set()
    for _ in range(reps):
        seconds, dig, state, trace = in_child(one)
        vars(workload).update(state)
        if tracer is not None:
            # No span was opened here meanwhile, so the child's span indices,
            # parents included, are valid in this process's list as they are.
            tracer.spans += trace[0]
            tracer.counts = trace[1]
        times.append(seconds)
        digests.add(dig)
    return times, digests


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def p50(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    """Inclusive-method 90th percentile (linear interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# Each figure is the median over this many consecutive blocks of a phase.
# The host's speed drifts by tens of percent over seconds (neighbouring
# load); a median over blocks ignores one block that a slow spell covered.
BLOCKS = 3


def blocks(n: int, unit: int = 1) -> list[range]:
    """Split indices 0..n-1 into up to BLOCKS consecutive non-empty blocks of whole units."""
    units = n // unit
    cuts = [unit * (units * b // BLOCKS) for b in range(BLOCKS)] + [n]
    return [range(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]


def phase_figures(latencies_s, scans, points, samples_ms=None, unit: int = 1) -> dict:
    """End-to-end figures of one phase, each a median over blocks.

    latencies_s, scans and points are per operation (scans and points
    completed, 0 for an operation that failed or was rejected); samples_ms
    are the latency samples, one per operation unless given.
    """
    sample_unit = unit if samples_ms is None else 1
    if samples_ms is None:
        samples_ms = [t * 1000.0 for t in latencies_s]

    def rate(work):
        return p50([sum(work[j] for j in b) / sum(latencies_s[j] for j in b)
                    for b in blocks(len(latencies_s), unit)])

    sample_blocks = [[samples_ms[j] for j in b]
                     for b in blocks(len(samples_ms), sample_unit)]
    return {
        "scene_steps_per_s": rate(scans),
        "points_per_s": rate(points),
        "scan_ms_p50": p50([p50(b) for b in sample_blocks]),
        "scan_ms_p90": p50([p90(b) for b in sample_blocks]),
        "scan_samples": len(samples_ms),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_record() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _openblas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
