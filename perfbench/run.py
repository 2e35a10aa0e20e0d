"""Run one ddfe benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ./src, never
from an installed copy.  BLAS is pinned to one thread before numpy loads.
Output: one JSON report line (host record, every end-to-end figure by name
and unit, failures), then the result line with exactly the keys `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json; with --trace 1 the per-layer ones, from a
run whose first half is untraced and second half traced.  Spans are written
to .perfbench/ when the run ends.
"""

import os

# Before numpy loads: one BLAS thread, so each workload is one single-threaded caller.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-ups per run, before and after the measured phase(s), so that their
# median spans the run rather than one moment of the host's speed.
SETUPS_BEFORE, SETUPS_AFTER = 2, 1
# Units of the figures that only the report line carries.
REPORT_UNITS = {"scan_samples": "count", "miou": "1", "rejected_rate": "1",
                "error_rate": "1", "rss_after_setup_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def measure(workload, seconds: float, trace: bool):
    """Set up, run the measured phase(s), set up again.

    Returns (report figures, metric values, logs, tracer, same inputs?).
    """
    tracer = tracing.Tracer() if trace else None

    def setups(reps):
        with tracing.instrumented(tracer) if trace else nullcontext():
            return harness.timed_setups(workload, reps, tracer)

    setup_times, digests = setups(SETUPS_BEFORE)
    # The set-ups ran in child processes: this peak is the imports plus holding their result.
    rss_setup = harness.peak_rss_mb()
    if trace:
        base_log, base = harness.run_phase(workload, seconds / 2.0)
        with tracing.instrumented(tracer):
            log, figures = harness.run_phase(workload, seconds / 2.0, tracer)
        logs = [base_log, log]
    else:
        log, figures = harness.run_phase(workload, seconds)
        logs = [log]
    figures["peak_rss_mb"] = harness.peak_rss_mb()
    figures["rss_after_setup_mb"] = rss_setup
    more_times, more_digests = setups(SETUPS_AFTER)
    figures["setup_s"] = harness.p50(setup_times + more_times)
    values = figures
    if trace:
        values = tracing.layer_metrics(tracer, log.attempted, len(setup_times + more_times))
        # Tracing overhead, base = the untraced first half of this run.
        values["trace.overhead.scene_steps_per_s"] = (
            base["scene_steps_per_s"] / figures["scene_steps_per_s"])
        values["trace.overhead.scan_ms_p50"] = figures["scan_ms_p50"] / base["scan_ms_p50"]
    return figures, values, logs, tracer, len(digests | more_digests) == 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ddfe" / "__init__.py").is_file():
        return fail(f"no ddfe source under {SRC}")
    sys.path.insert(0, str(SRC))
    import ddfe
    if Path(ddfe.__file__).resolve().parent != (SRC / "ddfe").resolve():
        return fail(f"imported ddfe from {ddfe.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {**REPORT_UNITS, **{m["name"]: m["unit"] for m in spec["end_to_end"]}}

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        figures, values, logs, tracer, same_inputs = measure(
            workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    errors = [e for log in logs for e in log.errors]
    if not same_inputs:
        errors.append("set-up repetitions made different inputs from one seed")
    figures["error_rate"] = harness.error_rate(logs)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_reps": SETUPS_BEFORE + SETUPS_AFTER,
        "host": harness.host_record(),
        "figures": {k: {"value": v, "unit": units[k]} for k, v in figures.items()},
        "errors": errors[:20],
    }
    if tracer is not None:
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "host": report["host"],
            "spans": tracer.spans,
            "counts": [[root, name, v] for (root, name), v in tracer.counts.items()],
        }))
        report["spans_file"] = str(spans_path.relative_to(ROOT))

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"workload produced no value for {missing}")
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0 and same_inputs,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
