"""Run one benchmark workload; print its result as the last stdout line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_churn --seed 1 --seconds 28 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with spans around each layer's
public functions and prints the per-layer metrics instead.  The line
before the result is a JSON report with every detail the metrics came
from (per-operation medians and tails, counts with their bases, host
facts).  ``--workload all`` runs every workload, each in a process of
its own, and prints one table.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy loads: on a host with a
# few cores, idle-spinning BLAS threads in the benchmark and in each
# shard worker would measure the scheduler, not the program.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import json
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

from common import (
    CALIB_REFERENCE_S,
    Ledger,
    calibrate,
    capture_c_output,
    count_xerbla_lines,
    host_facts,
    median,
    timing,
)
from layers import layer_metrics
from tracing import Tracer, instrument
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: User-facing metric -> (operation kind, statistic) or (source, None),
#: the source being an end-to-end metric or a closing-phase figure.
NAMED_SOURCES = {
    "tick_p50_s": ("tick", "p50"),
    "tick_tail_s": ("tick", "tail"),
    "device_slices_per_s": ("work_per_s", None),
    "register_p50_s": ("register", "p50"),
    "remove_p50_s": ("remove", "p50"),
    "policy_push_p50_s": ("push", "p50"),
    "checkpoint_save_s": ("checkpoint_save_s", None),
    "resume_s": ("resume_s", None),
    "checkpoint_bytes_per_device": ("checkpoint_bytes_per_device", None),
    "solve_p50_s": ("solve", "p50"),
    "pareto_s": ("pareto_s", None),
}
#: The user-facing metrics each workload reports in its report line.
NAMED = {
    "fleet_churn": (
        "tick_p50_s",
        "tick_tail_s",
        "device_slices_per_s",
        "register_p50_s",
        "remove_p50_s",
        "policy_push_p50_s",
        "checkpoint_save_s",
        "resume_s",
        "checkpoint_bytes_per_device",
    ),
    "service_2shard": (
        "tick_p50_s",
        "tick_tail_s",
        "device_slices_per_s",
        "register_p50_s",
        "remove_p50_s",
        "policy_push_p50_s",
        "checkpoint_save_s",
        "checkpoint_bytes_per_device",
    ),
    "lp_curve_q32": ("solve_p50_s", "pareto_s"),
}
UNITS = {"device_slices_per_s": "1/s", "checkpoint_bytes_per_device": "B"}


class Run:
    """Arguments and shared state of one benchmark run."""

    def __init__(self, args, workdir: Path, tracer: Tracer | None):
        self.seed = args.seed
        self.seconds = args.seconds
        self.workdir = workdir
        self.tracer = tracer
        self.ledger = Ledger()


def _ops(window) -> dict:
    return {kind: timing(values) for kind, values in window.samples.items()}


def busy_s(window) -> float:
    """Seconds the window's timed operations take together."""
    return sum(sum(values) for values in window.samples.values())


def at_reference_speed(seconds: float, window) -> float:
    """``seconds`` scaled to a host whose calibration unit takes
    :data:`CALIB_REFERENCE_S`.  A host that speeds up or slows down
    moves the window's operations and its calibration units together;
    the ratio keeps what the program changed."""
    return seconds * CALIB_REFERENCE_S / median(window.calib)


def named_metrics(workload: str, metrics: dict, report: dict) -> dict:
    """The user-facing metrics of one workload, each with its unit."""
    out = {"setup_s": {"value": metrics["setup_s"][0], "unit": "s"}}
    for name in NAMED[workload]:
        source, stat = NAMED_SOURCES[name]
        entry = {"unit": UNITS.get(name, "s")}
        if stat == "p50":
            entry["value"] = report["ops"][source]["p50"]
        elif stat == "tail":
            entry.update(report["ops"][source]["tail"])
        elif source in metrics:
            entry["value"] = metrics[source][0]
        elif source in report:
            entry["value"] = report[source]
        else:
            entry["value"] = report["closing"][source]
        out[name] = entry
    out["peak_rss_mb"] = {"value": metrics["peak_rss_mb"][0], "unit": "MB"}
    out["failed_op_share"] = {"value": report["failed_op_share"], "unit": "ratio"}
    return out


def run_untraced(workload, run: Run) -> tuple[dict, dict]:
    setups = []
    for repeat in range(workload.setup_repeats):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
        if repeat < workload.setup_repeats - 1:
            workload.teardown()
    window = workload.window(run.seconds)
    closing = workload.finish()
    workload.verify()
    counts = workload.counts()
    peak = workload.peak_rss_mb()
    workload.teardown()
    op_p50 = median(window.samples[workload.primary])
    cycle = busy_s(window) / window.cycles
    metrics = {
        "setup_s": (median(setups), "s"),
        "op_p50_ref_s": (at_reference_speed(op_p50, window), "s"),
        "cycle_ref_s": (at_reference_speed(cycle, window), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    report = {
        "setup_s_samples": setups,
        "primary_op": workload.primary,
        "ops": _ops(window),
        "op_p50_s": op_p50,
        "cycles": window.cycles,
        "cycle_s": cycle,
        "calib_unit_p50_s": median(window.calib),
        "calib_units": len(window.calib),
        "window_s": window.wall_s,
        "work_units": window.work_units,
        "work_per_s": window.work_units / busy_s(window),
        "closing": closing,
        "counts": counts,
    }
    return metrics, report


def run_traced(workload, run: Run) -> tuple[dict, dict]:
    """An untraced window, then a fresh set-up and the same window
    traced, so both step the same fleet; the two share ``--seconds``."""
    workload.setup()
    baseline = workload.window(run.seconds / 2)
    workload.teardown()
    workload.setup()
    run.tracer.enabled = True
    traced = workload.window(run.seconds / 2)
    closing = workload.finish()
    run.tracer.enabled = False
    workload.verify()
    counts = workload.counts()
    workload.teardown()
    run.tracer.dump(run.workdir / "spans.jsonl")
    untraced_p50 = median(baseline.samples[workload.primary])
    traced_p50 = median(traced.samples[workload.primary])
    metrics = layer_metrics(run.tracer, workload, counts)
    metrics["trace.overhead_ratio"] = (traced_p50 / untraced_p50, "ratio")
    report = {
        "primary_op": workload.primary,
        "untraced_op_p50_s": untraced_p50,
        "traced_op_p50_s": traced_p50,
        "ops": _ops(traced),
        "closing": closing,
        "counts": counts,
        "spans": len(run.tracer.rows) // len(Tracer.FIELDS),
    }
    return metrics, report


def run_all(args) -> int:
    """Run every workload in a process of its own; print a table."""
    failed = attempted = 0
    summary = {}
    for name in WORKLOADS:
        command = [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or len(lines) < 2:
            sys.stderr.write(done.stderr)
            print(f"{name}: failed (exit {done.returncode})")
            return 1
        result = json.loads(lines[-1])
        report = json.loads(lines[-2])["report"]
        attempted += result["attempted"]
        failed += result["failed"]
        shown = report.get("named", result["metrics"])
        summary[name] = shown
        for metric, entry in shown.items():
            extra = ""
            if "percentile" in entry:
                extra = f"  (p{entry['percentile']}, n={entry['n']})"
            print(
                f"{name:15s} {metric:32s} {entry['value']:>14.6g} "
                f"{entry['unit']}{extra}"
            )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": summary,
            }
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        help="workload name, or 'all' to run each in a process of its own",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro.core.pareto_sweep  # noqa: F401
        import repro.runtime
        import repro.service  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}", file=sys.stderr)
        return 2

    workdir = Path(".perfbench_work") / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = None
    if args.trace:
        tracer = Tracer()
        instrument(tracer)
    run = Run(args, workdir, tracer)
    workload = WORKLOADS[args.workload](run)
    captured = workdir / "c_output.log"
    calib_s = calibrate()
    try:
        with capture_c_output(captured):
            if args.trace:
                metrics, report = run_traced(workload, run)
            else:
                metrics, report = run_untraced(workload, run)
    except Exception:
        traceback.print_exc()
        output = captured.read_text(errors="replace")[-4000:]
        print(
            f"perfbench: {args.workload} failed; captured output tail:\n{output}",
            file=sys.stderr,
        )
        return 1
    calib_end_s = calibrate()
    xerbla = count_xerbla_lines(captured)
    if args.trace:
        metrics["lp.xerbla_lines"] = (xerbla, "count")
        metrics["host.calib_s"] = (calib_s, "s")
    ledger = run.ledger
    host = host_facts(repro.runtime.resolve_backend_name("auto"))
    report.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        host=dict(host, calib_s=calib_s, calib_end_s=calib_end_s),
        xerbla_lines=xerbla,
        attempted=ledger.attempted,
        failed=ledger.failed,
        failed_op_share=ledger.failed / ledger.attempted,
        failures=ledger.failures,
    )
    if not args.trace:
        report["named"] = named_metrics(args.workload, metrics, report)
    print(json.dumps({"report": report}, sort_keys=True))
    result_metrics = {
        name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
    }
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": result_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
