"""Benchmark of slopelab: three seeded workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload verify_c3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh single-threaded interpreter (worker.py),
one after another.  With --trace 0 the run prints the end-to-end
metrics; with --trace 1 it runs the workload untraced and then traced
over the same passes, and prints the per-layer metrics with the tracing
overhead.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Everything else the run
learns (environment, tail latency, failure share, the spans) goes to
.perfbench_out/ under the repository root.  README.md next to this file
explains the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("verify_c3", "jones_c4", "formulas")
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
# Fresh interpreters that only set up, besides the measuring one; set-up
# time is the median over all of them.
SETUP_PROBES = 8
# Each workload's run must end within this many seconds.
TIME_LIMIT = 170.0
# A workload holds this many ops beyond the tail percentile it reports.
TAIL_SAMPLES = 10


class BenchError(Exception):
    pass


def _worker(argv: list, deadline: float) -> tuple:
    """Run worker.py with ``argv``; return (spawn clock, its JSON report)."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError(f"out of time before starting worker {argv}")
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {argv} did not finish within {remaining:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {argv} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def tail_latency(latencies: list):
    """(value, percentile) of the highest percentile that has at least
    TAIL_SAMPLES samples beyond it, or None when too few ops ran."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_SAMPLES
    if rank < 1:
        return None
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def environment(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            )
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git not available)"
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
    }


def measure(workload: str, seed: int, seconds: float, ops: int, deadline: float) -> dict:
    """End-to-end metrics of one workload (the --trace 0 run)."""
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    for _ in range(SETUP_PROBES):
        started, probe = _worker(base + ["--setup-only"], deadline)
        setups.append(probe["setup_end"] - started)
    timing = ["--ops", str(ops), "--passes", "1"] if ops else ["--seconds", str(seconds)]
    started, report = _worker(base + timing, deadline)
    setups.append(report["setup_end"] - started)
    latencies = report["latencies"]
    failed = len(report["failures"])
    tail = tail_latency(latencies)
    return {
        "attempted": len(latencies),
        "failed": failed,
        "failures": report["failures"][:20],
        "passes": report["passes"],
        "inputs": report["inputs"],
        "metrics": {
            "ops_per_s": (len(latencies) - failed) / sum(latencies),
            "op_p50_s": statistics.median(latencies),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": report["max_rss_kb"] / 1024,
        },
        "setup_samples_s": setups,
        "op_tail_s": None if tail is None else {"value": tail[0], "percentile": tail[1]},
        "fail_share": failed / len(latencies),
    }


def measure_traced(workload: str, seed: int, seconds: float, ops: int, deadline: float) -> dict:
    """Per-layer metrics of one workload (the --trace 1 run)."""
    base = ["--workload", workload, "--seed", str(seed)]
    if ops:
        base += ["--ops", str(ops)]
        untraced_timing = ["--passes", "1"]
    else:
        untraced_timing = ["--seconds", str(seconds / 2)]
    _, untraced = _worker(base + untraced_timing, deadline)
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    _, traced = _worker(
        base + ["--passes", str(untraced["passes"]), "--trace", "1", "--spans-out", str(spans)],
        deadline,
    )
    if traced["missing_layers"]:
        raise BenchError(
            f"{workload}: layers that must run recorded no calls: {traced['missing_layers']}"
        )
    metrics = dict(traced["layer_metrics"])
    metrics["trace.overhead_share"] = sum(traced["latencies"]) / sum(untraced["latencies"]) - 1
    failures = untraced["failures"] + traced["failures"]
    return {
        "attempted": len(untraced["latencies"]) + len(traced["latencies"]),
        "failed": len(failures),
        "failures": failures[:20],
        "passes": untraced["passes"],
        "inputs": traced["inputs"],
        "metrics": metrics,
        "first_pass_calls": traced["first_pass_calls"],
        "bindings": traced["bindings"],
        "spans_file": str(spans.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ops", type=int, default=0,
        help="tiny run: one pass over the first N inputs instead of --seconds",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "slopelab" / "__init__.py").is_file():
        print(f"error: no slopelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    units = dict(tracing.all_layer_metrics() if args.trace else END_TO_END)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    run = measure_traced if args.trace else measure
    results = {}
    try:
        for name in names:
            deadline = time.perf_counter() + TIME_LIMIT
            results[name] = run(name, args.seed, args.seconds, args.ops, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    for name, result in results.items():
        record = {"workload": name, "trace": args.trace, "seconds": args.seconds,
                  "env": env} | result
        path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="ascii")
        _print_human(name, result, units)
    print("env " + json.dumps(env, sort_keys=True))

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {}
    for name, result in results.items():
        prefix = f"{name}." if len(results) > 1 else ""
        for metric, value in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def _print_human(name: str, result: dict, units: dict):
    print(f"{name}: {result['attempted']} ops in {result['passes']} passes "
          f"over {result['inputs']} inputs")
    for metric, value in result["metrics"].items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"  {metric:38s} {shown} {units[metric]}")
    if "fail_share" in result:
        print(f"  {'fail_share':38s} {result['fail_share']:14.6g} ratio")
        tail = result["op_tail_s"]
        if tail is None:
            print(f"  {'op_tail_s':38s} {'n/a':>14s} s (fewer than {TAIL_SAMPLES + 1} ops)")
        else:
            print(f"  {'op_tail_s':38s} {tail['value']:14.6g} s "
                  f"(p{tail['percentile']:.1f} of {result['attempted']} ops)")
    for failure in result["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
