"""One workload in one fresh, single-threaded interpreter.

Started by run.py; prints one JSON object as its last line of output.
With --setup-only it stops once the inputs are ready, and reports the
clock reading at that moment so that the parent can time the whole
set-up from before the interpreter started.

Every op is timed on its own and checked right after, outside its
timing.  The run repeats whole passes over the seeded inputs until the
timed ops add up to --seconds (or for exactly --passes passes), so the
mix of inputs is the same in every run.
"""
from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import slopelab  # noqa: E402,F401  (part of the timed set-up)
import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--ops", type=int, default=0, help="use only the first N inputs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="write the recorded spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    specs = workload.generate(args.seed)
    if args.ops:
        specs = specs[: args.ops]
    setup_end = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(extra_modules=[workloads])

    run = workload.run if tracer is None else _traced(tracer, workload.run)
    latencies, failures, first_pass = [], [], None
    busy = 0.0
    passes = 0
    while True:
        for spec in specs:
            start = time.perf_counter()
            try:
                result = run(spec)
            except Exception as exc:  # a crashing op is a failed op
                result, problem = None, f"{type(exc).__name__}: {exc}"
            else:
                problem = None
            elapsed = time.perf_counter() - start
            if problem is None:
                problem = _check(workload, spec, result)
            latencies.append(elapsed)
            busy += elapsed
            if problem is not None:
                failures.append(f"{spec}: {problem}")
        passes += 1
        if tracer is not None and passes == 1:
            first_pass = (
                len(tracer.spans),
                tracer.counts.copy(),
                tracer.maxima.copy(),
                tracer.cache_ratios(),
            )
        if args.passes:
            if passes >= args.passes:
                break
        elif busy >= args.seconds:
            break

    out = {
        "setup_end": setup_end,
        "latencies": latencies,
        "passes": passes,
        "inputs": len(specs),
        "failures": failures,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        out.update(_trace_report(tracer, first_pass, workload, args.spans_out))
    print(json.dumps(out))
    return 0


def _traced(tracer, fn):
    ops = itertools.count()
    return lambda spec: tracer.run_op(next(ops), fn, spec)


def _check(workload, spec, result):
    try:
        return workload.check(spec, result)
    except Exception as exc:  # a check that cannot read the output fails the op
        return f"check raised {type(exc).__name__}: {exc}"


def _trace_report(tracer, first_pass, workload, spans_out):
    """Per-layer metrics: counts, maxima and ratios from the first pass
    (cold caches, as in one CLI run), times per op over all passes."""
    n_first, counts, maxima, ratios = first_pass
    first = tracing.summarize(tracer.spans[:n_first], counts, maxima, ratios)
    whole = tracing.summarize(
        tracer.spans, tracer.counts, tracer.maxima, tracer.cache_ratios()
    )
    kinds = {name: kind for name, _, kind, _ in tracing.LAYER_METRICS}
    metrics = {
        name: (whole if kinds.get(name) in ("incl", "self", None) else first)["metrics"][name]
        for name in whole["metrics"]
    }
    if spans_out:
        path = Path(spans_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="ascii") as fh:
            fields = ["name", "start", "end", "parent", "op"]
            json.dump({"fields": fields, "spans": tracer.spans}, fh)
    return {
        "layer_metrics": metrics,
        "first_pass_calls": first["calls"],
        "missing_layers": tracing.missing_layers(first["calls"], workload.layers),
        "bindings": dict(tracer.bindings),
    }


if __name__ == "__main__":
    sys.exit(main())
