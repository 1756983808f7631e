"""Spans and counters recorded from outside the slopelab package.

``Tracer.install`` replaces each traced library function by a wrapper in
every module (and class) that binds it, so a name brought in by
``from .x import y`` is traced wherever it is called from.  A span is
``[name, start, end, parent, op]``: the parent is the index of the
enclosing span (-1 for none) and ``op`` the number of the operation the
span belongs to.  Spans stay in memory until the run ends.  Calls too
frequent for a span, such as ``LaurentPoly.__mul__``, only bump a
counter.

The module also turns spans into the per-layer metrics listed in
``LAYER_METRICS``; README.md says which end-to-end metric each should
move, and on which workload.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

perf_counter = time.perf_counter

# Functions traced with a span, as (module, attribute path).
SPAN_TARGETS = [
    ("slopelab.tl", "colored_jones"),
    ("slopelab.tl", "jw_projector"),
    ("slopelab.tl", "crossing_block"),
    ("slopelab.tl", "tangle_element"),
    ("slopelab.tl", "tl_multiply"),
    ("slopelab.tl", "tensor"),
    ("slopelab.tl", "markov_closure"),
    ("slopelab.laurent", "LaurentPoly.exact_div"),
    ("slopelab.qip", "maximize_degree"),
    ("slopelab.qip", "lattice_min"),
    ("slopelab.diagrams", "build_standard_diagram"),
    ("slopelab.diagrams", "writhe"),
    ("slopelab.knots", "parse_knot_spec"),
    ("slopelab.knots", "associated_pretzel"),
    ("slopelab.degrees", "pretzel_js_jx"),
    ("slopelab.degrees", "montesinos_js_jx"),
    ("slopelab.degrees", "montesinos_corrections"),
    ("slopelab.degrees", "tangle_reduction_total"),
    ("slopelab.surfaces", "build_sstar_surface"),
    ("slopelab.surfaces", "build_reference_surface"),
    ("slopelab.surfaces", "twist_number"),
    ("slopelab.surfaces", "boundary_slope"),
    ("slopelab.surfaces", "euler_over_sheets"),
    ("slopelab.surfaces", "incompressibility_check"),
    ("slopelab.verify", "predicted_min_degree"),
    ("slopelab.verify", "verify"),
    ("slopelab.cli", "main"),
]
# Functions too hot for a span: only their calls are counted.
COUNT_TARGETS = [("slopelab.laurent", "LaurentPoly.__mul__")]

OP = "op"  # name of the root span around each timed operation


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _observe_terms(tracer, args, result):
    element = result[0] if isinstance(result, tuple) else result
    if len(element.terms) > tracer.maxima["tl.terms"]:
        tracer.maxima["tl.terms"] = len(element.terms)


def _observe_lattice_min(tracer, args, result):
    t = args[1]
    tracer.counts["qip.lattice_min.degenerate"] += any(
        v == 0 or v == t for v in result.minimizer
    )
    tracer.counts["qip.lattice_min.certified"] += bool(result.certificate_checked)


# TL functions whose returned element sizes feed tl.max_terms.
TERM_SOURCES = [
    "tl.jw_projector", "tl.crossing_block", "tl.tangle_element", "tl.tl_multiply", "tl.tensor"
]
OBSERVERS = {name: _observe_terms for name in TERM_SOURCES}
OBSERVERS["qip.lattice_min"] = _observe_lattice_min


def _resolve(module: str, path: str):
    """(owner, attribute, function) for 'func' or 'Class.method'."""
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.maxima = Counter()
        self.originals = {}  # span or counter name -> original function
        self.bindings = defaultdict(list)  # name -> ["module.attr", ...]
        self.active = False
        self.op = -1
        self._stack = []
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, observe = self.spans, self._stack, OBSERVERS.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = [name, perf_counter(), None, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counted, fn)

    # -- installation -----------------------------------------------------

    def install(self, extra_modules=()):
        """Wrap every target in every slopelab module and class that binds
        it, and in ``extra_modules`` (the benchmark's own callers)."""
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "slopelab" or key.startswith("slopelab.")
        ] + list(extra_modules)
        targets = [(t, self._span_wrapper) for t in SPAN_TARGETS]
        targets += [(t, self._count_wrapper) for t in COUNT_TARGETS]
        for (module, path), make in targets:
            name = f"{module.rsplit('.', 1)[-1]}.{path}"
            original = _resolve(module, path)[2]
            wrapper = make(name, original)
            self.originals[name] = original
            for owner, label in _namespaces(modules):
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, attr, wrapper)
                        self._undo.append((owner, attr, original))
                        self.bindings[name].append(f"{label}.{attr}")
        missed = self.unwrapped_bindings(modules)
        if missed:
            raise RuntimeError(f"tracing left these bindings unwrapped: {missed}")

    def unwrapped_bindings(self, modules) -> list:
        """Bindings in ``modules`` that still hold an original function."""
        originals = {id(fn): name for name, fn in self.originals.items()}
        return [
            f"{label}.{attr}"
            for owner, label in _namespaces(modules)
            for attr, value in vars(owner).items()
            if id(value) in originals
        ]

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- operations -------------------------------------------------------

    def run_op(self, op: int, fn, *args):
        """Run fn(*args) as operation ``op`` under a root span."""
        self.op = op
        self.active = True
        try:
            return self._span_wrapper(OP, fn)(*args)
        finally:
            self.active = False

    def cache_ratios(self) -> dict:
        """Hit ratio of each lru-cached traced function so far."""
        out = {}
        for name, fn in self.originals.items():
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                calls = info.hits + info.misses
                out[name] = info.hits / calls if calls else 0.0
        return out


def _namespaces(modules):
    """Each module, and each class it defines, with a printable label."""
    for mod in modules:
        yield mod, mod.__name__
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == mod.__name__:
                yield value, f"{mod.__name__}.{value.__qualname__}"


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for lo, hi in sorted(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children[index]
        ):
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def outermost_time(spans, names) -> float:
    """Total duration of spans named in ``names`` that have no ancestor
    named in ``names`` (so recursion and nesting count once)."""
    names = set(names)
    inside = [False] * len(spans)
    total = 0.0
    for index, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            inside[index] = inside[parent] or spans[parent][0] in names
        if name in names and not inside[index]:
            total += end - start
    return total


# ---------------------------------------------------------------------------
# per-layer metrics

# (metric, unit, kind, source spans).  Kinds: "incl" is outermost time
# per op, "self" self time per op, "calls" the number of calls,
# "max_per_op" the most calls any single op made; the rest are named.
LAYER_METRICS = [
    ("tl.colored_jones_s", "s/op", "incl", ["tl.colored_jones"]),
    ("tl.projector_s", "s/op", "incl", ["tl.jw_projector"]),
    ("tl.tangle_s", "s/op", "incl", ["tl.tangle_element"]),
    ("tl.compose_s", "s/op", "self", ["tl.tl_multiply"]),
    ("tl.closure_s", "s/op", "incl", ["tl.markov_closure"]),
    ("tl.multiply_calls", "count", "calls", ["tl.tl_multiply"]),
    ("tl.max_terms", "count", "max_terms", TERM_SOURCES),
    ("tl.projector_hit_ratio", "ratio", "hit_ratio", ["tl.jw_projector"]),
    ("tl.crossing_block_hit_ratio", "ratio", "hit_ratio", ["tl.crossing_block"]),
    ("laurent.mul_calls", "count", "counter", ["laurent.LaurentPoly.__mul__"]),
    ("laurent.exact_div_s", "s/op", "incl", ["laurent.LaurentPoly.exact_div"]),
    ("qip.maximize_degree_s", "s/op", "incl", ["qip.maximize_degree"]),
    ("qip.lattice_min_s", "s/op", "incl", ["qip.lattice_min"]),
    ("qip.lattice_min_calls", "count", "calls", ["qip.lattice_min"]),
    ("qip.degenerate_share", "ratio", "lattice_share", ["qip.lattice_min"]),
    ("qip.certificate_share", "ratio", "lattice_share", ["qip.lattice_min"]),
    ("diagrams.build_calls_per_op", "count", "max_per_op", ["diagrams.build_standard_diagram"]),
    ("diagrams.build_s", "s/op", "incl", ["diagrams.build_standard_diagram"]),
    ("diagrams.writhe_s", "s/op", "incl", ["diagrams.writhe"]),
    ("knots.associated_pretzel_calls_per_op", "count", "max_per_op", ["knots.associated_pretzel"]),
    ("knots.parse_s", "s/op", "incl", ["knots.parse_knot_spec"]),
    ("degrees.js_jx_s", "s/op", "incl", ["degrees.pretzel_js_jx", "degrees.montesinos_js_jx"]),
    (
        "degrees.corrections_s", "s/op", "incl",
        ["degrees.montesinos_corrections", "degrees.tangle_reduction_total"],
    ),
    (
        "surfaces.build_s", "s/op", "incl",
        ["surfaces.build_sstar_surface", "surfaces.build_reference_surface"],
    ),
    (
        "surfaces.invariants_s", "s/op", "incl",
        ["surfaces.twist_number", "surfaces.boundary_slope", "surfaces.euler_over_sheets"],
    ),
    ("surfaces.incompressibility_s", "s/op", "incl", ["surfaces.incompressibility_check"]),
    ("verify.predict_s", "s/op", "incl", ["verify.predicted_min_degree"]),
    ("verify.verify_self_s", "s/op", "self", ["verify.verify"]),
    ("cli.main_self_s", "s/op", "self", ["cli.main"]),
]
LAYERS = ["tl", "laurent", "qip", "diagrams", "knots", "degrees", "surfaces", "verify", "cli"]
# Self time of each layer's spans as a share of op time.  LaurentPoly
# products are counted, not timed, so their time shows under the caller.
SHARE_METRICS = [(f"{layer}.self_share", "ratio") for layer in LAYERS]
OVERHEAD_METRIC = ("trace.overhead_share", "ratio")


def all_layer_metrics() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    return [(name, unit) for name, unit, _, _ in LAYER_METRICS] + SHARE_METRICS + [
        OVERHEAD_METRIC
    ]


def summarize(spans, counts, maxima, cache_ratios) -> dict:
    """Per-layer figures of one span list.

    Times are per op; counts, maxima and ratios are for the span list
    as a whole.  Also returns ``calls``, the number of spans per name.
    """
    ops = [s for s in spans if s[0] == OP]
    n_ops = len(ops)
    op_time = sum(s[2] - s[1] for s in ops)
    selfs = self_times(spans)
    calls = Counter(s[0] for s in spans)
    per_op = defaultdict(Counter)
    for s in spans:
        per_op[s[0]][s[4]] += 1
    self_by_name = defaultdict(float)
    for s, t in zip(spans, selfs):
        self_by_name[s[0]] += t
    lattice = calls["qip.lattice_min"]
    out = {}
    for name, _, kind, sources in LAYER_METRICS:
        if kind == "incl":
            value = outermost_time(spans, sources) / n_ops
        elif kind == "self":
            value = sum(self_by_name[s] for s in sources) / n_ops
        elif kind == "calls":
            value = sum(calls[s] for s in sources)
        elif kind == "max_per_op":
            value = max(per_op[sources[0]].values(), default=0)
        elif kind == "counter":
            value = counts.get(sources[0], 0)
        elif kind == "max_terms":
            value = maxima.get("tl.terms", 0)
        elif kind == "hit_ratio":
            value = cache_ratios.get(sources[0], 0.0)
        elif name == "qip.degenerate_share":
            value = counts.get("qip.lattice_min.degenerate", 0) / lattice if lattice else 0.0
        else:
            value = counts.get("qip.lattice_min.certified", 0) / lattice if lattice else 0.0
        out[name] = value
    for name, _ in SHARE_METRICS:
        layer = layer_of(name)
        layer_self = sum(t for s, t in self_by_name.items() if layer_of(s) == layer)
        out[name] = layer_self / op_time if op_time else 0.0
    return {"metrics": out, "calls": dict(calls) | dict(counts)}


def missing_layers(calls: dict, layers) -> list:
    """Metrics of the given layers whose source functions were never called."""
    missing = []
    for name, _, _, sources in LAYER_METRICS:
        if layer_of(name) in layers and not any(calls.get(s) for s in sources):
            missing.append(f"{name} (no call to {', '.join(sources)})")
    return missing
