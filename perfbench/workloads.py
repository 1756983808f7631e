"""The three benchmark workloads: seeded inputs, the timed operation and
the output check of each.

A generator turns the seed into one *pass*: a list of knot spec
strings, which is all the program under test ever receives.  A run
repeats whole passes, so every run of a workload sees the same mix of
inputs whatever the host speed.  Each check runs outside the timed
region and returns None when the output is right, or a reason.

Why each workload exists, and which layer it stresses, is written
down in README.md next to this file.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from slopelab import (
    MontesinosKnot,
    PretzelKnot,
    colored_jones,
    montesinos_js_jx,
    parse_knot_spec,
    predicted_min_degree,
    verify,
)
from slopelab import cli
from slopelab.diagrams import build_standard_diagram, writhe
from slopelab.errors import HypothesisViolation, SlopelabError
from slopelab.knots import associated_pretzel, check_strict_pretzel

# verify() picks the default oracle colours {2, 3} up to this many crossings.
VERIFY_MAX_CROSSINGS = 30
# Highest colour whose predicted minimal degree a formulas op computes.
FORMULAS_TOP_COLOR = 12
JONES_COLOR = 4


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], list]
    run: Callable[[str], object]
    check: Callable[[str, object], Optional[str]]
    # Layers every run of this workload must reach; see README.md.
    layers: frozenset


# ---------------------------------------------------------------------------
# input generators


def _strict_pretzel(rng: random.Random, m: int, crossings: int, q_max: int) -> str:
    """A strict pretzel spec p:q0,...,qm with sum |qi| == crossings.

    Every entry starts at 3 and random entries grow by 2 until the
    total is reached; draws with an entry above q_max are redrawn.
    """
    extra, odd = divmod(crossings - 3 * (m + 1), 2)
    if extra < 0 or odd or crossings > q_max * (m + 1):
        raise ValueError(f"no strict {m + 1}-tangle pretzel has {crossings} crossings")
    while True:
        q = [3] * (m + 1)
        for _ in range(extra):
            q[rng.randrange(m + 1)] += 2
        if max(q) <= q_max:
            q[0] = -q[0]
            return PretzelKnot(tuple(q)).spec()


def _strict_montesinos_knot(rng: random.Random, m: int, q_max: int, tail_max: int):
    """A random strict Montesinos knot with m + 1 tangles, or None.

    Draws small fractions -1/(q0 +- 1/b) and 1/(qi - 1 + 1/a) with odd
    q0, qi in [3, q_max] and a, b in [1, tail_max], and keeps the knot
    only if MontesinosKnot.from_fractions accepts it and its associated
    pretzel has the strict shape that montesinos_js_jx demands.
    """
    q0 = rng.randrange(3, q_max + 1, 2)
    tail = Fraction(rng.choice((1, -1)), rng.randrange(1, tail_max + 1))
    fractions = [-1 / (q0 + tail)]
    for _ in range(m):
        qi = rng.randrange(3, q_max + 1, 2)
        fractions.append(1 / (qi - 1 + Fraction(1, rng.randrange(1, tail_max + 1))))
    try:
        knot = MontesinosKnot.from_fractions(fractions)
        montesinos_js_jx(knot)
    except SlopelabError:
        return None
    return knot


def _strict_montesinos(rng, m, q_max, tail_max, crossings=None) -> str:
    """A strict Montesinos spec; with ``crossings = (lo, hi)``, one whose
    standard diagram has between lo and hi crossings."""
    lo, hi = crossings or (0, float("inf"))
    for _ in range(20_000):
        knot = _strict_montesinos_knot(rng, m, q_max, tail_max)
        if knot is not None and lo <= len(build_standard_diagram(knot).crossings) <= hi:
            return knot.spec()
    raise ValueError(f"no strict Montesinos knot with m={m} and {crossings} crossings")


# Strata of the verify_c3 pass.  The cost of a verify op grows with the
# crossing count, so every pass holds the same crossing counts and the
# seed only picks the knots within each stratum.  Pretzels are drawn
# with an exact crossing count, as (tangle count m, crossings), two per
# count; Montesinos knots within a band, as (m, lowest, highest), four
# per band, because rejection hits an exact count too slowly.
VERIFY_PRETZEL_STRATA = 2 * [(2, c) for c in range(9, VERIFY_MAX_CROSSINGS + 1, 2)] + 2 * [
    (4, c) for c in range(15, VERIFY_MAX_CROSSINGS + 1, 2)
]
VERIFY_MONTESINOS_STRATA = 4 * [
    (2, 14, 17), (2, 18, 21), (2, 22, 25), (2, 26, 29), (4, 22, 25), (4, 26, 29)
]


def generate_verify_c3(seed: int) -> list:
    rng = random.Random(seed)
    specs = [_strict_pretzel(rng, m, c, c) for m, c in VERIFY_PRETZEL_STRATA]
    specs += [
        _strict_montesinos(rng, m, 9 if m == 2 else 5, 4 if m == 2 else 2, (lo, hi))
        for m, lo, hi in VERIFY_MONTESINOS_STRATA
    ]
    rng.shuffle(specs)
    return specs


# Strata of the formulas pass as (family, tangle count m, count).
FORMULAS_Q_MAX = 11
FORMULAS_STRATA = [("p", 2, 16), ("p", 4, 16), ("m", 2, 16), ("m", 4, 16)]


def generate_formulas(seed: int) -> list:
    rng = random.Random(seed)
    specs = []
    for family, m, count in FORMULAS_STRATA:
        for _ in range(count):
            if family == "p":
                q = [-rng.randrange(3, FORMULAS_Q_MAX + 1, 2)]
                q += [rng.randrange(3, FORMULAS_Q_MAX + 1, 2) for _ in range(m)]
                specs.append(PretzelKnot(tuple(q)).spec())
            else:
                specs.append(_strict_montesinos(rng, m, 9, 4))
    rng.shuffle(specs)
    return specs


# The jones_c4 pass: knots from 3 to 9 crossings, pretzel and
# Montesinos, strict (p:-3,3,3) and not.  At colour 4 the cost of two
# knots with the same crossing count can differ by 1.5x and a run holds
# only about ten ops, so a free draw would let the seed, not the code,
# move the timings.  The seed picks the chirality of each pretzel
# instead: the mirror image has the same state sum with v -> 1/v, so
# the same cost.  (The mirror of a Montesinos knot has two negative
# tangles, which MontesinosKnot cannot hold, so that one stays fixed.)
# Six ops are 5-crossing pretzels of equal cost, so the median latency
# is a middle value of six like ops: a single op of this size varies by
# about 20% from run to run on a shared host.  They are spread through
# the pass, so that the median samples the host's speed over the whole
# run, as ops_per_s does.
JONES_BASE = (
    "p:-3,-1,-1",
    "p:1,1,1",
    "p:-3,-1,1",
    "p:-3,-1,-1",
    "m:-1/2,1/3,2/3",
    "p:-3,-1,1",
    "p:-3,-1,-1",
    "p:-3,3,3",
    "p:-3,-1,1",
)


def generate_jones_c4(seed: int) -> list:
    rng = random.Random(seed)
    specs = []
    for spec in JONES_BASE:
        knot = parse_knot_spec(spec)
        if isinstance(knot, PretzelKnot) and rng.random() < 0.5:
            knot = knot.mirror()
        specs.append(knot.spec())
    return specs


# ---------------------------------------------------------------------------
# operations and checks


def run_verify_c3(spec: str):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", spec, "--json", "-"])
    return code, out.getvalue()


def check_verify_c3(spec: str, result) -> Optional[str]:
    code, text = result
    if code != 0:
        return f"exit code {code}"
    report = json.loads(text)
    if report.get("schema") != "slopelab-report/1":
        return f"schema {report.get('schema')!r}"
    if report.get("pass") is not True:
        return f"report does not pass: {report.get('reasons')}"
    return None


def run_jones_c4(spec: str):
    return colored_jones(parse_knot_spec(spec), JONES_COLOR)


def _is_strict(knot) -> bool:
    q = knot.q if isinstance(knot, PretzelKnot) else associated_pretzel(knot).q
    try:
        check_strict_pretzel(q)
    except HypothesisViolation:
        return False
    return True


def check_jones_c4(spec: str, poly) -> Optional[str]:
    value_at_one = sum(poly.coeffs.values())
    if abs(value_at_one) != JONES_COLOR:
        return f"|J(1)| = {abs(value_at_one)}, expected {JONES_COLOR}"
    knot = parse_knot_spec(spec)
    if _is_strict(knot):
        predicted = predicted_min_degree(knot, JONES_COLOR)
        if poly.min_degree() != predicted:
            return f"min degree {poly.min_degree()}, predicted {predicted}"
    elif isinstance(knot, PretzelKnot) and _is_strict(knot.mirror()):
        # J of the mirror image is J(1/v): its top degree mirrors the
        # predicted minimal degree of the strict knot.
        predicted = -predicted_min_degree(knot.mirror(), JONES_COLOR)
        if poly.degree() != predicted:
            return f"max degree {poly.degree()}, predicted {predicted}"
    return None


def run_formulas(spec: str):
    knot = parse_knot_spec(spec)
    report = verify(knot, oracle_colors=())
    degrees = [predicted_min_degree(knot, c) for c in range(2, FORMULAS_TOP_COLOR + 1)]
    return report, degrees


def tight_state_min_degree(q, color: int, w: int) -> int:
    """Minimal degree of the colour-``color`` polynomial of the strict
    pretzel with twist vector q and writhe w, from the tight-state
    formula maximised by dynamic programming.

    The inner minimum of sum (qi-1) ki^2 + (qi+q0-2) ki over ki >= 0
    with sum ki = t comes from the min-plus recurrence of the lattice
    tests, independent of the library's optimizer.
    """
    n = color - 1
    q0, rest = q[0], q[1:]
    best = [0] + [None] * n
    for qi in rest:
        cost = [(qi - 1) * x * x + (qi + q0 - 2) * x for x in range(n + 1)]
        best = [
            min(best[x] + cost[t - x] for x in range(t + 1) if best[x] is not None)
            for t in range(n + 1)
        ]
    half = Fraction(n * (n + 2), 2) * sum(q)
    top = max(
        -2 * ((q0 + 1) * t * t + best[t] - half + (len(rest) - 1) * n)
        for t in range(n + 1)
    )
    return -(w * (color * color - 1) + top)


def check_formulas(spec: str, result) -> Optional[str]:
    report, degrees = result
    if not report.passed:
        return f"report does not pass: {report.reasons}"
    knot = parse_knot_spec(spec)
    if isinstance(knot, PretzelKnot):
        w = writhe(build_standard_diagram(knot))
        for color, degree in enumerate(degrees, start=2):
            expected = tight_state_min_degree(knot.q, color, w)
            if degree != expected:
                return f"colour {color}: predicted {degree}, dynamic program {expected}"
    return None


WORKLOADS = {
    "verify_c3": Workload(
        "verify_c3",
        generate_verify_c3,
        run_verify_c3,
        check_verify_c3,
        frozenset(
            {"tl", "laurent", "qip", "diagrams", "knots", "degrees", "surfaces",
             "verify", "cli"}
        ),
    ),
    "jones_c4": Workload(
        "jones_c4",
        generate_jones_c4,
        run_jones_c4,
        check_jones_c4,
        frozenset({"tl", "laurent"}),
    ),
    "formulas": Workload(
        "formulas",
        generate_formulas,
        run_formulas,
        check_formulas,
        frozenset({"qip", "diagrams", "knots", "degrees", "surfaces", "verify"}),
    ),
}
