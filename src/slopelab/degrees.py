"""Quadratic growth of colored Jones degrees for pretzel and Montesinos knots.

For the knots treated here the extreme degree of the n-th colored Jones
polynomial eventually grows like js*n^2 + jx*n + c with exact rational
coefficients.  This module computes js and jx directly from the twist
data: ``pretzel_js_jx`` handles twist vectors (q0, q1, ..., qm) via the
sign analysis of the parameters s(q), s1(q), and ``montesinos_js_jx``
extends the result to general tangle fractions through a correction
built from their continued-fraction tails, twist-reduction moves, and
diagram writhes.  The same js/jx pair doubles as a boundary slope and a
normalized Euler characteristic of a spanning surface, which is what
``slopelab.surfaces`` constructs independently.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Optional

from .cfrac import bracket_sums
# Kept as a module attribute: perfbench's tracer test checks that a name
# bound here by ``from .diagrams import`` is wrapped where it is bound.
from .diagrams import build_standard_diagram  # noqa: F401
from .errors import HypothesisViolation, NotAKnot
from .knots import PretzelKnot, shape_failures, strict_failures, twist_box
from .qip import integral

SSTAR = "SStar"
REFERENCE = "Reference"


@dataclass(frozen=True)
class MontesinosCorrections:
    """Bookkeeping that converts pretzel js/jx into Montesinos js/jx.

    The ten report fields are read off the even-length continued-fraction
    expansions of the tangle fractions and the writhes of the two
    standard diagrams.  ``slope_shift`` and ``euler_shift`` are the js
    and jx differences between the knot and its associated pretzel, set
    by ``montesinos_corrections`` from ``tangle_reduction_total``, which
    the knot record keeps as ``reduction_total``.
    """

    q0_prime: int
    r0_bracket: int
    r0_bracket_odd: int
    r0_bracket_even: int
    sum_shift_minus_one: int
    sum_bracket: int
    sum_bracket_even: int
    sum_bracket_odd: int
    writhe_pretzel: int
    writhe_knot: int
    slope_shift: int
    euler_shift: int

    def as_dict(self) -> dict:
        """The ten report fields, without the two derived shifts."""
        return {f.name: getattr(self, f.name) for f in fields(self)[:-2]}


@dataclass(frozen=True)
class DegreeQuadratic:
    """Exact leading coefficients of the degree growth.

    ``surface_hint`` names the surface family whose boundary slope and
    Euler characteristic realize (js, jx): the descending-ladder
    surface ("SStar") or the reference surface ("Reference").
    ``strict_ok`` records whether the input satisfied every hypothesis
    of the sign analysis; forced evaluations carry strict_ok=False.
    """

    js: Fraction
    jx: Fraction
    surface_hint: str
    case: str
    s: Fraction
    s1: Fraction
    strict_ok: bool
    corrections: Optional[MontesinosCorrections] = None


def s_and_s1(q) -> tuple[Fraction, Fraction]:
    """Slope parameters of a twist vector (q0, q1, ..., qm).

    With S = sum of 1/(qi - 1) over the positive-index entries,
    s = 1 + q0 + 1/S, and s1 is the S-weighted mean of qi + q0 - 2.
    """
    q = tuple(integral(x, "twist entry") for x in q)
    if len(q) < 2:
        raise ValueError("need q0 and at least one further twist entry")
    q0, rest = q[0], q[1:]
    if any(qi == 1 for qi in rest):
        raise ValueError("positive-index twist entries must differ from 1")
    big_s = sum(Fraction(1, qi - 1) for qi in rest)
    if big_s == 0:
        raise ZeroDivisionError("sum of 1/(qi-1) vanishes; s is undefined")
    s = 1 + q0 + 1 / big_s
    s1 = sum(Fraction(qi + q0 - 2, qi - 1) for qi in rest) / big_s
    return s, s1


def _case_and_hint(s: Fraction, s1: Fraction, m: int):
    """(case, surface hint, js, jx) from the signs of (s, s1).

    Case "1" is s < 0, "2a" is s = 0 != s1, "2b" is s = 0 = s1 (where
    leading-term survival needs the parity hypotheses), "3" is s > 0.
    """
    if s < 0:
        return "1", SSTAR, -2 * s, -2 * s1 + 4 * s - 2 * (m - 1)
    if s == 0:
        case = "2b" if s1 == 0 else "2a"
        if s1 >= 0:
            return case, REFERENCE, Fraction(0), Fraction(-2 * (m - 1))
        return case, SSTAR, Fraction(0), -2 * s1 - 2 * (m - 1)
    return "3", REFERENCE, Fraction(0), Fraction(-2 * (m - 1))


def pretzel_js_jx(q, strict: bool = True) -> DegreeQuadratic:
    """Leading degree coefficients of a pretzel twist vector.

    The sign of s(q) picks the case: s < 0 gives js = -2s and
    jx = -2s1 + 4s - 2(m-1) realized by the descending-ladder surface;
    s = 0 gives js = 0 with jx depending on the sign of s1; s > 0
    gives the reference-surface values js = 0, jx = -2(m-1).

    Strict mode demands an empty ``strict_failures(q)`` (the hypotheses
    under which the case analysis is a theorem); strict=False evaluates
    the same formulas anyway and records strict_ok=False in the result.
    It never lifts ``shape_failures``: s, s1 need q0 < -1 < 1 < qi.
    """
    q = tuple(integral(x, "twist entry") for x in q)
    if len(q) < 2:
        raise HypothesisViolation(["need q0 and at least one positive twist entry"])
    failures = strict_failures(q)
    shape = shape_failures(q)
    if shape or (strict and failures):
        raise HypothesisViolation(shape or failures)
    s, s1 = s_and_s1(q)
    m = len(q) - 1
    case, hint, js, jx = _case_and_hint(s, s1, m)
    return DegreeQuadratic(
        js=js, jx=jx, surface_hint=hint, case=case, s=s, s1=s1, strict_ok=not failures
    )


def _bracket_totals(data):
    """Bracket sums (even, odd, total) of r0's expansion, and the same
    three sums added up over the positive tangles' expansions."""
    r0 = bracket_sums(data.cfes[0])
    rest = [bracket_sums(cf) for cf in data.cfes[1:]]
    return r0, tuple(map(sum, zip(*rest)))


def tangle_reduction_total(data) -> tuple[int, int]:
    """Composite degree shift of the full twist-reduction sequence.

    The moves reduce each tangle's continued-fraction tail down to its
    two leading entries.  A positive tangle absorbs its entry pairs,
    each move shifting (n^2, n) by (r1 + r2, 2 r2); a genuinely
    continued negative tangle r0 absorbs its pairs at (-(r1 + r2),
    -2 r2) and its last entry r at (-r, 2(-r - 1)).  Summed over the
    expansions these telescope to the bracket sums: with (e0, o0, t0)
    those of r0 and o_i, t_i those of the positive tangles,

        quad = -q0' - t0 + sum t_i
        lin = 2 sum o_i + (0 if q0' == 0 else -2 - 2 q0' - 2 e0).

    Returns the total (n^2, n) coefficient pair.
    """
    (e0, _, t0), (_, sum_o, sum_t) = _bracket_totals(data)
    q0p = data.qprime[0]
    quad = -q0p - t0 + sum_t
    lin = 2 * sum_o + (0 if q0p == 0 else -2 - 2 * q0p - 2 * e0)
    return quad, lin


def montesinos_corrections(knot) -> MontesinosCorrections:
    """Continued-fraction and writhe bookkeeping for a Montesinos knot."""
    data = knot.associated
    pretzel = PretzelKnot(data.q)
    if not pretzel.is_knot():
        raise NotAKnot(
            f"associated pretzel {pretzel.spec()} of {knot.spec()} closes up "
            "into a link, which has no writhe"
        )
    (e0, o0, t0), (sum_e, sum_o, sum_t) = _bracket_totals(data)
    quad, lin = knot.reduction_total
    shift = data.inherited + quad
    return MontesinosCorrections(
        q0_prime=data.qprime[0],
        r0_bracket=t0,
        r0_bracket_odd=o0,
        r0_bracket_even=e0,
        sum_shift_minus_one=data.inherited,
        sum_bracket=sum_t,
        sum_bracket_even=sum_e,
        sum_bracket_odd=sum_o,
        writhe_pretzel=pretzel.writhe,
        writhe_knot=knot.writhe,
        slope_shift=knot.writhe - pretzel.writhe + shift,
        euler_shift=lin - 2 * shift,
    )


def montesinos_js_jx(knot, strict: bool = True) -> DegreeQuadratic:
    """Leading degree coefficients of a Montesinos knot.

    Computes js/jx of the associated pretzel twist vector and applies
    the correction terms read off the continued-fraction tails and the
    writhes of the two standard diagrams, ``knot.corrections``.  A
    pretzel passed in directly has no corrections and returns
    ``pretzel_js_jx`` of its twist vector.
    """
    base = pretzel_js_jx(knot.associated.q, strict=strict)
    corr = knot.corrections
    if corr is None:
        return base
    return replace(
        base,
        js=base.js + corr.slope_shift,
        jx=base.jx + corr.euler_shift,
        corrections=corr,
    )


def exceptional_scan(q0_min: int, qi_max: int, ms=(2, 3)) -> list[tuple[int, ...]]:
    """Twist vectors with s >= 0 and s1 = 0 that close up into knots.

    Scans q0 in [q0_min, -2] and positive entries in [3, qi_max] for
    the given tangle counts, each checked positive before the first
    vector, keeping one representative per multiset of positive entries
    (sorted ascending).  These are exactly the families where the
    leading degree coefficient js vanishes while the subleading
    analysis stays balanced.
    """
    ms = tuple(ms)
    for m in ms:
        if m < 1:
            raise ValueError(f"tangle count {m} must be positive")
    found = set()
    for q in twist_box(range(q0_min, -1), range(3, qi_max + 1), ms):
        s, s1 = s_and_s1(q)
        if s >= 0 and s1 == 0 and PretzelKnot(q).is_knot():
            found.add(q)
    return sorted(found)
