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

import itertools
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

from .cfrac import bracket_sums
# Kept as a module attribute: perfbench's tracer test checks that a name
# bound here by ``from .diagrams import`` is wrapped where it is bound.
from .diagrams import build_standard_diagram  # noqa: F401
from .errors import HypothesisViolation
from .knots import PretzelKnot, check_strict_pretzel

SSTAR = "SStar"
REFERENCE = "Reference"

@dataclass(frozen=True)
class StateParameters:
    """Skein-state exponent vector k = (k0; k1, ..., km) at cable size n.

    The state is *tight* when k0 equals the sum of the remaining
    entries; only tight states can realize the extreme degree.
    """

    n: int
    k: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "k", tuple(int(x) for x in self.k))
        if len(self.k) < 2:
            raise ValueError("state needs k0 and at least one positive-index entry")
        if any(x < 0 or x > self.n for x in self.k):
            raise ValueError(f"state entries must lie in 0..{self.n}")

    @property
    def k0(self) -> int:
        return self.k[0]

    @property
    def rest(self) -> tuple[int, ...]:
        return self.k[1:]

    def is_tight(self) -> bool:
        return self.k0 == sum(self.rest)


@dataclass(frozen=True)
class MontesinosCorrections:
    """Bookkeeping that converts pretzel js/jx into Montesinos js/jx.

    All fields are read off the even-length continued-fraction
    expansions of the tangle fractions and the writhes of the two
    standard diagrams.
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

    @property
    def slope_shift(self) -> Fraction:
        """js difference between the knot and its associated pretzel."""
        return Fraction(
            -self.q0_prime
            - self.r0_bracket
            - self.writhe_pretzel
            + self.writhe_knot
            + self.sum_shift_minus_one
            + self.sum_bracket
        )

    @property
    def euler_shift(self) -> Fraction:
        """jx difference between the knot and its associated pretzel."""
        negative_tail = 0 if self.q0_prime == 0 else -2
        return Fraction(
            negative_tail
            + 2 * self.r0_bracket_odd
            - 2 * self.sum_shift_minus_one
            - 2 * self.sum_bracket_even
        )

    def as_dict(self) -> dict:
        return asdict(self)


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
    q = tuple(int(x) for x in q)
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


def delta_nk(n: int, k: StateParameters, q) -> Fraction:
    """Exact degree contribution of a tight skein state.

    Evaluates -2 [ (q0+1)k0^2 + sum (qi-1)ki^2 + sum (-2+q0+qi)ki
    - (n(n+2)/2) sum qi + (m-1)n ].
    """
    q = tuple(int(x) for x in q)
    if len(k.k) != len(q):
        raise ValueError("state vector and twist vector lengths differ")
    if not k.is_tight():
        raise ValueError(f"state {k.k} is not tight (k0 != sum of the rest)")
    q0, rest = q[0], q[1:]
    m = len(rest)
    k0, krest = k.k0, k.rest
    inner = (
        Fraction((q0 + 1) * k0 * k0)
        + sum((qi - 1) * ki * ki for qi, ki in zip(rest, krest))
        + sum((-2 + q0 + qi) * ki for qi, ki in zip(rest, krest))
        - Fraction(n * (n + 2), 2) * sum(q)
        + (m - 1) * n
    )
    return -2 * inner


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


def _base_hypotheses(q) -> list[str]:
    failures = []
    if q[0] >= -1:
        failures.append(f"q0 = {q[0]} must be < -1")
    for i, qi in enumerate(q[1:], start=1):
        if qi <= 1:
            failures.append(f"q{i} = {qi} must be > 1")
    return failures


def _strict_ok(q) -> bool:
    try:
        check_strict_pretzel(q)
    except HypothesisViolation:
        return False
    return True


def pretzel_js_jx(q, strict: bool = True) -> DegreeQuadratic:
    """Leading degree coefficients of a pretzel twist vector.

    The sign of s(q) picks the case: s < 0 gives js = -2s and
    jx = -2s1 + 4s - 2(m-1) realized by the descending-ladder surface;
    s = 0 gives js = 0 with jx depending on the sign of s1; s > 0
    gives the reference-surface values js = 0, jx = -2(m-1).

    Strict mode demands q0 < -1 < 1 < qi with odd entries and even
    m >= 2 (the hypotheses under which the case analysis is a theorem);
    strict=False evaluates the same formulas anyway and records
    strict_ok=False in the result.
    """
    q = tuple(int(x) for x in q)
    if len(q) < 2:
        raise HypothesisViolation(["need q0 and at least one positive twist entry"])
    base_failures = _base_hypotheses(q)
    if base_failures:
        # q0 < -1 < 1 < qi is needed for s/s1 to mean anything; never forced.
        raise HypothesisViolation(base_failures)
    strict_ok = _strict_ok(q)
    if strict and not strict_ok:
        check_strict_pretzel(q)  # raises with the detailed failure list
    s, s1 = s_and_s1(q)
    m = len(q) - 1
    case, hint, js, jx = _case_and_hint(s, s1, m)
    return DegreeQuadratic(
        js=js, jx=jx, surface_hint=hint, case=case, s=s, s1=s1, strict_ok=strict_ok
    )


_TR_MOVES = ("TR1neg", "TR2neg", "TRpos")


def tr_move_shift(move: str, r1: int, r2: Optional[int] = None) -> tuple[int, int]:
    """Degree shift (n^2-coefficient, n-coefficient) of one twist-reduction move.

    "TR1neg" absorbs a final negative twist region r: shift
    (-r, 2(-r-1)).  "TR2neg" merges adjacent negative regions r1, r2:
    shift (-(r1+r2), -2 r2).  "TRpos" merges adjacent positive regions:
    shift (r1+r2, 2 r2).  Sign constraints are enforced.
    """
    if move not in _TR_MOVES:
        raise ValueError(f"unknown move {move!r}; expected one of {_TR_MOVES}")
    if move == "TR1neg":
        if r2 is not None:
            raise ValueError("TR1neg takes a single twist count")
        if r1 >= 0:
            raise HypothesisViolation([f"TR1neg needs a negative twist count, got {r1}"])
        return (-r1, 2 * (-r1 - 1))
    if r2 is None:
        raise ValueError(f"{move} takes two twist counts")
    if move == "TR2neg":
        bad = [r for r in (r1, r2) if r >= 0]
        if bad:
            raise HypothesisViolation(
                [f"TR2neg needs negative twist counts, got {r1}, {r2}"]
            )
        return (-(r1 + r2), -2 * r2)
    bad = [r for r in (r1, r2) if r <= 0]
    if bad:
        raise HypothesisViolation([f"TRpos needs positive twist counts, got {r1}, {r2}"])
    return (r1 + r2, 2 * r2)


def tangle_reduction_total(data) -> tuple[int, int]:
    """Composite degree shift of the full twist-reduction sequence.

    Sums ``tr_move_shift`` over the moves that reduce each tangle's
    continued-fraction tail down to its two leading entries: positive
    tangles absorb entry pairs via TRpos; a genuinely continued
    negative tangle absorbs pairs via TR2neg and its last entry via
    TR1neg.  Returns the total (n^2, n) coefficient pair.
    """
    quad = lin = 0
    r0 = data.cfes[0]
    if data.qprime[0] != 0:
        a = r0[1:]
        ell = len(a)
        # pairs (a[j+2], a[j+1]) for odd j = 1, 3, ..., ell-3 (1-based)
        for j in range(1, ell - 2, 2):
            dq, dl = tr_move_shift("TR2neg", a[j + 1], a[j])
            quad += dq
            lin += dl
        dq, dl = tr_move_shift("TR1neg", a[-1])
        quad += dq
        lin += dl
    for cf in data.cfes[1:]:
        a = cf[1:]
        ell = len(a)
        # pairs (a[j+2], a[j+1]) for even j = 2, 4, ..., ell-2 (1-based)
        for j in range(2, ell - 1, 2):
            dq, dl = tr_move_shift("TRpos", a[j + 1], a[j])
            quad += dq
            lin += dl
    return quad, lin


def montesinos_corrections(knot) -> MontesinosCorrections:
    """Continued-fraction and writhe bookkeeping for a Montesinos knot."""
    data = knot.associated
    e0, o0, t0 = bracket_sums(list(data.cfes[0]))
    sum_shift = sum(cf[2] - 1 for cf in data.cfes[1:])
    sum_e = sum_o = sum_t = 0
    for cf in data.cfes[1:]:
        e, o, t = bracket_sums(list(cf))
        sum_e += e
        sum_o += o
        sum_t += t
    return MontesinosCorrections(
        q0_prime=data.qprime[0],
        r0_bracket=t0,
        r0_bracket_odd=o0,
        r0_bracket_even=e0,
        sum_shift_minus_one=sum_shift,
        sum_bracket=sum_t,
        sum_bracket_even=sum_e,
        sum_bracket_odd=sum_o,
        writhe_pretzel=PretzelKnot(data.q).writhe,
        writhe_knot=knot.writhe,
    )


def montesinos_js_jx(knot, strict: bool = True) -> DegreeQuadratic:
    """Leading degree coefficients of a Montesinos knot.

    Computes js/jx of the associated pretzel twist vector and applies
    the correction terms read off the continued-fraction tails and the
    writhes of the two standard diagrams.  A pretzel passed in directly
    has vanishing corrections and reproduces ``pretzel_js_jx``.
    """
    base = pretzel_js_jx(knot.associated.q, strict=strict)
    corr = montesinos_corrections(knot)
    return DegreeQuadratic(
        js=base.js + corr.slope_shift,
        jx=base.jx + corr.euler_shift,
        surface_hint=base.surface_hint,
        case=base.case,
        s=base.s,
        s1=base.s1,
        strict_ok=base.strict_ok,
        corrections=corr,
    )


def exceptional_scan(q0_min: int, qi_max: int, ms=(2, 3)) -> list[tuple[int, ...]]:
    """Twist vectors with s >= 0 and s1 = 0 that close up into knots.

    Scans q0 in [q0_min, -2] and positive entries in [3, qi_max] for
    the given tangle counts, keeping one representative per multiset of
    positive entries (sorted ascending).  These are exactly the
    families where the leading degree coefficient js vanishes while
    the subleading analysis stays balanced.
    """
    if q0_min > -2:
        return []
    found = set()
    for m in ms:
        for q0 in range(q0_min, -1):
            for rest in itertools.combinations_with_replacement(
                range(3, qi_max + 1), m
            ):
                q = (q0,) + rest
                s, s1 = s_and_s1(q)
                if s < 0 or s1 != 0:
                    continue
                if not PretzelKnot(q).is_knot():
                    continue
                found.add(q)
    return sorted(found)
