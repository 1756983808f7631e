"""Tangle-based knot models: pretzel and Montesinos presentations.

A pretzel P(q0, ..., qm) is held as its integer twist vector.  A
Montesinos knot K(r0, ..., rm) is held in reduced form: every fraction
strictly between -1 and 1, nonzero, with exactly one negative fraction
listed first.  ``normalize_reduced`` moves integer parts between
tangles to reach that window without changing the total.

Each knot object is also the record of its derived data: the
associated pretzel, the standard diagram and its writhe, the
twist-reduction shift, the tight-state lattice minima that every
colour's predicted degree reads, and for a Montesinos knot the degree
corrections, are computed on first use and kept on the object.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import diagrams
from .cfrac import even_length_cfe, eval_cfe
from .errors import HypothesisViolation, MoreThanOneNegativeTangle, NotAKnot
from .qip import LatticeMinima, integral

class _KnotRecord:
    """Derived data of a knot; every reader shares the one diagram."""

    @cached_property
    def associated(self) -> "AssociatedPretzelData":
        return associated_pretzel(self)

    @cached_property
    def diagram(self):
        return diagrams.build_standard_diagram(self)

    @cached_property
    def writhe(self) -> int:
        return diagrams.writhe(self.diagram)

    @cached_property
    def reduction_total(self) -> tuple[int, int]:
        """``degrees.tangle_reduction_total`` of the associated pretzel data."""
        from . import degrees

        return degrees.tangle_reduction_total(self.associated)

    @cached_property
    def tight_states(self) -> LatticeMinima:
        """Lattice minima of the associated twist vector, shared by all colours."""
        return LatticeMinima.of_twists(self.associated.q)

    def is_knot(self) -> bool:
        return tangle_sum_parity(self.fractions)[0] == 1


@dataclass(frozen=True)
class PretzelKnot(_KnotRecord):
    """Vertical twist vector (q0, ..., qm), entries nonzero."""

    q: tuple[int, ...]
    corrections = None  # a pretzel is its own associated pretzel

    def __post_init__(self):
        q = tuple(integral(x, "twist entry") for x in self.q)
        object.__setattr__(self, "q", q)
        if len(q) < 2:
            raise ValueError("need at least two twist regions")
        if any(x == 0 for x in q):
            raise ValueError("twist counts must be nonzero")

    @cached_property
    def fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(1, x) for x in self.q)

    @property
    def twist_runs(self) -> list[list[tuple[str, int, int]]]:
        """Diagram recipes [(axis, count, sense)]: one vertical run per tangle."""
        return [[("v", abs(q), 1 if q > 0 else -1)] for q in self.q]

    def mirror(self) -> "PretzelKnot":
        return PretzelKnot(tuple(-x for x in self.q))

    def spec(self) -> str:
        return "p:" + ",".join(str(x) for x in self.q)


@dataclass(frozen=True)
class MontesinosKnot(_KnotRecord):
    """Reduced fraction vector (r0, ..., rm), r0 the unique negative."""

    fractions: tuple[Fraction, ...]

    def __post_init__(self):
        fr = tuple(Fraction(r) for r in self.fractions)
        object.__setattr__(self, "fractions", fr)
        if len(fr) < 2:
            raise ValueError("need at least two tangle fractions")
        if any(not 0 < abs(r) < 1 for r in fr):
            raise ValueError("fractions must be reduced to 0 < |r| < 1")
        negatives = sum(r < 0 for r in fr)
        if negatives != 1 or fr[0] > 0:
            raise MoreThanOneNegativeTangle(
                f"{self.spec()} has {negatives} negative tangles; "
                "expected one, listed first"
            )

    @classmethod
    def from_fractions(cls, fractions) -> "MontesinosKnot":
        """Normalize arbitrary fractions and put the negative first."""
        reduced = normalize_reduced(fractions)
        knot = cls(tuple(sorted(reduced, key=lambda r: r > 0)))
        require_knot(knot)
        return knot

    @cached_property
    def corrections(self):
        """``degrees.montesinos_corrections`` of this knot, computed once."""
        from . import degrees

        return degrees.montesinos_corrections(self)

    @property
    def twist_runs(self) -> list[list[tuple[str, int, int]]]:
        """Diagram recipes [(axis, count, sense), ...], one list per tangle.

        Each tangle follows its even-length expansion [0, a1, ..., al]
        from the innermost term outward: horizontal runs for even
        positions, vertical for odd.
        """
        recipes = []
        for cf in self.associated.cfes:
            runs = []
            for j in range(len(cf) - 1, 0, -1):
                axis = "h" if j % 2 == 0 else "v"
                runs.append((axis, abs(cf[j]), 1 if cf[j] > 0 else -1))
            recipes.append(runs)
        return recipes

    def spec(self) -> str:
        return montesinos_spec(self.fractions)


def montesinos_spec(fractions) -> str:
    """The ``m:r0,r1,...`` spec of a list of tangle fractions."""
    return "m:" + ",".join(str(r) for r in fractions)


def tangle_sum_parity(fractions) -> tuple[int, int]:
    """Where the strands of a sum of rational tangles run: its fraction
    p/q mod 2, folded as (p, q) <- (p d + n q, q d) over the fractions
    n/d in lowest terms, from (0, 1) and never reduced (1/2 + 1/2 reads
    (0, 0), where a reduced sum would read (1, 1)).

    The closure of the sum is a knot exactly when p is odd.  With q odd
    the sum routes its two bottom points to the top; with q even it
    joins them to each other.
    """
    p, q = 0, 1
    for r in map(Fraction, fractions):
        p, q = (p * r.denominator + r.numerator * q) % 2, q * r.denominator % 2
    return p, q


def normalize_reduced(fractions) -> tuple[Fraction, ...]:
    """Shift integer parts between tangles until 0 < |r| < 1 everywhere.

    Each step subtracts 1 from the currently largest fraction and adds
    1 to the smallest, preserving the total.  Raises ValueError when no
    such representative exists: each r ends at r - floor(r) or one less,
    so one exists exactly when no r is an integer and
    j = -sum(floor(r)) lies in 0..len.

    Past that check the loop needs no step budget: until the list is
    reduced, max - min > 1, so each step lowers sum(r^2), a multiple of
    1/D^2 for the common denominator D, by 2(max - min - 1) > 0.
    """
    fr = [Fraction(r) for r in fractions]
    if any(r == 0 for r in fr):
        raise ValueError("tangle fractions must be nonzero")
    if not fr:
        raise ValueError("no tangle fractions given")
    if any(r.denominator == 1 for r in fr) or not 0 <= -sum(map(math.floor, fr)) <= len(fr):
        raise ValueError(f"{montesinos_spec(fr)} has no reduced representative")
    while not all(0 < abs(r) < 1 for r in fr):
        hi, lo = fr.index(max(fr)), fr.index(min(fr))
        fr[hi] -= 1
        fr[lo] += 1
    return tuple(fr)


@dataclass(frozen=True)
class AssociatedPretzelData:
    """Leading-twist pretzel of a Montesinos knot plus residual data.

    q holds the pretzel twist vector read off the expansions, qprime
    the second expansion entries (with q0' zeroed when r0 is exactly
    1/q0), and cfes the even-length expansions themselves.
    """

    q: tuple[int, ...]
    qprime: tuple[int, ...]
    cfes: tuple[tuple[int, ...], ...]
    fractions: tuple[Fraction, ...]

    @property
    def inherited(self) -> int:
        """Inherited-state shift: the sum of q'_i - 1 over the positive tangles."""
        return sum(qp - 1 for qp in self.qprime[1:])


def associated_pretzel(knot) -> AssociatedPretzelData:
    """Read the pretzel (q0, ..., qm) off the even-length expansions."""
    fractions = knot.fractions
    cfes = [even_length_cfe(r) for r in fractions]
    for cf, r in zip(cfes, fractions):
        if len(cf) == 1:
            raise ValueError(f"integer tangle {r} has no associated pretzel entry")
    r0 = cfes[0]
    if len(r0) == 3 and r0[2] == -1:
        # r0 is exactly 1/q0; the expansion is [0, q0+1, -1]
        q0 = r0[1] - 1
        q0p = 0
    else:
        q0 = r0[1]
        q0p = r0[2]
    q = [q0]
    qprime = [q0p]
    for cf in cfes[1:]:
        q.append(cf[1] + 1)
        qprime.append(cf[2])
    data = AssociatedPretzelData(
        q=tuple(q),
        qprime=tuple(qprime),
        cfes=tuple(tuple(cf) for cf in cfes),
        fractions=tuple(fractions),
    )
    for cf, r in zip(data.cfes, data.fractions):
        if eval_cfe(list(cf)) != r:
            raise ValueError(f"expansion {cf} does not evaluate to {r}")
    return data


def parse_knot_spec(text: str):
    """Parse "p:q0,q1,..." or "m:r0,r1,..." into a knot model."""
    text = text.strip()
    if ":" not in text:
        raise ValueError(f"knot spec {text!r} needs a 'p:' or 'm:' prefix")
    kind, _, body = text.partition(":")
    kind = kind.strip().lower()
    parts = [p.strip() for p in body.split(",")]
    if not all(p and not p.strip("+-0123456789/.") for p in parts):
        raise ValueError(f"knot spec {text!r} has an empty or malformed entry")
    if kind == "p":
        try:
            q = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"bad twist count in {text!r}: {exc}") from None
        return PretzelKnot(q)
    if kind == "m":
        try:
            fr = [Fraction(p) for p in parts]
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad fraction in {text!r}: {exc}") from None
        return MontesinosKnot.from_fractions(fr)
    raise ValueError(f"unknown knot kind {kind!r} (want 'p' or 'm')")


def require_knot(knot):
    """Raise NotAKnot when the model closes up into a link."""
    if not knot.is_knot():
        raise NotAKnot(f"{knot.spec()} closes up into a link")


def check_strict_pretzel(q) -> None:
    """Hypotheses for the sharp degree formulas: q0 < -1 < 1 < qi, all
    odd, and an odd number of tangles (m even, at least 2)."""
    failures = []
    q = tuple(q)
    m = len(q) - 1
    if m < 2:
        failures.append(f"need at least three twist regions, got {m + 1}")
    if m % 2 != 0:
        failures.append(f"need an odd number of twist regions, got {m + 1}")
    if not q or q[0] >= -1:
        failures.append(f"leading twist must be < -1, got {q[0] if q else None}")
    for x in q[1:]:
        if x <= 1:
            failures.append(f"positive twists must be > 1, got {x}")
    for x in q:
        if x % 2 == 0:
            failures.append(f"twist {x} is even")
    if failures:
        raise HypothesisViolation(failures)
