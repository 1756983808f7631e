"""Tangle-based knot models: pretzel and Montesinos presentations.

A pretzel P(q0, ..., qm) is held as its integer twist vector.  A
Montesinos knot K(r0, ..., rm) is held in reduced form: every fraction
strictly between -1 and 1, nonzero, with exactly one negative fraction
listed first.  ``normalize_reduced`` moves integer parts between
tangles to reach that window without changing the total.

Each knot object is also the record of its derived data: the
associated pretzel, the standard diagram and its writhe, and for a
Montesinos knot the degree corrections, are computed on first use and
kept on the object.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import diagrams
from .cfrac import even_length_cfe, eval_cfe
from .errors import HypothesisViolation, MoreThanOneNegativeTangle, NotAKnot

KNOT = "Knot"
LINK = "Link"


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


@dataclass(frozen=True)
class PretzelKnot(_KnotRecord):
    """Vertical twist vector (q0, ..., qm), entries nonzero."""

    q: tuple[int, ...]
    corrections = None  # a pretzel is its own associated pretzel

    def __post_init__(self):
        q = tuple(int(x) for x in self.q)
        object.__setattr__(self, "q", q)
        if len(q) < 2:
            raise ValueError("need at least two twist regions")
        if any(x == 0 for x in q):
            raise ValueError("twist counts must be nonzero")

    @property
    def fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(1, x) for x in self.q)

    @property
    def twist_runs(self) -> list[list[tuple[str, int, int]]]:
        """Diagram recipes [(axis, count, sense)]: one vertical run per tangle."""
        return [[("v", abs(q), 1 if q > 0 else -1)] for q in self.q]

    def is_knot(self) -> bool:
        return classify(self.fractions) == KNOT

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
                f"expected exactly one negative fraction, first: {fr}"
            )

    @classmethod
    def from_fractions(cls, fractions) -> "MontesinosKnot":
        """Normalize arbitrary fractions and put the negative first."""
        reduced = normalize_reduced(fractions)
        negatives = [r for r in reduced if r < 0]
        if len(negatives) != 1:
            raise MoreThanOneNegativeTangle(
                f"{len(negatives)} negative tangles after normalization: {reduced}"
            )
        ordered = negatives + [r for r in reduced if r > 0]
        knot = cls(tuple(ordered))
        if classify(knot.fractions) != KNOT:
            raise NotAKnot(f"tangle fractions {reduced} close up into a link")
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
        return "m:" + ",".join(str(r) for r in self.fractions)


def classify(fractions) -> str:
    """Decide Knot vs Link for the double-branched tangle closure.

    With every fraction in lowest terms, the closure is a knot exactly
    when one denominator is even, or when all denominators are odd and
    the number of odd numerators is odd.
    """
    fr = [Fraction(r) for r in fractions]
    even_dens = sum(r.denominator % 2 == 0 for r in fr)
    if even_dens == 1:
        return KNOT
    if even_dens == 0 and sum(r.numerator % 2 != 0 for r in fr) % 2 == 1:
        return KNOT
    return LINK


def normalize_reduced(fractions) -> tuple[Fraction, ...]:
    """Shift integer parts between tangles until 0 < |r| < 1 everywhere.

    Each step subtracts 1 from the currently largest fraction and adds
    1 to the smallest, preserving the total.  Raises ValueError when no
    such representative exists (the loop would revisit a state).
    """
    fr = [Fraction(r) for r in fractions]
    if any(r == 0 for r in fr):
        raise ValueError("tangle fractions must be nonzero")
    if not fr:
        raise ValueError("no tangle fractions given")
    budget = 4 * (sum(int(abs(r)) for r in fr) + len(fr) + 2)
    for _ in range(budget):
        if all(0 < abs(r) < 1 for r in fr):
            return tuple(fr)
        hi = fr.index(max(fr))
        lo = fr.index(min(fr))
        if hi == lo:
            break
        fr[hi] -= 1
        fr[lo] += 1
        if fr[hi] == 0 or fr[lo] == 0:
            raise ValueError(f"normalization of {tuple(fractions)} hits a zero tangle")
    else:
        raise ValueError(f"{tuple(fractions)} has no reduced representative")
    raise ValueError(f"{tuple(fractions)} has no reduced representative")


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
    parts = [p.strip() for p in body.split(",") if p.strip()]
    if not parts:
        raise ValueError(f"knot spec {text!r} lists no tangles")
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
    if classify(knot.fractions) != KNOT:
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
