"""Exact quadratic optimization behind the degree maximization.

The extreme colored Jones degree of a twist vector comes from
maximizing a concave quadratic over tight lattice states.  Decomposing
by the total t of the positive-index entries reduces the problem to
minimizing a separable convex quadratic sum(a_i x_i^2 + b_i x_i) over
the scaled simplex {x >= 0 integral, sum x_i = t}.  This module solves
that inner problem exactly by the greedy marginal threshold (the t
smallest per-coordinate marginals form every minimizer), certifies the
result by an exchange condition, and records the quasi-linear
structure of the minimizer as a function of t.  One solve holds the
minimum at every smaller t as a prefix sum of its sorted marginals,
and the same threshold rule grows it past that total one marginal at
a time, so ``LatticeMinima`` answers every total of one twist vector
from a single ``lattice_min`` solve: the outer maximization over t at
every cable size.  A knot record keeps one of these, so all colours of
one knot share the solve.  The case analysis of the real relaxation
lives in ``slopelab.degrees``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import prod


def integral(value, what: str) -> int:
    """``value`` as an int; reject anything that is not integer-valued."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SeparableQuadratic:
    """Objective sum_i a_i x_i^2 + b_i x_i with positive integer a."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(integral(v, "a") for v in self.a))
        object.__setattr__(self, "b", tuple(integral(v, "b") for v in self.b))
        if len(self.a) != len(self.b):
            raise ValueError("coefficient vectors must have equal length")
        if not self.a:
            raise ValueError("need at least one coordinate")
        if any(ai <= 0 for ai in self.a):
            raise ValueError(f"quadratic coefficients must be positive: {self.a}")

    @property
    def m(self) -> int:
        return len(self.a)

    def value(self, x) -> int:
        return sum(ai * xi * xi + bi * xi for ai, bi, xi in zip(self.a, self.b, x))


@dataclass(frozen=True)
class LatticeOptimum:
    """Integer minimizer over the scaled simplex at one t.

    ``certificate_checked`` records that the exchange
    certificate confirmed optimality beyond the greedy itself.
    """

    minimizer: tuple[int, ...]
    value: int
    certificate_checked: bool


def _check_feasible(f: SeparableQuadratic, x, t):
    x = tuple(integral(v, "coordinate") for v in x)
    if len(x) != f.m:
        raise ValueError("point has wrong dimension")
    if any(v < 0 for v in x) or sum(x) != t:
        raise ValueError(f"{x} is infeasible for total {t}")
    return x


def graver_certificate(f: SeparableQuadratic, x, t: int) -> bool:
    """Exchange optimality certificate at a feasible lattice point.

    True iff the largest marginal a_i(2x_i - 1) + b_i taken by a
    coordinate with x_i > 0 is at most the smallest next marginal
    a_j(2x_j + 1) + b_j of any coordinate, so x holds the t smallest
    marginals and no unit move from i to j lowers f.  Letting j = i
    changes nothing, since a coordinate's next marginal exceeds its
    last by 2a_i > 0; the condition is exact at every feasible point,
    degenerate ones included.
    """
    x = _check_feasible(f, x, t)
    taken = [ai * (2 * xi - 1) + bi for ai, bi, xi in zip(f.a, f.b, x) if xi > 0]
    return not taken or max(taken) <= min(
        ai * (2 * xi + 1) + bi for ai, bi, xi in zip(f.a, f.b, x)
    )


def varpi(f: SeparableQuadratic) -> int:
    """Quasi-period: sum over i of the product of the other a_j.

    Shifting t by it moves ``lattice_min``'s minimizer t -> x*(t) by
    the fixed vector of complementary products of a.
    """
    return sum(prod(f.a[j] for j in range(f.m) if j != i) for i in range(f.m))


def _marginals_below(f: SeparableQuadratic, lam: int) -> list[int]:
    """Per coordinate, how many marginals a_i(2k+1) + b_i are < lam."""
    return [max(0, -((ai + bi - lam) // (2 * ai))) for ai, bi in zip(f.a, f.b)]


def lattice_min(f: SeparableQuadratic, t: int) -> LatticeOptimum:
    """Exact integer minimizer of f over {x >= 0, sum x_i = t}.

    Raising x_i from k to k+1 costs the marginal a_i(2k+1) + b_i,
    which strictly increases in k, so every minimizer takes the t
    smallest marginals of all coordinates.  With lam the t-th smallest
    (found by integer bisection on the count of marginals below a
    threshold, in O(m log(a t)) steps), each coordinate takes all of
    its marginals below lam, and the remaining increments go one each
    to the highest-index coordinates whose next marginal equals lam:
    that choice is the lexicographically smallest minimizer.
    """
    t = integral(t, "total")
    if t < 0:
        raise ValueError("total must be non-negative")
    if t == 0:
        return LatticeOptimum((0,) * f.m, 0, True)
    # Invariant: fewer than t marginals lie below lo + 1, at least t below hi + 1.
    lo = min(ai + bi for ai, bi in zip(f.a, f.b)) - 1
    hi = f.a[0] * (2 * t - 1) + f.b[0]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sum(_marginals_below(f, mid + 1)) >= t:
            hi = mid
        else:
            lo = mid
    lam = hi
    x = _marginals_below(f, lam)
    ties = [i for i in range(f.m) if f.a[i] * (2 * x[i] + 1) + f.b[i] == lam]
    for i in ties[len(ties) - (t - sum(x)):]:
        x[i] += 1
    x = tuple(x)
    return LatticeOptimum(x, f.value(x), graver_certificate(f, x, t))


class LatticeMinima:
    """The lattice minima S_t = min f over {x >= 0, sum x_i = t} of one
    separable quadratic f, grown on demand.

    S_t is the sum of the t smallest marginals.  The first total asked
    costs one ``lattice_min`` solve; a larger one appends the next
    smallest marginal of any coordinate, one at a time, which is the
    greedy threshold rule again.  ``minimizer`` is a minimizer at the
    largest total reached so far.  ``q`` is the twist vector whose
    tight states f describes, set by ``of_twists``; ``maximize_degree``
    reads it.
    """

    def __init__(self, f: SeparableQuadratic, q=None):
        self.f = f
        self.q = q
        self._x: list[int] = []
        self._sums: list[int] = []

    @classmethod
    def of_twists(cls, q) -> "LatticeMinima":
        q = tuple(integral(v, "twist entry") for v in q)
        if len(q) < 2:
            raise ValueError(f"twist vector needs at least two entries: {q}")
        if q[0] >= 0:
            raise ValueError(f"leading twist entry must be negative: {q}")
        if any(qi <= 1 for qi in q[1:]):
            raise ValueError(f"positive-index twist entries must exceed 1: {q}")
        rest = q[1:]
        f = SeparableQuadratic(
            tuple(qi - 1 for qi in rest), tuple(-2 + q[0] + qi for qi in rest)
        )
        return cls(f, q)

    @property
    def minimizer(self) -> tuple[int, ...]:
        return tuple(self._x)

    def upto(self, t: int) -> list[int]:
        """S_0, ..., S_t."""
        t = integral(t, "total")
        if t < 0:
            raise ValueError("total must be non-negative")
        f, x, sums = self.f, self._x, self._sums
        if not sums:
            # Module global, looked up here, so a patched solver is the one called.
            x[:] = lattice_min(f, t).minimizer
            taken = sorted(
                ai * (2 * k + 1) + bi
                for ai, bi, xi in zip(f.a, f.b, x)
                for k in range(xi)
            )
            sums[:] = accumulate(taken, initial=0)
        while len(sums) <= t:
            marginal, i = min(
                (ai * (2 * xi + 1) + bi, i)
                for i, (ai, bi, xi) in enumerate(zip(f.a, f.b, x))
            )
            x[i] += 1
            sums.append(sums[-1] + marginal)
        return sums[: t + 1]


def maximize_degree(q, n: int) -> int:
    """Maximal tight-state degree over all totals t in 0..n.

    A tight state (k0; k1, ..., km) with k0 = t = k1 + ... + km has degree
    n(n+2) sum q - 2 [(q0+1) t^2 + sum (qi-1) ki^2 + sum (-2+q0+qi) ki + (m-1) n].
    The minimum over k1..km at total t is the lattice minimum S_t.
    ``q`` is a twist vector, which gets its own ``LatticeMinima``, or
    one built by ``LatticeMinima.of_twists`` and shared across cable
    sizes, such as a knot's ``tight_states``.
    """
    minima = q if isinstance(q, LatticeMinima) else LatticeMinima.of_twists(q)
    n = integral(n, "cable size")
    if n < 0:
        raise ValueError("cable size must be non-negative")
    q = minima.q
    if q is None:
        raise ValueError("no twist vector: build the minima with LatticeMinima.of_twists")
    inner = min((q[0] + 1) * t * t + s for t, s in enumerate(minima.upto(n)))
    return n * (n + 2) * sum(q) - 2 * (inner + (len(q) - 2) * n)
