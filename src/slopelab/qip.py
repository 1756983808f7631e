"""Exact quadratic optimization behind the degree maximization.

The extreme colored Jones degree of a twist vector comes from
maximizing a concave quadratic over tight lattice states.  Decomposing
by the total t of the positive-index entries reduces the problem to
minimizing a separable convex quadratic sum(a_i x_i^2 + b_i x_i) over
the scaled simplex {x >= 0 integral, sum x_i = t}.  This module solves
that inner problem exactly by the greedy marginal threshold (the t
smallest per-coordinate marginals form every minimizer), certifies the
result by a pairwise exchange condition, records the quasi-linear
structure of the minimizer as a function of t, and layers the outer
t-scan on top.  The case analysis of the real relaxation lives in
``slopelab.degrees``.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod


def _integral(value, what: str) -> int:
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
        object.__setattr__(self, "a", tuple(_integral(v, "a") for v in self.a))
        object.__setattr__(self, "b", tuple(_integral(v, "b") for v in self.b))
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

    ``certificate_checked`` records that the pairwise exchange
    certificate confirmed optimality beyond the greedy itself.
    """

    minimizer: tuple[int, ...]
    value: int
    certificate_checked: bool


def _check_feasible(f: SeparableQuadratic, x, t):
    x = tuple(_integral(v, "coordinate") for v in x)
    if len(x) != f.m:
        raise ValueError("point has wrong dimension")
    if any(v < 0 for v in x) or sum(x) != t:
        raise ValueError(f"{x} is infeasible for total {t}")
    return x


def graver_certificate(f: SeparableQuadratic, x, t: int) -> bool:
    """Pairwise optimality certificate at a feasible lattice point.

    True iff moving one unit from any coordinate i with x_i > 0 to any
    other coordinate j does not lower f, that is
    2(a_i x_i - a_j x_j) <= (a_i + a_j) - (b_i - b_j).  Equivalently,
    the last marginal a_i(2x_i - 1) + b_i taken by any coordinate is at
    most the next marginal a_j(2x_j + 1) + b_j of any other, so x holds
    the t smallest marginals: the condition is exact at every feasible
    point, degenerate ones included.
    """
    x = _check_feasible(f, x, t)
    a, b = f.a, f.b
    for i in range(f.m):
        if x[i] == 0:
            continue  # a unit cannot leave an empty coordinate
        for j in range(f.m):
            if i == j:
                continue
            if 2 * (a[i] * x[i] - a[j] * x[j]) > (a[i] + a[j]) - (b[i] - b[j]):
                return False
    return True


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
    t = _integral(t, "total")
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


@dataclass(frozen=True)
class DegreeMaximum:
    """Outcome of the tight-state degree maximization at one cable size.

    ``k_star`` holds the positive-index entries of the maximizing tight
    state; its total ``t_star`` doubles as the k0 entry.
    """

    n: int
    t_star: int
    value: int
    k_star: tuple[int, ...]


def maximize_degree(q, n: int) -> DegreeMaximum:
    """Maximize the tight-state degree over all totals t in 0..n.

    A tight state (k0; k1, ..., km) with k0 = t = k1 + ... + km has degree
    n(n+2) sum q - 2 [(q0+1) t^2 + sum (qi-1) ki^2 + sum (-2+q0+qi) ki + (m-1) n].
    Scans every t, minimizing over k1..km exactly with ``lattice_min``,
    and keeps the smallest maximizing t.
    """
    q = tuple(_integral(v, "twist entry") for v in q)
    n = _integral(n, "cable size")
    if n < 0:
        raise ValueError("cable size must be non-negative")
    if q[0] >= 0:
        raise ValueError(f"leading twist entry must be negative: {q}")
    if any(qi <= 1 for qi in q[1:]):
        raise ValueError(f"positive-index twist entries must exceed 1: {q}")
    q0, rest = q[0], q[1:]
    m = len(rest)
    f = SeparableQuadratic(
        tuple(qi - 1 for qi in rest), tuple(-2 + q0 + qi for qi in rest)
    )
    total_q = sum(q)
    best = None
    for t in range(n + 1):
        opt = lattice_min(f, t)
        delta = n * (n + 2) * total_q - 2 * (
            (q0 + 1) * t * t + opt.value + (m - 1) * n
        )
        if best is None or delta > best[1]:
            best = (t, delta, opt.minimizer)
    t_star, value, k_star = best
    return DegreeMaximum(n=n, t_star=t_star, value=value, k_star=k_star)
