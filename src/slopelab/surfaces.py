"""Candidate spanning surfaces described by edge-paths between slopes.

A tangle with fraction r determines paths in the Farey diagram: the
vertices are slopes p/q, and two slopes span an edge exactly when
|ps - rq| = 1.  A candidate spanning surface for a knot assembles one
edge-path per tangle, all starting at the tangle fractions and running
toward a common meeting slope, possibly ending in a partial ("fractional")
edge shared between M sheets.  Two families are built here: the
descending-ladder surface S(M, x*), whose sheet weights come from the
simplex minimizer x*, and the single-sheet reference surface R.  Twist
numbers of the paths give boundary slopes; a disk-and-band accounting
gives Euler characteristics; and the cycle of final-edge denominator
jumps ("r-values") feeds a sufficient incompressibility criterion.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .cfrac import partial_evaluations
from .degrees import montesinos_corrections
from .errors import (
    AdjacencyViolation,
    NoSolution,
    UnsupportedEdgepathShape,
)
from .knots import PretzelKnot

INCOMPRESSIBLE = "Incompressible"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class FareyVertex:
    """A slope p/q with q >= 0 and gcd(p, q) = 1; infinity is 1/0."""

    p: int
    q: int

    def __post_init__(self):
        if self.q < 0:
            raise ValueError(f"denominator must be non-negative: {self.p}/{self.q}")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"slope {self.p}/{self.q} is not reduced")
        if self.q == 0 and self.p != 1:
            raise ValueError("infinity is written 1/0")

    @classmethod
    def from_fraction(cls, r) -> "FareyVertex":
        r = Fraction(r)
        return cls(r.numerator, r.denominator)

    @classmethod
    def infinity(cls) -> "FareyVertex":
        return cls(1, 0)

    @property
    def is_infinite(self) -> bool:
        return self.q == 0

    @property
    def value(self) -> Fraction:
        if self.is_infinite:
            raise UnsupportedEdgepathShape("the slope 1/0 has no finite value")
        return Fraction(self.p, self.q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def farey_adjacent(u: FareyVertex, v: FareyVertex) -> bool:
    """Whether two slopes span an edge of the diagram (or coincide)."""
    return u == v or abs(u.p * v.q - v.p * u.q) == 1


@dataclass(frozen=True)
class EdgePath:
    """An edge-path, listed from the tangle fraction toward its end.

    ``final_fraction = (K, M)`` marks the last edge as partial: K of
    the M sheets stop at the second-to-last vertex and the remaining
    M - K continue to the last one.  ``None`` means every edge is
    complete.
    """

    vertices: tuple[FareyVertex, ...]
    final_fraction: Optional[tuple[int, int]] = None

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if not self.vertices:
            raise ValueError("edge-path needs at least one vertex")
        for u, v in zip(self.vertices, self.vertices[1:]):
            if not farey_adjacent(u, v):
                raise AdjacencyViolation(
                    f"slopes {u} and {v} do not span an edge"
                )
        if self.final_fraction is not None:
            k, m = self.final_fraction
            object.__setattr__(self, "final_fraction", (int(k), int(m)))
            if m < 1 or not 0 <= k <= m:
                raise ValueError(f"bad final edge weight {k}/{m}")
            if len(self.vertices) < 2:
                raise ValueError("a fractional final edge needs two endpoints")

    @property
    def edge_count(self) -> int:
        return len(self.vertices) - 1

    @property
    def full_edge_count(self) -> int:
        return self.edge_count - (1 if self.final_fraction is not None else 0)


@dataclass(frozen=True)
class CurveCoords:
    """Arc/band/slope tallies of one tangle's ending curve system."""

    A: int
    B: int
    C: int


@dataclass(frozen=True)
class CandidateSurface:
    """An edge-path system together with its sheet bookkeeping.

    ``K`` lists the per-tangle sheet counts (K0, K1, ..., Km) stopping
    early on fractional final edges (all zero for the reference
    family), and ``q_negative`` the ladder depth parameter of the
    negative tangle's final edge (None for the reference family).
    ``reference_slope`` is the boundary slope of this surface itself,
    known at construction time for reference surfaces; it is the
    offset ``boundary_slope`` adds when this surface serves as the
    comparison point, and is zero exactly when the reference surface
    has a Seifert-framed boundary.
    """

    edgepaths: tuple[EdgePath, ...]
    M: int
    K: tuple[int, ...]
    q_negative: Optional[int]
    rvalues: tuple[int, ...]
    reference_slope: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "edgepaths", tuple(self.edgepaths))
        object.__setattr__(self, "K", tuple(int(k) for k in self.K))
        if len(self.edgepaths) < 3:
            raise ValueError("need at least three tangle edge-paths")
        if len(self.K) != len(self.edgepaths):
            raise ValueError("one sheet count per tangle required")
        if len(self.rvalues) != len(self.edgepaths):
            raise ValueError("one r-value per tangle required")
        if self.M < 1:
            raise ValueError("sheet count must be positive")

    @property
    def m(self) -> int:
        return len(self.edgepaths) - 1

    @property
    def common_b(self) -> int:
        """The shared band count B of the ending curve systems."""
        if self.q_negative is None:
            return 0
        return self.K[0] + self.M * (self.q_negative - 2)


def sstar_vector(q) -> tuple[tuple[Fraction, ...], int, tuple[int, ...]]:
    """Simplex weights x*, sheet count M, and arc counts K = M x*.

    x*_i is proportional to 1/(q_i - 1) and sums to one; M clears all
    denominators at once.
    """
    q = tuple(int(v) for v in q)
    if any(qi <= 1 for qi in q[1:]):
        raise ValueError(f"positive-index entries must exceed 1: {q}")
    total = sum(Fraction(1, qi - 1) for qi in q[1:])
    x = tuple(Fraction(1, qi - 1) / total for qi in q[1:])
    sheets = lcm(*(xi.denominator for xi in x))
    return x, sheets, tuple(int(sheets * xi) for xi in x)


def _sstar_negative_entries(cfe) -> list[int]:
    """Ladder-flavor expansion of a negative tangle fraction.

    From the even-length expansion [0, a1, ..., al] (all aj < 0) build
    the all-negative chain [-1, -2 x (-a1-1), a2-2, -2 x (-a3-1), ...,
    al-1] whose partial values descend the -1/k ladder before veering
    off toward the tangle fraction.
    """
    a = list(cfe[1:])
    ell = len(a)
    entries = [-1] + [-2] * (-a[0] - 1)
    for i in range(1, ell - 2, 2):
        entries.append(a[i] - 2)
        entries.extend([-2] * (-a[i + 1] - 1))
    entries.append(a[-1] - 1)
    return entries


def _positive_tangle_entries(cfe) -> list[int]:
    """Negative-flavor expansion of a positive tangle fraction.

    From [0, a1, ..., al] (all aj > 0) build [0, -a1-1, -2 x (a2-1),
    -a3-2, ..., -2 x (al-1)]; the partial values run from the tangle
    fraction down through 1/q_i to 0.
    """
    a = list(cfe[1:])
    ell = len(a)
    entries = [0, -a[0] - 1]
    for i in range(1, ell - 2, 2):
        entries.extend([-2] * (a[i] - 1))
        entries.append(-a[i + 1] - 2)
    entries.extend([-2] * (a[-1] - 1))
    return entries


def _reference_negative_entries(cfe) -> list[int]:
    """Negative-flavor expansion used by the reference path of r0.

    The generic shape is [0, -a1, a2-1, -2 x (-a3-1), a4-2, ...,
    al-1]; the boundary adjustments come from absorbing neighbor
    blocks, so a length-one tail keeps its entry unchanged and the
    exact-1/q0 case degenerates to the direct two-vertex descent.
    """
    a = list(cfe[1:])
    ell = len(a)
    if ell == 2 and a[1] == -1:
        # r0 = 1/q0 with q0 = a1 - 1: single edge from 1/q0 to 0.
        return [0, -(a[0] - 1)]
    if ell == 2:
        return [0, -a[0], a[1]]
    entries = [0, -a[0], a[1] - 1]
    for i in range(2, ell - 2, 2):
        entries.extend([-2] * (-a[i] - 1))
        entries.append(a[i + 1] - 2)
    entries.extend([-2] * (-a[-2] - 1))
    entries.append(a[-1] - 1)
    return entries


def _path_from_entries(entries, fraction, final_fraction=None, skip=0) -> EdgePath:
    """Edge-path through the reversed partial values of ``entries``.

    ``skip`` drops that many of the shortest partials (used to stop a
    ladder early); the full evaluation must equal ``fraction``.
    """
    partials = partial_evaluations(entries, flavor="negative")
    if partials[-1] != fraction:
        raise AdjacencyViolation(
            f"expansion {entries} evaluates to {partials[-1]}, expected {fraction}"
        )
    kept = partials[skip:] if skip else partials
    vertices = tuple(FareyVertex.from_fraction(v) for v in reversed(kept))
    return EdgePath(vertices, final_fraction)


def curve_coords(surface: CandidateSurface) -> tuple[CurveCoords, ...]:
    """Ending curve-system tallies (A, B, C) of each tangle's path."""
    out = []
    for path, k in zip(surface.edgepaths, surface.K):
        if len(path.vertices) < 2:
            raise UnsupportedEdgepathShape("constant edge-path has no ending edge")
        prev, last = path.vertices[-2], path.vertices[-1]
        if path.final_fraction is not None:
            arcs_prev, sheets = path.final_fraction
        else:
            arcs_prev, sheets = 0, surface.M
        arcs_last = sheets - arcs_prev
        out.append(
            CurveCoords(
                A=sheets,
                B=arcs_prev * (prev.q - 1) + arcs_last * (last.q - 1),
                C=arcs_prev * prev.p + arcs_last * last.p,
            )
        )
    return tuple(out)


def _check_gluing(surface: CandidateSurface):
    coords = curve_coords(surface)
    bands = {c.B for c in coords}
    if len(bands) != 1 or coords[0].B != surface.common_b:
        raise NoSolution(f"band counts differ across tangles: {coords}")
    if sum(c.C for c in coords) != 0:
        raise NoSolution(f"slope totals do not cancel: {coords}")


def _final_rvalue(path: EdgePath) -> int:
    prev, last = path.vertices[-2], path.vertices[-1]
    if prev == last:
        return 0
    return abs(prev.q - last.q)


def build_sstar_surface(knot) -> CandidateSurface:
    """The descending-ladder surface S(M, x*) of a knot.

    Each positive tangle path runs from its fraction down to 1/q_i and
    finishes with a fractional edge toward 0; the negative tangle path
    descends the -1/k ladder and finishes with a fractional edge
    between -1/q and -1/(q-1), where q and the arc count K0 solve
    K0 + M(q-2) = K1(q1-1) with 0 <= K0 <= M.  That equation has a
    solution exactly when s(q) <= 0.
    """
    data = knot.associated
    q = data.q
    x, sheets, karcs = sstar_vector(q)
    band = karcs[0] * (q[1] - 1)
    ladder_q = None
    for candidate in range(2, -q[0] + 1):
        k0 = band - sheets * (candidate - 2)
        if 0 <= k0 <= sheets:
            ladder_q = candidate
            break
    if ladder_q is None:
        raise NoSolution(
            f"no ladder depth 2 <= q <= {-q[0]} admits arc counts for {q}; "
            "the twist vector has s(q) > 0"
        )
    paths = [
        _path_from_entries(
            _sstar_negative_entries(data.cfes[0]),
            data.fractions[0],
            final_fraction=(k0, sheets),
            skip=ladder_q - 2,
        )
    ]
    for cf, r, k in zip(data.cfes[1:], data.fractions[1:], karcs):
        paths.append(
            _path_from_entries(
                _positive_tangle_entries(cf), r, final_fraction=(k, sheets)
            )
        )
    surface = CandidateSurface(
        edgepaths=tuple(paths),
        M=sheets,
        K=(k0,) + karcs,
        q_negative=ladder_q,
        rvalues=tuple(_final_rvalue(p) for p in paths),
    )
    _check_gluing(surface)
    return surface


def build_reference_surface(knot) -> CandidateSurface:
    """The single-sheet reference surface R of a knot.

    Every path runs from its tangle fraction to 0 along complete
    edges.  For a plain twist vector the paths are the direct descents
    from 1/q_i, the surface is a Seifert surface, and its boundary
    slope vanishes; for general tangle fractions the construction
    resolves the negative twist region the opposite way and the
    resulting slope offset is recorded in ``reference_slope``.
    """
    data = knot.associated
    paths = [
        _path_from_entries(_reference_negative_entries(data.cfes[0]), data.fractions[0])
    ]
    for cf, r in zip(data.cfes[1:], data.fractions[1:]):
        paths.append(_path_from_entries(_positive_tangle_entries(cf), r))
    if isinstance(knot, PretzelKnot):
        slope = Fraction(0)
    else:
        slope = montesinos_corrections(knot).slope_shift
    surface = CandidateSurface(
        edgepaths=tuple(paths),
        M=1,
        K=(0,) * len(paths),
        q_negative=None,
        rvalues=tuple(_final_rvalue(p) for p in paths),
        reference_slope=slope,
    )
    _check_gluing(surface)
    return surface


def twist_number(surface: CandidateSurface) -> Fraction:
    """Signed edge count 2 sum(e- minus e+) over all paths.

    An edge counts +1 when its slope value decreases along the
    traversal and -1 when it increases; a fractional final edge
    carries weight (M - K)/M instead of 1.
    """
    total = Fraction(0)
    for path in surface.edgepaths:
        last = path.edge_count - 1
        for idx in range(path.edge_count):
            u, v = path.vertices[idx], path.vertices[idx + 1]
            if u.is_infinite or v.is_infinite:
                raise UnsupportedEdgepathShape(
                    "twist numbers need finite slopes along the path"
                )
            if u == v:
                continue
            sign = 1 if u.value > v.value else -1
            if path.final_fraction is not None and idx == last:
                k, sheets = path.final_fraction
                total += sign * Fraction(sheets - k, sheets)
            else:
                total += sign
    return 2 * total


def boundary_slope(surface: CandidateSurface, seifert: CandidateSurface) -> Fraction:
    """Boundary slope of ``surface`` against a reference surface.

    The twist-number difference measures the slope relative to the
    reference's own boundary, so the reference's recorded slope is
    added back; it is zero whenever the reference is a genuine
    Seifert surface.
    """
    return twist_number(surface) - twist_number(seifert) + seifert.reference_slope


def euler_over_sheets(surface: CandidateSurface) -> Fraction:
    """Twice the Euler characteristic per sheet, 2 chi / M.

    Assembles the surface from 2M disks per tangle: each complete edge
    glues M bands, a fractional final edge M - K bands, and each of
    the m neighbor identifications merges 2M + B arcs, where B is the
    shared band count of the ending curve systems (counted once as a
    correction).
    """
    sheets = surface.M
    full = 0
    partial_bands = 0
    for path in surface.edgepaths:
        if path.edge_count < 1:
            raise UnsupportedEdgepathShape("constant edge-path")
        for u, v in zip(path.vertices, path.vertices[1:]):
            if u.is_infinite or v.is_infinite:
                raise UnsupportedEdgepathShape("edge-path ends at 1/0")
            if u == v:
                raise UnsupportedEdgepathShape("constant edge")
        full += path.full_edge_count
        if path.final_fraction is not None:
            k, m_of_path = path.final_fraction
            if m_of_path != sheets:
                raise ValueError("fractional edge weight uses a foreign sheet count")
            partial_bands += sheets - k
    m = surface.m
    band = surface.common_b
    chi = (
        2 * sheets * (m + 1)
        - sheets * full
        - partial_bands
        - m * (2 * sheets + band)
        + band
    )
    return Fraction(2 * chi, sheets)


def _excluded_cycle(cycle) -> bool:
    if 0 in cycle:
        return True
    non_one = [(i, r) for i, r in enumerate(cycle) if r != 1]
    if len(non_one) <= 1:
        return True
    if len(non_one) == 2:
        (i, ri), (j, rj) = non_one
        if 2 in (ri, rj):
            n = len(cycle)
            if (j - i) % n == 1 or (i - j) % n == 1:
                return True
    return False


def incompressibility_check(surface: CandidateSurface) -> str:
    """Sufficient incompressibility test on the final-edge r-values.

    The surface is certified incompressible unless its cycle of
    r-values matches one of the excluded shapes (a zero entry; at most
    one entry differing from 1; or exactly two non-1 entries, one of
    them a 2 adjacent to the other).  Matching an excluded shape only
    withholds the certificate, so the answer is then "Inconclusive".
    """
    return INCONCLUSIVE if _excluded_cycle(surface.rvalues) else INCOMPRESSIBLE
