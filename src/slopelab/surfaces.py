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

from .cfrac import negative_cfe, partial_evaluations
from .errors import AdjacencyViolation, NoSolution, UnsupportedEdgepathShape

INCOMPRESSIBLE = "Incompressible"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class FareyVertex:
    """A finite slope p/q with q >= 1 and gcd(p, q) = 1."""

    p: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"denominator must be positive: {self.p}/{self.q}")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"slope {self.p}/{self.q} is not reduced")

    @classmethod
    def from_fraction(cls, r) -> "FareyVertex":
        r = Fraction(r)
        return cls(r.numerator, r.denominator)

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def farey_adjacent(u: FareyVertex, v: FareyVertex) -> bool:
    """Whether two slopes span an edge of the diagram."""
    return abs(u.p * v.q - v.p * u.q) == 1


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
    reference_slope: int = 0

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


def _path_from_entries(entries, final_fraction=None, skip=0) -> EdgePath:
    """Edge-path through the reversed partial values of ``entries``.

    ``skip`` drops that many of the shortest partials (used to stop a
    ladder early).
    """
    partials = partial_evaluations(entries)
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
    return abs(path.vertices[-2].q - path.vertices[-1].q)


def _ladder_depth(band: int, sheets: int) -> int:
    """Least q >= 2 with K0 = band - sheets (q - 2) <= sheets; K0 >= 0."""
    return max(2, 1 - (-band // sheets))  # 1 + ceil(band / sheets)


def build_sstar_surface(knot) -> CandidateSurface:
    """The descending-ladder surface S(M, x*) of a knot.

    Every path runs through the prefix values of ``negative_cfe`` of
    its tangle fraction.  Each positive tangle path runs from its
    fraction down to 1/q_i and finishes with a fractional edge toward
    0; the negative tangle path descends the -1/k ladder from -1 and
    finishes with a fractional edge between -1/q and -1/(q-1), where
    q = max(2, 1 + ceil(B / M)) for the band count B = K1(q1-1), and
    the arc count K0 = B - M(q-2) then lies in [0, M].  That depth is
    at most -q0 exactly when s(q) <= 0.
    """
    data = knot.associated
    q = data.q
    x, sheets, karcs = sstar_vector(q)
    band = karcs[0] * (q[1] - 1)
    ladder_q = _ladder_depth(band, sheets)
    if ladder_q > -q[0]:
        raise NoSolution(
            f"no ladder depth 2 <= q <= {-q[0]} admits arc counts for {q}; "
            "the twist vector has s(q) > 0"
        )
    k0 = band - sheets * (ladder_q - 2)
    paths = [
        _path_from_entries(
            negative_cfe(data.fractions[0]),
            final_fraction=(k0, sheets),
            skip=ladder_q - 2,
        )
    ]
    for r, k in zip(data.fractions[1:], karcs):
        paths.append(_path_from_entries(negative_cfe(r), final_fraction=(k, sheets)))
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
    edges, through the prefix values of ``negative_cfe(r_i)`` for a
    positive tangle and of [0] + ``negative_cfe(-1/r0)`` for the
    negative one.  For a plain twist vector the paths are the direct
    descents from 1/q_i, the surface is a Seifert surface, and its
    boundary slope vanishes; for general tangle fractions the
    construction resolves the negative twist region the opposite way
    and the resulting slope offset is recorded in ``reference_slope``.
    """
    data = knot.associated
    paths = [_path_from_entries([0] + negative_cfe(-1 / data.fractions[0]))]
    for r in data.fractions[1:]:
        paths.append(_path_from_entries(negative_cfe(r)))
    corrections = knot.corrections
    slope = 0 if corrections is None else corrections.slope_shift
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
