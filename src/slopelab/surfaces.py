"""Candidate spanning surfaces described by edge-paths between slopes.

A tangle with fraction r determines paths in the Farey diagram: the
vertices are slopes p/q, held as ``Fraction``s, and two slopes span an
edge exactly when |ps - rq| = 1.  A candidate spanning surface for a
knot assembles one edge-path per tangle, all starting at the tangle
fractions and running toward a common meeting slope.  The surface has
M sheets, and the last edge of a path may be partial: ``stop`` of the
M sheets stop one vertex early (``stop = 0`` is a complete edge).  Two
families are built here: the descending-ladder surface S(M, x*), whose
sheet weights come from the simplex minimizer x*, and the single-sheet
reference surface R.  Twist numbers of the paths give boundary slopes;
a disk-and-band accounting gives Euler characteristics; and the cycle
of final-edge denominator jumps ("r-values"), read off the paths,
feeds a sufficient incompressibility criterion.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .cfrac import negative_cfe, partial_evaluations
from .errors import AdjacencyViolation, NoSolution
from .qip import integral

INCOMPRESSIBLE = "Incompressible"
INCONCLUSIVE = "Inconclusive"


def farey_adjacent(u: Fraction, v: Fraction) -> bool:
    """Whether two slopes span an edge of the diagram."""
    return abs(u.numerator * v.denominator - v.numerator * u.denominator) == 1


@dataclass(frozen=True)
class EdgePath:
    """An edge-path of at least one edge, listed from the tangle
    fraction toward its end; the vertices are ``Fraction`` slopes.

    ``stop`` of the surface's M sheets stop at the second-to-last
    vertex and the remaining M - stop continue to the last one; a
    complete last edge has ``stop = 0``.  ``CandidateSurface`` checks
    0 <= stop <= M.
    """

    vertices: tuple[Fraction, ...]
    stop: int = 0

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if len(self.vertices) < 2:
            raise ValueError("edge-path needs an ending edge")
        for u, v in zip(self.vertices, self.vertices[1:]):
            if not farey_adjacent(u, v):
                raise AdjacencyViolation(
                    f"slopes {u} and {v} do not span an edge"
                )

    @property
    def edge_count(self) -> int:
        return len(self.vertices) - 1


@dataclass(frozen=True)
class CurveCoords:
    """Band/slope tallies of one tangle's ending curve system."""

    B: int
    C: int


@dataclass(frozen=True)
class CandidateSurface:
    """An edge-path system together with its sheet bookkeeping.

    ``K`` lists the paths' ``stop`` counts (K0, K1, ..., Km), all zero
    for the reference family, and ``rvalues`` the final-edge
    denominator jumps; both are read off the paths.  ``q_negative`` is the ladder depth parameter
    of the negative tangle's final edge (None for the reference family).
    ``reference_slope`` is the boundary slope of this surface itself,
    known at construction time for reference surfaces; it is the
    offset ``boundary_slope`` adds when this surface serves as the
    comparison point, and is zero exactly when the reference surface
    has a Seifert-framed boundary.
    """

    edgepaths: tuple[EdgePath, ...]
    M: int
    q_negative: Optional[int]
    reference_slope: int = 0

    def __post_init__(self):
        object.__setattr__(self, "edgepaths", tuple(self.edgepaths))
        if len(self.edgepaths) < 3:
            raise ValueError("need at least three tangle edge-paths")
        if self.M < 1:
            raise ValueError("sheet count must be positive")
        for path in self.edgepaths:
            if not 0 <= path.stop <= self.M:
                raise ValueError(f"path stops {path.stop} of {self.M} sheets")

    @property
    def m(self) -> int:
        return len(self.edgepaths) - 1

    @property
    def K(self) -> tuple[int, ...]:
        return tuple(p.stop for p in self.edgepaths)

    @property
    def rvalues(self) -> tuple[int, ...]:
        return tuple(_final_rvalue(p) for p in self.edgepaths)

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
    q = tuple(integral(v, "twist entry") for v in q)
    if any(qi <= 1 for qi in q[1:]):
        raise ValueError(f"positive-index entries must exceed 1: {q}")
    total = sum(Fraction(1, qi - 1) for qi in q[1:])
    x = tuple(Fraction(1, qi - 1) / total for qi in q[1:])
    sheets = lcm(*(xi.denominator for xi in x))
    return x, sheets, tuple(int(sheets * xi) for xi in x)


def _path_from_entries(entries, stop=0, skip=0) -> EdgePath:
    """Edge-path through the reversed partial values of ``entries``.

    ``skip`` drops that many of the shortest partials (used to stop a
    ladder early).
    """
    kept = partial_evaluations(entries)[skip:]
    return EdgePath(tuple(reversed(kept)), stop)


def curve_coords(surface: CandidateSurface) -> tuple[CurveCoords, ...]:
    """Ending curve-system tallies (B, C) of each tangle's path."""
    out = []
    for path in surface.edgepaths:
        prev, last = path.vertices[-2], path.vertices[-1]
        arcs_prev, arcs_last = path.stop, surface.M - path.stop
        out.append(
            CurveCoords(
                B=arcs_prev * (prev.denominator - 1)
                + arcs_last * (last.denominator - 1),
                C=arcs_prev * prev.numerator + arcs_last * last.numerator,
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
    return abs(path.vertices[-2].denominator - path.vertices[-1].denominator)


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
            stop=k0,
            skip=ladder_q - 2,
        )
    ]
    for r, k in zip(data.fractions[1:], karcs):
        paths.append(_path_from_entries(negative_cfe(r), stop=k))
    surface = CandidateSurface(
        edgepaths=tuple(paths),
        M=sheets,
        q_negative=ladder_q,
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
        q_negative=None,
        reference_slope=slope,
    )
    _check_gluing(surface)
    return surface


def twist_number(surface: CandidateSurface) -> Fraction:
    """Signed edge count 2 sum(e- minus e+) over all paths.

    An edge counts +1 when its slope value decreases along the
    traversal and -1 when it increases; the last edge carries weight
    (M - stop)/M, which is 1 for a complete edge.  The sum is kept in
    M-ths as an integer and divided once.
    """
    sheets = surface.M
    total = 0
    for path in surface.edgepaths:
        vertices = path.vertices
        signs = [1 if u > v else -1 for u, v in zip(vertices, vertices[1:])]
        total += sheets * sum(signs) - signs[-1] * path.stop
    return Fraction(2 * total, sheets)


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
    glues M bands, a last edge M - stop bands, and each of
    the m neighbor identifications merges 2M + B arcs, where B is the
    shared band count of the ending curve systems (counted once as a
    correction).
    """
    sheets = surface.M
    full = partial_bands = 0
    for path in surface.edgepaths:
        full += path.edge_count - 1
        partial_bands += sheets - path.stop
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
