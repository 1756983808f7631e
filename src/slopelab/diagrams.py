"""Planar diagrams for the standard tangle presentations.

Every crossing is a small box with four ports in counterclockwise
order NW(0), SW(1), SE(2), NE(3).  The two strands run along the
diagonals: one through ports (0, 2), the other through (1, 3).
Diagrams are assembled from twist runs in two directions: a vertical
run stacks boxes southward, a horizontal run chains them eastward.
Tangles are then concatenated east to west and closed up around the
outside.

The three module constants fix the chirality conventions (which
diagonal crosses over in a positively twisted run, and the sign of a
crossing from the oriented frame).  They are pinned by the known
writhe and bracket values of reference diagrams; see the tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MultiComponent
from .knots import MontesinosKnot, PretzelKnot

# Calibrated chirality constants.  over_diagonal 0 means the strand
# through ports (0, 2) crosses over; 1 means the strand through (1, 3).
# Both run directions share the same over diagonal; the values are
# pinned by known writhes of reference diagrams (see tests).
V_OVER_POS = 0  # over diagonal of a crossing in a positive vertical run
H_OVER_POS = 0  # over diagonal of a crossing in a positive horizontal run
SIGN_CONV = -1  # global sign of the oriented crossing determinant

_POS = {0: (-1, 1), 1: (-1, -1), 2: (1, -1), 3: (1, 1)}


def over_diagonal(axis: str, sense: int) -> int:
    """Which diagonal is the over strand for a run crossing."""
    base = V_OVER_POS if axis == "v" else H_OVER_POS
    return base if sense > 0 else 1 - base


def twist_runs(knot) -> list[list[tuple[str, int, int]]]:
    """Per-tangle build recipes [(axis, count, sense), ...].

    A pretzel tangle is one vertical run.  A fractional tangle follows
    its even-length expansion [0, a1, ..., al] (``knot.associated``)
    from the innermost term outward: horizontal runs for even
    positions, vertical for odd.
    """
    if isinstance(knot, PretzelKnot):
        return [[("v", abs(q), 1 if q > 0 else -1)] for q in knot.q]
    if not isinstance(knot, MontesinosKnot):
        raise TypeError(f"cannot build a diagram for {knot!r}")
    recipes = []
    for cf in knot.associated.cfes:
        runs = []
        for j in range(len(cf) - 1, 0, -1):
            axis = "h" if j % 2 == 0 else "v"
            runs.append((axis, abs(cf[j]), 1 if cf[j] > 0 else -1))
        recipes.append(runs)
    return recipes


@dataclass
class Diagram:
    """A closed 4-valent planar diagram with over/under data."""

    crossings: list[tuple[str, int, int]] = field(default_factory=list)
    # planar pairing of ports; a port is (crossing_index, slot)
    edge: dict[tuple[int, int], tuple[int, int]] = field(default_factory=dict)

    def add_crossing(self, axis: str, sense: int) -> int:
        self.crossings.append((axis, sense, over_diagonal(axis, sense)))
        return len(self.crossings) - 1

    def join(self, p, q):
        if p in self.edge or q in self.edge:
            raise ValueError(f"port already used: {p} or {q}")
        self.edge[p] = q
        self.edge[q] = p


def _build_tangle(d: Diagram, runs):
    """Realize one tangle; returns its boundary ports (nw, sw, se, ne)."""
    boundary = None
    for axis, count, sense in runs:
        for _ in range(count):
            ci = d.add_crossing(axis, sense)
            box = ((ci, 0), (ci, 1), (ci, 2), (ci, 3))
            if boundary is None:
                boundary = box
                continue
            nw, sw, se, ne = boundary
            bnw, bsw, bse, bne = box
            if axis == "h":  # chain eastward
                d.join(se, bsw)
                d.join(ne, bnw)
                boundary = (nw, sw, bse, bne)
            else:  # stack southward
                d.join(sw, bnw)
                d.join(se, bne)
                boundary = (nw, bsw, bse, ne)
    if boundary is None:
        raise ValueError("tangle with no crossings")
    return boundary


def build_standard_diagram(knot) -> Diagram:
    """Concatenate the tangles west to east and close up."""
    d = Diagram()
    boundaries = [_build_tangle(d, runs) for runs in twist_runs(knot)]
    for left, right in zip(boundaries, boundaries[1:]):
        d.join(left[2], right[1])  # SE to SW
        d.join(left[3], right[0])  # NE to NW
    d.join(boundaries[-1][3], boundaries[0][0])  # around the top
    d.join(boundaries[-1][2], boundaries[0][1])  # around the bottom
    return d


def _traverse(d: Diagram):
    """Walk the diagram, returning the entry slots in visit order.

    Raises MultiComponent when the walk closes before covering every
    strand passage.
    """
    if not d.crossings:
        raise ValueError("empty diagram")
    start = (0, 0)
    order = []
    here = start
    while True:
        order.append(here)
        ci, slot = here
        exit_port = (ci, (slot + 2) % 4)
        here = d.edge[exit_port]
        if here == start:
            break
        if len(order) > 2 * len(d.crossings):
            raise MultiComponent("walk revisits a passage")
    if len(order) != 2 * len(d.crossings):
        raise MultiComponent(
            f"diagram has several components: walked {len(order)} of "
            f"{2 * len(d.crossings)} passages"
        )
    return order


def _transit_directions(d: Diagram):
    """Map crossing -> {diagonal: direction vector} from the walk."""
    dirs = {}
    for ci, slot in _traverse(d):
        x0, y0 = _POS[slot]
        x1, y1 = _POS[(slot + 2) % 4]
        dirs.setdefault(ci, {})[slot % 2] = (x1 - x0, y1 - y0)
    return dirs


def crossing_signs(d: Diagram) -> list[int]:
    dirs = _transit_directions(d)
    signs = []
    for ci, (_, _, over) in enumerate(d.crossings):
        u = dirs[ci][over]
        w = dirs[ci][1 - over]
        det = u[0] * w[1] - u[1] * w[0]
        signs.append(SIGN_CONV if det > 0 else -SIGN_CONV)
    return signs


def writhe(d: Diagram) -> int:
    """Sum of oriented crossing signs (single-component diagrams only)."""
    return sum(crossing_signs(d))
