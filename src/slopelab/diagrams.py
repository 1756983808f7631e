"""Planar diagrams for the standard tangle presentations.

Every crossing is a small box with four ports in counterclockwise
order NW(0), SW(1), SE(2), NE(3).  The two strands run along the
diagonals: one through ports (0, 2), the other through (1, 3).
Diagrams are assembled from the knot's ``twist_runs`` in two
directions: a vertical run stacks boxes southward, a horizontal run
chains them eastward.
Tangles are then concatenated east to west and closed up around the
outside.

Two calibrated conventions fix the chirality: ``over_diagonal`` says
which diagonal crosses over in a run of either direction, and
``SIGN_CONV`` gives a crossing's sign from the ports where the walk
enters it.  The under strand enters either one port counterclockwise
of the over strand's entry (sign ``SIGN_CONV``) or one port clockwise
(sign ``-SIGN_CONV``).  Both are pinned by the known writhe and
bracket values of reference diagrams; see the tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MultiComponent

# Sign of a crossing whose under strand enters one port counterclockwise
# of the over strand's entry; pinned by known writhes (see tests).
SIGN_CONV = -1


def over_diagonal(sense: int) -> int:
    """The over diagonal of a crossing in a run of the given sense, in
    either run direction: 0 is the strand through ports (0, 2), 1 the
    strand through (1, 3).  Calibrated by known writhes (see tests)."""
    return 0 if sense > 0 else 1


@dataclass
class Diagram:
    """A closed 4-valent planar diagram with over/under data."""

    # the over diagonal of each crossing
    crossings: list[int] = field(default_factory=list)
    # planar pairing of ports; a port is (crossing_index, slot)
    edge: dict[tuple[int, int], tuple[int, int]] = field(default_factory=dict)

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
            ci = len(d.crossings)
            d.crossings.append(over_diagonal(sense))
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
    boundaries = [_build_tangle(d, runs) for runs in knot.twist_runs]
    for left, right in zip(boundaries, boundaries[1:]):
        d.join(left[2], right[1])  # SE to SW
        d.join(left[3], right[0])  # NE to NW
    d.join(boundaries[-1][3], boundaries[0][0])  # around the top
    d.join(boundaries[-1][2], boundaries[0][1])  # around the bottom
    return d


def _traverse(d: Diagram):
    """Walk the diagram, returning the entry slots in visit order.

    Each port leads to one next port, one-to-one, so the walk returns to
    its start before repeating a port.  Raises MultiComponent when it
    closes before covering every strand passage.
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
    if len(order) != 2 * len(d.crossings):
        raise MultiComponent(
            f"diagram has several components: walked {len(order)} of "
            f"{2 * len(d.crossings)} passages"
        )
    return order


def crossing_signs(d: Diagram) -> list[int]:
    entry = [[0, 0] for _ in d.crossings]
    for ci, slot in _traverse(d):
        entry[ci][slot % 2] = slot
    return [
        SIGN_CONV if (e[1 - over] - e[over]) % 4 == 1 else -SIGN_CONV
        for e, over in zip(entry, d.crossings)
    ]


def writhe(d: Diagram) -> int:
    """Sum of oriented crossing signs (single-component diagrams only)."""
    return sum(crossing_signs(d))
