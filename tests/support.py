"""Test-side helpers that the library itself does not need.

``planar_euler_check`` and ``pd_code`` read a standard diagram back in
two independent ways; ``colored_jones_unknot`` evaluates the unknot on a
crossingless round diagram, a reference value for the skein oracle.
"""
from slopelab.diagrams import Diagram, _traverse, crossing_signs
from slopelab.errors import ColorTooLarge
from slopelab.laurent import LaurentPoly
from slopelab.tl import (
    DEFAULT_COLOR_CAP,
    TLElement,
    _matching,
    jw_projector,
    markov_closure,
    tensor,
    tl_multiply,
)


def planar_euler_check(d: Diagram) -> bool:
    """Trace faces from the rotation system and test V - E + F == 2."""
    seen = set()
    faces = 0
    for p0 in d.edge:
        if p0 in seen:
            continue
        faces += 1
        p = p0
        while p not in seen:
            seen.add(p)
            ci, slot = d.edge[p]
            p = (ci, (slot + 1) % 4)
    v = len(d.crossings)
    e = len(d.edge) // 2
    return v - e + faces == 2


def pd_code(d: Diagram):
    """PD tuples [a, b, c, d] per crossing, counterclockwise from the
    incoming under-strand edge, plus the list of crossing signs."""
    order = _traverse(d)
    label = {}
    n = len(order)
    for k, (ci, slot) in enumerate(order):
        # edge k+1 runs from this passage's exit to the next entry
        exit_port = (ci, (slot + 2) % 4)
        entry_port = order[(k + 1) % n]
        label[exit_port] = k + 1
        label[entry_port] = k + 1
    entries = {}
    for ci, slot in order:
        entries.setdefault(ci, {})[slot % 2] = slot
    tuples = []
    for ci, (_, _, over) in enumerate(d.crossings):
        under_entry = entries[ci][1 - over]
        tuples.append(
            [label[(ci, (under_entry + k) % 4)] for k in range(4)]
        )
    return {"crossings": tuples, "signs": crossing_signs(d)}


def _cabled_vertical_strands(cable: int) -> TLElement:
    """Two bundles running north-south: west points join each other,
    east points likewise."""
    n = cable
    pairs = [(j, 2 * n - 1 - j) for j in range(n)]
    pairs += [(2 * n + t, 4 * n - 1 - t) for t in range(n)]
    return TLElement(2 * n, 2 * n, {_matching(pairs, 4 * n): LaurentPoly.one()})


def colored_jones_unknot(n: int, color_cap: int = DEFAULT_COLOR_CAP) -> LaurentPoly:
    """``colored_jones``'s normalization, evaluated on a crossingless
    round diagram."""
    if n < 1:
        raise ValueError("color must be at least 1")
    if n > color_cap:
        raise ColorTooLarge(f"color {n} exceeds cap {color_cap}")
    cable = n - 1
    if cable == 0:
        return LaurentPoly.one()
    proj, denom = jw_projector(cable)
    element = tl_multiply(
        tensor(proj, TLElement.identity(cable)), _cabled_vertical_strands(cable)
    )
    value = markov_closure(element).exact_div(denom)
    return value if cable % 2 == 0 else value * -1
