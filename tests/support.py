"""Test-side helpers that the library itself does not need.

``parse_poly`` reads a polynomial written by ``format_poly`` back in;
``planar_euler_check`` and ``pd_code`` read a standard diagram back in
two independent ways; ``colored_jones_unknot`` evaluates the unknot on a
crossingless round diagram, a reference value for the skein oracle.
``colored_jones_one_projector`` is the earlier closure of the cable,
with one projector below it, a reference for ``colored_jones``;
``_drop_projector_cups`` is the drop rule written out point by point,
and ``_times_generator`` stacks one braid generator.
``mirror`` substitutes v -> v^-1 and ``report_json`` renders a report's
JSON text.  The three ``_*_entries`` recipes and ``ladder_search`` are
the earlier hand-derived edge-path expansions and ladder depth search,
kept as a reference for ``negative_cfe`` and the closed-form depth.
"""
import json
import re

from slopelab.diagrams import Diagram, _traverse, crossing_signs, over_diagonal
from slopelab.errors import ColorTooLarge
from slopelab.laurent import LaurentPoly
from slopelab.tl import (
    DEFAULT_COLOR_CAP,
    TLElement,
    _is_braid_like,
    _matching,
    _times_block,
    _times_word,
    jw_projector,
    markov_closure,
    tangle_element,
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
    for ci, over in enumerate(d.crossings):
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


def _times_generator(x: TLElement, i: int, over_diag: int) -> TLElement:
    """Stack one braid generator on top of x (see ``tl._times_word``)."""
    return _times_word(x, [i], over_diag)


def _drop_projector_cups(x: TLElement, cable: int, bundles: int = 2) -> TLElement:
    """Drop the matchings that join two bottom points of one bundle,
    among the first ``bundles`` bundles of cable points: a projector
    stacked below that bundle kills them."""
    edge = bundles * cable
    terms = {
        m: c
        for m, c in x.terms.items()
        if not any(m[i] < edge and m[i] // cable == i // cable for i in range(edge))
    }
    return TLElement(x.a, x.b, terms)


def colored_jones_one_projector(knot, n: int) -> LaurentPoly:
    """``colored_jones`` by the earlier closure: the cable is built with
    the unfiltered kernels, dropping only the matchings that P_c on the
    first bundle kills, then P_c tensor 1 is stacked below it and the
    Markov closure divided by P_c's denominator."""
    cable = n - 1
    if cable == 0:
        return LaurentPoly.one()
    element = TLElement.identity(2 * cable)
    for runs in knot.twist_runs:
        if _is_braid_like(runs):
            for axis, count, sense in runs:
                element = _times_block(element, cable, over_diagonal(sense), count)
        else:
            element = tl_multiply(element, tangle_element(runs, cable))
        element = _drop_projector_cups(element, cable, bundles=1)
    proj, denom = jw_projector(cable)
    element = tl_multiply(tensor(proj, TLElement.identity(cable)), element)
    bracket = markov_closure(element).exact_div(denom)
    framing = LaurentPoly.term(1 if cable % 2 == 0 else -1, -knot.writhe * (n * n - 1))
    return framing * bracket


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:(?P<coeff>\d+)\s*\*?\s*)?
        (?:(?P<var>v)(?:\^(?P<exp>-?\d+))?)?\s*""",
    re.VERBOSE,
)


def parse_poly(text: str) -> LaurentPoly:
    """Inverse of format_poly; also accepts things like "3v^-2 + 1"."""
    out = {}
    pos = 0
    text = text.strip()
    if text == "0":
        return LaurentPoly()
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse polynomial near {text[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coeff = int(m.group("coeff")) if m.group("coeff") else 1
        if m.group("var"):
            exp = int(m.group("exp")) if m.group("exp") is not None else 1
        elif m.group("coeff"):
            exp = 0
        else:
            raise ValueError(f"empty term near {text[pos:]!r}")
        out[exp] = out.get(exp, 0) + sign * coeff
        pos = m.end()
    return LaurentPoly(out)


def mirror(poly: LaurentPoly) -> LaurentPoly:
    """Substitute v -> v^-1."""
    return LaurentPoly({-e: c for e, c in poly.coeffs.items()})


def report_json(report) -> str:
    """The JSON text ``slopelab verify --json`` writes for a report."""
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True)


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


def ladder_search(band: int, sheets: int, q0: int):
    """The least ladder depth 2 <= q <= -q0 whose arc count
    band - sheets (q - 2) lies in [0, sheets], or None."""
    ladder_q = None
    for candidate in range(2, -q0 + 1):
        k0 = band - sheets * (candidate - 2)
        if 0 <= k0 <= sheets:
            ladder_q = candidate
            break
    return ladder_q
