"""Test-side helpers that the library itself does not need.

``parse_poly`` reads a polynomial written by ``format_poly`` back in;
``planar_euler_check`` and ``pd_code`` read a standard diagram back in
two independent ways; ``colored_jones_unknot`` evaluates the unknot on a
crossingless round diagram, a reference value for the skein oracle.
``colored_jones_one_projector`` is the earlier closure of the cable,
with one projector below it, a reference for ``colored_jones``, and
``projector_pair_trace`` the earlier closure of P_c tensor P_c under one
matching, a reference for the closed form ``tl._projector_trace``;
``_drop_projector_cups`` is the drop rule written out point by point,
``_times_generator`` stacks one braid generator, and ``rotate`` turns
an element's disk, the reference for a vertical run's shifted word.
``_matching`` builds a partner tuple from a list of pairs, checking
that each point is paired once.  ``mirror`` substitutes v -> v^-1 and
``report_json`` renders a report's JSON text.  ``raw_rows`` reads a
dense row of the state sum back as raw dicts.
The three ``_*_entries`` recipes and ``ladder_search`` are
the earlier hand-derived edge-path expansions and ladder depth search,
kept as a reference for ``negative_cfe`` and the closed-form depth.
``_routing`` and ``seam_masks_by_routing`` trace the strands of a
tangle's crossing words at cable 1, and ``classify_by_cases`` is the
earlier case rule for knot against link: both are second routes to
``knots.tangle_sum_parity``.  ``theta`` is the closed form of the theta
network, with ``InadmissibleTriple`` for colours that cannot meet; the
state sum has no trivalent vertices, so no library code needs them.
``torus_2k_bracket`` is the closed form of the projected bracket of the
torus knot T(2, k), a whole-polynomial witness for single crossings.
``cyclotomic_coefficients`` solves for Habiro's cyclotomic expansion,
a witness that ties all colours of one knot together.  ``tight_ties``
counts the tight states of top degree by enumeration.
"""
import itertools
import json
import re
from fractions import Fraction

from slopelab.diagrams import Diagram, _traverse, crossing_signs
from slopelab.errors import ColorTooLarge, SlopelabError
from slopelab.laurent import LaurentPoly
from slopelab.tl import (
    DEFAULT_COLOR_CAP,
    TOP,
    TLElement,
    _raw,
    _stack,
    _times_word,
    delta_n,
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


def _matching(pairs, size):
    """The partner tuple of a list of pairs, checking that each of the
    size points is paired exactly once."""
    partner = [-1] * size
    for i, j in pairs:
        if partner[i] != -1 or partner[j] != -1:
            raise ValueError(f"point of ({i}, {j}) is already paired")
        partner[i] = j
        partner[j] = i
    if -1 in partner:
        raise ValueError(f"point {partner.index(-1)} is left unpaired")
    return tuple(partner)


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


class InadmissibleTriple(SlopelabError):
    """Three colors that cannot meet at a trivalent vertex."""


def theta(a: int, b: int, c: int) -> LaurentPoly:
    """Loop value of two trivalent vertices joined along all three legs."""
    if (a + b + c) % 2 or abs(a - b) > c or c > a + b or min(a, b, c) < 0:
        raise InadmissibleTriple(f"colors ({a}, {b}, {c}) cannot meet")
    m = (a + b - c) // 2
    n = (b + c - a) // 2
    p = (c + a - b) // 2

    def dfact(k):
        out = LaurentPoly.one()
        for i in range(k + 1):
            out = out * delta_n(i)
        return out

    num = dfact(m + n + p) * dfact(m - 1) * dfact(n - 1) * dfact(p - 1)
    den = dfact(m + n - 1) * dfact(n + p - 1) * dfact(p + m - 1)
    return num.exact_div(den)


def _times_generator(x: TLElement, i: int, over_diag: int) -> TLElement:
    """Stack one braid generator on top of x (see ``tl._times_word``)."""
    return _times_word(x, [i], over_diag)


def rotate(x: TLElement, k: int) -> TLElement:
    """Rotate the disk by k boundary points (labels move up by k)."""
    size = x.a + x.b
    return TLElement(
        x.a,
        x.b,
        {
            tuple((m[(i - k) % size] + k) % size for i in range(size)): c
            for m, c in x.terms.items()
        },
    )


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
    """``colored_jones`` by the earlier closure: every tangle is built
    with ``tangle_element`` and multiplied in with the unfiltered
    ``tl_multiply``, dropping only the matchings that P_c on the first
    bundle kills, then P_c tensor 1 is stacked below it and the Markov
    closure divided by P_c's denominator."""
    cable = n - 1
    if cable == 0:
        return LaurentPoly.one()
    element = TLElement.identity(2 * cable)
    for runs in knot.twist_runs:
        element = tl_multiply(element, tangle_element(runs, cable))
        element = _drop_projector_cups(element, cable, bundles=1)
    proj, denom = jw_projector(cable)
    element = tl_multiply(tensor(proj, TLElement.identity(cable)), element)
    bracket = markov_closure(element).exact_div(denom)
    framing = LaurentPoly.term(1 if cable % 2 == 0 else -1, -knot.writhe * (n * n - 1))
    return framing * bracket


def projector_pair_trace(m, cable: int) -> LaurentPoly:
    """The closure of tensor(P, P) under the single matching m of a
    (2 cable, 2 cable) frame, divided once by D, for jw_projector(cable)'s
    (P, D): the product that ``tl._projector_trace`` replaces by its rule."""
    proj, denom = jw_projector(cable)
    single = TLElement(2 * cable, 2 * cable, {m: LaurentPoly.one()})
    return markov_closure(tl_multiply(tensor(proj, proj), single)).exact_div(denom)


def torus_2k_bracket(k: int, cable: int) -> LaurentPoly:
    """The projected bracket (``tl._projected_bracket``) of p:1,...,1
    with k ones, the torus knot T(2, k), or of its mirror p:-1,...,-1
    for k < 0: the fusion of two cable-coloured strands (Kauffman-Lins
    1994), the sum over i = 0..c of Delta_j (-1)^(ik) v^(-k e_i), where
    j = 2c - 2i and e_i = (j(j + 2) - 2c(c + 2)) / 2."""
    total = LaurentPoly.zero()
    for i in range(cable + 1):
        j = 2 * cable - 2 * i
        e = (j * (j + 2) - 2 * cable * (cable + 2)) // 2
        total = total + delta_n(j) * LaurentPoly.term((-1) ** (i * k), -k * e)
    return total


def cyclotomic_coefficients(polys, writhe: int) -> list:
    """Habiro's cyclotomic coefficients a_0, a_1, ... of a knot, from
    polys[n - 1] = colored_jones(knot, n) for n = 1, 2, ...  With q = v^4
    and J'(n) = J(n) / [n], they solve, colour by colour,

        J'(n) = sum over k < n of a_k prod_(j=1..k) (1 - q^(n+j)) (1 - q^(j-n)),

    so colour n fixes a_(n-1) by one ``exact_div``, which raises
    ArithmeticError when a coefficient of some colour is wrong.  J(n) is
    first multiplied by (-1)^((n-1) w), w the diagram's writhe: the sign
    that ROADMAP.md item 15 questions.  Without it the division fails at
    n = 2 on each odd-writhe knot tried."""
    coeffs = []
    for n, poly in enumerate(polys, 1):
        sign = LaurentPoly.term((-1) ** ((n - 1) * writhe))
        rest = (sign * poly).exact_div(LaurentPoly({2 * (n - 1) - 4 * j: 1 for j in range(n)}))
        prod = LaurentPoly.one()
        for j, a in enumerate(coeffs, 1):
            rest = rest - a * prod
            prod = prod * (LaurentPoly.one() - LaurentPoly.term(1, 4 * (n + j)))
            prod = prod * (LaurentPoly.one() - LaurentPoly.term(1, 4 * (j - n)))
        coeffs.append(rest.exact_div(prod))
    return coeffs


def _routing(runs) -> tuple:
    """Where a tangle's strands run at cable 1: one of the three
    matchings of its four points.  The points are read as a (0, 4) frame
    and each crossing is stacked on them as the braid generator i
    crossing strands i-1 and i: i = 1 for the first crossing and for a
    horizontal run's, i = 2, a quarter turn round, for a vertical run's."""
    letters = [1 if axis == "h" else 2 for axis, count, _ in runs for _ in range(count)]
    route = (3, 2, 1, 0)
    for i in [1] + letters[1:]:
        sigma = list(range(7, -1, -1))
        sigma[i - 1], sigma[i], sigma[7 - i], sigma[8 - i] = 7 - i, 8 - i, i - 1, i
        route, _ = _stack(route, tuple(sigma), 0, 4)
    return route


def seam_masks_by_routing(tangles) -> list:
    """``tl._seam_masks`` read off the strands: TOP on the seam above a
    tangle when the routings of the tangles above, stacked, join
    bottom point 0 to the top rather than to bottom point 1."""
    masks, above = [], (3, 2, 1, 0)  # routing of the tangles above
    for runs in reversed(tangles):
        masks.append(TOP if above[0] != 1 else 0)
        above, _ = _stack(_routing(runs), above, 2, 2)
    return masks[::-1]


def classify_by_cases(fractions) -> bool:
    """Whether the tangle closure is a knot, by cases: with every
    fraction in lowest terms, exactly when one denominator is even, or
    when all denominators are odd and the number of odd numerators is
    odd."""
    fr = [Fraction(r) for r in fractions]
    even_dens = sum(r.denominator % 2 == 0 for r in fr)
    if even_dens == 1:
        return True
    return even_dens == 0 and sum(r.numerator % 2 != 0 for r in fr) % 2 == 1


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


def raw_rows(row: dict) -> dict:
    """``tl._raw`` of each value of a dense row {matching: (lo, coeffs)}."""
    return {m: _raw(c) for m, c in row.items()}


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


def tight_ties(q, n: int) -> int:
    """The number of tight states (k1, ..., km), each ki >= 0 with
    t = k1 + ... + km <= n, that maximize
    -(q0 + 1) t^2 - sum((qi - 1) ki^2 + (qi + q0 - 2) ki): the states of
    top degree in ``qip.maximize_degree``, counted by enumeration."""
    q0, rest = q[0], q[1:]
    values = [
        -(q0 + 1) * sum(ks) ** 2
        - sum((qi - 1) * k * k + (qi + q0 - 2) * k for qi, k in zip(rest, ks))
        for ks in itertools.product(range(n + 1), repeat=len(rest))
        if sum(ks) <= n
    ]
    return values.count(max(values))
