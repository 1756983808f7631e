import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import slopelab
from slopelab.degrees import montesinos_js_jx
from slopelab.errors import ColorTooLarge, HypothesisViolation, SlopelabError
from slopelab.knots import (
    MontesinosKnot,
    PretzelKnot,
    check_strict_pretzel,
    parse_knot_spec,
    tangle_sum_parity,
)
from slopelab.laurent import LaurentPoly, addmul
from slopelab.tl import (
    BOTTOM,
    DEFAULT_COLOR_CAP,
    KAPPA,
    LOOP,
    TLElement,
    TOP,
    _block_word,
    _closed_row,
    _cups,
    _dense,
    _drop_killed,
    _killed,
    _matching_times,
    _projected_bracket,
    _projector_trace,
    _raw,
    _seam_masks,
    _stack,
    _sum_rows,
    _times_word,
    colored_jones,
    crossing_block,
    delta_n,
    jw_projector,
    markov_closure,
    tangle_element,
    tensor,
    tl_multiply,
)
from slopelab.diagrams import over_diagonal
from support import (
    InadmissibleTriple,
    _drop_projector_cups,
    _matching,
    _routing,
    _times_generator,
    colored_jones_one_projector,
    colored_jones_unknot,
    cyclotomic_coefficients,
    mirror,
    parse_poly,
    projector_pair_trace,
    raw_rows,
    rotate,
    seam_masks_by_routing,
    theta,
    tight_ties,
    torus_2k_bracket,
)


def quantum_int(n):
    return LaurentPoly({2 * (n - 1) - 4 * j: 1 for j in range(n)})


def is_noncrossing(m):
    n = len(m)
    for i in range(n):
        j = m[i]
        if i >= j:
            continue
        for k in range(i + 1, j):
            if not i < m[k] < j:
                return False
    return True


def _glue_matchings(mx, my, glue_x_to_y):
    """Glue two matchings along glue_x_to_y: {x point: y point}.

    Returns (pairs, loops) where pairs chain the surviving points,
    tagged ("x", i) or ("y", j).
    """
    glue_y_to_x = {j: i for i, j in glue_x_to_y.items()}
    visited = set()
    pairs = []

    def free_points():
        for i in range(len(mx)):
            if i not in glue_x_to_y:
                yield ("x", i)
        for j in range(len(my)):
            if j not in glue_y_to_x:
                yield ("y", j)

    def step(node):
        # follow the matching edge, then hop across the gluing if possible
        side, k = node
        k = (mx if side == "x" else my)[k]
        visited.add((side, k))
        if side == "x" and k in glue_x_to_y:
            nxt = ("y", glue_x_to_y[k])
            visited.add(nxt)
            return nxt, False
        if side == "y" and k in glue_y_to_x:
            nxt = ("x", glue_y_to_x[k])
            visited.add(nxt)
            return nxt, False
        return (side, k), True

    for start in free_points():
        if start in visited:
            continue
        visited.add(start)
        node = start
        while True:
            node, done = step(node)
            if done:
                break
        pairs.append((start, node))

    loops = 0
    for side, k in [("x", i) for i in glue_x_to_y] + [("y", j) for j in glue_y_to_x]:
        if (side, k) in visited:
            continue
        loops += 1
        node = (side, k)
        visited.add(node)
        while True:
            node, done = step(node)
            assert not done, "loop walk escaped"
            if node == (side, k):
                break
    return pairs, loops


def _glue_elements(x, y, glue_x_to_y, relabel, arity):
    """Generic planar gluing of two elements: the reference for the
    library's products.

    relabel maps tagged surviving points to result labels; arity is the
    resulting (a, b).
    """
    size = sum(1 for _ in relabel)
    out = {}
    for my, cy in y.terms.items():
        for mx, cx in x.terms.items():
            raw_pairs, loops = _glue_matchings(mx, my, glue_x_to_y)
            m = _matching([(relabel[u], relabel[w]) for u, w in raw_pairs], size)
            c = cx * cy
            if loops:
                c = c * LOOP**loops
            s = out.get(m, LaurentPoly.zero()) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return TLElement(arity[0], arity[1], out)


def _glued_product(x, y):
    """tl_multiply by the generic gluer: y's bottom meets x's top."""
    glue = {x.a + t: x.b - 1 - t for t in range(x.b)}
    relabel = {("x", i): i for i in range(x.a)}
    relabel.update({("y", y.a + u): x.a + u for u in range(y.b)})
    return _glue_elements(x, y, glue, relabel, (x.a, y.b))


def _fuse(a, b, c):
    """Diagram merging an a-strand and b-strand bundle into c strands."""
    m = (a + b - c) // 2
    p, n = a - m, b - m
    size = a + b + c
    pairs = [(a - 1 - t, a + t) for t in range(m)]
    pairs += [(j, size - 1 - j) for j in range(p)]
    pairs += [(a + m + u, size - 1 - p - u) for u in range(n)]
    mt = _matching(pairs, size)
    assert is_noncrossing(mt)
    return TLElement(a + b, c, {mt: LaurentPoly.one()})


def _unfuse(a, b, c):
    m = (a + b - c) // 2
    p, n = a - m, b - m
    size = a + b + c
    pairs = [(j, size - 1 - j) for j in range(p)]
    pairs += [(c + b - 1 - t, c + b + t) for t in range(m)]
    pairs += [(p + u, c + n - 1 - u) for u in range(n)]
    mt = _matching(pairs, size)
    assert is_noncrossing(mt)
    return TLElement(c, a + b, {mt: LaurentPoly.one()})


def theta_network(a, b, c):
    """Trivalent-vertex evaluation built strand by strand.

    Returns (closure, denominator): the network's value is their exact
    quotient whenever that quotient is a Laurent polynomial.
    """
    pa, da = jw_projector(a)
    pb, db = jw_projector(b)
    if c == 0:
        pc, dc = TLElement(0, 0, {_matching([], 0): LaurentPoly.one()}), LaurentPoly.one()
    else:
        pc, dc = jw_projector(c)
    x = tl_multiply(_unfuse(a, b, c), tensor(pa, pb))
    x = tl_multiply(x, _fuse(a, b, c))
    x = tl_multiply(x, pc)
    return markov_closure(x), da * db * dc


def test_loop_value():
    assert LOOP == LaurentPoly({2: -1, -2: -1})
    assert markov_closure(TLElement.identity(1)) == LOOP
    assert markov_closure(TLElement.identity(2)) == LOOP * LOOP


def test_cup_generator_relations():
    for n in (2, 3, 4):
        for i in range(1, n):
            e = TLElement.cup_generator(n, i)
            (m,) = e.terms
            assert tl_multiply(e, e) == TLElement(n, n, {m: LOOP})
    e1 = TLElement.cup_generator(3, 1)
    e2 = TLElement.cup_generator(3, 2)
    assert tl_multiply(tl_multiply(e1, e2), e1) == e1
    assert tl_multiply(tl_multiply(e2, e1), e2) == e2


def _planar_matchings(size):
    """Every noncrossing perfect matching of size boundary points."""

    def pairings(points):
        if not points:
            yield []
            return
        for k in range(1, len(points), 2):
            for inner in pairings(points[1:k]):
                for outer in pairings(points[k + 1 :]):
                    yield [(points[0], points[k])] + inner + outer

    return [_matching(pairs, size) for pairs in pairings(list(range(size)))]


def _dense_generator(width, i, over_diag):
    """The braid generator v^k 1 + v^-k e_i as an element."""
    k = KAPPA if over_diag == 0 else -KAPPA
    (ident,) = TLElement.identity(width).terms
    (cup,) = TLElement.cup_generator(width, i).terms
    terms = {ident: LaurentPoly.term(1, k), cup: LaurentPoly.term(1, -k)}
    return TLElement(width, width, terms)


def _dense_block(cable, over_diag):
    width = 2 * cable
    block = TLElement.identity(width)
    for t in range(cable):
        for i in range(cable - t, 2 * cable - t):
            block = tl_multiply(block, _dense_generator(width, i, over_diag))
    return block


def _dense_attach_south(t, v, n):
    """Glue v below t by matching t's south bundles to v's north ones."""
    glue = {}
    for j in range(n):
        glue[n + j] = n - 1 - j
        glue[2 * n + j] = 4 * n - 1 - j
    relabel = {("x", i): i for i in range(n)}
    relabel.update({("x", 3 * n + j): 3 * n + j for j in range(n)})
    relabel.update({("y", n + j): n + j for j in range(2 * n)})
    return _glue_elements(t, v, glue, relabel, (2 * n, 2 * n))


def _dense_tangle(runs, cable):
    """Tangle assembly by one dense product (or gluing) per crossing."""
    element = None
    for axis, count, sense in runs:
        block = _dense_block(cable, over_diagonal(sense))
        for _ in range(count):
            if element is None:
                element = block
            elif axis == "h":
                element = tl_multiply(element, block)
            else:
                element = _dense_attach_south(element, block, cable)
    return element


def _random_poly(rng, width):
    """A coefficient drawn as width random monomials in v^-8..v^8."""
    return LaurentPoly({rng.randrange(-8, 9): rng.choice((-2, -1, 1, 3)) for _ in range(width)})


def _random_element(rng, width):
    matchings = _planar_matchings(2 * width)
    chosen = rng.sample(matchings, min(len(matchings), 24))
    return TLElement(width, width, {m: _random_poly(rng, 3) for m in chosen})


def _random_frame_element(rng, a, b, width=1):
    matchings = _planar_matchings(a + b)
    chosen = rng.sample(matchings, min(len(matchings), 12))
    return TLElement(a, b, {m: _random_poly(rng, width) for m in chosen})


FRAMES = [
    (0, 2, 0), (2, 0, 2), (1, 1, 3), (3, 1, 1), (2, 4, 2),
    (4, 2, 4), (3, 5, 3), (5, 3, 1), (4, 4, 4), (0, 4, 2),
]


@pytest.mark.parametrize("a, b, c", FRAMES)
def test_tl_multiply_matches_generic_gluing(a, b, c):
    rng = random.Random(100 * a + 10 * b + c)
    # single monomials, then wide multi-term coefficients
    for width in (1, 8):
        for _ in range(3):
            x = _random_frame_element(rng, a, b, width)
            y = _random_frame_element(rng, b, c, width)
            assert tl_multiply(x, y) == _glued_product(x, y)


def test_tl_multiply_matches_generic_gluing_on_library_frames():
    for n in (2, 3, 4):
        proj, _ = jw_projector(n - 1)
        wide = tensor(proj, TLElement.identity(1))
        cap = TLElement.cup_generator(n, n - 1)
        assert tl_multiply(wide, cap) == _glued_product(wide, cap)
        assert tl_multiply(cap, wide) == _glued_product(cap, wide)
    for a, b, c in [(1, 1, 2), (2, 1, 1), (3, 2, 1), (2, 2, 4), (3, 3, 0)]:
        pa, pb = jw_projector(a)[0], jw_projector(b)[0]
        steps = [_unfuse(a, b, c), tensor(pa, pb), _fuse(a, b, c)]
        if c:
            steps.append(jw_projector(c)[0])
        x = steps[0]
        for y in steps[1:]:
            assert tl_multiply(x, y) == _glued_product(x, y)
            x = tl_multiply(x, y)


def _cup_word(width, word):
    """The single matching of e_{word[0]} e_{word[1]} ... on width strands."""
    e = TLElement.identity(width)
    for i in word:
        e = tl_multiply(e, TLElement.cup_generator(width, i))
    (m,) = e.terms
    return m


@pytest.mark.parametrize("width, word", [(2, [1]), (4, [1, 3]), (6, [1, 3, 5])])
def test_tl_multiply_drops_cancelling_groups(width, word):
    # Under y's term m, x's identity term and its term m both land on m,
    # with 0 and len(word) loops; their scaled coefficients cancel.
    rng = random.Random(width)
    m = _cup_word(width, word)
    ident = next(iter(TLElement.identity(width).terms))
    loops = len(word)
    assert _stack(ident, m, width, width) == (m, 0)
    assert _stack(m, m, width, width) == (m, loops)
    d = _random_poly(rng, 8)
    pure = TLElement(width, width, {ident: -d * LOOP**loops, m: d})
    y = TLElement(width, width, {m: _random_poly(rng, 8)})
    assert tl_multiply(pure, y) == TLElement(width, width, {})
    assert _glued_product(pure, y) == TLElement(width, width, {})
    # the same pair among other wide terms, on both sides
    x = _random_frame_element(rng, width, width, 8)
    x.terms.update(pure.terms)
    y = _random_frame_element(rng, width, width, 8)
    y.terms[m] = _random_poly(rng, 8)
    assert tl_multiply(x, y) == _glued_product(x, y)


def _closure_per_term(x):
    """Markov closure with one loop power per term: the closure arcs
    join i and size - 1 - i, and each component of the union is a loop."""
    size = x.a + x.b
    total = LaurentPoly.zero()
    for m, c in x.terms.items():
        root = list(range(size))

        def find(i):
            while root[i] != i:
                i = root[i]
            return i

        for i in range(size):
            for j in (m[i], size - 1 - i):
                root[find(i)] = find(j)
        loops = len({find(i) for i in range(size)})
        total = total + c * LOOP**loops
    return total


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_markov_closure_matches_per_term_closure(width):
    rng = random.Random(11 * width)
    for _ in range(3):
        x = _random_frame_element(rng, width, width, 8)
        assert markov_closure(x) == _closure_per_term(x)
    # the identity (width loops) and e_1 (width - 1 loops) closures cancel
    if width > 1:
        ident = next(iter(TLElement.identity(width).terms))
        d = _random_poly(rng, 8)
        x = TLElement(width, width, {ident: d, _cup_word(width, [1]): -d * LOOP})
        assert markov_closure(x) == LaurentPoly.zero() == _closure_per_term(x)


@pytest.mark.parametrize("a, b, c", FRAMES)
def test_tensor_interchange_law(a, b, c):
    rng = random.Random(7 + 100 * a + 10 * b + c)
    x1, x2 = _random_frame_element(rng, a, b), _random_frame_element(rng, b, c)
    y1, y2 = _random_frame_element(rng, c, b), _random_frame_element(rng, b, a)
    assert tensor(tl_multiply(x1, x2), tl_multiply(y1, y2)) == tl_multiply(
        tensor(x1, y1), tensor(x2, y2)
    )


def test_frame_checks_raise_value_error():
    two, three = TLElement.identity(2), TLElement.identity(3)
    with pytest.raises(ValueError):
        tl_multiply(two, three)
    with pytest.raises(ValueError):
        markov_closure(TLElement(2, 0, {}))
    with pytest.raises(ValueError):
        tangle_element([("h", 0, 1)], 1)
    with pytest.raises(ValueError):
        _matching([(0, 1), (1, 2)], 4)
    with pytest.raises(ValueError):
        _matching([(0, 3)], 4)


def test_arity_check_survives_optimize_flag():
    code = (
        "from slopelab.tl import TLElement, tl_multiply\n"
        "try:\n"
        "    tl_multiply(TLElement.identity(2), TLElement.identity(3))\n"
        "except ValueError:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(slopelab.__file__)))
    run = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.stdout.strip() == "raised", run.stderr


@pytest.mark.parametrize("cable", [1, 2, 3])
def test_times_generator_matches_dense_product(cable):
    rng = random.Random(cable)
    width = 2 * cable
    for _ in range(3):
        x = _random_element(rng, width)
        for i in range(1, width):
            for over_diag in (0, 1):
                dense = tl_multiply(x, _dense_generator(width, i, over_diag))
                assert _times_generator(x, i, over_diag) == dense


def _zero_free(x):
    """No term of x has a zero coefficient, nor a zero exponent entry."""
    return all(c and all(c.coeffs.values()) for c in x.terms.values())


@pytest.mark.parametrize("cable", [1, 2, 3])
def test_kernels_cancel_to_zero_free_elements(cable):
    # Each random element is first multiplied by inverse crossings, so
    # stacking the crossings back cancels most of the coefficients.
    rng = random.Random(40 + cable)
    width = 2 * cable
    for over_diag in (0, 1):
        x = _random_element(rng, width)
        for i in range(1, width):
            undone = _times_generator(_times_generator(x, i, 1 - over_diag), i, over_diag)
            assert undone == x and _zero_free(undone)
        for count in (1, 2):
            y = x
            for _ in range(count):
                y = tl_multiply(y, crossing_block(cable, 1 - over_diag))
                assert _zero_free(y)
            # count * cable**2 generators, one by one, each with its own shift
            stepwise = y
            for _ in range(count):
                for t in range(cable):
                    for i in range(cable - t, 2 * cable - t):
                        stepwise = _times_generator(stepwise, i, over_diag)
                        assert _zero_free(stepwise)
            block = _times_word(y, count * _block_word(cable), over_diag)
            assert block == stepwise == x and _zero_free(block)
            if count == 1:
                back = tl_multiply(y, crossing_block(cable, over_diag))
                assert back == x and _zero_free(back)
    # a crossing undone along a run: the identity, turned for a vertical run
    ident = TLElement.identity(width)
    for axis, turn in (("h", 0), ("v", cable)):
        undone = tangle_element([(axis, 1, 1), (axis, 1, -1)], cable)
        assert undone == rotate(ident, turn) and _zero_free(undone)
        twisted = tangle_element([(axis, 2, 1), ("h", 1, -1), ("v", 1, -1)], cable)
        assert _zero_free(twisted)


@pytest.mark.parametrize("cable", [1, 2, 3])
def test_crossing_block_is_the_braid_word(cable):
    for over_diag in (0, 1):
        assert crossing_block(cable, over_diag) == _dense_block(cable, over_diag)


@pytest.mark.parametrize("cable", [1, 2, 3])
def test_quarter_turn_swaps_over_diagonal(cable):
    for over_diag in (0, 1):
        block = crossing_block(cable, over_diag)
        assert rotate(block, cable) == crossing_block(cable, 1 - over_diag)
        assert rotate(rotate(block, cable), -cable) == block


@pytest.mark.parametrize("cable", [1, 2, 3])
def test_turned_word_is_the_word_on_the_turned_element(cable):
    # a word index counts top labels round the disk: the word shifted by
    # cable acts on the points a quarter turn round, which is the word on
    # top of the element turned, then turned back
    rng = random.Random(60 + cable)
    width = 2 * cable
    for _ in range(3):
        x = _random_element(rng, width)
        words = [_random_word(rng, width, 6), _block_word(cable), 2 * _block_word(cable)]
        for word in words:
            for over_diag in (0, 1):
                turned = rotate(_times_word(rotate(x, cable), word, over_diag), -cable)
                shifted = [i + cable for i in word]
                assert _times_word(x, shifted, over_diag) == turned


@pytest.mark.parametrize(
    "runs",
    [
        [("v", 3, 1)],
        [("v", 2, -1)],
        [("h", 2, 1), ("v", 2, -1)],
        [("v", 1, 1), ("h", 2, -1), ("v", 2, 1), ("h", 1, 1)],
    ],
)
@pytest.mark.parametrize("cable", [1, 2])
def test_tangle_element_matches_dense_assembly(runs, cable):
    assert tangle_element(runs, cable) == _dense_tangle(runs, cable)


@pytest.mark.parametrize("cable", [1, 2, 3])
def test_dropped_matchings_are_killed_by_projector(cable):
    width = 2 * cable
    every = TLElement(
        width, width, {m: LaurentPoly.one() for m in _planar_matchings(2 * width)}
    )
    kept = _drop_projector_cups(every, cable)
    assert len(kept.terms) == {1: 2, 2: 6, 3: 20}[cable]
    cups = _cups(cable, BOTTOM)
    assert set(kept.terms) == {m for m in every.terms if not _killed(m, cups)}
    proj, _ = jw_projector(cable)
    bottom = tensor(proj, proj)
    for m in every.terms:
        single = TLElement(width, width, {m: LaurentPoly.one()})
        killed = tl_multiply(bottom, single) == TLElement(width, width, {})
        assert killed == (m not in kept.terms)


@pytest.mark.parametrize("cable", [1, 2, 3, 4])
def test_projector_trace_closed_form(cable):
    # Under P_c on each bottom bundle a kept matching closes to 0 when it
    # joins two neighbours of one top bundle (a cup on a projector round
    # the closure).  Otherwise let k pairs join bottom bundle 1 to bottom
    # bundle 2: the partial trace of each projector leaves P_k, and one
    # loop of P_k closes it, so the normalized trace is delta_c^2 / delta_k.
    # The library reads that rule off; the reference closes the numerators
    # under the matching and divides once by D, which is D delta_c^2 / delta_k.
    # The reference is cheap below cable 4, so there it takes every matching.
    width = 2 * cable
    _, denom = jw_projector(cable)
    cups = _cups(cable, BOTTOM)
    every = _planar_matchings(2 * width)
    kept = [m for m in every if not _killed(m, cups)]
    assert len(kept) == {1: 2, 2: 6, 3: 20, 4: 70}[cable]
    checked = every if cable < 4 else kept
    traces = {m: LaurentPoly(raw_rows(_projector_trace(m, cable)).get((), {})) for m in checked}
    for m, trace in traces.items():
        assert trace == projector_pair_trace(m, cable), m
    swapped = []  # the rule with delta_(c-k) in place of delta_k
    for m in kept:
        trace = traces[m]
        top_cup = any(
            m[p] == p + 1 for p in range(width, 2 * width - 1) if p != width + cable - 1
        )
        if top_cup:
            assert trace == LaurentPoly.zero(), m
        else:
            k = sum(1 for i in range(cable) if cable <= m[i] < width)
            assert trace * delta_n(k) == denom * delta_n(cable) ** 2, m
            swapped.append(trace * delta_n(cable - k) == denom * delta_n(cable) ** 2)
    assert not all(swapped)


def _random_word(rng, width, length):
    return [rng.randrange(1, width) for _ in range(length)]


@pytest.mark.parametrize("cable", [1, 2, 3])
def test_kernels_drop_killed_terms(cable):
    # Every planar matching may be drawn, killed ones among them, so the
    # filtered kernels are checked on inputs that are not filtered yet.
    rng, scales = random.Random(70 + cable), random.Random(80 + cable)
    width = 2 * cable
    cups = _cups(cable, BOTTOM)
    for _ in range(3):
        x = _random_element(rng, width)
        tangle = tangle_element([("v", 2, 1)], cable)
        for y in (_random_element(rng, width), tangle):
            plain = tl_multiply(x, y)
            assert plain == _glued_product(x, y)
            # the row of one matching with cups is the filtered product
            for m in x.terms:
                single = TLElement(width, width, {m: LaurentPoly.one()})
                row = _matching_times(m, y, width, cups)
                rows = TLElement(width, width, {k: LaurentPoly(c) for k, c in row.items()})
                assert rows == _drop_projector_cups(tl_multiply(single, y), cable)
        # the dense step sums the same filtered rows.  Each of its
        # coefficients keeps one class mod 4, as a diagram's do, so its
        # terms are a tangle times a random polynomial in v^4 (drawn apart,
        # so x and the words below stay random), and its rows the tangle's.
        scale = LaurentPoly({4 * e: c for e, c in _random_poly(scales, 3).coeffs.items()})
        scaled = tangle_element([("h", 2, -1)], cable)
        scaled = TLElement(width, width, {m: c * scale for m, c in scaled.terms.items()})
        filtered = _sum_rows(
            {m: _dense(c.coeffs) for m, c in scaled.terms.items()},
            lambda m: {k: _dense(c) for k, c in _matching_times(m, tangle, width, cups).items()},
        )
        expected = _drop_projector_cups(tl_multiply(scaled, tangle), cable)
        assert raw_rows(filtered) == {m: c.coeffs for m, c in expected.terms.items()}
        words = [_random_word(rng, width, 6), _block_word(cable), 2 * _block_word(cable)]
        for word in words:
            for over_diag in (0, 1):
                plain = x
                for i in word:
                    plain = tl_multiply(plain, _dense_generator(width, i, over_diag))
                assert _times_word(x, word, over_diag) == plain
                assert _times_word(x, word, over_diag, ()) == plain
                dropped = _drop_projector_cups(plain, cable)
                assert _times_word(x, word, over_diag, cups) == dropped


def test_dense_kernel_matches_addmul():
    # _sum_rows on dense coefficients adds the product that laurent.addmul
    # adds on raw ones, into an empty sum or one held before or after it,
    # for raw operands whose exponents share a class mod 4 each: zero
    # coefficients inside, single terms, unequal lengths and negative
    # exponents included.  No input list changes.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def raw(cls, least):
        exps = st.integers(-10, 10).map(lambda e: 4 * e + cls)
        return st.dictionaries(exps, st.integers(-9, 9), min_size=least, max_size=8)

    operands = st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
        lambda r: st.tuples(raw(r[0], 1), raw(r[1], 1), raw((r[0] + r[1]) % 4, 0))
    )

    @hypothesis.settings(deadline=None, max_examples=300)
    @hypothesis.given(operands, st.booleans())
    def check(ops, held_first):
        a, b, held = ops
        expected = dict(held)
        addmul(expected, a, b)
        expected = {e: c for e, c in expected.items() if c}
        # zero coefficients never reach the kernel: rows and sums drop them
        order = [("held", _dense(held)), ("a", _dense(a))][:: 1 if held_first else -1]
        terms = {k: v for k, v in order if v[1]}
        rows = {"held": {"sum": (0, [1])}, "a": {"sum": _dense(b)} if _dense(b)[1] else {}}
        before = repr((terms, rows))
        out = _sum_rows(terms, rows.__getitem__)
        assert raw_rows(out) == ({"sum": expected} if expected else {})
        assert repr((terms, rows)) == before
        assert _raw(_dense(a)) == {e: c for e, c in a.items() if c}

    check()


def test_dense_form_refuses_two_classes():
    # a raw coefficient, or two products for one output, whose exponents
    # fall in two classes mod 4 has no dense form: an error, never a lost
    # term
    assert _dense({-6: 2, 1: 0, 6: -1}) == (-6, [2, 0, 0, -1])
    assert _dense({3: 0}) == (0, [])
    for raw in ({0: 1, 2: 1}, {-3: 4, 0: -1}, {5: 1, 4: 1}):
        with pytest.raises(ArithmeticError):
            _dense(raw)
    rows = {"x": {"sum": (0, [1])}, "y": {"sum": (2, [1])}}
    with pytest.raises(ArithmeticError):
        _sum_rows({"x": (0, [1]), "y": (0, [1])}, rows.__getitem__)


def test_masked_assembly_matches_the_dense_drop():
    # Shapes no recipe builds: a last run that is horizontal, runs of no
    # crossings, and h, v, h, v, where top bundle 3 keeps its cups until
    # the last horizontal run, though the vertical runs never touch it.
    shapes = [
        [("v", 2, 1), ("h", 2, -1)],
        [("v", 0, 1), ("h", 2, 1), ("v", 0, -1), ("v", 1, -1)],
        [("h", 1, 1), ("v", 2, 1), ("h", 1, 1), ("v", 1, 1)],
    ]
    for runs in shapes:
        expected = _drop_killed(_dense_tangle(runs, 2), _cups(2, TOP))
        assert tangle_element(runs, 2, TOP) == expected, runs


def _drop_bundle_pairs(x, cable, bundle):
    """x without the matchings that pair two points of one bundle."""
    inside = range(bundle * cable, (bundle + 1) * cable)
    terms = {m: c for m, c in x.terms.items() if not any(m[p] in inside for p in inside)}
    return TLElement(x.a, x.b, terms)


@pytest.mark.parametrize("cable", [2, 3, 4])
def test_times_word_drops_cups_of_an_untouched_top_bundle(cable):
    # The mask that assembly passes under a vertical run: top bundle 3,
    # which the vertical block word (bundles 1 and 2) never touches.  The
    # dense product is the block word's on the element turned a quarter.
    rng = random.Random(80 + cable)
    cups = _cups(cable, 0b1000)
    vertical = [i + cable for i in _block_word(cable)]
    # a generator i acts on labels 4 cable - i - 1 and 4 cable - i: bundles
    # 1 and 2 for a vertical word, 2 and 3 for a horizontal one
    for c in range(1, 6):
        for shift, bundles in ((c, {1, 2}), (0, {2, 3})):
            labels = {4 * c - i - shift - d for i in _block_word(c) for d in (0, 1)}
            assert {label // c for label in labels} == bundles, (c, shift)
    dropped_any = False
    for _ in range(3):
        x = _random_element(rng, 2 * cable)
        for count in (1, 2):
            for over_diag in (0, 1):
                plain = rotate(x, cable)
                for i in count * _block_word(cable):
                    plain = tl_multiply(plain, _dense_generator(2 * cable, i, over_diag))
                plain = rotate(plain, -cable)
                dropped = _drop_bundle_pairs(plain, cable, 3)
                assert _times_word(x, count * vertical, over_diag, cups) == dropped
                dropped_any |= dropped != plain
    assert dropped_any


@pytest.mark.parametrize("cable", [1, 2, 3])
def test_crossing_block_inverse(cable):
    pos = crossing_block(cable, 0)
    neg = crossing_block(cable, 1)
    ident = TLElement.identity(2 * cable)
    assert tl_multiply(pos, neg) == ident
    assert tl_multiply(neg, pos) == ident


def test_delta_values():
    assert delta_n(0) == LaurentPoly.one()
    assert delta_n(1) == LOOP
    assert delta_n(2) == LaurentPoly({4: 1, 0: 1, -4: 1})
    assert delta_n(3) == -quantum_int(4)
    for n in range(5):
        assert delta_n(n) == (-1) ** n * quantum_int(n + 1)
    # the closed form's edge: Delta_{-1} is the empty sum; below it, nothing
    assert delta_n(-1) == LaurentPoly.zero()
    with pytest.raises(ValueError):
        delta_n(-2)


def test_jw_projector_idempotent_and_killed():
    for n in (2, 3, 4):
        p, d = jw_projector(n)
        scaled = {m: c * d for m, c in p.terms.items()}
        assert tl_multiply(p, p) == TLElement(n, n, scaled)
        for i in range(1, n):
            e = TLElement.cup_generator(n, i)
            assert tl_multiply(p, e) == TLElement(n, n, {})
            assert tl_multiply(e, p) == TLElement(n, n, {})


def test_jw_projector_closure_and_size():
    for n in (1, 2, 3, 4):
        p, d = jw_projector(n)
        assert markov_closure(p).exact_div(d) == delta_n(n)
    assert len(jw_projector(4)[0].terms) == 14
    assert len(jw_projector(6)[0].terms) == 132


def test_theta_admissibility():
    with pytest.raises(InadmissibleTriple):
        theta(1, 1, 1)
    with pytest.raises(InadmissibleTriple):
        theta(1, 1, 4)
    with pytest.raises(InadmissibleTriple):
        theta(-1, 1, 0)


def test_theta_values():
    assert theta(0, 0, 0) == LaurentPoly.one()
    assert theta(1, 1, 0) == LOOP
    assert theta(1, 1, 2) == quantum_int(3)
    assert theta(2, 1, 1) == quantum_int(3)
    assert theta(3, 2, 1) == -quantum_int(4)
    assert theta(2, 2, 4) == quantum_int(5)
    assert theta(4, 3, 1) == quantum_int(5)
    for n in range(5):
        assert theta(n, n, 0) == delta_n(n)


def test_theta_refuses_non_laurent_values():
    for triple in [(2, 2, 2), (3, 3, 2)]:
        with pytest.raises(ArithmeticError):
            theta(*triple)
        closure, denom = theta_network(*triple)
        with pytest.raises(ArithmeticError):
            closure.exact_div(denom)


@pytest.mark.parametrize(
    "triple",
    [(1, 1, 0), (1, 1, 2), (2, 1, 1), (2, 2, 0), (3, 2, 1), (2, 2, 4), (3, 3, 0)],
)
def test_theta_matches_trivalent_network(triple):
    closure, denom = theta_network(*triple)
    assert theta(*triple) * denom == closure


def test_unknot_values():
    expected = {
        1: LaurentPoly.one(),
        2: LaurentPoly({2: 1, -2: 1}),
        3: LaurentPoly({4: 1, 0: 1, -4: 1}),
        4: LaurentPoly({6: 1, 2: 1, -2: 1, -6: 1}),
    }
    for n, poly in expected.items():
        assert colored_jones_unknot(n) == poly
        assert colored_jones_unknot(n) == quantum_int(n)


def test_trefoil_exact_polynomial():
    left = PretzelKnot((1, 1, 1))
    assert colored_jones(left, 1) == LaurentPoly.one()
    assert colored_jones(left, 2) == LaurentPoly({18: 1, 10: -1, 6: -1, 2: -1})
    j3 = colored_jones(left, 3)
    assert (j3.min_degree(), j3.degree()) == (4, 48)
    j4 = colored_jones(left, 4)
    assert (j4.min_degree(), j4.degree()) == (6, 90)


FROZEN_SPANS = [
    ("p:-3,3,3", 2, (-2, 26)),
    ("p:-3,3,3", 3, (-12, 76)),
    ("p:-3,5,5", 2, (2, 42)),
    ("p:-3,5,5", 3, (4, 124)),
    ("p:-5,3,3", 2, (-10, 26)),
    ("p:-5,3,3", 3, (-36, 76)),
    ("p:-3,3,3,3,3", 2, (2, 54)),
    ("p:-3,3,3,3,3", 3, (-4, 156)),
    ("p:-7,5,7,3,5", 2, (-14, 86)),
    ("p:-7,5,7,3,5", 3, (-44, 252)),
    ("m:-1/3,2/7,1/4", 2, (-2, 34)),
    ("m:-1/3,2/7,1/4", 3, (-16, 100)),
    ("m:-1/3,2/5,4/7", 3, (-68, 56)),
    ("m:-1/3,2/5,4/7", 4, (-142, 114)),
]


@pytest.mark.parametrize("spec, n, span", FROZEN_SPANS)
def test_frozen_degree_spans(spec, n, span):
    poly = colored_jones(parse_knot_spec(spec), n)
    assert (poly.min_degree(), poly.degree()) == span


# Whole colour-4 polynomials, recorded from the dense evaluation that
# composed one full TL product per crossing with the projector first.
FROZEN_COLOR4 = [
    (
        "p:1,1,1",
        "v^90 - v^82 - v^78 - v^74 + v^62 + v^58 + v^54 + v^50 + v^46 - v^30 - v^26"
        " - v^22 - v^18 - v^14 - v^10 - v^6",
    ),
    (
        "p:-3,-1,-1",
        "-v^-6 - v^-18 - 2*v^-22 - v^-26 + v^-30 - 2*v^-38 - v^-42 - v^-54 + v^-62"
        " + v^-66 + 2*v^-70 + v^-74 + v^-86 - v^-90 - v^-94 + v^-102 - v^-110 + v^-118"
        " - v^-126 - v^-130 + v^-138",
    ),
    (
        "m:-1/2,1/3,2/3",
        "-v^126 + v^118 + v^114 - v^106 + v^98 + v^94 - v^86 - v^82 - v^70 - 2*v^66"
        " + v^58 + v^54 - v^50 + v^42 - v^34 + v^30 + v^26 + v^10 + 2*v^6 + 2*v^2"
        " + 2*v^-14 - v^-18 - 2*v^-22 - v^-26 + v^-34",
    ),
    (
        "p:-3,3,3",
        "-v^150 + v^142 + v^138 - v^130 + v^122 + v^118 - v^110 - 2*v^106 - v^102"
        " - v^90 - v^86 + v^82 + 3*v^78 + v^74 + v^66 + 2*v^62 + v^58 - v^54 - v^50"
        " - v^46 - 2*v^42 - 3*v^38 - v^34 - v^30 + v^18 + v^14 + 3*v^10 + 2*v^6 - v^2"
        " - 3*v^-2 - v^-6 + 3*v^-10 - 2*v^-18 - 2*v^-22",
    ),
    # Read from the state sum.  The last tangle, 4/7, runs h, v, h, v under
    # a gated seam, so top bundle 3 keeps its cups until the last run.
    (
        "m:-1/3,2/5,4/7",
        "-v^114 + 2*v^110 + 2*v^106 - 3*v^102 - 7*v^98 + v^94 + 16*v^90 + 6*v^86"
        " - 21*v^82 - 22*v^78 + 18*v^74 + 42*v^70 - 2*v^66 - 57*v^62 - 27*v^58"
        " + 54*v^54 + 63*v^50 - 33*v^46 - 87*v^42 - 7*v^38 + 93*v^34 + 49*v^30"
        " - 80*v^26 - 83*v^22 + 54*v^18 + 106*v^14 - 22*v^10 - 112*v^6 - 2*v^2"
        " + 109*v^-2 + 25*v^-6 - 103*v^-10 - 42*v^-14 + 91*v^-18 + 59*v^-22"
        " - 69*v^-26 - 76*v^-30 + 38*v^-34 + 90*v^-38 + 3*v^-42 - 92*v^-46 - 51*v^-50"
        " + 76*v^-54 + 92*v^-58 - 48*v^-62 - 111*v^-66 + 9*v^-70 + 112*v^-74"
        " + 21*v^-78 - 87*v^-82 - 39*v^-86 + 56*v^-90 + 40*v^-94 - 30*v^-98"
        " - 29*v^-102 + 12*v^-106 + 16*v^-110 - 3*v^-114 - 9*v^-118 + 2*v^-122"
        " + 4*v^-126 - v^-130 - v^-134 - v^-138 + v^-142",
    ),
]


@pytest.mark.parametrize("spec, text", FROZEN_COLOR4, ids=[s for s, _ in FROZEN_COLOR4])
def test_frozen_color4_polynomials(spec, text):
    assert colored_jones(parse_knot_spec(spec), 4) == parse_poly(text)


# Whole colour-5 polynomials (cable width 4).  The first two were recorded
# from the state sum that accumulated every coefficient through
# LaurentPoly + and *, one new polynomial per addend, before the in-place
# kernels replaced it; the last three from the state sum that multiplied
# every tangle in on the full frame, before the seam projectors.
FROZEN_COLOR5 = [
    (
        "p:1,1,1",
        "v^144 - v^136 - v^132 - v^128 + v^116 + v^112 + v^108 + v^104 + v^100"
        " - v^84 - v^80 - v^76 - v^72 - v^68 - v^64 - v^60 + v^40 + v^36 + v^32"
        " + v^28 + v^24 + v^20 + v^16 + v^12 + v^8",
    ),
    (
        "p:-3,-1,-1",
        "v^-8 + v^-20 + v^-24 + 2*v^-28 - v^-36 + v^-44 + 4*v^-48 + v^-52 - v^-56"
        " - v^-60 + 2*v^-68 - v^-76 - v^-80 - v^-84 + v^-88 - v^-96 - v^-100"
        " - v^-104 - 2*v^-108 - v^-112 - v^-128 + v^-132 + 2*v^-136 + v^-140"
        " - v^-148 + v^-152 + 2*v^-156 - v^-164 - 2*v^-168 + v^-176 + v^-180"
        " - 2*v^-188 + v^-196 + v^-200 + v^-204 - v^-208 - v^-212 - v^-216 + v^-224",
    ),
    (
        "p:-3,3,3",
        "v^248 - v^240 - v^236 - v^232 + v^228 + v^224 + v^220 - 2*v^212 - v^208"
        " + v^200 + 2*v^196 + 2*v^192 + v^188 - v^184 - 2*v^180 - v^176 + v^172"
        " + v^168 + v^164 - 2*v^160 - 4*v^156 - 3*v^152 + 3*v^144 + v^140"
        " - 2*v^132 - v^128 + 3*v^124 + 4*v^120 + 3*v^116 - 2*v^108 + v^104"
        " + 2*v^100 + 2*v^96 - v^92 - 4*v^88 - 2*v^84 - v^80 - v^76 - 2*v^72"
        " - 3*v^68 - v^64 + v^60 + v^56 + 3*v^44 + 3*v^40 + 3*v^36 + 2*v^32"
        " - 2*v^24 - v^20 + v^16 + 2*v^12 + v^8 - 4*v^4 - 3 - v^-4 + 4*v^-8"
        " + 4*v^-12 - 2*v^-16 - 3*v^-20 - 3*v^-24 + v^-28 + 3*v^-32 + v^-36"
        " + v^-40",
    ),
    (
        "p:-3,5,5",
        "v^408 - v^400 - v^396 - v^392 + v^388 + v^384 + v^380 - 2*v^372 - v^368"
        " + v^360 + 2*v^356 + 2*v^352 + v^348 - v^344 - 2*v^340 - 3*v^336 - v^332"
        " + v^328 + 3*v^324 + 4*v^320 - 3*v^312 - 5*v^308 - 3*v^304 + 2*v^300"
        " + 5*v^296 + 5*v^292 - 6*v^284 - 8*v^280 - 5*v^276 + 2*v^272 + 8*v^268"
        " + 8*v^264 + 3*v^260 - 6*v^256 - 9*v^252 - 4*v^248 + 5*v^244 + 14*v^240"
        " + 9*v^236 - 2*v^232 - 11*v^228 - 11*v^224 + v^220 + 11*v^216 + 11*v^212"
        " + v^208 - 13*v^204 - 13*v^200 - 3*v^196 + 9*v^192 + 11*v^188 - v^184"
        " - 12*v^180 - 12*v^176 + v^172 + 12*v^168 + 9*v^164 - 4*v^160 - 10*v^156"
        " - 5*v^152 + 7*v^148 + 11*v^144 + 2*v^140 - 5*v^136 - 3*v^132 + 2*v^128"
        " + 4*v^124 - 2*v^120 - 2*v^116 + 4*v^112 + 7*v^108 + 3*v^104 - 9*v^100"
        " - 11*v^96 - 2*v^92 + 8*v^88 + 12*v^84 + 5*v^80 - 6*v^76 - 16*v^72"
        " - 13*v^68 + 5*v^64 + 17*v^60 + 15*v^56 - 5*v^52 - 22*v^48 - 15*v^44"
        " + 5*v^40 + 18*v^36 + 10*v^32 - 6*v^28 - 10*v^24 - 3*v^20 + 5*v^16"
        " + 6*v^12 + 3*v^8",
    ),
    (
        "m:-1/2,1/3,2/3",
        "v^208 - v^200 - v^196 - v^192 + v^188 + v^184 + v^180 - 2*v^172 - v^168"
        " + v^160 + 2*v^156 + v^152 - v^144 - v^140 + v^136 + 2*v^132 + v^128"
        " - v^124 - 3*v^120 - 2*v^116 + 2*v^108 + v^104 - 2*v^100 - 2*v^96"
        " + 2*v^88 + 2*v^84 - v^80 - 2*v^76 + v^68 + v^64 - v^60 - v^56 - v^40"
        " - v^36 + v^32 + v^28 + v^24 + v^20 + v^16 + v^8 + 3*v^4 + 4 + 2*v^-4"
        " - v^-8 - 4*v^-12 - 2*v^-16 + 3*v^-20 + 2*v^-24 - v^-28 - 4*v^-32"
        " - 3*v^-36 + v^-40 + 2*v^-44 + 2*v^-48 - v^-56",
    ),
]


@pytest.mark.parametrize("spec, text", FROZEN_COLOR5, ids=[s for s, _ in FROZEN_COLOR5])
def test_frozen_color5_polynomials(spec, text):
    assert colored_jones(parse_knot_spec(spec), 5, color_cap=5) == parse_poly(text)


# Colour 6, cable 5, where only T(2, 3) reaches otherwise.
FROZEN_COLOR6 = (
    "p:-3,3,3",
    "-v^370 + v^362 + v^358 + v^354 - v^346 - 2*v^342 - v^338 + v^330"
    " + 2*v^326 + 2*v^322 - 2*v^314 - 2*v^310 - 2*v^306 - 2*v^302 + 2*v^294"
    " + 3*v^290 + 3*v^286 + v^282 - 2*v^278 - 3*v^274 - 2*v^270 + 3*v^262"
    " + 5*v^258 + 4*v^254 + v^250 - 4*v^246 - 6*v^242 - 4*v^238 - v^234"
    " + 3*v^230 + 4*v^226 + 2*v^222 - 3*v^218 - 6*v^214 - 6*v^210 - 2*v^206"
    " + 3*v^202 + 7*v^198 + 6*v^194 - 4*v^186 - 4*v^182 - v^178 + 5*v^174"
    " + 8*v^170 + 5*v^166 - v^162 - 4*v^158 - 4*v^154 + 4*v^146 + 3*v^142"
    " - v^138 - 6*v^134 - 7*v^130 - 3*v^126 + 2*v^122 + 2*v^118 - v^114"
    " - 4*v^110 - 3*v^106 + 3*v^98 + 2*v^94 + v^90 + 3*v^82 + 4*v^78 + 3*v^74"
    " + v^70 - v^66 - v^62 + v^54 + v^50 + v^46 - v^42 - 3*v^38 - 5*v^34"
    " - 5*v^30 - 3*v^26 + 4*v^22 + 6*v^18 + 5*v^14 - v^10 - 7*v^6 - 10*v^2"
    " - 5*v^-2 + 5*v^-6 + 10*v^-10 + 7*v^-14 - v^-18 - 7*v^-22 - 7*v^-26"
    " - v^-30 + 5*v^-34 + 5*v^-38 + 2*v^-42 - 2*v^-50 - 2*v^-54 - 2*v^-58",
)


def test_frozen_color6_polynomial():
    spec, text = FROZEN_COLOR6
    poly = colored_jones(parse_knot_spec(spec), 6, color_cap=6)
    assert (poly.min_degree(), poly.degree(), len(poly.coeffs)) == (-58, 370, 96)
    assert poly == parse_poly(text)


# The jones_c4 benchmark knots and the mirrors of its pretzels, plus two
# larger knots with long vertical runs.
ONE_PROJECTOR_SPECS = [
    "p:-3,-1,-1", "p:3,1,1", "p:1,1,1", "p:-1,-1,-1", "p:-3,-1,1", "p:3,1,-1",
    "m:-1/2,1/3,2/3", "p:-3,3,3", "p:3,-3,-3", "m:-3/11,2/7,2/5", "p:-7,5,7,3,5",
]


@pytest.mark.parametrize("spec", ONE_PROJECTOR_SPECS)
def test_colored_jones_matches_one_projector_closure(spec):
    knot = parse_knot_spec(spec)
    for n in (2, 3, 4):
        assert colored_jones(knot, n) == colored_jones_one_projector(knot, n)


def _strict_sweep(seed, count):
    """count distinct strict knots: half pretzels with odd twists 3..7
    (3..5 with five tangles), half Montesinos knots whose fractions are
    -1/(q0 +- 1/b) and 1/(q + 1/a), q0 odd in 3..7, q even in 2..6 and
    a, b in 1..3, kept when montesinos_js_jx accepts them."""
    rng = random.Random(seed)
    knots = {}
    while len(knots) < count // 2:
        top = rng.choice((7, 7, 5))
        q = [rng.randrange(3, top + 1, 2) for _ in range(3 if top == 7 else 5)]
        knot = PretzelKnot((-q[0], *q[1:]))
        knots[knot.spec()] = knot
    while len(knots) < count:
        q0 = rng.randrange(3, 8, 2)
        fractions = [-1 / (q0 + Fraction(rng.choice((1, -1)), rng.randrange(1, 4)))]
        for _ in range(rng.choice((2, 2, 4))):
            fractions.append(1 / (rng.randrange(2, 7, 2) + Fraction(1, rng.randrange(1, 4))))
        try:
            knot = MontesinosKnot.from_fractions(fractions)
            montesinos_js_jx(knot)
        except SlopelabError:
            continue
        knots[knot.spec()] = knot
    return list(knots.values())


def test_colored_jones_matches_one_projector_closure_sweep():
    for knot in _strict_sweep(17, 64):
        for n in (2, 3):
            assert colored_jones(knot, n) == colored_jones_one_projector(knot, n), knot.spec()


def _twists(knot):
    """The associated twist vector; a pretzel is its own, +-1 entries included."""
    return knot.q if isinstance(knot, PretzelKnot) else knot.associated.q


def _is_strict(knot):
    try:
        check_strict_pretzel(_twists(knot))
    except HypothesisViolation:
        return False
    return True


def test_lowest_coefficient_counts_the_tight_states():
    # The paper's non-cancellation step, read off the whole sum: on strict
    # knots the lowest coefficient of J_(n+1) is +-1 per tight state of top
    # degree, with no cancellation among them.
    fixed = dict.fromkeys([spec for spec, _ in FROZEN_COLOR4] + ONE_PROJECTOR_SPECS[:9])
    strict = [knot for knot in map(parse_knot_spec, fixed) if _is_strict(knot)]
    assert [knot.spec() for knot in strict] == ["p:-3,3,3"]
    sweep = _strict_sweep(43, 40)
    assert all(map(_is_strict, sweep))
    pairs = ties = 0
    for knot in strict + sweep:
        crossings = sum(count for runs in knot.twist_runs for _, count, _ in runs)
        for color in (2, 3, 4) if crossings <= 14 else (2, 3):
            poly = colored_jones(knot, color)
            lowest = abs(poly.coeffs[poly.min_degree()])
            assert lowest == tight_ties(_twists(knot), color - 1), (knot.spec(), color)
            pairs, ties = pairs + 1, ties + (lowest > 1)
    assert pairs >= 80 and ties
    # Outside the hypotheses the count can miss: here two top states cancel.
    knot = parse_knot_spec("m:-1/2,1/3,2/3")
    poly = colored_jones(knot, 3)
    assert (poly.coeffs[poly.min_degree()], tight_ties(_twists(knot), 2)) == (-1, 2)


def _recipe_sweep(seed, count):
    """count distinct seeded knots of any kind: half pretzels with
    twists in -5..5 (so entries +-1 occur), half Montesinos knots with
    two to four fractions p/q, q in 2..11."""
    rng = random.Random(seed)
    knots = {}
    while len(knots) < count // 2:
        knot = PretzelKnot(tuple(rng.choice((-1, 1)) * rng.randrange(1, 6) for _ in range(3)))
        if knot.is_knot():
            knots[knot.spec()] = knot
    while len(knots) < count:
        qs = [rng.randrange(2, 12) for _ in range(rng.choice((2, 3, 4)))]
        fractions = [Fraction(rng.choice((-1, 1)) * rng.randrange(1, q), q) for q in qs]
        try:
            knot = MontesinosKnot.from_fractions(fractions)
        except SlopelabError:
            continue
        knots[knot.spec()] = knot
    return list(knots.values())


def test_colored_jones_matches_one_projector_closure_recipe_sweep():
    # Even entries, non-strict pretzels and Montesinos knots route some
    # tangles to a cup-cap, so some seams carry no projector here.
    gated_off = 0
    for knot in _recipe_sweep(31, 80):
        gated_off += 0 in _seam_masks(knot.fractions)
        for n in (2, 3):
            assert colored_jones(knot, n) == colored_jones_one_projector(knot, n), knot.spec()
    assert gated_off >= 20


def test_routing_of_twist_runs():
    # At cable 1 an odd run routes to the crossing.  An even vertical run
    # (a pretzel column) routes to a cup-cap, where the bottom points
    # meet each other; an even horizontal run routes straight through.
    for q in range(1, 8):
        for sense in (1, -1):
            even = {"v": (1, 0, 3, 2), "h": (3, 2, 1, 0)}
            for axis, route in even.items():
                expected = (2, 3, 0, 1) if q % 2 else route
                assert _routing([(axis, q, sense)]) == expected, (axis, q * sense)


# the routing of a tangle by the parity class of its fraction: the
# crossing, a cup-cap, or straight through
ROUTE_OF_PARITY = {(1, 1): (2, 3, 0, 1), (1, 0): (1, 0, 3, 2), (0, 1): (3, 2, 1, 0)}


def test_seam_masks_match_the_strand_trace():
    classes = set()
    for knot in _recipe_sweep(31, 80):
        assert _seam_masks(knot.fractions) == seam_masks_by_routing(knot.twist_runs), knot.spec()
        for r, runs in zip(knot.fractions, knot.twist_runs):
            parity = tangle_sum_parity([r])
            classes.add(parity)
            assert _routing(runs) == ROUTE_OF_PARITY[parity], (knot.spec(), r)
    assert classes == set(ROUTE_OF_PARITY)


@pytest.fixture
def patch_tl(monkeypatch):
    """monkeypatch.setattr on slopelab.tl with every cache cleared after
    each patch and at the end: a row cached before a patch of
    tangle_element would bypass it, and one built under it must not
    outlive the test."""
    import slopelab.tl as tl

    def patch(name, value):
        monkeypatch.setattr(tl, name, value)
        tl.clear_caches()

    yield patch
    tl.clear_caches()


@pytest.mark.parametrize("spec", ["m:-1/3,2/7,1/4", "p:-3,4,5"])
def test_seam_projectors_need_the_routing_gate(patch_tl, spec):
    knot = parse_knot_spec(spec)
    reference = colored_jones_one_projector(knot, 3)
    assert 0 in _seam_masks(knot.fractions)
    assert colored_jones(knot, 3) == reference
    # every tangle sum read with an odd denominator: every seam carries
    # projectors
    patch_tl("tangle_sum_parity", lambda fractions: (1, 1))
    assert 0 not in _seam_masks(knot.fractions)
    assert colored_jones(knot, 3) != reference


def test_seam_projectors_filter_one_side(patch_tl):
    import slopelab.tl as tl

    knot = parse_knot_spec("p:-3,3,3")
    reference = colored_jones_one_projector(knot, 3)
    assert colored_jones(knot, 3) == reference
    assemble = tl.tangle_element

    def both_sides(runs, cable, mask=0):
        # also drop the tangle's bottom cups, on the seam below it
        return _drop_killed(assemble(runs, cable, mask), _cups(cable, BOTTOM | mask))

    patch_tl("tangle_element", both_sides)
    assert colored_jones(knot, 3) != reference


def test_color_must_be_integer_valued():
    knot = parse_knot_spec("p:-3,3,3")
    assert colored_jones(knot, 2.0) == colored_jones(knot, 2)
    assert colored_jones(knot, Fraction(3)) == colored_jones(knot, 3)
    for bad in (2.5, Fraction(5, 2), "2"):
        with pytest.raises(ValueError):
            colored_jones(knot, bad)


def test_twist_runs_shapes():
    # every recipe is a pretzel column (one vertical run) or the
    # alternating runs of a Montesinos tangle
    for knot in _recipe_sweep(23, 80):
        for runs in knot.twist_runs:
            assert all(count >= 1 for _, count, _ in runs), knot.spec()
            axes = "".join(axis for axis, _, _ in runs)
            if isinstance(knot, PretzelKnot):
                assert axes == "v", knot.spec()
            else:
                assert len(axes) >= 2 and axes == "hv" * (len(axes) // 2), knot.spec()


def test_every_tangle_takes_the_row_path(patch_tl):
    # single crossings (pretzel entries +-1) included: from a cold row
    # cache, every recipe reaches tangle_element with its seam mask
    import slopelab.tl as tl

    built, assemble = set(), tl.tangle_element

    def spy_tangle_element(runs, cable, mask=0):
        built.add((tuple(runs), mask))
        return assemble(runs, cable, mask)

    patch_tl("tangle_element", spy_tangle_element)
    singles = 0
    for knot in _recipe_sweep(29, 80):
        built.clear()
        tl.clear_caches()
        tl._projected_bracket(knot, 1)
        masks = _seam_masks(knot.fractions)
        assert built == {(tuple(r), m) for r, m in zip(knot.twist_runs, masks)}, knot.spec()
        singles += isinstance(knot, PretzelKnot) and sum(abs(q) == 1 for q in knot.q)
    assert singles


@pytest.mark.parametrize("runs", [[("v", 3, 1)], [("h", 2, 1), ("v", 2, -1)]])
def test_tangle_cache_keys_on_the_seam_mask(runs):
    # the same recipe at the same cable, with and without projectors on
    # the seam above it: two elements, each equal to a fresh assembly
    import slopelab.tl as tl

    fresh = tl._assemble_tangle.__wrapped__
    open_seam, closed_seam = tangle_element(runs, 2, TOP), tangle_element(runs, 2, 0)
    assert open_seam != closed_seam
    assert open_seam == fresh(tuple(runs), 2, TOP)
    assert closed_seam == fresh(tuple(runs), 2, 0) == _dense_tangle(runs, 2)
    assert open_seam == _drop_killed(_dense_tangle(runs, 2), _cups(2, TOP))
    # a list recipe and its tuple share one entry
    assert tangle_element(runs, 2, TOP) is tangle_element(tuple(runs), 2, TOP)


def _spied_sweep(patch_tl):
    """The keys each cache in tl.CACHES was called with over a sweep of
    state sums, each cache spied through its module name; nothing may
    have been evicted."""
    import slopelab.tl as tl

    keys = {cache.__name__: set() for cache in tl.CACHES}

    def spy(cache):
        def call(*key):
            keys[cache.__name__].add(key)
            return cache(*key)

        return call

    for cache in tl.CACHES:
        patch_tl(cache.__name__, spy(cache))
    for knot in _recipe_sweep(37, 40):
        for n in (2, 3):
            colored_jones(knot, n)
    for cache in tl.CACHES:
        info = cache.cache_info()
        assert info.hits and info.currsize == len(keys[cache.__name__]), cache  # nothing evicted
    return keys


def test_caches_share_no_value_that_callers_change(patch_tl):
    # After a sweep of state sums every cached value is still what a
    # fresh call returns: no caller changed a shared value in place.
    import slopelab.tl as tl

    keys = _spied_sweep(patch_tl)
    for cache in tl.CACHES:
        for key in keys[cache.__name__]:
            assert cache(*key) == cache.__wrapped__(*key), (cache, key)


def test_tangle_cache_shares_no_element_that_callers_change(patch_tl):
    # After a sweep of state sums every cached tangle is still the dense
    # assembly, filtered on its seam mask.  The warm values equal the
    # ones computed again from empty caches.
    import slopelab.tl as tl

    keys = _spied_sweep(patch_tl)["_assemble_tangle"]
    assert {mask for _, _, mask in keys} == {0, TOP}
    for runs, cable, mask in keys:
        expected = _drop_killed(_dense_tangle(runs, cable), _cups(cable, mask))
        assert tangle_element(runs, cable, mask) == expected, (runs, cable, mask)
    knots = _recipe_sweep(37, 40)
    warm = [colored_jones(knot, n) for n in (2, 3) for knot in knots]
    tl.clear_caches()
    assert warm == [colored_jones(knot, n) for n in (2, 3) for knot in knots]


def test_row_cache_shares_no_row_that_callers_change(patch_tl):
    # After a sweep of state sums every cached row is still the dense
    # product of its matching and the tangle, filtered on the bottom
    # bundles and its seam mask.
    import slopelab.tl as tl

    keys = _spied_sweep(patch_tl)["_row"]
    assert {top for *_, top in keys} == {0, TOP}
    for m, runs, cable, top in keys:
        single = TLElement(len(m) - 2 * cable, 2 * cable, {m: LaurentPoly.one()})
        dense = tl_multiply(single, _dense_tangle(runs, cable))
        expected = _drop_killed(dense, _cups(cable, BOTTOM | top))
        row = raw_rows(tl._row(m, runs, cable, top))
        assert row == {k: c.coeffs for k, c in expected.terms.items()}, (m, runs, cable, top)


def _dense_closed_rows(keys):
    """Per closed-row key (m, runs, cable, top): the closure of the two
    projectors under the single matching m under the dense tangle, its
    top cups dropped on the mask, divided once by the projector
    denominator D, as raw coefficients."""
    tangles, projectors, closed = {}, {}, {}
    for m, runs, cable, top in keys:
        if cable not in projectors:
            proj, denom = jw_projector(cable)
            projectors[cable] = tensor(proj, proj), denom
        if (runs, cable) not in tangles:
            tangles[runs, cable] = _dense_tangle(runs, cable)
        tangle = _drop_killed(tangles[runs, cable], _cups(cable, top))
        single = TLElement(2 * cable, 2 * cable, {m: LaurentPoly.one()})
        pair, denom = projectors[cable]
        element = tl_multiply(pair, tl_multiply(single, tangle))
        closed[m, runs, cable, top] = markov_closure(element).exact_div(denom).coeffs
    return closed


def test_closed_rows_match_the_dense_closure(patch_tl):
    # Every closed row cached over a sweep of state sums at cables 1-2,
    # and over the jones_c4 knots at cable 3, is the dense closure
    # through its tangle.  The last tangle's seam is the closure's, which
    # always carries the projectors, so every closed row keys on TOP.
    keys = _spied_sweep(patch_tl)["_closed_row"]  # the spies still record
    assert {cable for _, _, cable, _ in keys} == {1, 2}
    for spec in ONE_PROJECTOR_SPECS[:9]:  # the jones_c4 knots
        colored_jones(parse_knot_spec(spec), 4)
    assert {cable for _, _, cable, _ in keys} == {1, 2, 3}
    assert {top for *_, top in keys} == {TOP}
    assert _closed_row.cache_info().currsize == len(keys)
    for key, expected in _dense_closed_rows(keys).items():
        assert raw_rows(_closed_row(*key)) == ({(): expected} if expected else {}), key


def test_traces_key_on_one_matching_per_k(patch_tl):
    # The closure's seam always carries the projectors, so a closed row's
    # outputs have no cup inside any bundle, and such a matching is fixed
    # by the number k of pairs that join the bottom bundles.
    keys = _spied_sweep(patch_tl)["_projector_trace"]
    assert {cable for _, cable in keys} == {1, 2}
    by_k = {}
    for m, cable in keys:
        assert not _killed(m, _cups(cable, BOTTOM | TOP)), m
        k = sum(1 for i in range(cable) if cable <= m[i] < 2 * cable)
        by_k.setdefault((cable, k), []).append(m)
    assert all(len(matchings) == 1 for matchings in by_k.values()), by_k


def test_every_cache_is_listed():
    import slopelab.tl as tl

    cached = [value for value in vars(tl).values() if hasattr(value, "cache_clear")]
    assert set(cached) == set(tl.CACHES) and len(tl.CACHES) == len(set(tl.CACHES))


def test_cold_caches_give_the_warm_polynomials():
    import slopelab.tl as tl

    knots = [parse_knot_spec(spec) for spec in ONE_PROJECTOR_SPECS[:9]]  # the jones_c4 knots
    first = [colored_jones(knot, n) for n in (2, 3, 4) for knot in knots]
    warm = [colored_jones(knot, n) for n in (2, 3, 4) for knot in knots]
    tl.clear_caches()
    assert all(cache.cache_info().currsize == 0 for cache in tl.CACHES)
    assert [colored_jones(knot, n) for n in (2, 3, 4) for knot in knots] == warm == first


def test_warm_state_sum_makes_no_raw_product(monkeypatch):
    # with every row and closed row cached, the state sum multiplies
    # dense lists only: no laurent.addmul call before its one LaurentPoly
    import slopelab.tl as tl

    calls = []

    def spy(*args):
        calls.append(args)
        return addmul(*args)

    for spec in ("m:-1/3,2/7,1/4", "p:-3,5,5"):
        knot = parse_knot_spec(spec)
        for cable in (1, 2, 3):
            cold = _projected_bracket(knot, cable)
            monkeypatch.setattr(tl, "addmul", spy)
            assert _projected_bracket(knot, cable) == cold
            assert calls == [], (spec, cable)
            monkeypatch.undo()


@pytest.mark.parametrize("runs", [[("v", 3, 1)], [("h", 2, 1), ("v", 2, -1)]])
def test_rows_key_on_the_seam_mask(runs):
    # the row of the identity is the tangle itself, filtered on the
    # bottom bundles and, on a gated seam, on the top ones
    import slopelab.tl as tl

    (ident,) = TLElement.identity(4).terms
    rows = {top: tl._row(ident, tuple(runs), 2, top) for top in (TOP, 0)}
    assert rows[TOP] != rows[0]
    for top, row in rows.items():
        assert row == tl._row.__wrapped__(ident, tuple(runs), 2, top)
        tangle = _drop_killed(_dense_tangle(runs, 2), _cups(2, BOTTOM | top))
        assert raw_rows(row) == {m: c.coeffs for m, c in tangle.terms.items()}


@pytest.mark.parametrize("k", [3, 5, 7])
def test_torus_knots_match_the_closed_form(k):
    # p:1,...,1 with k ones is T(2, k): every tangle a single crossing
    for cable in (1, 2, 3, 4, 5) if k == 3 else (1, 2, 3):
        for sense in (1, -1):
            knot = PretzelKnot((sense,) * k)
            assert _projected_bracket(knot, cable) == torus_2k_bracket(sense * k, cable)


def test_cyclotomic_expansion_divides_at_every_color():
    # Habiro: each colour fixes one cyclotomic coefficient by one exact
    # division, so every colour of a knot is checked against the lower ones.
    specs = [spec for spec, _ in FROZEN_COLOR4]
    specs += [PretzelKnot((sense,) * k).spec() for k in (3, 5, 7) for sense in (1, -1)]
    for spec in dict.fromkeys(specs):
        knot = parse_knot_spec(spec)
        polys = [colored_jones(knot, n) for n in range(1, 5)]
        assert cyclotomic_coefficients(polys, knot.writhe)[0] == LaurentPoly.one(), spec
    for knot in _recipe_sweep(41, 60):
        cyclotomic_coefficients([colored_jones(knot, n) for n in (1, 2, 3)], knot.writhe)


def test_cyclotomic_coefficients_of_the_trefoil():
    knot = parse_knot_spec("p:1,1,1")
    polys = [colored_jones(knot, n, color_cap=5) for n in range(1, 6)]
    assert cyclotomic_coefficients(polys, knot.writhe) == [
        LaurentPoly.term(1, 4 * k) for k in range(5)
    ]
    # the writhe is odd: without the sign correction colour 2 fails
    with pytest.raises(ArithmeticError):
        cyclotomic_coefficients(polys[:2], knot.writhe + 1)
    # one coefficient of one colour changed; or J(n) moved by [n] q, so
    # that only the cyclotomic division can fail
    for n in (2, 3, 4, 5):
        for change in (LaurentPoly.term(1, 8), quantum_int(n) * LaurentPoly.term(1, 4)):
            bad = polys[: n - 1] + [polys[n - 1] + change] + polys[n:]
            with pytest.raises(ArithmeticError):
                cyclotomic_coefficients(bad, knot.writhe)


def test_worked_example_spans():
    worked = MontesinosKnot.from_fractions(
        [
            Fraction(-46, 327),
            Fraction(35, 151),
            Fraction(5, 31),
            Fraction(16, 35),
            Fraction(1, 5),
        ]
    )
    j2 = colored_jones(worked, 2)
    assert (j2.min_degree(), j2.degree()) == (10, 246)


def test_color_cap():
    with pytest.raises(ColorTooLarge):
        colored_jones(PretzelKnot((1, 1, 1)), DEFAULT_COLOR_CAP + 1)
    with pytest.raises(ColorTooLarge):
        colored_jones_unknot(6)
    with pytest.raises(ValueError):
        colored_jones(PretzelKnot((1, 1, 1)), 0)
    assert colored_jones_unknot(5, color_cap=5) == quantum_int(5)


def test_mirror_symmetry():
    for knot in (PretzelKnot((1, 1, 1)), PretzelKnot((-3, 3, 3))):
        for n in (2, 3):
            assert colored_jones(knot.mirror(), n) == mirror(colored_jones(knot, n))
    assert colored_jones(PretzelKnot((3, -3, -3)), 2) == mirror(
        colored_jones(PretzelKnot((-3, 3, 3)), 2)
    )


def test_mirror_symmetry_random_pretzels():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    twist = st.integers(-5, 5).filter(bool)

    @hypothesis.settings(deadline=None, max_examples=30)
    @hypothesis.given(st.lists(twist, min_size=2, max_size=5))
    def check(q):
        knot = PretzelKnot(tuple(q))
        hypothesis.assume(sum(map(abs, q)) <= 15 and knot.is_knot())
        for n in (2, 3):
            assert colored_jones(knot.mirror(), n) == mirror(colored_jones(knot, n))

    check()


def test_colored_jones_is_invariant_under_tangle_permutations():
    # A permutation of the rational tangles is a product of mutations,
    # which the sl2 colored Jones polynomials do not see (Morton-Cromwell,
    # J. Knot Theory Ramifications 5, 1996): colours 2-3, and 4 on small
    # knots.  The permuted knot reads other recipes, and meets the recipes
    # of the first knot, warm in the tangle cache, under other seam masks.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    twist = st.integers(-5, 5).filter(bool)
    fraction = st.builds(Fraction, st.integers(1, 6), st.integers(2, 7)).filter(lambda r: r < 1)

    @st.composite
    def knot_and_permutation(draw):
        if draw(st.booleans()):
            q = draw(st.lists(twist, min_size=3, max_size=4))
            order = draw(st.permutations(q))
            return PretzelKnot(tuple(q)), PretzelKnot(tuple(order))
        head = -draw(fraction)
        tail = draw(st.lists(fraction, min_size=2, max_size=3))
        order = draw(st.permutations(tail))
        return MontesinosKnot((head, *tail)), MontesinosKnot((head, *order))

    def recipes(knot):
        return sorted(zip(map(tuple, knot.twist_runs), _seam_masks(knot.fractions)))

    moved = []

    @hypothesis.settings(deadline=None, max_examples=30)
    @hypothesis.given(knot_and_permutation())
    @hypothesis.example((PretzelKnot((-3, 4, 5)), PretzelKnot((-3, 5, 4))))
    @hypothesis.example(
        (
            MontesinosKnot((Fraction(-1, 3), Fraction(2, 7), Fraction(1, 4))),
            MontesinosKnot((Fraction(-1, 3), Fraction(1, 4), Fraction(2, 7))),
        )
    )
    def check(pair):
        knot, permuted = pair
        hypothesis.assume(tangle_sum_parity(knot.fractions)[0] == 1)
        crossings = sum(count for runs in knot.twist_runs for _, count, _ in runs)
        hypothesis.assume(crossings <= 15)
        moved.append(recipes(knot) != recipes(permuted))
        for n in (2, 3, 4) if crossings <= 9 else (2, 3):
            assert colored_jones(permuted, n) == colored_jones(knot, n), (knot.spec(), n)

    check()
    assert any(moved)


def test_tangle_contraction_order_independent():
    for knot in (PretzelKnot((1, 1, 1)), PretzelKnot((-2, 3, 7))):
        for cable in (1, 2):
            blocks = [tangle_element(runs, cable) for runs in knot.twist_runs]
            left = blocks[0]
            for b in blocks[1:]:
                left = tl_multiply(left, b)
            right = blocks[-1]
            for b in reversed(blocks[:-1]):
                right = tl_multiply(b, right)
            assert left == right
            assert markov_closure(left) == markov_closure(right)
