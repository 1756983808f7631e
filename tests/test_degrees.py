import itertools
import random
from fractions import Fraction

import pytest

from slopelab.degrees import (
    DegreeQuadratic,
    MontesinosCorrections,
    exceptional_scan,
    montesinos_corrections,
    montesinos_js_jx,
    pretzel_js_jx,
    s_and_s1,
    tangle_reduction_total,
)
from slopelab.errors import HypothesisViolation, NotAKnot
from slopelab.knots import (
    MontesinosKnot,
    PretzelKnot,
    associated_pretzel,
    parse_knot_spec,
    shape_failures,
)
from slopelab.qip import maximize_degree
from slopelab.surfaces import sstar_vector
from slopelab.verify import predicted_min_degree

WORKED = MontesinosKnot.from_fractions(
    [
        Fraction(-46, 327),
        Fraction(35, 151),
        Fraction(5, 31),
        Fraction(16, 35),
        Fraction(1, 5),
    ]
)


def test_s_and_s1_anchors():
    assert s_and_s1((-7, 5, 7, 3, 5)) == (Fraction(-36, 7), Fraction(-32, 7))
    assert s_and_s1((-3, 3, 3)) == (Fraction(-1), Fraction(-2))
    assert s_and_s1((-3, 5, 5)) == (Fraction(0), Fraction(0))
    assert s_and_s1((-3, 9, 9, 9, 9)) == (Fraction(0), Fraction(4))
    assert s_and_s1((-2, 3, 7)) == (Fraction(1, 2), Fraction(0))


def test_s_and_s1_validation():
    with pytest.raises(ValueError):
        s_and_s1((-3,))
    with pytest.raises(ValueError):
        s_and_s1((-3, 1, 3))
    with pytest.raises(ZeroDivisionError):
        s_and_s1((-3, 3, -1))


def test_pretzel_js_jx_case1():
    d = pretzel_js_jx((-7, 5, 7, 3, 5))
    assert (d.js, d.jx) == (Fraction(72, 7), Fraction(-122, 7))
    assert (d.case, d.surface_hint) == ("1", "SStar")
    assert d.strict_ok
    e = pretzel_js_jx((-3, 3, 3))
    assert (e.js, e.jx, e.case) == (2, -2, "1")


def test_pretzel_js_jx_case2():
    d = pretzel_js_jx((-3, 5, 5))
    assert (d.js, d.jx) == (0, -2)
    assert (d.case, d.surface_hint) == ("2b", "Reference")
    e = pretzel_js_jx((-3, 9, 9, 9, 9))
    assert (e.js, e.jx) == (0, -6)
    assert (e.case, e.surface_hint) == ("2a", "Reference")
    f = pretzel_js_jx((-2, 3, 3), strict=False)
    assert (f.js, f.jx, f.s, f.s1) == (0, 0, 0, -1)
    assert (f.case, f.surface_hint) == ("2a", "SStar")
    assert not f.strict_ok


def test_pretzel_js_jx_case3_forced():
    with pytest.raises(HypothesisViolation):
        pretzel_js_jx((-2, 3, 7))
    d = pretzel_js_jx((-2, 3, 7), strict=False)
    assert (d.js, d.jx) == (0, -2)
    assert (d.case, d.surface_hint) == ("3", "Reference")
    assert not d.strict_ok


def test_pretzel_js_jx_base_hypotheses_never_forced():
    for q in [(1, 3, 3), (-3, 1, 3), (-3, 3, 0)]:
        with pytest.raises(HypothesisViolation):
            pretzel_js_jx(q, strict=False)


def test_pretzel_js_jx_raises_the_shape_failures():
    for q in [(1, 3, 3), (-3, 1, 3), (-3, 3, 0), (-2, 2, -5, 4)]:
        for strict in (True, False):
            with pytest.raises(HypothesisViolation) as err:
                pretzel_js_jx(q, strict=strict)
            assert err.value.failures == shape_failures(q) != []


def delta_nk(n, k, q):
    """Reference: the tight-state degree as the paper writes it.

    Evaluates -2 [ (q0+1)k0^2 + sum (qi-1)ki^2 + sum (-2+q0+qi)ki
    - (n(n+2)/2) sum qi + (m-1)n ] in Fraction arithmetic for a tight
    state k = (k0; k1, ..., km), k0 = k1 + ... + km.
    """
    q0, rest = q[0], q[1:]
    k0, krest = k[0], k[1:]
    assert k0 == sum(krest)
    inner = (
        Fraction((q0 + 1) * k0 * k0)
        + sum((qi - 1) * ki * ki for qi, ki in zip(rest, krest))
        + sum((-2 + q0 + qi) * ki for qi, ki in zip(rest, krest))
        - Fraction(n * (n + 2), 2) * sum(q)
        + (len(rest) - 1) * n
    )
    return -2 * inner


def test_delta_nk_matches_lattice_maximum():
    rng = random.Random(23)
    for _ in range(25):
        m = rng.choice([2, 4])
        q = tuple(
            [-rng.randrange(3, 10, 2)]
            + [rng.randrange(3, 10, 2) for _ in range(m)]
        )
        for n in (1, 2, 3):
            best = max(
                delta_nk(n, (sum(rest),) + rest, q)
                for rest in itertools.product(range(n + 1), repeat=m)
                if sum(rest) <= n
            )
            assert best == maximize_degree(q, n)


_TR_MOVES = ("TR1neg", "TR2neg", "TRpos")


def tr_move_shift(move: str, r1: int, r2=None) -> tuple[int, int]:
    """Degree shift (n^2-coefficient, n-coefficient) of one twist-reduction move.

    "TR1neg" absorbs a final negative twist region r: shift
    (-r, 2(-r-1)).  "TR2neg" merges adjacent negative regions r1, r2:
    shift (-(r1+r2), -2 r2).  "TRpos" merges adjacent positive regions:
    shift (r1+r2, 2 r2).  Sign constraints are enforced.
    """
    if move not in _TR_MOVES:
        raise ValueError(f"unknown move {move!r}; expected one of {_TR_MOVES}")
    if move == "TR1neg":
        if r2 is not None:
            raise ValueError("TR1neg takes a single twist count")
        if r1 >= 0:
            raise HypothesisViolation([f"TR1neg needs a negative twist count, got {r1}"])
        return (-r1, 2 * (-r1 - 1))
    if r2 is None:
        raise ValueError(f"{move} takes two twist counts")
    if move == "TR2neg":
        if r1 >= 0 or r2 >= 0:
            raise HypothesisViolation([f"TR2neg needs negative twist counts, got {r1}, {r2}"])
        return (-(r1 + r2), -2 * r2)
    if r1 <= 0 or r2 <= 0:
        raise HypothesisViolation([f"TRpos needs positive twist counts, got {r1}, {r2}"])
    return (r1 + r2, 2 * r2)


def move_by_move_reduction_total(data) -> tuple[int, int]:
    """Reference for ``tangle_reduction_total``: the moves one at a time.

    Positive tangles absorb entry pairs via TRpos; a genuinely
    continued negative tangle absorbs pairs via TR2neg and its last
    entry via TR1neg.
    """
    quad = lin = 0
    if data.qprime[0] != 0:
        a = data.cfes[0][1:]
        # pairs (a[j+2], a[j+1]) for odd j = 1, 3, ..., ell-3 (1-based)
        for j in range(1, len(a) - 2, 2):
            dq, dl = tr_move_shift("TR2neg", a[j + 1], a[j])
            quad, lin = quad + dq, lin + dl
        dq, dl = tr_move_shift("TR1neg", a[-1])
        quad, lin = quad + dq, lin + dl
    for cf in data.cfes[1:]:
        a = cf[1:]
        # pairs (a[j+2], a[j+1]) for even j = 2, 4, ..., ell-2 (1-based)
        for j in range(2, len(a) - 1, 2):
            dq, dl = tr_move_shift("TRpos", a[j + 1], a[j])
            quad, lin = quad + dq, lin + dl
    return quad, lin


def test_tr_move_shift_values():
    assert tr_move_shift("TR1neg", -4) == (4, 6)
    assert tr_move_shift("TR2neg", -3, -2) == (5, 4)
    assert tr_move_shift("TRpos", 3, 2) == (5, 4)


def test_tr_move_shift_validation():
    with pytest.raises(ValueError):
        tr_move_shift("TRneg", -3)
    with pytest.raises(ValueError):
        tr_move_shift("TR1neg", -3, -2)
    with pytest.raises(ValueError):
        tr_move_shift("TRpos", 3)
    with pytest.raises(HypothesisViolation):
        tr_move_shift("TR1neg", 2)
    with pytest.raises(HypothesisViolation):
        tr_move_shift("TR2neg", -3, 2)
    with pytest.raises(HypothesisViolation):
        tr_move_shift("TRpos", 3, -2)


def test_tangle_reduction_totals():
    assert tangle_reduction_total(associated_pretzel(WORKED)) == (24, 32)
    assert tangle_reduction_total(
        associated_pretzel(PretzelKnot((-7, 5, 7, 3, 5)))
    ) == (0, 0)
    special = MontesinosKnot.from_fractions(
        [Fraction(-1, 3), Fraction(2, 7), Fraction(1, 4)]
    )
    assert tangle_reduction_total(associated_pretzel(special)) == (0, 0)


def test_tangle_reduction_total_matches_the_moves():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    assert move_by_move_reduction_total(associated_pretzel(WORKED)) == (24, 32)
    fraction = st.builds(
        Fraction, st.integers(1, 400), st.integers(2, 400)
    ).filter(lambda r: r < 1)

    @hypothesis.settings(deadline=None, max_examples=200)
    @hypothesis.given(fraction, st.lists(fraction, min_size=1, max_size=4))
    def check(r0, rest):
        try:
            knot = MontesinosKnot.from_fractions([-r0] + rest)
        except NotAKnot:
            hypothesis.assume(False)
        data = knot.associated
        assert tangle_reduction_total(data) == move_by_move_reduction_total(data)

    check()


def test_montesinos_corrections_worked_example():
    corr = montesinos_corrections(WORKED)
    assert corr.as_dict() == {
        "q0_prime": -9,
        "r0_bracket": -5,
        "r0_bracket_odd": -4,
        "r0_bracket_even": -1,
        "sum_shift_minus_one": 10,
        "sum_bracket": 10,
        "sum_bracket_even": 3,
        "sum_bracket_odd": 7,
        "writhe_pretzel": -13,
        "writhe_knot": -43,
    }
    assert corr.slope_shift == 4
    assert corr.euler_shift == -36


def test_montesinos_corrections_vanish_for_pretzels():
    corr = montesinos_corrections(PretzelKnot((-7, 5, 7, 3, 5)))
    assert corr.slope_shift == 0
    assert corr.euler_shift == 0
    assert corr.q0_prime == 0


def paper_slope_shift(corr):
    """The paper's js shift as a sum over the bracket fields."""
    return (
        -corr.q0_prime
        - corr.r0_bracket
        - corr.writhe_pretzel
        + corr.writhe_knot
        + corr.sum_shift_minus_one
        + corr.sum_bracket
    )


def paper_euler_shift(corr):
    """The paper's jx shift as a sum over the bracket fields."""
    negative_tail = 0 if corr.q0_prime == 0 else -2
    return (
        negative_tail
        + 2 * corr.r0_bracket_odd
        - 2 * corr.sum_shift_minus_one
        - 2 * corr.sum_bracket_even
    )


def _check_shifts(knot, q):
    # the shifts come from tangle_reduction_total; the paper's bracket
    # sums are the independent reference
    assert knot.associated.q == q
    corr = knot.corrections
    assert corr.slope_shift == paper_slope_shift(corr)
    assert corr.euler_shift == paper_euler_shift(corr)
    assert corr.writhe_knot == knot.writhe
    _check_predicted_shift(knot)


def test_montesinos_corrections_match_the_reduction_total():
    """The stored shifts, read off ``tangle_reduction_total``, equal the
    paper's bracket sums.

    Each tangle is built around a chosen twist entry: 1/(q_i - 1 + x)
    for x in (0, 1], and -1/(|q0| + x) for x in [0, 1).  Strict entries
    give a strict associated pretzel, whose diagram has writhe -sum(q).
    Odd entries with one made even give an associated pretzel that is
    a knot with an even entry, where the writhe is not -sum(q).
    ``predicted_min_degree`` moves by the same shifts from the
    associated pretzel on all of these knots.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    odd = st.integers(1, 5).map(lambda k: 2 * k + 1)
    tail = st.integers(1, 12).flatmap(
        lambda d: st.integers(1, d).map(lambda k: Fraction(k, d))
    )

    def knot_around(b0, x0, positives):
        q = (-b0,) + tuple(qi for qi, _ in positives)
        # the corrections need the associated pretzel's writhe
        hypothesis.assume(PretzelKnot(q).is_knot())
        fractions = [-1 / (b0 + 1 - x0)] + [1 / (qi - 1 + x) for qi, x in positives]
        try:
            return MontesinosKnot.from_fractions(fractions), q
        except NotAKnot:
            hypothesis.assume(False)

    @hypothesis.settings(deadline=None, max_examples=100)
    @hypothesis.given(
        odd,
        tail,
        st.sampled_from([2, 4]).flatmap(
            lambda m: st.lists(st.tuples(odd, tail), min_size=m, max_size=m)
        ),
    )
    def check_strict(b0, x0, positives):
        knot, q = knot_around(b0, x0, positives)
        _check_shifts(knot, q)
        assert knot.corrections.writhe_pretzel == -sum(q)

    @hypothesis.settings(deadline=None, max_examples=100)
    @hypothesis.given(
        odd,
        tail,
        st.lists(st.tuples(odd, tail), min_size=2, max_size=4),
        st.integers(0, 4),
        st.integers(1, 5),
    )
    def check_even_entry(b0, x0, positives, j, half):
        # one entry made even: the associated pretzel stays a knot
        if j == 0:
            b0 = 2 * half
        else:
            j = min(j, len(positives))
            positives[j - 1] = (2 * half, positives[j - 1][1])
        knot, q = knot_around(b0, x0, positives)
        _check_shifts(knot, q)

    # p:-3,4,5 has writhe -2, not -sum(q) = -6
    for spec, shifts in (("m:-1/3,1/4,1/5", (0, 0)), ("m:-4/13,3/10,1/5", (26, -6))):
        knot = parse_knot_spec(spec)
        _check_shifts(knot, (-3, 4, 5))
        corr = knot.corrections
        assert (corr.writhe_pretzel, corr.slope_shift, corr.euler_shift) == (-2, *shifts)
    _check_shifts(WORKED, (-7, 5, 7, 3, 5))
    check_strict()
    check_even_entry()


def _check_predicted_shift(knot):
    # predicted_min_degree and the corrections' shifts both come from
    # tangle_reduction_total and the writhes
    pretzel = PretzelKnot(knot.associated.q)
    s, e = knot.corrections.slope_shift, knot.corrections.euler_shift
    for c in range(2, 13):
        shift = predicted_min_degree(knot, c) - predicted_min_degree(pretzel, c)
        assert shift == -s * (c * c - 1) - e * (c - 1), (knot.spec(), c)


def test_montesinos_js_jx_worked_example():
    d = montesinos_js_jx(WORKED)
    assert (d.js, d.jx) == (Fraction(100, 7), Fraction(-374, 7))
    assert (d.case, d.surface_hint) == ("1", "SStar")
    assert d.strict_ok
    assert isinstance(d.corrections, MontesinosCorrections)
    assert montesinos_js_jx(MontesinosKnot.from_fractions(WORKED.fractions)) == d


def test_montesinos_js_jx_pretzel_passthrough():
    d = montesinos_js_jx(PretzelKnot((-7, 5, 7, 3, 5)))
    base = pretzel_js_jx((-7, 5, 7, 3, 5))
    assert (d.js, d.jx) == (base.js, base.jx)
    assert isinstance(d, DegreeQuadratic)


def test_montesinos_forced_needs_knot_shaped_pretzel():
    special = MontesinosKnot.from_fractions(
        [Fraction(-1, 3), Fraction(2, 7), Fraction(1, 4)]
    )
    with pytest.raises(HypothesisViolation):
        montesinos_js_jx(special)
    # The writhe correction reads the associated pretzel's writhe, and
    # p:-3,4,4 is a two-component link; forcing cannot rescue that.
    with pytest.raises(NotAKnot, match=r"p:-3,4,4 of m:-1/3,2/7,1/4"):
        montesinos_js_jx(special, strict=False)


def test_exceptional_scan_box():
    assert exceptional_scan(-9, 9) == [
        (-3, 4, 7),
        (-3, 5, 5),
        (-2, 3, 5, 5),
        (-2, 3, 7),
    ]
    for q in exceptional_scan(-9, 9):
        assert PretzelKnot(q).is_knot()
        s, s1 = s_and_s1(q)
        assert s >= 0 and s1 == 0


def test_twist_entries_must_be_integers():
    # every entry point rejects a non-integer twist entry instead of
    # computing on its truncation, and takes an integer-valued one as is
    for call in (
        lambda q: PretzelKnot(q),
        pretzel_js_jx,
        s_and_s1,
        sstar_vector,
        lambda q: maximize_degree(q, 2),
    ):
        for q in ((-3.5, 3, 3), (-3, 3.7, 3), (-3, 3, Fraction(7, 2))):
            with pytest.raises(ValueError, match="twist entry must be an integer"):
                call(q)
        assert call((-3.0, Fraction(3), 3)) == call((-3, 3, 3))
    assert PretzelKnot((-3.0, 3, Fraction(3))).q == (-3, 3, 3)


@pytest.mark.parametrize("ms, bad", [((2, 0), 0), ((-1,), -1)])
def test_exceptional_scan_checks_every_count_first(monkeypatch, ms, bad):
    import slopelab.degrees

    calls = []
    monkeypatch.setattr(slopelab.degrees, "s_and_s1", lambda q: calls.append(q))
    with pytest.raises(ValueError, match=f"^tangle count {bad} must be positive$"):
        exceptional_scan(-9, 9, ms=ms)
    assert calls == []


def test_exceptional_scan_windows():
    assert exceptional_scan(-5, 5, ms=(2,)) == [(-3, 5, 5)]
    assert exceptional_scan(-1, 9) == []
