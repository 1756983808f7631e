import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from slopelab.diagrams import build_standard_diagram, writhe
from slopelab.errors import (
    HypothesisViolation,
    MoreThanOneNegativeTangle,
    NotAKnot,
)
from slopelab.knots import (
    MontesinosKnot,
    PretzelKnot,
    associated_pretzel,
    check_strict_pretzel,
    normalize_reduced,
    parse_knot_spec,
    require_knot,
    strict_failures,
    tangle_sum_parity,
)
from support import classify_by_cases

WORKED = [
    Fraction(-46, 327),
    Fraction(35, 151),
    Fraction(5, 31),
    Fraction(16, 35),
    Fraction(1, 5),
]


def test_pretzel_basics():
    p = PretzelKnot((-7, 5, 7, 3, 5))
    assert len(p.q) == 5
    assert p.fractions == (
        Fraction(-1, 7),
        Fraction(1, 5),
        Fraction(1, 7),
        Fraction(1, 3),
        Fraction(1, 5),
    )
    # part of the knot record: built once, and the record stays hashable
    assert p.fractions is p.fractions
    assert p == PretzelKnot((-7, 5, 7, 3, 5)) and hash(p) == hash(PretzelKnot(p.q))
    assert p.spec() == "p:-7,5,7,3,5"
    assert p.mirror().q == (7, -5, -7, -3, -5)
    assert p.mirror().mirror() == p


def test_pretzel_validation():
    with pytest.raises(ValueError):
        PretzelKnot((3,))
    with pytest.raises(ValueError):
        PretzelKnot((3, 0, 5))


def test_classify_table():
    table = [
        ([Fraction(-1, 2), Fraction(1, 3), Fraction(1, 7)], True),
        ([Fraction(-1, 2), Fraction(1, 3), Fraction(1, 4)], False),
        ([Fraction(1, 3)] * 3, True),
        ([Fraction(1, 3), Fraction(1, 5)], False),
        (WORKED, True),
    ]
    for fractions, knot in table:
        assert classify_by_cases(fractions) == knot, fractions
        assert (tangle_sum_parity(fractions)[0] == 1) == knot, fractions


def test_tangle_sum_parity_folds_without_reducing():
    assert tangle_sum_parity([]) == (0, 1)
    # 1/2 + 1/2 joins the bottom points twice over: a reduced sum, 1/1,
    # would read (1, 1)
    assert tangle_sum_parity([Fraction(1, 2)] * 2) == (0, 0)
    assert tangle_sum_parity([Fraction(1, 3), 2, Fraction(-3, 4)]) == (1, 0)
    assert tangle_sum_parity([Fraction(1, 3), Fraction(1, 5)]) == (0, 1)


def test_tangle_sum_parity_matches_the_case_rule():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # integers and even denominators included
    fraction = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))

    @hypothesis.settings(deadline=None, max_examples=400)
    @hypothesis.given(st.lists(fraction, min_size=1, max_size=5))
    def check(fractions):
        assert (tangle_sum_parity(fractions)[0] == 1) == classify_by_cases(fractions)

    check()


def test_is_knot_examples():
    assert PretzelKnot((-7, 5, 7, 3, 5)).is_knot()
    assert PretzelKnot((-2, 3, 7)).is_knot()
    assert not PretzelKnot((-2, 3, 4)).is_knot()
    assert PretzelKnot((1, 1, 1)).is_knot()
    assert PretzelKnot((-3, 3, 3, 3, 3)).is_knot()


def test_normalize_reduced_explicit():
    out = normalize_reduced([Fraction(7, 3), Fraction(-5, 2)])
    assert out == (Fraction(1, 3), Fraction(-1, 2))
    assert sum(out) == Fraction(7, 3) + Fraction(-5, 2)


def test_normalize_reduced_identity_on_reduced_input():
    assert normalize_reduced(WORKED) == tuple(WORKED)


def test_normalize_reduced_rejects_zero():
    with pytest.raises(ValueError):
        normalize_reduced([Fraction(0), Fraction(1, 2)])


def test_normalize_reduced_random_preserves_total():
    rng = random.Random(11)
    done = 0
    while done < 200:
        fr = [
            Fraction(rng.randint(-40, 40), rng.randint(2, 9)) for _ in range(3)
        ]
        if any(r == 0 for r in fr):
            continue
        try:
            out = normalize_reduced(fr)
        except ValueError:
            continue
        assert sum(out) == sum(fr)
        assert all(0 < abs(r) < 1 for r in out)
        done += 1


def test_normalize_reduced_raises_exactly_without_a_reduced_form():
    # Each r ends at r - floor(r) or one less; a reduced form exists
    # when some such choice lies in 0 < |r| < 1 and keeps the total.
    rng = random.Random(14)
    feasible = 0
    for _ in range(2000):
        size = rng.randint(1, 5)
        fr = []
        for _ in range(size):
            den = rng.randint(1, 9)
            num = rng.choice([n for n in range(1 - den, den) if n] or [1])
            fr.append(Fraction(num, den) + rng.randint(-4, 4))
        fr[-1] += rng.choice([0, 0, 0, -1, 1, -size - 1, size + 1])
        if 0 in fr:
            continue
        ends = (
            [r - math.floor(r) - b for r, b in zip(fr, bits)]
            for bits in itertools.product((0, 1), repeat=size)
        )
        exists = any(
            sum(end) == sum(fr) and all(0 < abs(e) < 1 for e in end) for end in ends
        )
        if exists:
            out = normalize_reduced(fr)
            assert sum(out) == sum(fr) and all(0 < abs(r) < 1 for r in out), fr
            feasible += 1
        else:
            with pytest.raises(ValueError, match="has no reduced representative"):
                normalize_reduced(fr)
    assert 200 < feasible < 1800


def test_normalize_reduced_keeps_the_total():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # a reduced tangle fraction, then integer parts moved between tangles
    reduced = st.integers(2, 12).flatmap(
        lambda d: st.integers(1 - d, d - 1).filter(bool).map(lambda n: Fraction(n, d))
    )
    shifted = st.tuples(reduced, st.integers(-6, 6))

    @hypothesis.settings(deadline=None, max_examples=200)
    @hypothesis.given(st.lists(shifted, min_size=1, max_size=5))
    def check(pairs):
        shifts = [k for _, k in pairs]
        shifts[-1] -= sum(shifts)
        fr = [r + k for (r, _), k in zip(pairs, shifts)]
        out = normalize_reduced(fr)
        assert len(out) == len(fr)
        assert sum(out) == sum(fr)
        assert all(0 < abs(r) < 1 for r in out)

    check()


def test_montesinos_from_fractions_worked_example():
    k = MontesinosKnot.from_fractions(WORKED)
    assert k.fractions == tuple(WORKED)
    assert len(k.fractions) == 5
    assert k.spec() == "m:-46/327,35/151,5/31,16/35,1/5"


def test_montesinos_from_fractions_shifts_integer_parts():
    shifted = [WORKED[0] - 1, WORKED[1] + 1] + WORKED[2:]
    assert MontesinosKnot.from_fractions(shifted).fractions == tuple(WORKED)


def test_montesinos_rejections():
    with pytest.raises(MoreThanOneNegativeTangle):
        MontesinosKnot.from_fractions([Fraction(-1, 3), Fraction(-1, 5), Fraction(1, 3)])
    with pytest.raises(NotAKnot):
        MontesinosKnot.from_fractions([Fraction(-1, 2), Fraction(1, 2)])
    with pytest.raises(MoreThanOneNegativeTangle):
        MontesinosKnot((Fraction(1, 3), Fraction(-1, 3), Fraction(1, 3)))
    with pytest.raises(ValueError):
        MontesinosKnot((Fraction(3, 2), Fraction(-1, 3)))


def test_associated_pretzel_worked_example():
    data = associated_pretzel(MontesinosKnot.from_fractions(WORKED))
    assert data.q == (-7, 5, 7, 3, 5)
    assert data.qprime == (-9, 3, 5, 5, 1)
    assert data.cfes == (
        (0, -7, -9, -4, -1),
        (0, 4, 3, 5, 2),
        (0, 6, 5),
        (0, 2, 5, 2, 1),
        (0, 4, 1),
    )
    assert len(data.q) == 5


def test_associated_pretzel_of_pretzel_input():
    data = associated_pretzel(PretzelKnot((-7, 5, 7, 3, 5)))
    assert data.q == (-7, 5, 7, 3, 5)
    assert data.qprime == (0, 1, 1, 1, 1)
    assert data.fractions == PretzelKnot((-7, 5, 7, 3, 5)).fractions


def test_associated_pretzel_plain_thirds():
    data = associated_pretzel(
        MontesinosKnot.from_fractions([Fraction(-1, 3), Fraction(1, 3), Fraction(1, 3)])
    )
    assert data.q == (-3, 3, 3)
    assert data.qprime == (0, 1, 1)


def test_associated_pretzel_with_residual_entries():
    data = associated_pretzel(
        MontesinosKnot.from_fractions([Fraction(-1, 3), Fraction(2, 7), Fraction(1, 4)])
    )
    assert data.q == (-3, 4, 4)
    assert data.qprime == (0, 2, 1)
    assert data.cfes == ((0, -2, -1), (0, 3, 2), (0, 3, 1))


def test_associated_pretzel_rejects_integer_tangles():
    from slopelab.degrees import montesinos_js_jx
    from slopelab.surfaces import build_reference_surface
    from slopelab.verify import predicted_min_degree

    knot = parse_knot_spec("p:-3,-1,1")
    assert knot.q == (-3, -1, 1)
    assert knot.writhe == writhe(build_standard_diagram(knot))
    for read in (
        lambda: knot.associated,
        lambda: predicted_min_degree(knot, 2),
        lambda: montesinos_js_jx(knot),
        lambda: build_reference_surface(knot),
    ):
        with pytest.raises(ValueError, match="integer tangle -1"):
            read()


def test_parse_knot_spec_round_trips():
    p = parse_knot_spec("p:-7,5,7,3,5")
    assert isinstance(p, PretzelKnot) and p.q == (-7, 5, 7, 3, 5)
    assert parse_knot_spec(p.spec()) == p
    k = parse_knot_spec("m:-46/327,35/151,5/31,16/35,1/5")
    assert isinstance(k, MontesinosKnot) and k.fractions == tuple(WORKED)
    assert parse_knot_spec(k.spec()) == k
    assert parse_knot_spec("  P: -3 , 3 , 3 ") == PretzelKnot((-3, 3, 3))


@pytest.mark.parametrize(
    "text",
    ["", "x:3,3", "p:", "p:a,b", "m:1/0,1/3", "-3,3,3", "m:0,1/3,1/3"],
)
def test_parse_knot_spec_rejects(text):
    with pytest.raises(ValueError):
        parse_knot_spec(text)


@pytest.mark.parametrize(
    "text",
    [
        "p:-3,,5,5",  # an empty entry
        "p:-3,5,5,",
        "p:,-3,5,5",
        "m:-1/3,,2/7,1/4",
        "p:-3,5,1_5",  # int() would read 15
        "m:-1/3,2/7,1_0/4_1",
        "p:\u0661,1,1",  # an Arabic-Indic digit one, which int() reads as 1
        "p:-3,5,\uff15",  # a fullwidth five
        "p:-3,5\u00a0 5,5",  # an inner no-break space
        "m:-1/3,2 / 7,1/4",
        "p:-3,5,5e0",
    ],
)
def test_parse_knot_spec_rejects_malformed_entries(text):
    # refused with the spec named, whether or not int() or Fraction()
    # alone would read the entry
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        parse_knot_spec(text)


def test_parse_knot_spec_strips_whitespace_round_entries():
    assert parse_knot_spec("p: -3 ,\t5 , 5 ") == PretzelKnot((-3, 5, 5))
    assert parse_knot_spec("m: -1/3 , 2/7,1/4 ") == parse_knot_spec("m:-1/3,2/7,1/4")
    assert parse_knot_spec("p:+3,-1,-1") == PretzelKnot((3, -1, -1))
    assert parse_knot_spec("m:-0.5,1/3,2/3") == parse_knot_spec("m:-1/2,1/3,2/3")


def test_require_knot():
    require_knot(PretzelKnot((-2, 3, 7)))
    with pytest.raises(NotAKnot, match=r"^p:-2,3,4 closes up into a link$"):
        require_knot(PretzelKnot((-2, 3, 4)))


def test_check_strict_pretzel_accepts():
    check_strict_pretzel((-7, 5, 7, 3, 5))
    check_strict_pretzel((-3, 3, 3))
    check_strict_pretzel((-3, 9, 9, 9, 9))


def test_strict_failures_empty_on_the_strict_class():
    for q in [(-7, 5, 7, 3, 5), (-3, 3, 3), (-3, 9, 9, 9, 9)]:
        assert strict_failures(q) == []
    assert strict_failures([-2, 3, 0, 4]) == [
        "need an odd number of twist regions, got 4",
        "positive twists must be > 1, got 0",
        "twist -2 is even",
        "twist 0 is even",
        "twist 4 is even",
    ]


@pytest.mark.parametrize(
    "q, fragment",
    [
        ((-2, 3, 7), "even"),
        ((-3, 3), "odd number"),
        ((1, 3, 3), "leading twist"),
        ((-3, 1, 3), "positive twists"),
        ((-3, -3, 3), "positive twists"),
    ],
)
def test_check_strict_pretzel_failures(q, fragment):
    with pytest.raises(HypothesisViolation) as err:
        check_strict_pretzel(q)
    assert any(fragment in f for f in err.value.failures)


def test_associated_pretzel_checks_the_expansions(monkeypatch):
    import slopelab.knots

    monkeypatch.setattr(slopelab.knots, "even_length_cfe", lambda r: [0, 3, 1])
    with pytest.raises(ValueError):
        associated_pretzel(PretzelKnot((-3, 3, 3)))


def test_knot_record_matches_the_direct_computation():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    odd = st.integers(1, 5).map(lambda k: 2 * k + 1)
    pretzel_specs = st.tuples(odd, st.sampled_from([2, 4])).flatmap(
        lambda qm: st.lists(odd, min_size=qm[1], max_size=qm[1]).map(
            lambda rest: "p:" + ",".join(map(str, [-qm[0]] + rest))
        )
    )
    fraction = st.integers(2, 12).flatmap(
        lambda d: st.integers(1, d - 1).map(lambda n: f"{n}/{d}")
    )
    montesinos_specs = st.lists(fraction, min_size=3, max_size=5).map(
        lambda fr: "m:-" + ",".join(fr)
    )

    @hypothesis.settings(deadline=None, max_examples=60)
    @hypothesis.given(st.one_of(pretzel_specs, montesinos_specs))
    def check(spec):
        try:
            knot = parse_knot_spec(spec)
        except (ValueError, NotAKnot, MoreThanOneNegativeTangle):
            hypothesis.assume(False)
        assert knot.writhe == writhe(build_standard_diagram(knot))
        assert knot.associated == associated_pretzel(knot)
        assert knot.diagram is knot.diagram
        fresh = parse_knot_spec(spec)
        assert knot == fresh and hash(knot) == hash(fresh)

    check()
