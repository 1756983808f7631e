import random
from fractions import Fraction

import pytest

from slopelab.cfrac import (
    bracket_sums,
    eval_cfe,
    even_length_cfe,
    negative_cfe,
    partial_evaluations,
    positive_cfe,
)


def test_positive_cfe_known_expansions():
    assert positive_cfe(Fraction(63, 202)) == [0, 3, 4, 1, 5, 2]
    assert positive_cfe(Fraction(-46, 327)) == [0, -7, -9, -5]
    assert positive_cfe(Fraction(35, 151)) == [0, 4, 3, 5, 2]
    assert positive_cfe(Fraction(5, 31)) == [0, 6, 5]
    assert positive_cfe(Fraction(1, 5)) == [0, 5]
    assert positive_cfe(Fraction(7)) == [7]
    assert positive_cfe(Fraction(-2)) == [-2]


def test_even_length_padding():
    assert even_length_cfe(Fraction(63, 202)) == [0, 3, 4, 1, 5, 1, 1]
    assert even_length_cfe(Fraction(-46, 327)) == [0, -7, -9, -4, -1]
    assert even_length_cfe(Fraction(35, 151)) == [0, 4, 3, 5, 2]
    assert even_length_cfe(Fraction(5, 31)) == [0, 6, 5]
    assert even_length_cfe(Fraction(16, 35)) == [0, 2, 5, 2, 1]
    assert even_length_cfe(Fraction(1, 5)) == [0, 4, 1]
    assert even_length_cfe(Fraction(1, 3)) == [0, 2, 1]
    assert even_length_cfe(Fraction(-1, 3)) == [0, -2, -1]
    assert even_length_cfe(Fraction(4)) == [4]


def test_eval_cfe_positive():
    assert eval_cfe([0, 2, 1, 3, 3]) == Fraction(13, 36)
    assert eval_cfe([0, 3, 4, 1, 5, 2]) == Fraction(63, 202)
    assert eval_cfe([0, 3, 4, 1, 5, 1, 1]) == Fraction(63, 202)
    assert eval_cfe([0, -7, -9, -4, -1]) == Fraction(-46, 327)
    assert eval_cfe([0, 2, 5, 2, 1]) == Fraction(16, 35)
    assert eval_cfe([5]) == 5


def test_eval_cfe_negative():
    def value(entries):
        return partial_evaluations(entries)[-1]

    # the floor-rounded expansions, as the positive and ladder paths read them
    pairs = [
        ([0, -3], Fraction(1, 3)),
        ([0, -5, -2, -2, -7, -2], Fraction(35, 151)),
        ([0, -3, -2, -2, -2, -2, -4], Fraction(16, 35)),
    ]
    # a ladder of -2s below -1 gives -1/(k+1)
    pairs += [([-1] + [-2] * k, Fraction(-1, k + 1)) for k in range(1, 7)]
    for entries, r in pairs:
        assert value(entries) == r
        assert negative_cfe(r) == entries
    # the reference path of a negative tangle starts at 0 instead
    entries = [0, 7, -10, -2, -2, -2, -2]
    assert value(entries) == Fraction(-46, 327)
    assert entries == [0] + negative_cfe(Fraction(327, 46))
    # not every expansion rounds down: this one rounds up at b0
    assert value([1, 2, 2]) == Fraction(1, 3)


def test_divergent_and_empty_expansions_raise():
    with pytest.raises(ZeroDivisionError):
        eval_cfe([0, 0])
    with pytest.raises(ZeroDivisionError):
        partial_evaluations([1, 0])
    with pytest.raises(ValueError):
        eval_cfe([])


def test_partial_evaluations_are_prefix_values():
    cf = [0, 7, -10, -2, -2, -2, -2]
    vals = partial_evaluations(cf)
    assert len(vals) == len(cf)
    for k, v in enumerate(vals):
        assert v == partial_evaluations(cf[: k + 1])[-1]
    assert vals[0] == 0
    assert vals[-1] == Fraction(-46, 327)


def test_bracket_sums_anchors():
    assert bracket_sums(even_length_cfe(Fraction(63, 202))) == (6, 2, 8)
    assert bracket_sums(even_length_cfe(Fraction(-46, 327))) == (-1, -4, -5)
    assert bracket_sums(even_length_cfe(Fraction(1, 5))) == (0, 0, 0)
    assert bracket_sums(even_length_cfe(Fraction(35, 151))) == (2, 5, 7)
    assert bracket_sums(even_length_cfe(Fraction(16, 35))) == (1, 2, 3)


def test_bracket_sums_accepts_explicit_expansion():
    assert bracket_sums([0, -7, -9, -4, -1]) == (-1, -4, -5)
    assert bracket_sums((0, -7, -9, -4, -1)) == (-1, -4, -5)


def test_round_trip_many_random_rationals():
    rng = random.Random(1)
    for _ in range(10_000):
        p = rng.randint(-10**6, 10**6)
        q = rng.randint(1, 10**6)
        if p == 0:
            continue
        r = Fraction(p, q)
        cf = positive_cfe(r)
        assert eval_cfe(cf) == r
        ecf = even_length_cfe(r)
        assert eval_cfe(ecf) == r
        ncf = negative_cfe(r)
        assert partial_evaluations(ncf)[-1] == r
        assert all(b <= -2 for b in ncf[1:])
        if r.denominator > 1:
            assert len(ecf) % 2 == 1  # even tail
            assert abs(cf[-1]) >= 2
            tail = cf[1:]
            assert all(b != 0 for b in tail)
            assert all((b > 0) == (tail[0] > 0) for b in tail)


def test_even_tail_magnitudes():
    # every tail entry of an even-length expansion is a nonzero integer
    # sharing the sign of the fraction
    rng = random.Random(2)
    for _ in range(2000):
        p = rng.randint(-400, 400)
        q = rng.randint(p and abs(p) + 1 or 2, 500)
        r = Fraction(p, q)
        if r == 0 or abs(r) >= 1:
            continue
        ecf = even_length_cfe(r)
        assert ecf[0] == 0
        assert all((b > 0) == (r > 0) and b != 0 for b in ecf[1:])
