import random
from fractions import Fraction

import pytest

from slopelab.laurent import LaurentPoly, format_poly
from support import mirror, parse_poly


def P(d):
    return LaurentPoly(d)


def test_product_difference_of_squares():
    a = P({2: 1, -2: 1})
    b = P({2: 1, -2: -1})
    assert a * b == P({4: 1, -4: -1})


def test_square_of_loop_value():
    delta = P({-2: -1, 2: -1})
    assert delta * delta == P({-4: 1, 0: 2, 4: 1})


def test_degree_of_named_polynomial():
    p = P({18: 1, 10: -1, 6: -1, 2: -1})
    assert p.degree() == 18
    assert p.min_degree() == 2


def test_zero_polynomial_has_no_degree():
    z = LaurentPoly.zero()
    with pytest.raises(ValueError):
        z.degree()
    with pytest.raises(ValueError):
        z.min_degree()


def test_constant_hashes_as_its_int():
    # equal objects must hash alike, so a constant and its int meet in a set
    for c in (0, 1, 3, -7):
        p = P({0: c})
        assert p == c and c == p and hash(p) == hash(c)
        assert p in {c} and c in {p}
    assert {P({0: 3}): "three"}[3] == "three"
    assert LaurentPoly.zero() in {0}
    assert P({1: 3}) != 3 and P({0: 3, 1: 1}) not in {3}


def test_constructor_rejects_non_integer_terms():
    # an integer-valued float or Fraction is its int
    assert P({2.0: Fraction(4, 2), 0: 3.0}) == P({2: 2, 0: 3})
    assert P({0: Fraction(0, 5), 1: 0.0}) == LaurentPoly.zero()
    for bad in ({0: Fraction(1, 2)}, {1.5: 1}, {0: 0.25}, {Fraction(3, 2): -1}):
        with pytest.raises(ValueError):
            P(bad)
    with pytest.raises(ValueError):
        LaurentPoly.term(Fraction(1, 3), 2)


def test_add_sub_cancelation():
    a = P({3: 2, 0: 1})
    b = P({3: 2, -1: 5})
    assert a - b == P({0: 1, -1: -5})
    assert (a - a) == LaurentPoly.zero()
    assert not (a - a)


def test_pow_matches_repeated_mul():
    a = P({1: 1, -1: 1})
    assert a**0 == LaurentPoly.one()
    assert a**3 == a * a * a


def test_pow_makes_one_product_per_square_and_per_set_bit(monkeypatch):
    # square-and-multiply with no product by one and no square past the
    # top bit: n.bit_length() - 1 squares and popcount(n) - 1 products
    a = P({3: 2, 0: -1, -2: 1})
    calls = []
    mul = LaurentPoly.__mul__

    def spy(self, other):
        calls.append(1)
        return mul(self, other)

    for n in range(9):
        expected = LaurentPoly.one()
        for _ in range(n):
            expected = mul(expected, a)
        calls.clear()
        monkeypatch.setattr(LaurentPoly, "__mul__", spy)
        power = a**n
        monkeypatch.setattr(LaurentPoly, "__mul__", mul)
        assert power == expected, n
        assert len(calls) == max(n.bit_length() + bin(n).count("1") - 2, 0), n


def test_mirror_involution():
    p = P({18: 1, 10: -1, 6: -1, 2: -1})
    assert mirror(p) == P({-18: 1, -10: -1, -6: -1, -2: -1})
    assert mirror(mirror(p)) == p


def test_exact_division_round_trip():
    a = P({2: 3, 0: -1, -5: 7})
    b = P({4: -2, 1: 1, 0: 5})
    assert (a * b).exact_div(b) == a
    assert (a * b).exact_div(a) == b


def test_inexact_division_raises():
    with pytest.raises(ArithmeticError):
        P({1: 1, 0: 1}).exact_div(P({1: 2}))


def test_long_division_leaves_operands_unchanged():
    rng = random.Random(16)
    quot = P({e: rng.choice((-3, -1, 1, 2)) for e in range(-20, 20, 3)})
    div = P({5: 2, 1: -1, -2: 3, -4: 1})
    assert len(quot.coeffs) >= 10
    prod = quot * div
    before = dict(prod.coeffs)
    assert prod.exact_div(div) == quot
    assert prod.coeffs == before
    # one coefficient off: the quotient stops being integral
    with pytest.raises(ArithmeticError):
        (prod + P({-24: 1})).exact_div(div)
    # a unit leading coefficient never leaves a remainder; the degree floor
    # stops the endless series 1 / (1 + v^-1)
    with pytest.raises(ArithmeticError):
        (prod + P({-50: 1})).exact_div(P({0: 1, -1: 1}))
    assert prod.coeffs == before


def test_exact_division_property():
    # a quotient with negative exponents, an exponent stride of 1-4 and
    # any leading coefficient round-trips, also when dividend and divisor
    # lie in different classes mod 4.  A monomial is a multiple of a
    # divisor of two or more terms only when it is zero, so one more
    # monomial at the top, in the middle, below the degree floor or one
    # below the top (off the class that the pass walks when all
    # exponents share one mod 2 or 4) makes the division inexact.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.integers(-9, 9).filter(bool)

    def poly(stride, least, size):
        exps = st.lists(st.integers(-12, 12), min_size=least, max_size=size, unique=True)
        return st.builds(
            lambda es, cs: P({stride * e: c for e, c in zip(es, cs)}),
            exps, st.lists(coeff, min_size=size, max_size=size),
        )

    def shifted(stride, least, size):
        return st.tuples(poly(stride, least, size), st.integers(0, 3)).map(lambda t: t[0].shift(t[1]))

    same = st.integers(1, 4).flatmap(lambda s: st.tuples(poly(s, 1, 8), poly(s, 2, 5)))
    # a dividend and a divisor in different classes mod 4: the gcd of
    # their exponent differences is 1, 2 or 4
    strides = st.tuples(st.sampled_from((1, 2, 4)), st.sampled_from((1, 2, 4)))
    mixed = strides.flatmap(lambda s: st.tuples(shifted(s[0], 1, 8), shifted(s[1], 2, 5)))

    @hypothesis.settings(deadline=None, max_examples=300)
    @hypothesis.given(st.one_of(same, mixed), coeff, st.integers(1, 3))
    def check(pair, extra, gap):
        a, b = pair
        prod = a * b
        before = (dict(a.coeffs), dict(b.coeffs), dict(prod.coeffs))
        assert prod.exact_div(b) == a
        lo, hi = prod.min_degree(), prod.degree()
        for e in (hi + gap, (lo + hi) // 2, lo - gap, hi - 1):
            with pytest.raises(ArithmeticError):
                (prod + P({e: extra})).exact_div(b)
        assert (dict(a.coeffs), dict(b.coeffs), dict(prod.coeffs)) == before

    check()


def test_ring_axioms_random_spot_checks():
    rng = random.Random(20260822)

    def rand_poly():
        return P({rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(rng.randint(0, 5))})

    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if b:
            assert (a * b).exact_div(b) == a


def test_format_and_parse():
    p = P({18: 1, 10: -1, 6: -1, 2: -1})
    assert format_poly(p) == "v^18 - v^10 - v^6 - v^2"
    assert parse_poly("v^18 - v^10 - v^6 - v^2") == p
    assert format_poly(P({0: -3, 1: 2, -2: 1})) == "2*v - 3 + v^-2"
    assert parse_poly("2*v - 3 + v^-2") == P({0: -3, 1: 2, -2: 1})
    assert parse_poly("v") == P({1: 1})
    assert format_poly(LaurentPoly.zero()) == "0"
    assert parse_poly("0") == LaurentPoly.zero()


def test_parse_format_round_trip_random():
    rng = random.Random(7)
    for _ in range(100):
        p = P({rng.randint(-20, 20): rng.randint(-30, 30) for _ in range(rng.randint(0, 6))})
        assert parse_poly(format_poly(p)) == p
