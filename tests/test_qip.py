import itertools
import random
from fractions import Fraction

import pytest

from slopelab.qip import (
    SeparableQuadratic,
    graver_certificate,
    lattice_min,
    maximize_degree,
    varpi,
)


def brute_min(f, t):
    best = None
    for x in itertools.product(range(t + 1), repeat=f.m):
        if sum(x) != t:
            continue
        v = f.value(x)
        if best is None or v < best[1] or (v == best[1] and x < best[0]):
            best = (x, v)
    return best


def test_separable_quadratic_validation():
    f = SeparableQuadratic((2, 3), (-1, 4))
    assert f.m == 2
    assert f.value((1, 2)) == 2 - 1 + 12 + 8
    with pytest.raises(ValueError):
        SeparableQuadratic((2,), (1, 2))
    with pytest.raises(ValueError):
        SeparableQuadratic((), ())
    with pytest.raises(ValueError):
        SeparableQuadratic((2, 0), (1, 2))
    # Non-integral coefficients are rejected, never truncated.
    for a, b in [((1.5, 2), (0, 0)), ((1, 2), (0, Fraction(1, 2))), ((1,), ("x",))]:
        with pytest.raises(ValueError):
            SeparableQuadratic(a, b)
    g = SeparableQuadratic((Fraction(4, 2), 3.0), (-1.0, Fraction(4)))
    assert g == f and all(type(v) is int for v in g.a + g.b)


def test_graver_certificate():
    f = SeparableQuadratic((1, 2), (0, 0))
    assert graver_certificate(f, (2, 1), 3)
    assert not graver_certificate(f, (1, 2), 3)
    with pytest.raises(ValueError):
        graver_certificate(f, (2, 2), 3)
    with pytest.raises(ValueError):
        graver_certificate(f, (4, -1), 3)
    # Non-integral points are rejected, never truncated to (2, 1).
    with pytest.raises(ValueError):
        graver_certificate(f, (2.9, 1.0), 3)
    # Degenerate point: no unit can leave the empty second coordinate.
    assert graver_certificate(SeparableQuadratic((1, 1), (0, 10)), (3, 0), 3)


def test_lattice_min_anchor():
    f = SeparableQuadratic((1, 2), (0, 0))
    opt = lattice_min(f, 3)
    assert opt.minimizer == (2, 1)
    assert opt.value == 6
    assert opt.certificate_checked
    assert varpi(f) == 3


def test_lattice_min_edge_cases():
    f = SeparableQuadratic((1, 2), (0, 0))
    zero = lattice_min(f, 0)
    assert zero.minimizer == (0, 0) and zero.value == 0
    assert zero.certificate_checked
    with pytest.raises(ValueError):
        lattice_min(f, -1)
    for t in (2.7, Fraction(5, 2), float("nan"), float("inf"), "2"):
        with pytest.raises(ValueError):
            lattice_min(f, t)
    assert lattice_min(f, 3.0) == lattice_min(f, Fraction(6, 2)) == lattice_min(f, 3)


def test_lattice_min_matches_brute_force():
    rng = random.Random(31)
    for _ in range(60):
        m = rng.randint(2, 4)
        f = SeparableQuadratic(
            tuple(rng.randint(1, 5) for _ in range(m)),
            tuple(rng.randint(-6, 6) for _ in range(m)),
        )
        t = rng.randint(0, 12)
        opt = lattice_min(f, t)
        bx, bv = brute_min(f, t)
        assert opt.value == bv
        assert opt.minimizer == bx
        assert f.value(opt.minimizer) == opt.value
        assert sum(opt.minimizer) == t


def dp_min(f, t):
    """Min-plus convolution of the coordinate tables, as in criterion 6."""
    acc = [f.a[0] * x * x + f.b[0] * x for x in range(t + 1)]
    for ai, bi in zip(f.a[1:], f.b[1:]):
        table = [ai * x * x + bi * x for x in range(t + 1)]
        acc = [min(acc[x] + table[s - x] for x in range(s + 1)) for s in range(t + 1)]
    return acc


def test_lattice_min_greedy_properties():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(deadline=None)
    @hypothesis.given(
        st.integers(1, 5).flatmap(
            lambda m: st.tuples(
                st.lists(st.integers(1, 9), min_size=m, max_size=m),
                st.lists(st.integers(-20, 20), min_size=m, max_size=m),
            )
        ),
        st.integers(0, 40),
    )
    def check(coefficients, t_max):
        f = SeparableQuadratic(*coefficients)
        reference = dp_min(f, t_max)
        previous = None
        for t in range(t_max + 1):
            opt = lattice_min(f, t)
            assert opt.value == reference[t] == f.value(opt.minimizer)
            assert sum(opt.minimizer) == t
            assert all(x >= 0 for x in opt.minimizer)
            if previous is not None:
                # Minimizers are nested: raising t never lowers a coordinate.
                assert all(y >= x for x, y in zip(previous, opt.minimizer))
            previous = opt.minimizer

    check()


def test_lattice_min_quasi_period():
    f = SeparableQuadratic((2, 3), (0, 0))
    assert varpi(f) == 5
    for t in range(11):
        near, far = lattice_min(f, t), lattice_min(f, t + 5)
        assert far.minimizer == (near.minimizer[0] + 3, near.minimizer[1] + 2)


def test_maximize_degree_anchors():
    q = (-7, 5, 7, 3, 5)
    for n, t_star, k_star, value in [
        (0, 0, (0, 0, 0, 0), 0),
        (1, 1, (0, 0, 1, 0), 53),
        (2, 2, (0, 0, 1, 1), 148),
        (14, 14, (3, 2, 6, 3), 4972),
    ]:
        d = maximize_degree(q, n)
        assert (d.t_star, d.k_star, d.value) == (t_star, k_star, value)
        assert sum(d.k_star) == d.t_star


def test_maximize_degree_small_pretzel():
    d = maximize_degree((-3, 3, 3), 2)
    assert (d.t_star, d.k_star, d.value) == (2, (1, 1), 36)
    assert maximize_degree((-3, 3, 3), 1).value == 11


def test_maximize_degree_balanced_case_prefers_small_total():
    for n in (0, 1, 2, 3):
        d = maximize_degree((-2, 3, 7), n)
        assert d.t_star == 0
        assert d.k_star == (0, 0)


def test_maximize_degree_validation():
    with pytest.raises(ValueError):
        maximize_degree((-3, 3, 3), -1)
    with pytest.raises(ValueError):
        maximize_degree((3, 3), 2)
    with pytest.raises(ValueError):
        maximize_degree((-3, 1), 2)
    # Non-integral twist entries or cable sizes are rejected, never truncated.
    for q, n in [((-3.5, 3, 3), 2), ((-3, 3, 3), 2.5)]:
        with pytest.raises(ValueError):
            maximize_degree(q, n)


def test_degree_values_are_exact_ints():
    from slopelab.knots import parse_knot_spec
    from slopelab.verify import predicted_min_degree

    f = SeparableQuadratic((1, 2), (0, 0))
    assert type(f.value((2, 1))) is int
    assert all(type(lattice_min(f, t).value) is int for t in (0, 3))
    assert all(type(maximize_degree((-3, 3, 3), n).value) is int for n in (0, 2))
    for spec in ("p:-3,5,5", "m:-1/3,2/7,1/4", "m:-46/327,35/151,5/31,16/35,1/5"):
        assert type(predicted_min_degree(parse_knot_spec(spec), 3)) is int
