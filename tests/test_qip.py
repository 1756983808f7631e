import itertools
import random
from fractions import Fraction

import pytest

from slopelab.qip import (
    LatticeMinima,
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
    for n, value in [(0, 0), (1, 53), (2, 148), (14, 4972)]:
        assert maximize_degree(q, n) == value


def test_maximize_degree_small_pretzel():
    assert maximize_degree((-3, 3, 3), 2) == 36
    assert maximize_degree((-3, 3, 3), 1) == 11


def test_maximize_degree_balanced_case():
    assert [maximize_degree((-2, 3, 7), n) for n in range(4)] == [0, 22, 60, 114]


def scan_max_degree(q, n):
    """The outer maximization as one ``lattice_min`` solve per total t."""
    q0, rest = q[0], q[1:]
    f = SeparableQuadratic(
        tuple(qi - 1 for qi in rest), tuple(-2 + q0 + qi for qi in rest)
    )
    return max(
        n * (n + 2) * sum(q)
        - 2 * ((q0 + 1) * t * t + lattice_min(f, t).value + (len(rest) - 1) * n)
        for t in range(n + 1)
    )


def test_maximize_degree_matches_per_total_scan():
    rng = random.Random(17)
    for _ in range(300):
        m = rng.randint(1, 5)
        q = (rng.randint(-25, -1),) + tuple(rng.randint(2, 25) for _ in range(m))
        n = rng.randint(0, 40)
        assert maximize_degree(q, n) == scan_max_degree(q, n)


def test_maximize_degree_solves_once(monkeypatch):
    from slopelab import qip

    calls = []

    def counted(f, t):
        calls.append(t)
        return lattice_min(f, t)

    monkeypatch.setattr(qip, "lattice_min", counted)
    assert maximize_degree((-7, 5, 7, 3, 5), 14) == 4972
    assert calls == [14]


def test_lattice_minima_grow_from_one_solve():
    """Past its one solve, ``LatticeMinima`` appends the next smallest
    marginal: the grown minimizer is certified at every total, and each
    S_t is the lattice minimum at t, below the solved total and above."""
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
    def check(coefficients, first):
        f = SeparableQuadratic(*coefficients)
        minima = LatticeMinima(f)
        for t in range(first, 41):
            sums = minima.upto(t)
            assert len(sums) == t + 1
            assert sum(minima.minimizer) == t
            assert graver_certificate(f, minima.minimizer, t)
            assert f.value(minima.minimizer) == sums[t]
        assert sums == [lattice_min(f, t).value for t in range(41)]
        assert minima.upto(first) == sums[: first + 1]

    check()


def test_lattice_minima_solve_once(monkeypatch):
    from slopelab import qip

    calls = []

    def counted(f, t):
        calls.append(t)
        return lattice_min(f, t)

    monkeypatch.setattr(qip, "lattice_min", counted)
    q = (-7, 5, 7, 3, 5)
    minima = LatticeMinima.of_twists(q)
    for n in (3, 14, 0, 9, 14, 20):
        assert maximize_degree(minima, n) == scan_max_degree(q, n)
    assert calls == [3]
    for t in (-1, 2.5):
        with pytest.raises(ValueError, match="total"):
            minima.upto(t)


def no_unit_move_lowers(f, x):
    for i, j in itertools.permutations(range(f.m), 2):
        if x[i] > 0:
            y = list(x)
            y[i] -= 1
            y[j] += 1
            if f.value(y) < f.value(x):
                return False
    return True


def test_graver_certificate_matches_unit_moves():
    rng = random.Random(23)
    certified = 0
    for _ in range(3000):
        m = rng.randint(1, 5)
        f = SeparableQuadratic(
            tuple(rng.randint(1, 6) for _ in range(m)),
            tuple(rng.randint(-12, 12) for _ in range(m)),
        )
        # Half the coordinates are zero on average, so degenerate points abound.
        x = tuple(rng.choice((0, rng.randint(0, 6))) for _ in range(m))
        expected = no_unit_move_lowers(f, x)
        assert graver_certificate(f, x, sum(x)) == expected
        certified += expected
    assert 0 < certified < 3000


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
    # A vector too short to have a positive-index entry is named.
    for q in ((), (-3,)):
        with pytest.raises(ValueError, match=r"twist vector .*: \("):
            maximize_degree(q, 2)
    # Minima built from a bare quadratic hold no twist vector to read.
    bare = LatticeMinima(SeparableQuadratic((2, 4), (0, 2)))
    with pytest.raises(ValueError, match="LatticeMinima.of_twists"):
        maximize_degree(bare, 2)


def test_degree_values_are_exact_ints():
    from slopelab.knots import parse_knot_spec
    from slopelab.verify import predicted_min_degree

    f = SeparableQuadratic((1, 2), (0, 0))
    assert type(f.value((2, 1))) is int
    assert all(type(lattice_min(f, t).value) is int for t in (0, 3))
    assert all(type(maximize_degree((-3, 3, 3), n)) is int for n in (0, 2))
    for spec in ("p:-3,5,5", "m:-1/3,2/7,1/4", "m:-46/327,35/151,5/31,16/35,1/5"):
        assert type(predicted_min_degree(parse_knot_spec(spec), 3)) is int
