import itertools
import random
from fractions import Fraction

import pytest

from slopelab.degrees import (
    DegreeQuadratic,
    MontesinosCorrections,
    StateParameters,
    delta_nk,
    exceptional_scan,
    montesinos_corrections,
    montesinos_js_jx,
    pretzel_js_jx,
    s_and_s1,
    tangle_reduction_total,
    tr_move_shift,
)
from slopelab.errors import HypothesisViolation, MultiComponent
from slopelab.knots import MontesinosKnot, PretzelKnot, associated_pretzel
from slopelab.qip import maximize_degree

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


def test_state_parameters_validation():
    k = StateParameters(3, (3, 2, 1))
    assert k.k0 == 3 and k.rest == (2, 1)
    assert k.is_tight()
    assert not StateParameters(2, (2, 2, 1)).is_tight()
    with pytest.raises(ValueError):
        StateParameters(2, (3,))
    with pytest.raises(ValueError):
        StateParameters(3, (3, 2, -1))
    with pytest.raises(ValueError):
        StateParameters(3, (3, 2, 5))
    with pytest.raises(ValueError):
        StateParameters(2, (3, 2, 1))


def test_delta_nk_validation():
    q = (-3, 3, 3)
    with pytest.raises(ValueError):
        delta_nk(2, StateParameters(2, (1, 1)), q)
    with pytest.raises(ValueError):
        delta_nk(2, StateParameters(2, (1, 0, 0)), q)


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
                delta_nk(n, StateParameters(n, (sum(rest),) + rest), q)
                for rest in itertools.product(range(n + 1), repeat=m)
                if sum(rest) <= n
            )
            assert best == maximize_degree(q, n).value


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
    # The writhe correction reads the associated pretzel diagram, which
    # only closes up into a single component under the odd-entry
    # hypotheses; forcing cannot rescue that.
    with pytest.raises(MultiComponent):
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


def test_exceptional_scan_windows():
    assert exceptional_scan(-5, 5, ms=(2,)) == [(-3, 5, 5)]
    assert exceptional_scan(-1, 9) == []
