"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints a single
``criterion N: PASS`` line (visible with ``pytest -s``/``-rA``).  All
comparisons are exact rational or integer equalities — no tolerances —
and the stated runtime budgets are asserted where a criterion pins one.
"""

import itertools
import random
import time
from fractions import Fraction

from slopelab.degrees import (
    exceptional_scan,
    montesinos_js_jx,
    pretzel_js_jx,
    s_and_s1,
)
from slopelab.diagrams import build_standard_diagram, writhe
from slopelab.knots import PretzelKnot, parse_knot_spec
from slopelab.laurent import LaurentPoly
from slopelab.qip import SeparableQuadratic, lattice_min
from slopelab.surfaces import (
    boundary_slope,
    build_reference_surface,
    build_sstar_surface,
    euler_over_sheets,
    twist_number,
)
from slopelab.tl import colored_jones
from slopelab.verify import verify
from support import colored_jones_unknot, mirror

WORKED_SPEC = "m:-46/327,35/151,5/31,16/35,1/5"
WORKED_PRETZEL = (-7, 5, 7, 3, 5)


def test_criterion_1_degree_pipeline_worked_example():
    start = time.perf_counter()
    assert s_and_s1(WORKED_PRETZEL) == (Fraction(-36, 7), Fraction(-32, 7))
    pretzel = pretzel_js_jx(WORKED_PRETZEL)
    assert (pretzel.js, pretzel.jx) == (Fraction(72, 7), Fraction(-122, 7))
    full = montesinos_js_jx(parse_knot_spec(WORKED_SPEC))
    assert (full.js, full.jx) == (Fraction(100, 7), Fraction(-374, 7))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        "criterion 1: PASS — degree pipeline exact "
        f"(s=-36/7, s1=-32/7, 72/7, -122/7, 100/7, -374/7) in {elapsed:.3f}s"
    )


def test_criterion_2_surface_pipeline_worked_example():
    start = time.perf_counter()
    pretzel = PretzelKnot(WORKED_PRETZEL)
    full = parse_knot_spec(WORKED_SPEC)
    s_p, r_p = build_sstar_surface(pretzel), build_reference_surface(pretzel)
    s_k, r_k = build_sstar_surface(full), build_reference_surface(full)
    assert boundary_slope(s_p, r_p) == Fraction(72, 7)
    assert euler_over_sheets(s_p) == Fraction(-122, 7)
    assert boundary_slope(s_k, r_k) == Fraction(100, 7)
    assert euler_over_sheets(s_k) == Fraction(-374, 7)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        "criterion 2: PASS — candidate surfaces give slopes 72/7 and 100/7, "
        f"Euler ratios -122/7 and -374/7, in {elapsed:.3f}s"
    )


def test_criterion_3_writhe_anchors():
    w_pretzel = writhe(build_standard_diagram(PretzelKnot(WORKED_PRETZEL)))
    w_full = writhe(build_standard_diagram(parse_knot_spec(WORKED_SPEC)))
    assert (w_pretzel, w_full) == (-13, -43)
    print("criterion 3: PASS — standard-diagram writhes -13 and -43, exact")


def test_criterion_4_skein_oracle_anchors():
    start = time.perf_counter()
    for n in range(1, 5):
        expected = LaurentPoly({2 * (n - 1) - 4 * j: 1 for j in range(n)})
        assert colored_jones_unknot(n) == expected
    trefoil = colored_jones(PretzelKnot((1, 1, 1)), 2)
    assert trefoil == LaurentPoly({18: 1, 10: -1, 6: -1, 2: -1})
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        "criterion 4: PASS — unknot invariants match [n] for n <= 4 and the "
        f"trefoil invariant at color 2 is exact, in {elapsed:.2f}s"
    )


def test_criterion_5_degree_constant_across_colors():
    start = time.perf_counter()
    specs = [
        "p:-3,5,5",
        "p:-3,5,7",
        "p:-3,5,9",
        "p:-3,5,11",
        "p:-3,5,13",
        "p:-3,7,7",
        "p:-3,7,9",
        "p:-3,7,11",
        "p:-3,9,9",
    ]
    for spec in specs:
        report = verify(spec, oracle_colors=(2, 3))
        assert report.passed, (spec, report.reasons)
        assert report.crossings <= 21
        assert report.constant_consistent is True
        # The residual degree offset is the same integer at both colors.
        assert report.fitted_constants == ((2, Fraction(2)), (3, Fraction(2)))
    elapsed = time.perf_counter() - start
    print(
        f"criterion 5: PASS — {len(specs)} knots (<= 21 crossings) have the "
        f"same integer degree offset 2 at colors 2 and 3, in {elapsed:.1f}s"
    )


def test_criterion_6_lattice_minimum_exhaustive():
    start = time.perf_counter()
    t_max = 15
    profiles = [(a, b) for a in range(1, 5) for b in range(-3, 4)]
    tables = {
        (a, b): [a * x * x + b * x for x in range(t_max + 1)]
        for a, b in profiles
    }
    count = 0
    for m in (1, 2, 3):
        for combo in itertools.product(profiles, repeat=m):
            f = SeparableQuadratic(
                tuple(c[0] for c in combo), tuple(c[1] for c in combo)
            )
            acc = tables[combo[0]]
            for coeffs in combo[1:]:
                nxt = tables[coeffs]
                acc = [
                    min(acc[x] + nxt[s - x] for x in range(s + 1))
                    for s in range(t_max + 1)
                ]
            for t in range(t_max + 1):
                opt = lattice_min(f, t)
                assert opt.value == acc[t], (f.a, f.b, t)
                assert sum(opt.minimizer) == t
                assert all(x >= 0 for x in opt.minimizer)
                assert f.value(opt.minimizer) == opt.value
                assert opt.certificate_checked
                count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"criterion 6: PASS — lattice minimizer matches dynamic-programming "
        f"brute force on {count} instances in {elapsed:.1f}s"
    )


def test_criterion_7_twist_and_euler_identities():
    start = time.perf_counter()
    rng = random.Random(20260822)
    checked = {3: 0, 5: 0}
    while sum(checked.values()) < 100:
        length = rng.choice((3, 5))
        q = (-rng.randrange(3, 27, 2),) + tuple(
            rng.randrange(3, 27, 2) for _ in range(length - 1)
        )
        s, s1 = s_and_s1(q)
        if s > 0:
            # No candidate surface exists on this side; skip.
            continue
        knot = PretzelKnot(q)
        surface = build_sstar_surface(knot)
        reference = build_reference_surface(knot)
        m = length - 1
        assert twist_number(surface) - twist_number(reference) == -2 * s, q
        assert euler_over_sheets(surface) == -2 * s1 + 4 * s - 2 * (m - 1), q
        checked[length] += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert checked[3] > 0 and checked[5] > 0
    print(
        "criterion 7: PASS — twist-difference and Euler identities hold on "
        f"100 random twist vectors ({checked[3]} with three tangles, "
        f"{checked[5]} with five) in {elapsed:.2f}s"
    )


def test_criterion_8_exceptional_scan():
    start = time.perf_counter()
    found = exceptional_scan(-10, 10, ms=(2, 3))
    assert found == [(-3, 4, 7), (-3, 5, 5), (-2, 3, 5, 5), (-2, 3, 7)]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        "criterion 8: PASS — scan finds exactly the four degenerate twist "
        f"vectors in {elapsed:.2f}s"
    )


def test_criterion_9_mirror_identity():
    pairs = [PretzelKnot((1, 1, 1)), PretzelKnot((3, -3, -3))]
    for knot in pairs:
        for color in (2, 3):
            direct = colored_jones(knot.mirror(), color)
            flipped = mirror(colored_jones(knot, color))
            assert direct == flipped, (knot, color)
    print(
        "criterion 9: PASS — inverting the variable matches the sign-flipped "
        "diagram for both mirror pairs at colors 2 and 3"
    )
