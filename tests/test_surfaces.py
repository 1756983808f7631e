import dataclasses
import random
from fractions import Fraction
from math import gcd

import pytest

from slopelab.cfrac import even_length_cfe, negative_cfe
from slopelab.degrees import s_and_s1
from slopelab.errors import AdjacencyViolation, NoSolution
from slopelab.knots import MontesinosKnot, PretzelKnot
from slopelab.surfaces import (
    INCOMPRESSIBLE,
    INCONCLUSIVE,
    CandidateSurface,
    CurveCoords,
    EdgePath,
    boundary_slope,
    build_reference_surface,
    build_sstar_surface,
    curve_coords,
    euler_over_sheets,
    farey_adjacent,
    incompressibility_check,
    sstar_vector,
    twist_number,
)
from slopelab.surfaces import _check_gluing, _ladder_depth
from slopelab.verify import iter_strict_pretzels
from support import (
    _positive_tangle_entries,
    _reference_negative_entries,
    _sstar_negative_entries,
    ladder_search,
)

WORKED = MontesinosKnot.from_fractions(
    [
        Fraction(-46, 327),
        Fraction(35, 151),
        Fraction(5, 31),
        Fraction(16, 35),
        Fraction(1, 5),
    ]
)
BIG_PRETZEL = PretzelKnot((-7, 5, 7, 3, 5))


def test_farey_adjacency():
    zero, one = Fraction(0), Fraction(1)
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert farey_adjacent(zero, one)
    assert farey_adjacent(half, third)
    assert farey_adjacent(Fraction(-1, 3), Fraction(-1, 2))
    assert not farey_adjacent(half, half)
    assert not farey_adjacent(zero, Fraction(2, 5))


def test_edge_path_validation():
    path = EdgePath((Fraction(1, 3), Fraction(1, 2), Fraction(1)), stop=2)
    assert path.edge_count == 2
    assert path.stop == 2
    assert EdgePath(path.vertices).stop == 0
    with pytest.raises(AdjacencyViolation):
        EdgePath((Fraction(1, 3), Fraction(1)))
    with pytest.raises(AdjacencyViolation):
        EdgePath((path.vertices[0], path.vertices[1], path.vertices[1]))
    with pytest.raises(ValueError):
        EdgePath(())
    with pytest.raises(ValueError):
        EdgePath((Fraction(1, 3),))
    with pytest.raises(ValueError):
        EdgePath((Fraction(0),), stop=1)
    # the stop count is checked against the surface's sheet count
    complete = EdgePath((Fraction(1, 3), Fraction(0)))
    CandidateSurface((path, complete, complete), 5, None)
    for bad in (EdgePath(path.vertices, stop=6), EdgePath(path.vertices, stop=-1)):
        with pytest.raises(ValueError):
            CandidateSurface((bad, complete, complete), 5, None)


def test_sstar_vector_anchors():
    assert sstar_vector((-11, 7, 9)) == (
        (Fraction(4, 7), Fraction(3, 7)),
        7,
        (4, 3),
    )
    assert sstar_vector((-7, 5, 7, 3, 5)) == (
        (Fraction(3, 14), Fraction(1, 7), Fraction(3, 7), Fraction(3, 14)),
        14,
        (3, 2, 6, 3),
    )
    with pytest.raises(ValueError):
        sstar_vector((-3, 1, 5))


def test_sstar_surface_big_pretzel():
    s = build_sstar_surface(BIG_PRETZEL)
    assert s.M == 14
    assert s.K == (12, 3, 2, 6, 3)
    assert s.q_negative == 2
    assert s.common_b == 12
    assert [p.edge_count for p in s.edgepaths] == [6, 1, 1, 1, 1]
    assert list(s.edgepaths[0].vertices) == [Fraction(-1, k) for k in (7, 6, 5, 4, 3, 2, 1)]
    assert s.edgepaths[0].stop == 12
    for i, (path, qi) in enumerate(zip(s.edgepaths[1:], (5, 7, 3, 5))):
        assert list(path.vertices) == [Fraction(1, qi), Fraction(0)]
        assert path.stop == s.K[i + 1]
    assert s.rvalues == (1, 4, 6, 2, 4)
    assert incompressibility_check(s) == INCOMPRESSIBLE
    assert twist_number(s) == Fraction(114, 7)
    assert euler_over_sheets(s) == Fraction(-122, 7)


def test_reference_surface_big_pretzel():
    r = build_reference_surface(BIG_PRETZEL)
    assert r.M == 1
    assert r.K == (0, 0, 0, 0, 0)
    assert r.q_negative is None
    assert r.common_b == 0
    assert r.reference_slope == 0
    assert r.rvalues == (6, 4, 6, 2, 4)
    assert incompressibility_check(r) == INCOMPRESSIBLE
    assert twist_number(r) == 6
    assert euler_over_sheets(r) == -6
    assert boundary_slope(r, r) == 0


def test_slopes_big_pretzel():
    s = build_sstar_surface(BIG_PRETZEL)
    r = build_reference_surface(BIG_PRETZEL)
    assert boundary_slope(s, r) == Fraction(72, 7)


def test_sstar_surface_worked_example():
    s = build_sstar_surface(WORKED)
    assert s.M == 14
    assert s.K == (12, 3, 2, 6, 3)
    assert s.q_negative == 2
    assert s.rvalues == (1, 4, 6, 2, 4)
    assert incompressibility_check(s) == INCOMPRESSIBLE
    assert twist_number(s) == Fraction(366, 7)
    assert euler_over_sheets(s) == Fraction(-374, 7)


def test_reference_surface_worked_example():
    r = build_reference_surface(WORKED)
    assert r.M == 1
    assert r.reference_slope == 4
    assert r.rvalues == (6, 4, 6, 2, 4)
    assert incompressibility_check(r) == INCOMPRESSIBLE
    assert twist_number(r) == 42
    assert euler_over_sheets(r) == -42
    assert boundary_slope(r, r) == 4


def test_slopes_worked_example():
    s = build_sstar_surface(WORKED)
    r = build_reference_surface(WORKED)
    assert boundary_slope(s, r) == Fraction(100, 7)


def test_curve_coords_gluing():
    s = build_sstar_surface(BIG_PRETZEL)
    coords = curve_coords(s)
    assert coords[0] == CurveCoords(B=12, C=-14)
    assert all(c.B == s.common_b for c in coords)
    assert sum(c.C for c in coords) == 0
    assert [c.C for c in coords[1:]] == [3, 2, 6, 3]


def test_check_gluing_raises_no_solution():
    s = build_sstar_surface(BIG_PRETZEL)
    _check_gluing(s)
    # A doctored ladder depth moves the shared band count off the paths'.
    with pytest.raises(NoSolution, match="band counts"):
        _check_gluing(dataclasses.replace(s, q_negative=s.q_negative + 1))
    # Mirroring the negative tangle's path keeps its bands and arc count
    # but flips its slope total, which breaks the cancellation.
    ladder = s.edgepaths[0]
    mirrored = EdgePath(tuple(-v for v in ladder.vertices), ladder.stop)
    doctored = dataclasses.replace(s, edgepaths=(mirrored,) + s.edgepaths[1:])
    with pytest.raises(NoSolution, match="slope totals"):
        _check_gluing(doctored)


def test_sstar_needs_deeper_ladder():
    s = build_sstar_surface(PretzelKnot((-3, 5, 5)))
    assert s.M == 2
    assert s.q_negative == 3
    assert s.K == (2, 1, 1)
    r = build_reference_surface(PretzelKnot((-3, 5, 5)))
    assert twist_number(s) == twist_number(r)
    assert boundary_slope(s, r) == 0


def test_negative_cfe_and_ladder_depth_match_the_hand_derived_recipes():
    # every reduced p/q in (0, 1) with q <= 60, then a seeded sample with
    # denominators up to 10^6; r is a positive tangle fraction, -r a
    # negative one
    rng = random.Random(11)
    fractions = [
        Fraction(p, q) for q in range(2, 61) for p in range(1, q) if gcd(p, q) == 1
    ]
    for _ in range(3000):
        q = rng.randint(2, 10**6)
        fractions.append(Fraction(rng.randint(1, q - 1), q))
    for r in fractions:
        assert negative_cfe(r) == _positive_tangle_entries(even_length_cfe(r))
        cf0 = even_length_cfe(-r)
        assert negative_cfe(-r) == _sstar_negative_entries(cf0)
        assert [0] + negative_cfe(1 / r) == _reference_negative_entries(cf0)
    for _ in range(3000):
        band, sheets, q0 = rng.randint(0, 599), rng.randint(1, 59), rng.randint(-44, -2)
        expected = ladder_search(band, sheets, q0)
        if expected is None:
            assert _ladder_depth(band, sheets) > -q0
        else:
            assert _ladder_depth(band, sheets) == expected


def test_every_sstar_path_stops_some_sheets():
    # The JSON report writes a complete last edge as null, so no SStar
    # path may have stop 0: K_i = M x_i >= 1, and K0 >= 1 because the
    # band count K1 (q1 - 1) is positive.
    knots = [WORKED, BIG_PRETZEL]
    knots += [PretzelKnot(q) for q in iter_strict_pretzels(-9, 9)]
    built = 0
    for knot in knots:
        try:
            s = build_sstar_surface(knot)
        except NoSolution:
            continue
        assert all(p.stop >= 1 for p in s.edgepaths), knot
        built += 1
    assert built == 37  # 35 of the 40 box entries, and both worked knots


def test_sstar_inconclusive_cycle():
    s = build_sstar_surface(PretzelKnot((-3, 3, 5)))
    assert s.q_negative == 3
    assert s.rvalues == (1, 2, 4)
    assert incompressibility_check(s) == INCONCLUSIVE


def test_sstar_no_solution_iff_s_positive():
    for q in [(-2, 3, 7), (-2, 5, 5), (-3, 33, 33)]:
        assert s_and_s1(q)[0] > 0
        with pytest.raises(NoSolution):
            build_sstar_surface(PretzelKnot(q))


def test_reference_surface_small_example():
    r = build_reference_surface(PretzelKnot((-2, 3, 7)))
    assert r.rvalues == (1, 2, 6)
    assert incompressibility_check(r) == INCONCLUSIVE
    assert twist_number(r) == 2
    assert euler_over_sheets(r) == -2


def test_candidate_surface_validation():
    paths = build_reference_surface(PretzelKnot((-3, 3, 3))).edgepaths
    with pytest.raises(ValueError):
        CandidateSurface(paths[:2], 1, None)
    with pytest.raises(ValueError):
        CandidateSurface(paths, 0, None)


@pytest.mark.parametrize(
    "cycle, verdict",
    [
        ((1, 1, 1), INCONCLUSIVE),
        ((1, 4, 6, 2, 4), INCOMPRESSIBLE),
        ((1, 2, 4), INCONCLUSIVE),
        ((2, 1, 5), INCONCLUSIVE),
        ((2, 1, 5, 1, 1), INCOMPRESSIBLE),
        ((3, 1, 5, 1, 1), INCOMPRESSIBLE),
        ((0, 4, 6), INCONCLUSIVE),
        ((1, 3, 1), INCONCLUSIVE),
        ((5, 3, 4), INCOMPRESSIBLE),
    ],
)
def test_incompressibility_cycles(cycle, verdict):
    # the edge 1/(r + 1) -> 0 has denominator jump r
    paths = [EdgePath((Fraction(1, r + 1), Fraction(0))) for r in cycle]
    surface = CandidateSurface(paths, 1, None)
    assert surface.rvalues == cycle
    assert incompressibility_check(surface) == verdict


def test_degree_identities_on_random_strict_inputs():
    rng = random.Random(97)
    built = refused = 0
    while built < 20 or refused < 5:
        m = rng.choice([2, 4])
        q = tuple(
            [-rng.randrange(3, 16, 2)]
            + [rng.randrange(3, 16, 2) for _ in range(m)]
        )
        knot = PretzelKnot(q)
        s, s1 = s_and_s1(q)
        if s > 0:
            with pytest.raises(NoSolution):
                build_sstar_surface(knot)
            refused += 1
            continue
        surface = build_sstar_surface(knot)
        ref = build_reference_surface(knot)
        assert twist_number(surface) - twist_number(ref) == -2 * s
        assert boundary_slope(surface, ref) == -2 * s
        assert euler_over_sheets(surface) == -2 * s1 + 4 * s - 2 * (m - 1)
        assert euler_over_sheets(ref) == 2 * (1 - m)
        built += 1
