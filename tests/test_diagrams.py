import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import slopelab
from slopelab.diagrams import (
    Diagram,
    _build_tangle,
    build_standard_diagram,
    crossing_signs,
    writhe,
)
from slopelab.errors import MultiComponent
from slopelab.knots import MontesinosKnot, PretzelKnot, parse_knot_spec
from support import pd_code, planar_euler_check

WORKED = MontesinosKnot.from_fractions(
    [
        Fraction(-46, 327),
        Fraction(35, 151),
        Fraction(5, 31),
        Fraction(16, 35),
        Fraction(1, 5),
    ]
)

FROZEN = [
    ("p:1,1,1", 3, -3),
    ("p:-1,-1,-1", 3, 3),
    ("p:-2,3,7", 12, 12),
    ("p:-3,3,3", 9, -3),
    ("p:3,-3,-3", 9, 3),
    ("p:-7,5,7,3,5", 27, -13),
    ("m:-1/3,2/7,1/4", 12, -4),
]


@pytest.mark.parametrize("spec, crossings, w", FROZEN)
def test_frozen_crossings_and_writhes(spec, crossings, w):
    d = build_standard_diagram(parse_knot_spec(spec))
    assert len(d.crossings) == crossings
    assert writhe(d) == w


def test_worked_example_diagram():
    d = build_standard_diagram(WORKED)
    assert len(d.crossings) == 61
    assert writhe(d) == -43
    assert planar_euler_check(d)


def test_twist_runs_pretzel():
    assert PretzelKnot((-7, 5, 7, 3, 5)).twist_runs == [
        [("v", 7, -1)],
        [("v", 5, 1)],
        [("v", 7, 1)],
        [("v", 3, 1)],
        [("v", 5, 1)],
    ]


def test_twist_runs_expansion():
    runs = WORKED.twist_runs
    # 35/151 expands as alternating nested twist regions, innermost first.
    assert runs[1] == [("h", 2, 1), ("v", 5, 1), ("h", 3, 1), ("v", 4, 1)]
    assert runs[0] == [("h", 1, -1), ("v", 4, -1), ("h", 9, -1), ("v", 7, -1)]
    assert runs[4] == [("h", 1, 1), ("v", 4, 1)]
    total = sum(n for tangle in runs for _, n, _ in tangle)
    assert total == 61


def test_planar_euler_check_on_frozen():
    for spec, _, _ in FROZEN:
        assert planar_euler_check(build_standard_diagram(parse_knot_spec(spec)))


def test_multi_component_rejected():
    d = build_standard_diagram(PretzelKnot((-2, 3, 4)))
    with pytest.raises(MultiComponent):
        writhe(d)


def test_pd_code_labels_and_signs():
    d = build_standard_diagram(PretzelKnot((-2, 3, 7)))
    code = pd_code(d)
    assert len(code["crossings"]) == 12
    assert code["signs"] == crossing_signs(d)
    seen = {}
    for quad in code["crossings"]:
        assert len(quad) == 4
        for label in quad:
            seen[label] = seen.get(label, 0) + 1
    assert set(seen) == set(range(1, 25))
    assert all(count == 2 for count in seen.values())
    assert sum(crossing_signs(d)) == writhe(d)


def test_mirror_negates_writhe():
    rng = random.Random(5)
    for _ in range(12):
        m = rng.choice([2, 4])
        q = tuple(
            [-rng.randrange(3, 10, 2)]
            + [rng.randrange(3, 10, 2) for _ in range(m)]
        )
        knot = PretzelKnot(q)
        if not knot.is_knot():
            continue
        w = writhe(build_standard_diagram(knot))
        assert writhe(build_standard_diagram(knot.mirror())) == -w


def pretzel_writhe(q):
    """Closed-form writhe of the standard diagram of a pretzel knot."""
    even = [i for i, qi in enumerate(q) if qi % 2 == 0]
    if not even:
        return -sum(q)
    if len(q) % 2 == 0:
        return sum(q)
    (j,) = even
    return sum(q) - 2 * q[j]


def test_pretzel_writhe_closed_form():
    entries = [v for v in range(-4, 5) if v]
    checked = 0
    for tangles in (3, 4):
        for q in itertools.product(entries, repeat=tangles):
            knot = PretzelKnot(q)
            if not knot.is_knot():
                continue
            assert writhe(knot.diagram) == pretzel_writhe(q), q
            checked += 1
    assert checked == 1280


def test_diagram_checks_raise_value_error():
    d = Diagram()
    d.join((0, 0), (0, 2))
    with pytest.raises(ValueError):
        d.join((0, 2), (0, 1))
    with pytest.raises(ValueError):
        _build_tangle(Diagram(), [])


def test_port_check_survives_optimize_flag():
    code = (
        "from slopelab.diagrams import Diagram\n"
        "d = Diagram()\n"
        "d.join((0, 0), (0, 2))\n"
        "try:\n"
        "    d.join((0, 2), (0, 1))\n"
        "except ValueError:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(slopelab.__file__)))
    run = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.stdout.strip() == "raised", run.stderr
