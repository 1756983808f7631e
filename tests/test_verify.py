import dataclasses
import importlib
import json
from fractions import Fraction

import pytest

from slopelab import cli
from slopelab.errors import ColorTooLarge, HypothesisViolation, NotAKnot
from slopelab.knots import parse_knot_spec
from slopelab.verify import (
    SCHEMA,
    iter_strict_pretzels,
    predicted_min_degree,
    scan,
    verify,
)
from support import report_json

WORKED_SPEC = "m:-46/327,35/151,5/31,16/35,1/5"


def test_verify_big_pretzel_report():
    r = verify("p:-7,5,7,3,5")
    assert r.passed and r.reasons == ()
    assert (r.family, r.forced, r.degree.surface_hint) == ("pretzel", False, "SStar")
    assert r.verdict == "Incompressible"
    assert (r.crossings, r.writhe) == (27, -13)
    assert r.slope == r.degree.js == Fraction(72, 7)
    assert r.euler == r.degree.jx == Fraction(-122, 7)
    assert r.tw_surface == Fraction(114, 7)
    assert r.tw_reference == 6
    assert [(c.color, c.measured_min_degree, c.predicted_min_degree) for c in r.oracle] == [
        (2, -14, -14),
        (3, -44, -44),
    ]
    assert all(c.match for c in r.oracle)
    assert r.fitted_constants == ((2, Fraction(54, 7)), (3, Fraction(26, 7)))
    assert r.constant_consistent is False


def test_verify_worked_montesinos_report():
    r = verify(WORKED_SPEC)
    assert r.passed
    assert r.family == "montesinos"
    assert (r.crossings, r.writhe) == (61, -43)
    assert r.slope == Fraction(100, 7)
    assert r.euler == Fraction(-374, 7)
    assert r.verdict == "Incompressible"
    # Large diagrams keep the direct evaluation to the first color.
    assert [c.color for c in r.oracle] == [2]
    assert r.oracle[0].measured_min_degree == 10
    assert r.oracle[0].match
    assert r.constant_consistent is None
    assert r.degree.corrections is not None


def test_verify_strict_refusal_and_force():
    with pytest.raises(HypothesisViolation):
        verify("p:-2,3,7")
    r = verify("p:-2,3,7", force=True)
    assert r.forced
    assert not r.passed
    assert not r.degree.strict_ok
    assert (r.degree.js, r.degree.jx) == (0, -2)
    assert r.slope == 0 and r.euler == -2
    assert r.verdict == "Inconclusive"
    assert [(c.color, c.measured_min_degree, c.predicted_min_degree) for c in r.oracle] == [
        (2, -54, -58),
        (3, -144, -156),
    ]
    assert len(r.reasons) == 2
    assert all("differs from predicted" in reason for reason in r.reasons)


def test_verify_refuses_links():
    with pytest.raises(NotAKnot):
        verify("p:-2,3,4")


def test_predicted_min_degree_anchors():
    anchors = [
        ("p:-3,3,3", 2, -2),
        ("p:-3,3,3", 3, -12),
        ("p:-5,3,3", 2, -10),
        ("p:-5,3,3", 3, -36),
        ("p:-3,3,3,3,3", 3, -4),
        ("p:-7,5,7,3,5", 2, -14),
        (WORKED_SPEC, 2, 10),
        ("m:-1/3,2/7,1/4", 2, -2),
        ("m:-1/3,2/7,1/4", 3, -16),
    ]
    for spec, color, expected in anchors:
        assert predicted_min_degree(parse_knot_spec(spec), color) == expected


def test_oracle_color_policy():
    assert [c.color for c in verify("p:-3,3,3", oracle_colors=3).oracle] == [2, 3]
    assert [c.color for c in verify("p:-3,3,3", oracle_colors=[3]).oracle] == [3]
    assert [c.color for c in verify("p:-3,3,3", oracle_colors=[1, 2]).oracle] == [2]


def test_oversized_color_fails_before_any_work(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the color check")

    # the package re-exports verify(), which shadows the module attribute
    verify_module = importlib.import_module("slopelab.verify")
    for name in ("colored_jones", "pretzel_js_jx", "build_reference_surface"):
        monkeypatch.setattr(verify_module, name, forbidden)
    for colors in (5, [2, 5]):
        with pytest.raises(ColorTooLarge):
            verify("p:-3,5,5", oracle_colors=colors)
    assert cli.main(["verify", "p:-3,5,5", "--oracle-n", "5"]) == 2
    assert "exceeds cap" in capsys.readouterr().err


def test_report_json_round_trip():
    r = verify("p:-7,5,7,3,5")
    text = report_json(r)
    assert text == report_json(verify("p:-7,5,7,3,5"))
    data = json.loads(text)
    assert data["schema"] == SCHEMA
    assert data["pass"] is True
    assert data["knot"] == "p:-7,5,7,3,5"
    assert data["degree"]["js"] == "72/7"
    assert data["degree"]["corrections"] is None
    assert data["surface"]["M"] == 14
    assert data["surface"]["K"] == [12, 3, 2, 6, 3]
    assert data["surface"]["tw"] == "114/7"
    assert data["surface"]["boundary_slope"] == "72/7"
    first_path = data["surface"]["edgepaths"][0]
    assert first_path["vertices"][0] == "-1/7"
    assert first_path["final_fraction"] == [12, 14]
    assert data["oracle"]["fitted_constants"] == {"2": "54/7", "3": "26/7"}
    assert data["oracle"]["checks"]["2"]["predicted_min_degree"] == -14


def test_report_json_montesinos_corrections():
    data = json.loads(report_json(verify(WORKED_SPEC)))
    corr = data["degree"]["corrections"]
    assert corr["writhe_knot"] == -43
    assert corr["writhe_pretzel"] == -13
    assert corr["q0_prime"] == -9
    assert data["surface"]["reference_slope"] == "4"


def test_scan_box_all_pass():
    reports = scan(q0_min=-5, qi_max=5)
    assert [r.knot for r in reports] == [
        "p:-5,3,3",
        "p:-5,3,5",
        "p:-5,5,5",
        "p:-3,3,3",
        "p:-3,3,5",
        "p:-3,5,5",
    ]
    assert all(r.passed for r in reports)


def test_iter_strict_pretzels_validation():
    with pytest.raises(ValueError):
        list(iter_strict_pretzels(-3, 5, tangle_counts=(3,)))
    vectors = list(iter_strict_pretzels(-5, 5))
    assert vectors == [
        (-5, 3, 3),
        (-5, 3, 5),
        (-5, 5, 5),
        (-3, 3, 3),
        (-3, 3, 5),
        (-3, 5, 5),
    ]


def test_cli_verify_pass(capsys):
    assert cli.main(["verify", "p:-3,3,3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "js = 2" in out
    assert "oracle color 2" in out


def test_cli_verify_fail(capsys):
    assert cli.main(["verify", "p:-2,3,7", "--force"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "MISMATCH" in out
    assert "[outside strict hypotheses]" in out


def test_cli_error_exits(capsys):
    assert cli.main(["verify", "p:-2,3,7"]) == 2
    assert cli.main(["verify", "x:1,2"]) == 2
    assert cli.main(["verify", "p:-2,3,4"]) == 2
    assert cli.main(["jones", "p:1,1,1", "--n", "9"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 4


@pytest.mark.parametrize("spec", ["p:1,1,1", "p:-3,-1,1"])
def test_cli_verify_checks_pretzel_hypotheses_first(spec, capsys):
    # The +-1 entries fail the pretzel hypotheses before the associated
    # pretzel, whose expansions cannot hold them, is ever read.
    assert cli.main(["verify", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1
    assert captured.err.startswith("error: ")


def test_cli_verify_link_associated_pretzel(monkeypatch, capsys):
    # m:-1/3,2/7,1/4 is a knot, but its associated pretzel p:-3,4,4 is a
    # two-component link, so the writhe correction is undefined.
    import slopelab.diagrams

    built = []
    build = slopelab.diagrams.build_standard_diagram
    monkeypatch.setattr(
        slopelab.diagrams,
        "build_standard_diagram",
        lambda k: built.append(k) or build(k),
    )
    spec = "m:-1/3,2/7,1/4"
    assert cli.main(["verify", spec, "--force"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: associated pretzel p:-3,4,4 of m:-1/3,2/7,1/4 closes up "
        "into a link, which has no writhe\n"
    )
    assert built == []
    # without --force the pretzel hypotheses refuse it first
    assert cli.main(["verify", spec]) == 2
    assert "twist 4 is even" in capsys.readouterr().err
    assert built == []


def test_cli_verify_json_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert cli.main(["verify", "p:-3,3,3", "--json", str(target)]) == 0
    capsys.readouterr()
    data = json.loads(target.read_text())
    assert data["schema"] == SCHEMA
    assert data["pass"] is True


def test_cli_scan(tmp_path, capsys):
    target = tmp_path / "scan.json"
    rc = cli.main(
        ["scan", "--q0-min", "-3", "--qi-max", "5", "--json", str(target)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "3 knots checked, 0 failures" in out
    assert len(json.loads(target.read_text())) == 3


def test_cli_scan_exits_1_on_a_failed_report(monkeypatch, capsys):
    passing = verify("p:-3,3,3", oracle_colors=())
    failing = dataclasses.replace(passing, reasons=("forced failure",))
    monkeypatch.setattr(cli, "scan", lambda *args, **kwargs: [passing, failing])
    assert cli.main(["scan"]) == 1
    assert "2 knots checked, 1 failures" in capsys.readouterr().out


def test_cli_scan_exceptional(capsys):
    assert cli.main(["scan", "--exceptional"]) == 0
    out = capsys.readouterr().out
    assert "4 degenerate twist vectors" in out
    assert "exceptional: -2,3,7" in out


def test_cli_qip(capsys):
    assert cli.main(["qip", "--a", "1,2", "--b", "0,0", "--t", "3"]) == 0
    out = capsys.readouterr().out
    assert "minimizer (2, 1)" in out
    assert "value 6" in out
    # Negative linear terms need the equals form so argparse keeps them
    # out of the flag namespace.
    assert cli.main(["qip", "--a", "2,4", "--b=-4,-8", "--t", "3"]) == 0
    out = capsys.readouterr().out
    assert "minimizer (2, 1)" in out
    assert "value -4" in out
    # A huge total must not cost time linear in t.
    argv = ["qip", "--a", "2,4,3", "--b=-4,-8,5", "--t", "1000000000"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "minimizer (461538462, 230769231, 307692307)",
        "value 923076920923076918",
        "certificate_checked True",
        "period 26",
    ]
    # A degenerate minimizer on a state space of 4.6 million points is
    # still certified.
    argv = ["qip", "--a", "1,1,1,1,1", "--b=0,0,0,0,1000", "--t", "100"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "minimizer (25, 25, 25, 25, 0)",
        "value 2500",
        "certificate_checked True",
        "period 5",
    ]


def test_cli_qip_json_stdout(capsys):
    assert (
        cli.main(["qip", "--a", "1,2", "--b", "0,0", "--t", "3", "--json", "-"])
        == 0
    )
    out = capsys.readouterr().out
    # With --json - the payload owns stdout: the whole stream must parse.
    payload = json.loads(out)
    assert payload == {
        "certificate_checked": True,
        "minimizer": [2, 1],
        "period": 3,
        "value": 6,
    }


def test_cli_jones(capsys):
    assert cli.main(["jones", "p:1,1,1", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "color 2: degrees [2, 18]" in out
    assert "v^18 - v^10 - v^6 - v^2" in out
    assert "18 1" in out


def test_cli_jones_link_fails_before_the_state_sum(monkeypatch, capsys):
    import slopelab.tl

    calls = []
    multiply = slopelab.tl.tl_multiply
    monkeypatch.setattr(
        slopelab.tl, "tl_multiply", lambda x, y: calls.append(1) or multiply(x, y)
    )
    assert cli.main(["jones", "p:2,2", "--n", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: p:2,2 closes up into a link\n"
    assert calls == []


def test_verify_derives_the_knot_record_once(monkeypatch):
    import slopelab.degrees
    import slopelab.diagrams
    import slopelab.knots

    knot = parse_knot_spec(WORKED_SPEC)
    built, associated, corrected = [], [], []
    build = slopelab.diagrams.build_standard_diagram
    associate = slopelab.knots.associated_pretzel
    correct = slopelab.degrees.montesinos_corrections

    def counting_build(k):
        built.append(k)
        return build(k)

    def counting_associate(k):
        associated.append(k)
        return associate(k)

    def counting_correct(k):
        corrected.append(k)
        return correct(k)

    monkeypatch.setattr(slopelab.diagrams, "build_standard_diagram", counting_build)
    monkeypatch.setattr(slopelab.knots, "associated_pretzel", counting_associate)
    monkeypatch.setattr(slopelab.degrees, "montesinos_corrections", counting_correct)
    assert verify(knot).passed
    assert built.count(knot) == 1
    assert associated == [knot]
    assert corrected == [knot]
    # the knot's own diagram and, for the corrections, its associated pretzel's
    assert len(built) == 2
