import contextlib
import dataclasses
import importlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import slopelab
from slopelab import cli
from slopelab.errors import ColorTooLarge, HypothesisViolation, NotAKnot
from slopelab.knots import MontesinosKnot, PretzelKnot, parse_knot_spec
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


def test_oracle_colors_must_be_integer_valued():
    for colors in ([2.5, 3.9], ["3"], [Fraction(5, 2)]):
        with pytest.raises(ValueError, match="oracle color must be an integer"):
            verify("p:-3,5,5", oracle_colors=colors)
    checked = verify("p:-3,3,3", oracle_colors=[2.0, Fraction(3)]).oracle
    assert [c.color for c in checked] == [2, 3]
    # a top color needs only to be integer-valued, like each listed color
    for top in (3.0, Fraction(3)):
        checked = verify("p:-3,3,3", oracle_colors=top).oracle
        assert [c.color for c in checked] == [2, 3]
    with pytest.raises(ValueError, match="oracle color must be an integer"):
        verify("p:-3,3,3", oracle_colors=2.5)


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


def test_surface_side_mismatch_fails_the_report(monkeypatch, capsys):
    verify_module = importlib.import_module("slopelab.verify")
    for name in ("boundary_slope", "euler_over_sheets"):
        real = getattr(verify_module, name)
        monkeypatch.setattr(verify_module, name, lambda *a, f=real: f(*a) + 1)
    r = verify("p:-3,5,5", oracle_colors=())
    assert r.passed is False
    assert "boundary slope 1 differs from degree slope 0" in r.reasons
    assert "surface Euler ratio -1 differs from degree value -2" in r.reasons
    assert cli.main(["verify", "p:-3,5,5", "--oracle-n", "2"]) == 1
    assert "FAIL" in capsys.readouterr().out


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


def test_report_json_is_native_through_both_entry_points():
    """On drawn strict pretzel and Montesinos knots, the CLI's JSON text
    loads back to exactly ``to_json_dict()`` of the library report: the
    payload holds only JSON-native values, and both entry points agree."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    odd = st.integers(1, 5).map(lambda k: 2 * k + 1)
    tail = st.integers(1, 12).flatmap(
        lambda d: st.integers(1, d).map(lambda k: Fraction(k, d))
    )
    counts = st.sampled_from([2, 4])

    def check(knot, spec):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(["verify", spec, "--oracle-n", "1", "--json", "-"])
        report = verify(knot, oracle_colors=())
        assert status == (0 if report.passed else 1)
        assert json.loads(out.getvalue()) == report.to_json_dict()

    @hypothesis.settings(deadline=None, max_examples=40)
    @hypothesis.given(odd, counts.flatmap(lambda m: st.lists(odd, min_size=m, max_size=m)))
    def check_pretzel(b0, positives):
        q = (-b0, *positives)
        check(PretzelKnot(q), "p:" + ",".join(map(str, q)))

    @hypothesis.settings(deadline=None, max_examples=40)
    @hypothesis.given(
        odd,
        tail,
        counts.flatmap(lambda m: st.lists(st.tuples(odd, tail), min_size=m, max_size=m)),
    )
    def check_montesinos(b0, x0, positives):
        fractions = [-1 / (b0 + 1 - x0)] + [1 / (qi - 1 + x) for qi, x in positives]
        try:
            knot = MontesinosKnot.from_fractions(fractions)
        except NotAKnot:
            hypothesis.assume(False)
        check(knot, knot.spec())

    check_pretzel()
    check_montesinos()


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


def test_scan_repeated_tangle_count_checks_each_knot_once():
    reports = scan(q0_min=-3, qi_max=3, tangle_counts=(2, 2))
    assert [r.knot for r in reports] == ["p:-3,3,3"]


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
    # scan verifies every vector unfiltered: each one closes up into a knot
    assert all(
        PretzelKnot(q).is_knot() for q in iter_strict_pretzels(-9, 9, (2, 4))
    )


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


@pytest.mark.parametrize("spec", ["p:-3,,5,5", "p:-3,5,1_5"])
def test_cli_malformed_spec_exits_2(spec, capsys):
    assert cli.main(["verify", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error:") == 1 and spec in captured.err


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


def test_cli_parser_is_built_once_and_carries_nothing_over(capsys):
    # main parses every call with one shared parser: no option of one
    # call may leak into the next
    assert cli.build_parser() is cli.build_parser()
    box = ["scan", "--q0-min", "-5", "--qi-max", "5"]
    assert cli.main(box) == 0
    two_tangles = capsys.readouterr().out
    assert "6 knots checked, 0 failures" in two_tangles
    assert cli.main(box[:1] + ["--m", "3"] + box[1:]) == 2
    assert "tangle count 3" in capsys.readouterr().err
    assert cli.main(box) == 0
    assert capsys.readouterr().out == two_tangles
    assert cli.main(box + ["--m", "4"]) == 0
    assert "p:-3,3,3,3,3" in capsys.readouterr().out
    assert cli.main(box) == 0
    assert capsys.readouterr().out == two_tangles
    # --force on a knot outside the strict hypotheses, then without it
    assert cli.main(["verify", "p:-2,3,7", "--force"]) == 1
    assert cli.main(["verify", "p:-2,3,7"]) == 2
    assert "error:" in capsys.readouterr().err
    # a refused command line, then a good one
    for bad in (["verify"], ["verify", "p:-3,3,3", "--oracle-n", "two"], ["nope"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(bad)
        assert exc.value.code == 2
    capsys.readouterr()
    assert cli.main(["verify", "p:-3,3,3"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_scan_tangle_counts_match_the_help(capsys):
    # a sweep takes even tangle counts only, --exceptional any positive
    # one, and the help says so
    assert cli.main(["scan", "--m", "3", "--q0-min", "-5", "--qi-max", "5"]) == 2
    assert "tangle count 3 must be even" in capsys.readouterr().err
    assert cli.main(["scan", "--exceptional", "--m", "3"]) == 0
    assert "degenerate twist vectors" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "even (default 2), or any positive with --exceptional" in text


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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "p:-3,3,3"],
        ["scan", "--q0-min", "-3", "--qi-max", "5"],
        ["scan", "--exceptional"],
        ["qip", "--a", "1,2", "--b", "0,0", "--t", "3"],
        ["jones", "p:1,1,1", "--n", "2"],
    ],
    ids=["verify", "scan", "scan-exceptional", "qip", "jones"],
)
def test_cli_json_goes_to_stdout_or_to_the_file(argv, tmp_path, capsys):
    assert cli.main(argv) == 0
    text = capsys.readouterr().out
    # --json -: stdout is the JSON and nothing else
    assert cli.main([*argv, "--json", "-"]) == 0
    payload = capsys.readouterr().out
    assert payload == json.dumps(json.loads(payload), indent=2, sort_keys=True) + "\n"
    # --json FILE: the file holds the same JSON, stdout the report text
    target = tmp_path / "out.json"
    assert cli.main([*argv, "--json", str(target)]) == 0
    assert capsys.readouterr().out == text != payload
    assert target.read_text() == payload


def test_cli_jones(capsys):
    assert cli.main(["jones", "p:1,1,1", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "color 2: degrees [2, 18]" in out
    assert "v^18 - v^10 - v^6 - v^2" in out
    assert "18 1" in out


def test_cli_jones_link_fails_before_the_state_sum(monkeypatch, capsys):
    import slopelab.tl

    # _projected_bracket is the one entry to every state sum
    calls = []
    bracket = slopelab.tl._projected_bracket
    monkeypatch.setattr(
        slopelab.tl, "_projected_bracket", lambda *args: calls.append(args) or bracket(*args)
    )
    assert cli.main(["jones", "p:2,2", "--n", "4"]) == 2
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: p:2,2 closes up into a link\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        (
            "m:-1/3,-1/5,1/2,1/3",
            "m:-1/3,-1/5,1/2,1/3 has 2 negative tangles; expected one, listed first",
        ),
        ("m:1/2,1/2,-1/3", "m:-1/3,1/2,1/2 closes up into a link"),
    ],
    ids=["two-negatives", "link"],
)
def test_cli_montesinos_errors_name_the_spec(capsys, spec, message):
    assert cli.main(["verify", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _run_cli(*args, stdout=subprocess.PIPE):
    """Run the command line in a fresh interpreter, so a hang fails the
    test, with stdout buffered as it is by default."""
    code = "import sys; from slopelab.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(slopelab.__file__))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )


def _run_cli_into_closed_pipe(*args):
    """_run_cli with stdout on a pipe whose reader has gone away, as
    under ``slopelab ... | head -1`` once head has exited."""
    read, write = os.pipe()
    os.close(read)
    try:
        return _run_cli(*args, stdout=write)
    finally:
        os.close(write)


def test_cli_closed_stdout_keeps_the_status(tmp_path):
    # the printing stops; the status, stderr and a --json file do not change
    run = _run_cli_into_closed_pipe("jones", "p:-7,5,7,3,5", "--n", "3")
    assert (run.returncode, run.stderr) == (0, "")
    target = tmp_path / "report.json"
    run = _run_cli_into_closed_pipe("verify", "p:-3,5,5", "--json", str(target))
    assert (run.returncode, run.stderr) == (0, "")
    assert target.read_text() == report_json(verify("p:-3,5,5")) + "\n"
    run = _run_cli_into_closed_pipe("verify", "p:-2,3,7", "--force", "--json", str(target))
    assert (run.returncode, run.stderr) == (1, "")
    assert target.read_text() == report_json(verify("p:-2,3,7", force=True)) + "\n"
    # an unwritable --json path is still bad input
    missing = tmp_path / "missing" / "x.json"
    run = _run_cli_into_closed_pipe("verify", "p:-3,5,5", "--json", str(missing))
    assert run.returncode == 2
    assert run.stderr == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_cli_spec_without_reduced_form_fails_fast():
    run = _run_cli("verify", "m:100000001/3,-1/3,1/2")
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr == "error: m:100000001/3,-1/3,1/2 has no reduced representative\n"


def test_cli_unwritable_json_path_exits_2(tmp_path):
    target = tmp_path / "missing" / "x.json"
    run = _run_cli("verify", "p:-3,5,5", "--json", str(target))
    assert run.returncode == 2
    assert run.stdout.endswith("PASS\n")
    assert run.stderr == f"error: [Errno 2] No such file or directory: '{target}'\n"


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


@pytest.mark.parametrize("spec", ["p:-7,5,7,3,5", WORKED_SPEC])
def test_all_colors_of_a_knot_share_one_lattice_solve(spec, monkeypatch):
    import slopelab.degrees
    import slopelab.qip

    solved, reduced = [], []
    solve = slopelab.qip.lattice_min
    reduce = slopelab.degrees.tangle_reduction_total

    def counting_solve(f, t):
        solved.append(t)
        return solve(f, t)

    def counting_reduce(data):
        reduced.append(data)
        return reduce(data)

    monkeypatch.setattr(slopelab.qip, "lattice_min", counting_solve)
    monkeypatch.setattr(slopelab.degrees, "tangle_reduction_total", counting_reduce)
    knot = parse_knot_spec(spec)
    verify(knot, oracle_colors=())
    degrees = [predicted_min_degree(knot, c) for c in range(2, 13)]
    assert solved == [1]
    assert reduced == [knot.associated]
    monkeypatch.undo()
    fresh = [predicted_min_degree(parse_knot_spec(spec), c) for c in range(2, 13)]
    assert degrees == fresh


def test_predicted_min_degree_checks_the_color():
    knot = parse_knot_spec("p:-3,5,5")
    for color in (2.5, "3", Fraction(5, 2), 0, -1):
        with pytest.raises(ValueError, match="color"):
            predicted_min_degree(knot, color)
    assert predicted_min_degree(knot, 3.0) == predicted_min_degree(knot, 3)


def test_predicted_degrees_do_not_depend_on_the_order_asked():
    """One knot object asked for colours 1-40 in any order, with repeats,
    answers as a fresh knot does at each colour."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    odd = st.integers(1, 5).map(lambda k: 2 * k + 1)
    colors = st.lists(st.integers(1, 40), max_size=20).flatmap(
        lambda extra: st.permutations(list(range(1, 41)) + extra)
    )

    def check(knot, order):
        fresh = {
            c: predicted_min_degree(parse_knot_spec(knot.spec()), c) for c in range(1, 41)
        }
        asked = [predicted_min_degree(knot, c) for c in order]
        assert asked == [fresh[c] for c in order]

    @hypothesis.settings(deadline=None, max_examples=20)
    @hypothesis.given(
        odd, st.sampled_from([2, 4]).flatmap(lambda m: st.lists(odd, min_size=m, max_size=m)), colors
    )
    def check_strict_pretzel(b0, rest, order):
        check(PretzelKnot((-b0, *rest)), order)

    @hypothesis.settings(deadline=None, max_examples=20)
    @hypothesis.given(
        st.integers(2, 9), st.lists(st.integers(2, 9), min_size=1, max_size=4), colors
    )
    def check_pretzel(b0, rest, order):
        knot = PretzelKnot((-b0, *rest))
        hypothesis.assume(knot.is_knot())
        check(knot, order)

    tail = st.integers(1, 5).flatmap(lambda d: st.integers(1, d).map(lambda k: Fraction(k, d)))

    @hypothesis.settings(deadline=None, max_examples=20)
    @hypothesis.given(
        st.integers(2, 7),
        tail,
        st.lists(st.tuples(st.integers(2, 7), tail), min_size=2, max_size=4),
        colors,
    )
    def check_montesinos(b0, x0, positives, order):
        fractions = [-1 / (b0 + 1 - x0)] + [1 / (qi - 1 + x) for qi, x in positives]
        try:
            knot = MontesinosKnot.from_fractions(fractions)
        except NotAKnot:
            hypothesis.assume(False)
        check(knot, order)

    check_strict_pretzel()
    check_pretzel()
    check_montesinos()
    # its associated pretzel p:-3,4,4 is a link
    check(parse_knot_spec("m:-1/3,2/7,1/4"), [40, 3, 1, 40, 17, 2, 3, 1])
