"""Self-test of the benchmark: span arithmetic, output checks, and tiny
runs of every workload.

    python3 -m pytest -q perfbench        or        python3 perfbench/test_perfbench.py
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from slopelab.laurent import LaurentPoly  # noqa: E402

COUNT_KINDS = {"calls", "max_per_op", "counter", "max_terms"}


def test_self_time_of_nested_spans():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["a", 5.0, 9.0, 0, 0],
        ["c", 8.0, 12.0, 3, 0],  # runs past its parent: only 8..9 counts
        ["c", 6.0, 8.5, 3, 0],  # overlaps its sibling: 8..8.5 counts once
        ["a", 6.5, 7.0, 5, 0],  # "a" nested in "a"
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 1.0, 4.0, 2.0, 0.5]
    assert tracing.outermost_time(spans, {"a"}) == 7.0
    assert tracing.outermost_time(spans, {"a", "b"}) == 7.0
    assert tracing.outermost_time(spans, {"b", "c"}) == 7.5


def test_summarize_per_op_figures():
    spans = [
        ["op", 0.0, 4.0, -1, 0],
        ["diagrams.build_standard_diagram", 1.0, 2.0, 0, 0],
        ["diagrams.build_standard_diagram", 2.0, 3.0, 0, 0],
        ["op", 4.0, 6.0, -1, 1],
        ["diagrams.build_standard_diagram", 4.0, 5.0, 3, 1],
    ]
    summary = tracing.summarize(spans, {}, {}, {})
    metrics = summary["metrics"]
    assert metrics["diagrams.build_s"] == 1.5
    assert metrics["diagrams.build_calls_per_op"] == 2
    assert metrics["diagrams.self_share"] == 0.5
    assert summary["calls"]["diagrams.build_standard_diagram"] == 3
    assert tracing.missing_layers(summary["calls"], {"diagrams"}) == [
        "diagrams.writhe_s (no call to diagrams.writhe)"
    ]


def test_tail_latency_keeps_ten_samples_beyond_it():
    assert run.tail_latency([0.1] * 10) is None
    value, percentile = run.tail_latency([float(i) for i in range(25, 0, -1)])
    assert (value, percentile) == (15.0, 60.0)


def test_checks_reject_wrong_outputs():
    assert workloads.check_verify_c3("p:-3,5,5", (1, "")) == "exit code 1"
    assert workloads.check_jones_c4("p:1,1,1", LaurentPoly({0: 3}))
    strict = "p:-3,5,5"
    report, degrees = workloads.run_formulas(strict)
    assert workloads.check_formulas(strict, (report, degrees)) is None
    degrees[3] += 1
    assert "dynamic program" in workloads.check_formulas(strict, (report, degrees))


def test_generators_are_seeded():
    for workload in workloads.WORKLOADS.values():
        first = workload.generate(7)
        assert first == workload.generate(7)
        assert all(isinstance(spec, str) for spec in first)
    assert workloads.generate_verify_c3(7) != workloads.generate_verify_c3(8)


def _traced_worker(name: str, ops: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", "3",
         "--ops", str(ops), "--passes", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_tiny_traced_runs_repeat_counts_exactly():
    kinds = {name: kind for name, _, kind, _ in tracing.LAYER_METRICS}
    for name, ops in (("verify_c3", 2), ("jones_c4", 1), ("formulas", 2)):
        first, second = _traced_worker(name, ops), _traced_worker(name, ops)
        assert first["failures"] == [] and first["missing_layers"] == []
        counts = {k: v for k, v in first["layer_metrics"].items() if kinds.get(k) in COUNT_KINDS}
        assert all(isinstance(v, int) for v in counts.values())
        assert counts == {k: second["layer_metrics"][k] for k in counts}
        assert first["first_pass_calls"] == second["first_pass_calls"]
    bindings = first["bindings"]
    assert "slopelab.verify.build_standard_diagram" in bindings["diagrams.build_standard_diagram"]
    assert "slopelab.degrees.build_standard_diagram" in bindings["diagrams.build_standard_diagram"]
    assert "slopelab.laurent.LaurentPoly.__rmul__" in bindings["laurent.LaurentPoly.__mul__"]
    assert "slopelab.verify.colored_jones" in bindings["tl.colored_jones"]


def _run(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


def test_run_prints_the_declared_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run("--workload", "formulas", "--seed", "2", "--seconds", "1",
                    "--trace", trace, "--ops", "3")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared[key]
        }


def test_run_fails_without_the_program():
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=out))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("--workload", "formulas", "--seed", "1", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    for test_name, test in sorted(globals().items()):
        if test_name.startswith("test_"):
            test()
            print(f"{test_name}: ok")
