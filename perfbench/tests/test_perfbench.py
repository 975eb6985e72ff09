"""Tests of the benchmark itself: run with ``python -m pytest perfbench/tests``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_self_times_on_nested_span_tree():
    tree = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.leaf", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        # Overlapping children of b, one running past b's end: together
        # they cover [6, 9] of b.
        ["b.x", 6.0, 8.0, 3, 0],
        ["b.y", 7.0, 9.5, 3, 0],
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 2.5])
    per_op = spans.per_op_self_ms(tree)
    assert per_op[0, "root"] == pytest.approx(3000.0)
    assert per_op[0, "b.y"] == pytest.approx(2500.0)


def test_loglog_slope_recovers_exponent():
    assert spans.loglog_slope([(n, 3 * n**2.5) for n in (10, 20, 40)]) == pytest.approx(2.5)
    assert spans.loglog_slope([(10, 1.0), (10, 2.0)]) == 0.0


@pytest.fixture
def tightspan_cli():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    ts = run.fresh_import()
    return ts, sys.modules["tightspan.cli"]


def test_corrupted_reference_digest_counts_as_failed_op(tightspan_cli):
    ts, cli = tightspan_cli
    g = ts.generators.fixture("C8")
    inp = workloads.Input(
        "C8", "cycle", g.n, ["hyperbolicity", "-"], ts.graphs.format_edge_list(g)
    )
    code, stdout, _ = run.run_op(cli, inp)
    reference = {"C8": {"exit": code, "sha256": workloads.digest(stdout)}}
    assert run.measure(cli, [inp], reference, 0, 0).failures == []

    reference["C8"]["sha256"] = "0" * 64
    phase = run.measure(cli, [inp], reference, 0, 2)
    assert len(phase.latencies) == 2
    assert [f["reason"] for f in phase.failures] == ["stdout digest differs from the reference"] * 2


def test_invariants_catch_a_wrong_witness(tightspan_cli):
    ts, cli = tightspan_cli
    g = ts.generators.fixture("C8")
    inp = workloads.Input(
        "C8", "cycle", g.n, ["hyperbolicity", "-"], ts.graphs.format_edge_list(g)
    )
    assert workloads.check(inp, 0, "delta=4/2 witness=(0,2,4,6)\n", None) is None
    assert workloads.check(inp, 0, "delta=4/2 witness=(0,1,2,3)\n", None) is not None
    assert workloads.check(inp, 0, "delta=4/2 witness=(0,1,2,99)\n", None).startswith("malformed")


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(
    workload, trace, monkeypatch, tmp_path, capsys
):
    build = workloads.build_inputs

    def two_smallest(ts, name, seed):
        inputs, build_s = build(ts, name, seed)
        return sorted(inputs, key=lambda inp: inp.n)[:2], build_s

    monkeypatch.setattr(workloads, "build_inputs", two_smallest)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_OPS", 1)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    argv = ["--workload", workload, "--seed", str(workloads.DEFAULT_SEED)]
    assert run.main(argv + ["--seconds", "0", "--trace", str(trace)]) == 0

    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("results"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "hull", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
