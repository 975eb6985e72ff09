"""Replay the benchmark's default-seed inputs against its reference.

``perfbench/reference.json`` holds the exit code and stdout sha256 of every
default-seed benchmark input. Replaying the inputs of all four workloads
through ``tightspan.cli.run`` makes a byte change in that output fail
pytest, not only the benchmark's gate. The traced run's wrappers are
installed and removed once, so a renamed or deleted function that
``perfbench/spans.py`` wraps fails here too. Files under ``perfbench/`` are
only read. The seed-2 ``recognize`` inputs are pinned by one digest, so
the witnesses are checked on a second set of graphs as well.
"""

import hashlib
import io
import json
import sys
from pathlib import Path

import tightspan
from tightspan.cli import run

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402


def _replay(workload, monkeypatch):
    reference = json.loads((BENCH / "reference.json").read_text())
    assert reference["seed"] == workloads.DEFAULT_SEED
    expected = reference["workloads"][workload]
    inputs, _ = workloads.build_inputs(tightspan, workload, workloads.DEFAULT_SEED)
    assert sorted(inp.label for inp in inputs) == sorted(expected)
    for inp in inputs:
        monkeypatch.setattr(sys, "stdin", io.StringIO(inp.text))
        out = io.StringIO()
        code = run(inp.argv, out)
        got = {"exit": code, "sha256": workloads.digest(out.getvalue())}
        assert got == expected[inp.label], inp.label


def test_hyperbolicity_outputs_match_benchmark_reference(monkeypatch):
    _replay("hyperbolicity", monkeypatch)


def test_hellify_outputs_match_benchmark_reference(monkeypatch):
    _replay("hellify", monkeypatch)


def test_hull_outputs_match_benchmark_reference(monkeypatch):
    _replay("hull", monkeypatch)


def test_recognize_outputs_match_benchmark_reference(monkeypatch):
    _replay("recognize", monkeypatch)


def test_recognize_witnesses_on_seed_2_match_pinned_digest(monkeypatch):
    # One sha256 over each seed-2 input's label, exit code and stdout. An
    # intended change to the recognize output updates this literal, as it
    # re-records perfbench/reference.json.
    inputs, _ = workloads.build_inputs(tightspan, "recognize", 2)
    h = hashlib.sha256()
    for inp in inputs:
        monkeypatch.setattr(sys, "stdin", io.StringIO(inp.text))
        out = io.StringIO()
        code = run(["recognize", "-", "--witness"], out)
        h.update(json.dumps([inp.label, code, out.getvalue()]).encode() + b"\n")
    assert (len(inputs), h.hexdigest()) == (
        35, "e97544c4d86295a1872c85bba612054f76d32b2e5f0828d70c99046b823fa049"
    )


def test_traced_run_installs_and_uninstalls():
    cli = sys.modules["tightspan.cli"]
    uninstall = spans.install(spans.Tracer())
    try:
        assert cli.run is not run
    finally:
        uninstall()
    assert cli.run is run


def test_traced_run_counts_hull_and_hellify_work(monkeypatch):
    # The counters read r.hull.n off build_injective_hull and r.added off
    # hellify_dh, so renaming either field fails here, not only in the
    # traced benchmark.
    text = tightspan.format_edge_list(tightspan.fixture("C4"))
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        for argv in (["hull", "-", "--format", "json"], ["hellify-dh", "-", "--format", "json"]):
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            assert run(argv, io.StringIO()) == 0
    finally:
        uninstall()
    counts = {name: value for (_, name), value in tracer.counts.items()}
    assert counts["hulls.vector_pairs"] == 10  # C(5, 2) on the 5-vertex H(C4)
    assert counts["dh.added"] == 1
    assert not [name for name in counts if name.endswith(".errors")]
