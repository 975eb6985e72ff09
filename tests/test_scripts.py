"""Smoke runs of the experiment scripts' ``main()`` at tiny sizes."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _main(name, argv, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="script")["main"]()


def test_scripts_run_at_tiny_sizes(monkeypatch, capsys):
    # One size per table: each growth exponent is reported as 0.00.
    _main(
        "scaling_hellify.py",
        ["--sizes", "300", "--with-builder", "--builder-sizes", "300"],
        monkeypatch,
    )
    out = capsys.readouterr().out
    assert "core time growth exponent ~ 0.00" in out
    assert "builder time growth exponent ~ 0.00" in out

    _main("family_counts.py", ["--max-k", "3"], monkeypatch)
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("split", "2"), ("split", "3"),
        ("cocomparability", "2"), ("cocomparability", "3"),
        ("crown", "3"),
    ]
    # 2^k maximal 2-sets; split k=3's 18-vertex hull meets its bound 2^k + 4k - 2
    assert all(int(r[3]) == 2 ** int(r[1]) for r in rows)
    assert rows[1][5] == rows[1][6] == "18"
    # the crown's hull: its 2k real vertices and 2^k Helly vertices
    assert int(rows[4][5]) == 2 * 3 + 2**3


def test_scaling_script_runs_from_a_source_checkout(tmp_path):
    # runpy above inherits the suite's sys.path; a fresh interpreter with no
    # PYTHONPATH finds tightspan only through the script's own path setup.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "scaling_hellify.py"), "--sizes", "300"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "core time growth exponent ~ 0.00" in done.stdout


def test_same_bytes_digest_on_trimmed_calls():
    script = runpy.run_path(str(SCRIPTS / "same_bytes.py"), run_name="script")
    calls = script["calls"]()
    # Digests compare across checkouts only while the call list is fixed.
    assert len(calls) == 1356
    # The first call per argv and kind of input (a workload, fixture, malformed, generate)
    first = {}
    for argv, label, text in calls:
        first.setdefault((tuple(argv), label.split(":")[0]), (argv, label, text))
    trimmed = list(first.values())
    out = script["digest"](trimmed)
    # Pinned, so a byte change in any command, format, generator or error
    # message fails here. An intended output change updates this literal, as
    # it re-records perfbench/reference.json.
    assert out == (
        "54 calls sha256=551b0ad1f6f270ef4149c01b678fe2939eea9ea5c0a9ab2f2282c5e8ac726772"
    )
    assert script["digest"](trimmed) == out


def test_src_lines_counts_add_up_to_each_file(monkeypatch, capsys):
    _main("src_lines.py", [], monkeypatch)
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["module", "code", "docstring", "comment", "blank", "total"]
    files = sorted((SCRIPTS.parent / "src" / "tightspan").glob("*.py"))
    assert [r[0] for r in rows] == [f.name for f in files] + ["total"]
    counts = [list(map(int, r[1:])) for r in rows]
    for path, (*kinds, total) in zip(files, counts):
        assert sum(kinds) == total == len(path.read_text().splitlines()), path.name
    assert counts[-1] == [sum(column) for column in zip(*counts[:-1])]
    # the package's own docstrings are found
    assert all(c[1] > 0 for c, f in zip(counts, files) if f.name != "__main__.py")
