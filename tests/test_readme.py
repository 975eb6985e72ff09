"""The README's examples run as written and give the results their comments
state, and its module table names only what exists."""

import importlib
import io
import re
import sys
from pathlib import Path

from tightspan import Graph, InjectiveHull
from tightspan.cli import run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading, lang):
    """The first ``lang`` code block after the line ``heading``."""
    after = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"```{lang}\n(.*?)```", after, re.S).group(1)


def test_library_quick_start():
    # An expression commented `# result - note` must have repr result; other
    # lines, assignments among them, just run.
    namespace = {}
    checked = []
    for line in _block("## Library quick start", "python").splitlines():
        code, _, comment = line.partition("  #")
        try:
            expr = compile(code, "README", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        expected = comment.strip().split(" - ")[0]
        assert repr(eval(expr, namespace)) == expected, line
        checked.append(expected)
    assert checked == ["(5, 8, 1)", "1", "True", "1", "True", "'2/2'"]


def test_cli_quick_start(monkeypatch):
    lines = _block("## CLI", "sh").splitlines()
    assert lines[0] == "tightspan generate crown --k 4 | tightspan hull -"
    expected = []
    for line in lines[1:]:
        if not line.startswith("# "):
            break
        expected.append(line[2:])
    assert expected == ["n_real=8", "n_helly=16", "helly_gap=1"]
    generated = io.StringIO()
    assert run(["generate", "crown", "--k", "4"], out=generated) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(generated.getvalue()))
    out = io.StringIO()
    assert run(["hull", "-"], out=out) == 0
    assert out.getvalue().splitlines() == expected


def test_module_table_names_only_what_exists():
    # Each row names a module that imports, and its backticked names are
    # attributes of that module, of Graph or of InjectiveHull.
    section = README[README.index("\n## What's inside\n"):]
    section = section[: section.index("\n## ", 1)]
    rows = re.findall(r"^\| `([\w.]+)` \| (.*) \|$", section, re.M)
    assert len(rows) == 8
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        names = re.findall(r"`([^`]*)`", contents)
        assert names, module_name
        for name in names:
            owners = (module, Graph, InjectiveHull)
            assert any(hasattr(owner, name) for owner in owners), (module_name, name)
