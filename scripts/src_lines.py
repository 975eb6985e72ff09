#!/usr/bin/env python3
"""Code, docstring, comment and blank lines of each module in src/tightspan.

Docstrings are the module, class and function docstrings that ``ast`` finds;
every line one spans counts as docstring, blank or not. Of the other lines a
blank one is blank, one holding only a comment is a comment, and the rest are
code. The last row sums the modules.

Usage: python scripts/src_lines.py [package directory]
"""

import argparse
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("code", "docstring", "comment", "blank")
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(text: str) -> dict[str, int]:
    """The four line counts of one module's source ``text``."""
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            doc.update(range(first.lineno, first.end_lineno + 1))
    out = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if number in doc:
            out["docstring"] += 1
        elif not line:
            out["blank"] += 1
        else:
            out["comment" if line.startswith("#") else "code"] += 1
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", default=str(ROOT / "src" / "tightspan"))
    args = parser.parse_args()
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<20}" + "".join(f"{k:>10}" for k in (*KINDS, "total")))
    for path in sorted(Path(args.package).glob("*.py")):
        row = counts(path.read_text())
        for k in KINDS:
            total[k] += row[k]
        print(f"{path.name:<20}" + "".join(f"{row[k]:>10}" for k in KINDS) + f"{sum(row.values()):>10}")
    print(f"{'total':<20}" + "".join(f"{total[k]:>10}" for k in KINDS) + f"{sum(total.values()):>10}")


if __name__ == "__main__":
    main()
