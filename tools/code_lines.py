#!/usr/bin/env python3
"""Print each module's total lines and code lines.

Code lines are the lines that are neither blank, nor comment-only, nor
part of a docstring (of a module, class or function).  These are the
size figures that ROADMAP.md and CHANGES.md cite.  Run from the
repository root:

    python3 tools/code_lines.py                  # every src/zenokit module
    python3 tools/code_lines.py path/to/mod.py   # the named files only
"""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zenokit"


def docstring_lines(tree) -> set[int]:
    """The 1-based line numbers that the docstrings in ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """``(total lines, code lines)`` of the Python ``source``."""
    lines = source.splitlines()
    skipped = docstring_lines(ast.parse(source))
    code = sum(
        1
        for number, line in enumerate(lines, start=1)
        if number not in skipped and line.strip() and not line.strip().startswith("#")
    )
    return len(lines), code


def main(argv=None) -> int:
    paths = [Path(p) for p in (sys.argv[1:] if argv is None else argv)]
    paths = paths or sorted(PACKAGE.glob("*.py"))
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    totals = [0, 0]
    for path in paths:
        lines, code = count(path.read_text(encoding="utf-8"))
        totals[0] += lines
        totals[1] += code
        print(f"{path.name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {totals[0]:>6} {totals[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
