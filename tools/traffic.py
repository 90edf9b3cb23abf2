#!/usr/bin/env python3
"""Print the lines of zenokit that no benchmark invocation runs.

For each named workload it builds the invocation pool of ``--seed`` with
``perfbench.workloads.build``, clears the package's ``functools.cache``
functions so that their bodies run again, and runs every invocation's
argument lists through ``zenokit.cli.main`` under ``sys.settrace``,
recording the lines run in ``src/zenokit/``.  Then it prints, per
module, the executable lines that no invocation ran.  Executable lines
are the line numbers of the compiled function bodies (``co_lines``),
docstrings excluded; module and class bodies run at import, so they are
not counted.  Run from the repository root:

    python3 tools/traffic.py --workload predict-sweep --workload zeno-map --seed 1

The tool imports ``perfbench/`` and changes nothing there.
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import inspect
import io
import os
import sys
import tempfile
from pathlib import Path

from code_lines import docstring_lines

ROOT = Path(__file__).resolve().parent.parent


# comprehensions compile to functions, but in a module or class body they
# run at import
COMPREHENSIONS = {"<genexpr>", "<listcomp>", "<setcomp>", "<dictcomp>"}


def function_codes(code, in_function: bool = False):
    """The code objects nested in ``code`` that run only when a function is called."""
    for const in code.co_consts:
        if inspect.iscode(const):
            on_call = in_function or (
                bool(const.co_flags & inspect.CO_NEWLOCALS) and const.co_name not in COMPREHENSIONS
            )
            if on_call:
                yield const
            yield from function_codes(const, on_call)


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path``'s function bodies that carry bytecode."""
    source = path.read_text(encoding="utf-8")
    lines = {
        line
        for code in function_codes(compile(source, str(path), "exec"))
        for _, _, line in code.co_lines()
        if line is not None
    }
    return lines - docstring_lines(ast.parse(source))


def traced(run, prefix: str) -> dict[str, set[int]]:
    """Call ``run()`` under ``sys.settrace``; the lines run, per file under ``prefix``.

    A function's first line counts when it is called, and every other
    line when a line event reaches it.
    """
    seen: dict[str, set[int]] = {}
    previous = sys.gettrace()

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen.setdefault(name, set()).add(frame.f_lineno)
        return trace

    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(previous)
    return seen


def clear_caches(package: str) -> None:
    """Empty every ``functools.cache`` at module level in ``package``."""
    for name, module in list(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def ranges(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` as ``"3-5, 9"``."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import zenokit
    from zenokit import cli
    from perfbench import workloads

    package = Path(zenokit.__file__).parent
    seen: dict[str, set[int]] = {}
    with tempfile.TemporaryDirectory(prefix="traffic-") as tmp:
        for workload in args.workload:
            root = Path(tmp) / workload
            root.mkdir()
            pool = workloads.build(workload, args.seed, root, zenokit)
            codes: list[int] = []

            def run():
                # an invocation's argument lists run back to back until one fails
                for invocation in pool:
                    for command in invocation.argvs:
                        codes.append(cli.main(command))
                        if codes[-1]:
                            break

            clear_caches("zenokit")
            quiet = io.StringIO()
            with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                for name, lines in traced(run, str(package) + os.sep).items():
                    seen.setdefault(name, set()).update(lines)
            print(f"{workload}: {len(pool)} invocations, {len(codes)} CLI runs, "
                  f"{sum(code != 0 for code in codes)} nonzero exits")
    print(f"{'module':<14} {'executable':>10} {'not run':>8}")
    for path in sorted(package.glob("*.py")):
        lines = executable_lines(path)
        unrun = sorted(lines - seen.get(str(path), set()))
        print(f"{path.name:<14} {len(lines):>10} {len(unrun):>8}  {ranges(unrun)}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
