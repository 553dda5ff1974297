#!/usr/bin/env python3
"""List the statements of Python files that a pytest run never executes.

    PYTHONPATH=src python3 scripts/unrun_lines.py src/spincavity/*.py [-- PYTEST_ARGS...]

Runs pytest in this process, with the tier-1 arguments unless PYTEST_ARGS
are given, under a sys.settrace line tracer limited to PATHS.  Then prints
`path:line: source` for each statement of PATHS that never ran, and
`never ran: N`.  The tracer sees this process's main thread only: code that
only child processes run, such as `sweep_cli.run` under `python -m`, is
listed too.  A mutant on a listed line survives any run of the tests.
Exits with pytest's code.  Standard library and pytest.
"""

import argparse
import ast
import os
import sys

TIER1 = ["-q", "--continue-on-collection-errors"]


def executed_lines(paths, run):
    """{path: set of line numbers} of the files `paths` that ran during run(),
    and run()'s result."""
    ran = {os.path.realpath(p): set() for p in paths}
    seen = {}  # code file name -> its set in `ran`, or None

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            seen[name] = ran.get(os.path.realpath(name))
        lines = seen[name]
        if lines is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return {p: ran[os.path.realpath(p)] for p in paths}, result


def statements(source):
    """Line numbers of the statements of Python text `source` that run as code:
    docstrings, `global` and `nonlocal` compile to none."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.stmt) and id(node) not in docstrings
                   and not isinstance(node, (ast.Global, ast.Nonlocal))})


def unrun(paths, run):
    """(path, line, source) of each statement of `paths` that run() leaves
    unexecuted, and run()'s result."""
    ran, result = executed_lines(paths, run)
    missed = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        text = source.splitlines()
        missed += [(path, n, text[n - 1].strip())
                   for n in statements(source) if n not in ran[path]]
    return missed, result


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="+", help="Python files to trace")
    paths = ap.parse_args(argv[:cut]).paths
    import pytest
    missed, code = unrun(paths, lambda: pytest.main(argv[cut + 1:] or TIER1))
    for path, n, text in missed:
        print(f"{path}:{n}: {text}")
    print(f"never ran: {len(missed)}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
