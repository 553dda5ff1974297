#!/usr/bin/env python3
"""Count the code lines of Python files.

    python3 scripts/code_lines.py src/spincavity/*.py

A code line is a line that holds a Python token.  Comments, blank lines and
the docstrings of modules, classes and functions hold none; a string that
is not a docstring counts on every line it spans.  Prints each file's count
and, for more than one file, the total.  Standard library only.
"""

import argparse
import ast
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source):
    """Number of lines of the Python text `source` that hold a token."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.add((node.body[0].lineno, node.body[0].col_offset))
    lines = set()
    for tok in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if tok.type not in _NOT_CODE and tok.start not in docstrings:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="+", help="Python files")
    args = ap.parse_args(argv)
    total = 0
    for path in args.paths:
        with open(path, encoding="utf-8") as fh:
            n = code_lines(fh.read())
        total += n
        print(f"{n:6d}  {path}")
    if len(args.paths) > 1:
        print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
