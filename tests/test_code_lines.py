"""scripts/code_lines.py: which lines of a module count as code."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

MODULE = '''\
"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class Box:
    """Class docstring."""

    def area(self, w,
             h):
        """Function docstring,

        with a blank line inside."""
        label = """not a docstring,
spanning two lines"""
        return math.prod(
            (w, h),
        ), label
'''


def test_counts_token_lines_without_docstrings_comments_or_blanks():
    # import, class, def and its continuation, the two lines of the assigned
    # string, and the three lines of the call
    assert code_lines.code_lines(MODULE) == 9


def test_a_docstring_alone_and_an_empty_module_count_nothing():
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0
    assert code_lines.code_lines("") == 0


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(MODULE)
    b.write_text("x = 1\n\ny = 2\n")
    code_lines.main([str(a), str(b)])
    assert capsys.readouterr().out.splitlines() == [
        f"     9  {a}", f"     2  {b}", "    11  total"]
