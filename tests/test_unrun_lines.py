"""scripts/unrun_lines.py: which statements a run leaves unexecuted."""

import importlib.util
from pathlib import Path
from unittest import mock

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "unrun_lines.py"
_spec = importlib.util.spec_from_file_location("unrun_lines", SCRIPT)
unrun_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unrun_lines)

MODULE = '''\
"""Module docstring."""


def sign(x):
    """Function docstring."""
    global CALLS
    CALLS = CALLS + 1
    if x < 0:
        return -1
    return 1


CALLS = 0
'''


def _sign(tmp_path):
    """The path of MODULE written to tmp_path, and a function importing it
    from there and calling its sign(x)."""
    path = tmp_path / "synthetic_sign.py"
    path.write_text(MODULE)

    def call(x):
        spec = importlib.util.spec_from_file_location("synthetic_sign", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.sign(x)
    return str(path), call


def test_statements_leave_out_docstrings_and_global():
    assert unrun_lines.statements(MODULE) == [4, 7, 8, 9, 10, 13]


def test_unrun_lists_the_untaken_branch_only(tmp_path):
    path, call = _sign(tmp_path)
    missed, result = unrun_lines.unrun([path], lambda: call(2.0))
    assert missed == [(path, 9, "return -1")]
    assert result == 1


def test_the_tracer_before_the_run_is_restored(tmp_path):
    path, call = _sign(tmp_path)
    before = unrun_lines.sys.gettrace()
    unrun_lines.executed_lines([path], lambda: call(-1.0))
    assert unrun_lines.sys.gettrace() is before


def test_main_hands_pytest_its_arguments_and_prints_each_line(tmp_path, capsys):
    path, call = _sign(tmp_path)
    calls = []

    def fake_pytest(args):
        calls.append(args)
        call(-1.0)
        return 0

    with mock.patch("pytest.main", fake_pytest):
        assert unrun_lines.main([path, "--", "-k", "sign"]) == 0
        assert unrun_lines.main([path]) == 0
    assert calls == [["-k", "sign"], unrun_lines.TIER1]
    assert capsys.readouterr().out == f"{path}:10: return 1\nnever ran: 1\n" * 2
