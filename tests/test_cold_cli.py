"""scripts/cold_cli.py: its run order and table, with the cold runs replaced."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cold_cli.py"
_spec = importlib.util.spec_from_file_location("cold_cli", SCRIPT)
cold_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cold_cli)


def test_rounds_alternate_after_one_warm_run_per_command(monkeypatch):
    calls = []

    def fake_run(checkout, argv, scratch):
        calls.append((checkout, argv[0]))
        return 0.1

    monkeypatch.setattr(cold_cli, "cold_run", fake_run)
    walls = cold_cli.time_commands({"parent": "P", "change": "C"}, 3, "/scratch")
    n = len(cold_cli.COMMANDS)
    assert calls[:2 * n] == [(side, argv[0]) for side in "PC" for *_, argv in cold_cli.COMMANDS]
    timed = calls[2 * n:]
    assert len(timed) == 3 * 2 * n
    for k in range(3):
        first = [c for c, _ in timed[2 * n * k:2 * n * (k + 1):2]]
        assert set(first) == {"P" if k % 2 == 0 else "C"}
    assert all(len(w) == 3 for side in walls.values() for w in side)


def test_table_has_one_row_per_command_with_both_medians():
    walls = {"parent": [[0.3, 0.1, 0.2]] * len(cold_cli.COMMANDS),
             "change": [[0.05, 0.15, 0.1]] * len(cold_cli.COMMANDS)}
    lines = cold_cli.format_table(walls).splitlines()
    assert lines[0] == "| command | config | numpy | before | after |"
    assert lines[2] == "| `config dump` | NV | no | 0.200 s | 0.100 s |"
    assert len(lines) == 2 + len(cold_cli.COMMANDS) == 9


def test_map_output_goes_to_the_scratch_directory(tmp_path, monkeypatch):
    seen = {}

    def fake_subprocess_run(cmd, cwd, env, **kwargs):
        seen.update(cmd=cmd, cwd=cwd, env=env)
        return type("Done", (), {"returncode": 0, "stderr": ""})()

    monkeypatch.setattr(cold_cli.subprocess, "run", fake_subprocess_run)
    argv = dict((c, a) for c, *_, a in cold_cli.COMMANDS)["map --out"]
    assert cold_cli.cold_run("/checkout", argv, str(tmp_path)) >= 0.0
    assert seen["cmd"][-1] == str(tmp_path / "out.csv")
    assert seen["cwd"] == "/checkout"
    assert seen["env"]["PYTHONPATH"] == "/checkout/src"
    assert seen["env"]["PYTHONPYCACHEPREFIX"] == str(tmp_path / "pycache")
