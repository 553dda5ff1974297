"""The CLI outputs on the shipped configs against tests/golden/ (scripts/golden.py).

A mismatch names the case, the first differing line where it can, and the
numpy and BLAS of the golden files and of this run: the `map` bytes depend
on LAPACK's eigensolver to the 10th digit, so a mismatch on another machine
is a finding to look at, not a reason to skip.
"""

import gzip
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

RECORD = json.loads((golden.GOLDEN / "golden.json").read_text())
CASES = {case["name"]: case for case in RECORD["cases"]}


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return golden.run_cases(tmp_path_factory.mktemp("golden"))


def _environments():
    return f"golden files: {RECORD['environment']}; this run: {golden.environment()}"


def _first_difference(want, got):
    """'line n: ...' of the first line where the texts differ."""
    want_lines, got_lines = want.splitlines(), got.splitlines()
    for n, (w, g) in enumerate(zip(want_lines, got_lines), start=1):
        if w != g:
            return f"line {n}: expected {w!r}, got {g!r}"
    return f"{len(want_lines)} lines expected, {len(got_lines)} written"


def _map_difference(want, data):
    lines = data.decode().splitlines()
    for n, text in want["sample"].items():
        k = int(n) - 1
        got = lines[k] if k < len(lines) else None
        if got != text:
            return f"line {n}: expected {text!r}, got {got!r}"
    return (f"SHA-256 differs ({want['lines']} lines and {want['bytes']} bytes expected, "
            f"{len(lines)} and {len(data)} written); every sampled line agrees")


def test_golden_cases_are_the_scripts_cases():
    assert list(CASES) == [name for name, _, _ in golden.CASES]
    assert {n for n, case in CASES.items() if "map" in case} == golden.MAPS


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_matches_the_golden_files(results, name):
    case, (code, stdout, stderr, data) = CASES[name], results[name]
    where = f"{name}: {_environments()}"
    assert (code, stdout, stderr) == (case["exit"], case["stdout"], case["stderr"]), where
    if "map" in case:
        want = case["map"]
        if hashlib.sha256(data).hexdigest() != want["sha256"]:
            pytest.fail(f"{where}\n{_map_difference(want, data)}")
    elif "file" in case:
        text = gzip.decompress((golden.GOLDEN / case["file"]).read_bytes()).decode()
        if data.decode() != text:
            pytest.fail(f"{where}\n{_first_difference(text, data.decode())}")
    else:
        assert data is None, f"{where}: no output file expected"
