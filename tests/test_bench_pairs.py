"""scripts/bench_pairs.py: its summary of a synthetic runs list, and its check of the checkouts."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(seed, side, order, pass_s, rss, failed=0, trace=0):
    metrics = {"pass_s": {"value": pass_s, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"workload": "cli_files", "seed": seed, "side": side, "order": order, "seconds": 15,
            "trace": trace, "result": {"correct": True, "attempted": 15, "failed": failed,
                                       "metrics": metrics}}


PARENT_PASS = [0.30, 0.31, 0.32, 0.33, 0.34]
CHANGE_PASS = [0.20, 0.21, 0.35, 0.23, 0.24]  # the change loses the third pair
RUNS = [
    run
    for k, (p, c) in enumerate(zip(PARENT_PASS, CHANGE_PASS))
    for run in (_run(100 + k, "parent", 1 + k % 2, p, 50.0 + k, failed=2),
                _run(100 + k, "change", 2 - k % 2, c, 49.0 + k, failed=2))
] + [_run(200, "parent", 1, 9.9, 99.0, trace=1), _run(200, "change", 2, 0.1, 1.0, trace=1)]


def test_summary_of_pairs():
    rows = bench_pairs.summarize(RUNS)
    assert [row[:3] for row in rows] == [("cli_files", "pass_s", "s"),
                                         ("cli_files", "peak_rss_mb", "MB")]
    _, _, _, parent, change, ratio, wins, pairs = rows[0]
    # inclusive quartiles of 5 values: the 2nd, 3rd and 4th of the sorted list
    assert parent == pytest.approx((0.32, 0.31, 0.33))
    assert change == pytest.approx((0.23, 0.21, 0.24))
    assert ratio == pytest.approx(0.23 / 0.32)
    assert (wins, pairs) == (4, 5)  # the traced pair is not counted
    assert rows[1][6] == 5
    assert bench_pairs.summarize(RUNS, {"peak_rss_mb": "higher"})[1][6] == 0


def test_table_and_failed_share():
    table = bench_pairs.format_table(bench_pairs.summarize(RUNS)).splitlines()
    assert table[0] == "| workload | metric | parent | change | change/parent | wins |"
    assert table[2] == ("| cli_files | `pass_s` | 0.320 [0.310, 0.330] | 0.230 [0.210, 0.240] "
                        "| 0.719 | 4/5 |")
    assert table[3] == ("| cli_files | `peak_rss_mb` | 52.0 [51.0, 53.0] | 51.0 [50.0, 52.0] "
                        "| 0.981 | 5/5 |")
    assert bench_pairs.failed_shares(RUNS) == {("cli_files", "parent"): (10, 75),
                                               ("cli_files", "change"): (10, 75)}


def test_a_checkout_outside_git_fails_before_the_first_run(tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))  # git looks no higher
    checkout = tmp_path / "archive"
    checkout.mkdir()
    spec = {"workloads": [{"name": "fits"}], "run_seconds": 1, "end_to_end": []}
    (checkout / "BENCHMARK.json").write_text(json.dumps(spec))
    runs = []
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: runs.append(args))
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", str(checkout), str(checkout), "--number",
                                      "0", "--first-seed", "1", "--traced-seed", "2",
                                      "--out-dir", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main()
    assert runs == []
    assert exc.value.code.startswith(f"bench_pairs.py: {checkout} is not a git work tree")
    assert list(tmp_path.iterdir()) == [checkout]
