"""Tests of the benchmark itself.

Run from the root of the repository:

    python3 -m pytest bench/test_bench.py

Each workload runs once and may fail only the two operations kept as known
faults; every kind of check is shown to catch a small perturbation of a
correct output; and the benchmark refuses to run without the program.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wls  # noqa: E402
from spincavity import experiments, fitting, spin_models  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(autouse=True)
def _at_repository_root(monkeypatch):
    monkeypatch.chdir(ROOT)


EXPECTED_FAILURES = {
    "field_sweeps": set(),
    "cli_files": {"cli.fit_in.p1", "cli.fit_lorentzian_in.loop_gap"},
    "fits": set(),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_FAILURES))
def test_workload_fails_only_known_faults(name):
    tally, metrics = run.timed_run(name, seed=0, seconds=0)
    assert set(tally.failures) == EXPECTED_FAILURES[name]
    assert tally.correct()
    assert {m["name"] for m in SPEC["end_to_end"]} == set(metrics)
    assert all(v > 0 for v in metrics.values())


def test_traced_run_reports_every_per_layer_metric():
    tally, values = run.traced_run("fits", seed=0, seconds=0)
    assert tally.failed == 0
    wanted = {m["name"] for m in SPEC["per_layer"]}
    assert wanted <= set(values)
    # a layer a workload never calls is left out of BENCHMARK.json
    assert all(values[k] > 0 for k in wanted)


def test_level_check_catches_one_level_off_by_1e3_mhz():
    grid = np.linspace(70.0, 80.0, 41)
    curves = spin_models.level_curve("nv", [1, 1, 0], wls.AXIS_111, grid)
    levels, trace = ref.levels("nv", [1, 1, 0], wls.AXIS_111, grid)
    assert wls.check_levels(grid, curves.energies, levels, trace, 1.0) == []
    bad = curves.energies.copy()
    bad[17, 4] += 1e-3
    assert wls.check_levels(grid, bad, levels, trace, 1.0)


def test_crossing_check_catches_2e3_mt():
    b_ref = ref.crossing("nv", [1, 1, 0], wls.AXIS_111, 5390.0, wls.NV_BRACKET)
    b = experiments.nv_crossing()
    assert wls.check_crossings([b], [b_ref]) == []
    assert wls.check_crossings([b + 2e-3], [b_ref])


def test_fit_check_catches_g_ens_off_by_5_percent():
    b_ref = ref.crossing("nv", [1, 1, 0], wls.AXIS_111, 5390.0, wls.NV_BRACKET)
    fit = fitting.fit_avoided_crossing(experiments.nv_anticrossing_map(g_ens=12.0))
    g, b = fit.params["g_ens"], fit.params["b_star"]
    assert wls.check_crossing_fit(g, b, fit.converged, 12.0, [b_ref]) == []
    assert wls.check_crossing_fit(1.05 * g, b, fit.converged, 12.0, [b_ref])


def test_map_check_catches_an_8th_digit_change(tmp_path):
    cfg = wls.SpinConfig(wls.CONFIGS["nv"])
    path = str(tmp_path / "map.csv")
    res = wls.run_cli_in_process(["map", "--config", wls.CONFIGS["nv"], "--out", path])
    assert res.rc == 0
    want = cfg.s21_map()
    assert wls.check_map_csv(path, cfg, want) == []
    with open(path) as fh:
        lines = fh.read().splitlines()
    b, f, mag, arg = lines[5000].split(",")
    lines[5000] = ",".join([b, f, f"{float(mag) * (1 + 3e-8):.10g}", arg])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert wls.check_map_csv(path, cfg, want)


def test_q_check_catches_magnitude_in_place_of_power():
    cc = 10.0
    grid, s21 = experiments.loop_gap_trace(experiments.loop_gap_elements(cc))
    circ = wls.circuit_reference(0.25, 3.465, 11010.0, cc, cc, grid=grid)
    store = {}
    fit, qs = wls.power_lorentzian(grid, np.abs(s21) ** 2, store, 0)
    assert wls.check_power_lorentzian(qs["q_loaded"], qs["q_ext"], circ) == []
    fit, qs = wls.power_lorentzian(grid, np.abs(s21), store, 0)
    assert wls.check_power_lorentzian(qs["q_loaded"], qs["q_ext"], circ)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fits", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
