"""The names and calls the benchmark relies on still work in the package.

bench/tracer.py replaces functions by name for a traced run (`bench/run.py
--trace 1`), and bench/workloads.py and bench/baseline.py call the package
with fixed signatures.  A deletion, rename or signature change that would
break them fails here, without running a workload.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from spincavity import cavity_qed, experiments, fitting, spin_models, sweep_cli

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_callable_of_its_module():
    missing = [
        f"{module}.{name}"
        for module, names in _load("tracer").TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"spincavity.{module}"), name, None))
    ]
    assert missing == []


def test_every_builder_is_a_spin_models_attribute():
    # the tracer re-binds each _BUILDERS entry to the attribute of that name
    for builder in spin_models._BUILDERS.values():
        assert getattr(spin_models, builder.__name__) is builder


def test_fits_workload_builds_its_inputs(monkeypatch):
    # calls nv_anticrossing_map(g_ens=...), p1_anticrossing_map(j, g),
    # cc_for_qext, loop_gap_elements and loop_gap_trace as a bench run does
    monkeypatch.syspath_prepend(str(BENCH))  # workloads.py imports bench/reference.py
    inputs = _load("workloads").Fits().build_inputs(0)
    assert len(inputs["maps"]) == 12
    assert len(inputs["traces"]) == 9


def test_synthesize_map_takes_the_baseline_arguments():
    # bench/baseline.py times _synthesize_map(cfg, 0.0, 1); the third argument is ignored
    cfg = sweep_cli.parse_config((ROOT / "configs" / "p1_20ppm_b001.ini").read_text())
    smap = sweep_cli._synthesize_map(cfg, 0.0, 1)
    assert np.array_equal(smap.values, sweep_cli._synthesize_map(cfg, 0.0).values)


def test_crossings_call_the_cavity_qed_attribute(monkeypatch):
    # the tracer counts crossing_evals by wrapping the curve handed to
    # cavity_qed.crossing_field; each crossing takes at most 4 curve calls
    expected = [experiments.nv_crossing(), *experiments.p1_crossings()]
    calls = []  # curve calls of each crossing solve
    crossing_field = cavity_qed.crossing_field

    def counting(curve, omega_r, bracket):
        calls.append(0)

        def counted(b):
            calls[-1] += 1
            return curve(b)

        return crossing_field(counted, omega_r, bracket)

    monkeypatch.setattr(cavity_qed, "crossing_field", counting)
    assert [experiments.nv_crossing(), *experiments.p1_crossings()] == expected
    assert len(calls) == 4 and all(1 <= n <= 4 for n in calls)


def test_cli_fits_call_the_fitting_attributes(monkeypatch, capsys):
    # the tracer counts fits by replacing fitting.fit_*; a CLI holding its own
    # reference to a fit function would read 0 in the per-layer fit metrics
    calls = []

    def counting(fit):
        def wrapper(data):
            calls.append(fit.__name__)
            return fit(data)
        return wrapper

    for name in ("fit_lorentzian", "fit_avoided_crossing"):
        monkeypatch.setattr(fitting, name, counting(getattr(fitting, name)))
    configs = ROOT / "configs"
    sweep_cli.main(["fit", "--kind", "lorentzian", "--config", str(configs / "loop_gap.ini")])
    sweep_cli.main(["fit", "--config", str(configs / "nv_10ppm_b110.ini")])
    capsys.readouterr()
    assert calls == ["fit_lorentzian", "fit_avoided_crossing"]
