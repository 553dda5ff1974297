"""Which numbers of the golden fit reports are right.

tests/test_golden.py holds the CLI's output on the shipped configs to
tests/golden/, wrong answers included.  Here each golden fit case has its
expected exit code and each reported quantity that has a truth from the
config: g_ens against the configured coupling, b_star against the spin
model's crossing, the resonator Qs against `q_decomposition` of the circuit
and a trace centre against its resonance.  KNOWN_WRONG names each (case,
quantity) that misses its truth today and the roadmap item that mends it.
A quantity outside KNOWN_WRONG must meet its truth; one inside it must miss
(strict, like xfail(strict=True)), so a mend removes its entry.
"""

import ast
import gzip
import json
from pathlib import Path

import pytest

from spincavity import experiments as ex
from spincavity import scalars, sweep_cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CASES = {case["name"]: case for case in json.loads((GOLDEN / "golden.json").read_text())["cases"]}

G_TOL = 0.005  # relative, on g_ens
Q_TOL = 0.01  # relative, on Q_L, Q_ext and Q_int
CENTRE_TOL = 0.01  # a trace centre, in loaded linewidths f0 / Q_L
# b_star must lie within one field step of the sweep from a model crossing

# golden fit case: (expected exit code, quantities with a truth from its config)
_MAP, _TRACE = ("g_ens", "b_star"), ("q_loaded", "q_ext", "q_int", "center")
TRUTH_TABLE = {
    "nv-fit": (0, _MAP),
    "nv-fit-noise": (0, _MAP),
    "nv-fit-in": (0, _MAP),
    "p1-fit": (0, _MAP),
    "p1-fit-noise": (0, _MAP),
    "p1-fit-in": (0, _MAP),
    "loop_gap-fit-lorentzian": (0, _TRACE),
    "loop_gap-fit-lorentzian-in": (0, _TRACE),
    "loop_gap-fit-fano": (0, ("center",)),
}
_KEYS = {"g_ens": "g_ens_mhz", "b_star": "b_star_mt", "center": "center_mhz"}

_ITEM_2 = "item 2: the picked peaks of a damped map sit off the undamped polaritons"
_ITEM_13B = ("items 13b (exit 3) and 2: the P1 window holds three lines, "
             "the dispersion fit models one")
_ITEM_13A = "item 13a: the Lorentzian is fitted to |S21|, not to the power |S21|^2"
KNOWN_WRONG = {
    ("nv-fit", "g_ens"): _ITEM_2,
    ("nv-fit-noise", "g_ens"): _ITEM_2,
    ("nv-fit-in", "g_ens"): _ITEM_2,
    **{(case, q): _ITEM_13B for case in ("p1-fit", "p1-fit-noise", "p1-fit-in")
       for q in _MAP},
    **{(case, q): _ITEM_13A for case in ("loop_gap-fit-lorentzian", "loop_gap-fit-lorentzian-in")
       for q in ("q_loaded", "q_ext", "q_int")},
}

# each operation of bench/test_bench.py's EXPECTED_FAILURES: its KNOWN_WRONG entry
BENCH_FAULTS = {
    "cli.fit_in.p1": ("p1-fit-in", "g_ens"),
    "cli.fit_lorentzian_in.loop_gap": ("loop_gap-fit-lorentzian-in", "q_ext"),
}


def _report(name):
    """{key: value} of a golden fit report's `key = value` lines."""
    text = gzip.decompress((GOLDEN / CASES[name]["file"]).read_bytes()).decode()
    return dict(line.split(" = ") for line in text.splitlines() if " = " in line)


def _check(name, quantity):
    """(reported value, truth, whether the value meets the truth)."""
    cfg = sweep_cli.parse_config((ROOT / "configs" / CASES[name]["config"]).read_text())
    value = float(_report(name)[_KEYS.get(quantity, quantity)])
    if quantity == "g_ens":
        truth = cfg.sample.g_ens_mhz
        return value, truth, abs(value - truth) <= G_TOL * truth
    if quantity == "b_star":
        omega_r, sweep = cfg.resonator.omega_r_mhz, cfg.sweep
        crossings = ([ex.nv_crossing(omega_r)] if cfg.sample.defect == "NV"
                     else ex.p1_crossings(omega_r))
        truth = min(crossings, key=lambda b: abs(b - value))
        step = (sweep.b_max_mt - sweep.b_min_mt) / (sweep.b_points - 1)
        return value, truth, abs(value - truth) <= step
    f0, q_int, q_e1, q_e2 = scalars.q_decomposition(cfg.resonator.circuit)
    q_ext = 1.0 / (1.0 / q_e1 + 1.0 / q_e2)
    q_loaded = 1.0 / (1.0 / q_int + 1.0 / q_ext)
    if quantity == "center":
        return value, f0, abs(value - f0) <= CENTRE_TOL * f0 / q_loaded
    truth = {"q_loaded": q_loaded, "q_ext": q_ext, "q_int": q_int}[quantity]
    return value, truth, abs(value - truth) <= Q_TOL * truth


def test_every_golden_fit_case_is_in_the_table():
    assert {name for name, case in CASES.items() if case["argv"][0] == "fit"} == set(TRUTH_TABLE)
    assert {name: case for name, (case, _) in TRUTH_TABLE.items()} == {
        name: CASES[name]["exit"] for name in TRUTH_TABLE}
    pairs = {(name, q) for name, (_, quantities) in TRUTH_TABLE.items() for q in quantities}
    assert set(KNOWN_WRONG) <= pairs


@pytest.mark.parametrize("name, quantity", [
    (name, q) for name, (_, quantities) in TRUTH_TABLE.items() for q in quantities])
def test_golden_fit_quantity_meets_its_truth_unless_known_wrong(name, quantity):
    value, truth, meets = _check(name, quantity)
    if (name, quantity) in KNOWN_WRONG:
        assert not meets, (f"{name}: {quantity} = {value:.8g} now meets its truth {truth:.8g}; "
                           f"remove its KNOWN_WRONG entry ({KNOWN_WRONG[name, quantity]})")
    else:
        assert meets, f"{name}: {quantity} = {value:.8g} misses its truth {truth:.8g}"


def test_every_expected_bench_failure_is_a_known_wrong_entry():
    # read bench/test_bench.py as text: importing it would import the bench
    tree = ast.parse((ROOT / "bench" / "test_bench.py").read_text())
    (value,) = [node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "EXPECTED_FAILURES" for t in node.targets)]
    operations = {ast.literal_eval(e) for node in ast.walk(value) if isinstance(node, ast.Set)
                  for e in node.elts}
    assert operations == set(BENCH_FAULTS)
    for operation, entry in BENCH_FAULTS.items():
        assert entry in KNOWN_WRONG, operation
