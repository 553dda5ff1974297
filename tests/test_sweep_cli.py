"""Config parsing, CSV emission, exit codes, and CLI round trips.

Every end-to-end case goes through main(argv) exactly as the installed
entry point would, with configs and data written to tmp_path.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from spincavity import experiments as ex
from spincavity import spin_models as sm
from spincavity import sweep_cli as cli
from spincavity import sweep_io as sio

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted((ROOT / "configs").glob("*.ini"))

NV_MINIMAL = """
[sample]
defect = NV
density_ppm = 10
"""

NV_MAP = """
[sample]
defect = NV
density_ppm = 10
linewidth_mhz = 2.5
g_ens_mhz = 11.5

[resonator]
omega_r_mhz = 5390.0
q_int = 1300
q_ext1 = 7000
q_ext2 = 7000

[sweep]
b_min_mt = 73.0
b_max_mt = 80.0
b_points = 57
omega_min_mhz = 5345.0
omega_max_mhz = 5435.0
omega_points = 451
"""

NV_NO_REPULSION = NV_MAP.replace("density_ppm = 10", "density_ppm = 0").replace(
    "g_ens_mhz = 11.5", "")

P1_COARSE = (ROOT / "configs" / "p1_20ppm_b001.ini").read_text().replace(
    "b_min_mt = 186.0", "b_min_mt = 0.5").replace(
    "b_max_mt = 199.0", "b_max_mt = 300").replace("b_points = 105", "b_points = 3")
COARSE_REASON = ("level tracking ambiguous between B = 0.5 and 150.25 mT (overlap 0.417); "
                 "refine the field grid")

CIRCUIT_ONLY = """
[resonator]
l_nh = 0.25
c_pf = 3.465
r_ohm = 11010
cc1_ff = 10
cc2_ff = 10
"""

# NV_MAP with its resonator given as CIRCUIT_ONLY's elements
NV_MAP_MODE = "omega_r_mhz = 5390.0\nq_int = 1300\nq_ext1 = 7000\nq_ext2 = 7000\n"
NV_CIRCUIT = NV_MAP.replace(NV_MAP_MODE, CIRCUIT_ONLY.removeprefix("\n[resonator]\n"))

# every key of every section, each away from its default
ALL_KEYS = """
[sample]
defect = P1
density_ppm = 12.5
volume_mm3 = 3.25
field_direction = 1 -1 2
linewidth_mhz = 1.75
orientation_fraction = 0.25
nuclear_fraction = 0.5
filling_factor = 0.8
transition_weight = 0.75
g_ens_mhz = 9.5
initial_levels = 0 3

[resonator]
omega_r_mhz = 5400.5
q_int = 1250
q_ext1 = 6000
q_ext2 = 8000
mode_volume_mm3 = 10.5
l_nh = 0.3
c_pf = 3.1
r_ohm = 12000
cc1_ff = 9
cc2_ff = 11
cx_ff = 0.5
z0_ohm = 75

[sweep]
b_min_mt = 180
b_max_mt = 200
b_points = 81
omega_min_mhz = 5300
omega_max_mhz = 5500
omega_points = 201
seed = 7
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------- parsing


def test_parse_minimal_nv_defaults():
    cfg = cli.parse_config(NV_MINIMAL)
    s = cfg.sample
    assert s.defect == "NV"
    assert s.density_ppm == 10.0
    assert s.volume_mm3 == ex.SAMPLE1_VOLUME_MM3
    assert s.field_direction == (1, 1, 0)
    assert s.linewidth_mhz == 5.0
    assert s.orientation_fraction == 0.5
    assert s.nuclear_fraction == 1.0
    assert s.g_ens_mhz is None
    assert s.initial_levels == (0,)
    assert cfg.resonator is None
    assert cfg.sweep.b_points == 61
    assert cfg.sweep.seed == 0


def test_parse_p1_nuclear_default_is_one_third():
    cfg = cli.parse_config("[sample]\ndefect = P1\ndensity_ppm = 20\n")
    assert np.isclose(cfg.sample.nuclear_fraction, 1.0 / 3.0)


@pytest.mark.parametrize(
    "text",
    [
        "[sample]\ndefect = NV\ndensity_ppm = 10\ncolour = blue\n",
        "[simple]\n",
        "[sample]\ndensity_ppm = 10\n",
        "[sample]\ndefect = NV\n",
        "[sample]\ndefect = SiV\ndensity_ppm = 1\n",
        "[sample]\ndefect = NV\ndensity_ppm = ten\n",
        "[sample]\ndefect = NV\ndensity_ppm = -2\n",
        "[sample]\ndefect = NV\ndensity_ppm = 10\nfield_direction = 0 0 0\n",
        "[sample]\ndefect = NV\ndensity_ppm = 10\ninitial_levels = a b\n",
        "[sweep]\nb_min_mt = 90\nb_max_mt = 60\n",
        "[sweep]\nomega_min_mhz = 5400\nomega_max_mhz = 5300\n",
        "not an ini file at all [",
        "[sample]\ndefect = NV\ndensity_ppm = 10\norientation_fraction = 1.5\n",
        "[sample]\ndefect = NV\ndensity_ppm = 10\nlinewidth_mhz = 0\n",
        "[resonator]\nq_int = 0\n",
        "[sweep]\nb_points = 1\n",
        "[sweep]\nomega_points = x\n",
        CIRCUIT_ONLY.replace("cc2_ff = 10\n", ""),
        "[sample]\ndefect = NV\ndensity_ppm = 10\ninitial_levels = 12\n",
        "[sample]\ndefect = NV\ndensity_ppm = 10\ninitial_levels = 0 -1\n",
        "[sample]\ndefect = P1\ndensity_ppm = 10\ninitial_levels = 6\n",
        "[resonator]\ncx_ff = 1\n",
        "[resonator]\nomega_r_mhz = 5390\nz0_ohm = 75\n",
    ],
)
def test_parse_rejects_bad_configs(text):
    with pytest.raises(cli.ConfigError):
        cli.parse_config(text)


def test_parse_initial_levels_up_to_the_defect_dimension():
    nv = cli.parse_config(NV_MINIMAL + "initial_levels = 0 8\n")
    assert nv.sample.initial_levels == (0, 8)
    p1 = cli.parse_config("[sample]\ndefect = P1\ndensity_ppm = 20\ninitial_levels = 5\n")
    assert p1.sample.initial_levels == (5,)


LOSSLESS_CIRCUIT = (
    CIRCUIT_ONLY.replace("c_pf = 3.465", "c_pf = 1e6").replace("r_ohm = 11010", "r_ohm = 1e308")
    .replace("cc1_ff = 10", "cc1_ff = 0").replace("cc2_ff = 10", "cc2_ff = 0")
)
LOSSLESS_REASON = "circuit elements in [resonator] have no loss: Q_int and both Q_ext are inf"


@pytest.mark.parametrize("command, text, reason", [
    (["transitions"], NV_MINIMAL + "initial_levels = 12\n",
     "key 'initial_levels' in [sample] out of range: 12 (NV has levels 0 to 8)"),
    (["transitions"], "[sample]\ndefect = P1\ndensity_ppm = 20\ninitial_levels = -1\n",
     "key 'initial_levels' in [sample] out of range: -1 (P1 has levels 0 to 5)"),
    (["config", "dump"], "[resonator]\ncx_ff = 1\nz0_ohm = 75\n",
     "missing required circuit key(s) 'l_nh', 'c_pf', 'r_ohm', 'cc1_ff', 'cc2_ff' "
     "in section [resonator] (circuit mode)"),
    # non-finite numbers used to print nan or inf with exit 0, or end in a traceback
    (["budget"], NV_MAP.replace("density_ppm = 10", "density_ppm = nan"),
     "key 'density_ppm' in [sample] is not finite: 'nan'"),
    (["budget"], NV_MAP.replace("omega_r_mhz = 5390.0", "omega_r_mhz = inf"),
     "key 'omega_r_mhz' in [resonator] is not finite: 'inf'"),
    (["levels"], NV_MAP.replace("b_min_mt = 73.0", "b_min_mt = nan"),
     "key 'b_min_mt' in [sweep] is not finite: 'nan'"),
    (["map"], NV_MAP.replace("b_max_mt = 80.0", "b_max_mt = inf"),
     "key 'b_max_mt' in [sweep] is not finite: 'inf'"),
    (["map", "--noise", "0.01"], NV_MAP + "seed = -1\n", "key 'seed' in [sweep] out of range: -1"),
    (["fit", "--noise", "0.01"], NV_MAP + "seed = -1\n", "key 'seed' in [sweep] out of range: -1"),
    # a grid too coarse to track the levels used to end in a traceback, exit 1
    pytest.param(["levels"], P1_COARSE, COARSE_REASON, id="levels-coarse-p1-grid"),
    pytest.param(["map"], P1_COARSE, COARSE_REASON, id="map-coarse-p1-grid"),
    # l * C underflows, or overflows, the closed-form resonance: a traceback
    # or g_ens_mhz = inf (exit 0), and nan traces with exit 0, before
    pytest.param(["budget"], NV_MINIMAL + CIRCUIT_ONLY.replace("l_nh = 0.25", "l_nh = 1e-310"),
                 "circuit elements in [resonator] resonate at inf MHz", id="budget-tiny-circuit"),
    pytest.param(["circuit"], CIRCUIT_ONLY.replace("l_nh = 0.25", "l_nh = 1e300").replace(
        "c_pf = 3.465", "c_pf = 1e300"), "circuit elements in [resonator] resonate at 0 MHz",
        id="circuit-huge-circuit"),
    # no decay rate at all: budget, map and fit ended in a ValueError traceback,
    # and circuit wrote 1601 rows of zero transmission with exit 0
    *(pytest.param([c], NV_MINIMAL + LOSSLESS_CIRCUIT, LOSSLESS_REASON, id=f"{c}-lossless")
      for c in ("budget", "map", "fit", "circuit")),
    # a trace of +-8 loaded linewidths reaches 0 MHz: with r_ohm = 1e-6 it spanned
    # +-3.7e11 MHz, and a Lorentzian fit of it centred below 0 (exit 3, before)
    pytest.param(["fit", "--kind", "lorentzian"],
                 (ROOT / "configs" / "loop_gap.ini").read_text().replace("r_ohm = 11010",
                                                                         "r_ohm = 1e-6"),
                 "circuit elements in [resonator] have loaded Q 1.18068e-07, not above 8: "
                 "their trace would reach 0 MHz", id="fit-lorentzian-tiny-r-ohm"),
    *(pytest.param([c], NV_MINIMAL + CIRCUIT_ONLY.replace("r_ohm = 11010", "r_ohm = 67"),
                   "circuit elements in [resonator] have loaded Q 7.90446, not above 8: "
                   "their trace would reach 0 MHz", id=f"{c}-q-loaded-below-8")
      for c in ("budget", "map", "circuit")),
    # Q_int underflows to 0 (the trace's width divided by it: a traceback, before)
    pytest.param(["circuit"], CIRCUIT_ONLY.replace("r_ohm = 11010", "r_ohm = 5e-324"),
                 "circuit elements in [resonator] have loaded Q 0, not above 8: "
                 "their trace would reach 0 MHz",
                 id="circuit-q-int-underflows"),
    # fit synthesizes its map as map does, and used to name 'map' here
    pytest.param(["fit"], NV_MINIMAL, "command 'fit' needs a [resonator] section in the config",
                 id="fit-without-resonator"),
    pytest.param(["fit"], CIRCUIT_ONLY, "command 'fit' needs a [sample] section in the config",
                 id="fit-without-sample"),
    pytest.param(["budget"], NV_MINIMAL + "[resonator]\nq_int = 1300\n",
                 "section [resonator] needs omega_r_mhz or circuit elements",
                 id="budget-resonator-without-mode"),
    pytest.param(["circuit"], NV_MINIMAL,
                 "command 'circuit' needs a [resonator] section in the config",
                 id="circuit-without-resonator"),
    pytest.param(["circuit"], NV_MAP, "command 'circuit' needs circuit elements in [resonator]",
                 id="circuit-without-elements"),
    pytest.param(["levels"], NV_MINIMAL + "field_direction = 1 a 0\n",
                 "key 'field_direction' in [sample] must be three Miller indices, got '1 a 0'",
                 id="levels-non-integer-direction"),
])
def test_config_errors_exit_2_with_one_line_reason(tmp_path, capsys, command, text, reason):
    cfgp = write(tmp_path, "bad.ini", text)
    assert cli.main(command + ["--config", cfgp]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {reason}\n"


def _bounds():
    """(section, key, bound, just outside, "lo" or "hi") of every bounded
    config key, read from the section records' schemas."""
    cases = []
    for section, cls in cli._SECTIONS.items():
        for name, spec in cls._schema.items():
            for side, step in (("lo", -1), ("hi", 1)):
                v = spec[side]
                if v is not None:
                    out = v + step if spec["parse"] is int else math.nextafter(v, step * math.inf)
                    cases.append((section, name, v, out, side))
    return cases


# The tests below take their cases from the schemas, so a bound moved in a
# schema moves their cases with it; this text pins every bound, as the dump
# tests above pin every default.
BOUNDS = """\
[sample] density_ppm >= 0.0
[sample] volume_mm3 >= 0.0
[sample] linewidth_mhz >= 1e-09
[sample] orientation_fraction >= 0.0
[sample] orientation_fraction <= 1.0
[sample] nuclear_fraction >= 0.0
[sample] nuclear_fraction <= 1.0
[sample] filling_factor >= 0.0
[sample] filling_factor <= 1.0
[sample] transition_weight >= 0.0
[sample] g_ens_mhz >= 0.0
[resonator] omega_r_mhz >= 1e-09
[resonator] q_int >= 1e-09
[resonator] q_ext1 >= 1e-09
[resonator] q_ext2 >= 1e-09
[resonator] mode_volume_mm3 >= 1e-12
[sweep] b_points >= 2
[sweep] omega_points >= 2
[sweep] seed >= 0
"""


def test_schema_bounds_are_pinned():
    assert "".join(f"[{section}] {key} {'>=' if side == 'lo' else '<='} {v}\n"
                   for section, key, v, _, side in _bounds()) == BOUNDS


def _config_with(section, **keys):
    """NV_MINIMAL with every section present and `keys` set in `section`."""
    sections = {"sample": {"defect": "NV", "density_ppm": 10}, "resonator": {}, "sweep": {}}
    sections[section].update(keys)
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items()) + "\n"
                   for name, body in sections.items())


@pytest.mark.parametrize("section, key, bound, outside", [
    pytest.param(*case[:4], id=f"{case[0]}.{case[1]}.{case[4]}") for case in _bounds()
])
def test_every_bound_is_inclusive_and_the_next_value_out_exits_2(
    tmp_path, capsys, section, key, bound, outside
):
    # no cross-key check of parse_config rejects a value at a bound: each
    # dumps back as given
    cfgp = write(tmp_path, "at.ini", _config_with(section, **{key: bound}))
    assert cli.main(["config", "dump", "--config", cfgp]) == 0
    assert f"{key} = {bound}" in capsys.readouterr().out.splitlines()
    cfgp = write(tmp_path, "out.ini", _config_with(section, **{key: outside}))
    assert cli.main(["config", "dump", "--config", cfgp]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: key '{key}' in [{section}] out of range: ")


@pytest.mark.parametrize("low", [k for k in cli.SweepConfig._schema if "_min_" in k])
def test_equal_sweep_limits_exit_2(tmp_path, capsys, low):
    high = low.replace("_min_", "_max_")
    value = cli.SweepConfig._defaults[low]
    cfgp = write(tmp_path, "cfg.ini", _config_with("sweep", **{low: value, high: value}))
    assert cli.main(["config", "dump", "--config", cfgp]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {low} must be smaller than {high}")


@pytest.mark.parametrize("command", ["map", "fit"])
@pytest.mark.parametrize("sigma", ["-0.01", "nan", "inf", "abc"])
def test_noise_must_be_a_finite_sigma(tmp_path, capsys, command, sigma):
    cfgp = write(tmp_path, "map.ini", NV_MAP)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", cfgp, "--noise", sigma])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"spincavity {command}: error: argument --noise: must be a finite sigma >= 0, got '{sigma}'"
    )


def test_parse_circuit_needs_all_elements():
    with pytest.raises(cli.ConfigError):
        cli.parse_config("[resonator]\ncc1_ff = 10\n")
    with pytest.raises(cli.ConfigError):
        cli.parse_config(CIRCUIT_ONLY.replace("l_nh = 0.25", "l_nh = 0"))
    cfg = cli.parse_config(CIRCUIT_ONLY)
    assert cfg.resonator.circuit is not None
    assert cfg.resonator.circuit.l == 0.25


def ini_keys(text):
    return sorted(ln.split("=")[0].strip() for ln in text.splitlines() if "=" in ln)


def test_dump_parse_round_trip():
    assert len(SHIPPED) == 3
    for text in [NV_MINIMAL, NV_MAP, CIRCUIT_ONLY, ALL_KEYS] + [p.read_text() for p in SHIPPED]:
        cfg = cli.parse_config(text)
        dumped = cli.dump_config(cfg)
        assert cli.parse_config(dumped) == cfg
        assert cli.dump_config(cli.parse_config(dumped)) == dumped
    # every key is dumped and keeps its parsed value
    cfg = cli.parse_config(ALL_KEYS)
    assert ini_keys(cli.dump_config(cfg)) == ini_keys(ALL_KEYS)
    assert cfg.sample.field_direction == (1, -1, 2)
    assert cfg.sample.initial_levels == (0, 3)
    assert cfg.resonator.circuit.cx == 0.5
    assert cfg.resonator.circuit.z0 == 75.0
    assert cfg.sweep.seed == 7


def test_dump_fills_in_the_optional_circuit_keys():
    # five circuit keys in, all seven out, after the other [resonator] keys
    assert cli.dump_config(cli.parse_config(CIRCUIT_ONLY)) == (
        "[resonator]\nq_int = 1300.0\nq_ext1 = 7000.0\nq_ext2 = 7000.0\n"
        "mode_volume_mm3 = 11.45\nl_nh = 0.25\nc_pf = 3.465\nr_ohm = 11010.0\n"
        "cc1_ff = 10.0\ncc2_ff = 10.0\ncx_ff = 0.0\nz0_ohm = 50.0\n\n"
        "[sweep]\nb_min_mt = 60.0\nb_max_mt = 90.0\nb_points = 61\n"
        "omega_min_mhz = 5340.0\nomega_max_mhz = 5440.0\nomega_points = 401\nseed = 0\n"
    )


_DEFAULT_TAIL = (
    "linewidth_mhz = 5.0\norientation_fraction = 0.5\nnuclear_fraction = {nuclear}\n"
    "filling_factor = 1.0\ntransition_weight = 0.5\ninitial_levels = 0\n\n"
    "[resonator]\nq_int = 1300.0\nq_ext1 = 7000.0\nq_ext2 = 7000.0\nmode_volume_mm3 = 11.45\n\n"
    "[sweep]\nb_min_mt = 60.0\nb_max_mt = 90.0\nb_points = 61\n"
    "omega_min_mhz = 5340.0\nomega_max_mhz = 5440.0\nomega_points = 401\nseed = 0\n"
)


@pytest.mark.parametrize("defect, nuclear", [("NV", "1.0"), ("P1", "0.3333333333333333")])
def test_dump_of_the_required_keys_shows_every_default(defect, nuclear):
    # every shipped config sets most optional keys, so the golden files cannot
    # see these defaults; the circuit defaults are pinned in the test above
    text = f"[sample]\ndefect = {defect}\ndensity_ppm = 10\n\n[resonator]\n"
    assert cli.dump_config(cli.parse_config(text)) == (
        f"[sample]\ndefect = {defect}\ndensity_ppm = 10.0\nvolume_mm3 = 4.95\n"
        "field_direction = 1 1 0\n" + _DEFAULT_TAIL.format(nuclear=nuclear)
    )


def test_defect_axis_picks_closest_bond():
    axis = sio._defect_axis(np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
    assert np.allclose(axis, np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0))
    axis = sio._defect_axis(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(np.abs(axis), 1.0 / np.sqrt(3.0))


# ---------------------------------------------------------------- CSV output


def test_levels_csv_shape(tmp_path, capsys):
    cfgp = write(tmp_path, "nv.ini", NV_MINIMAL)
    assert cli.main(["levels", "--config", cfgp]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "B_mT," + ",".join(f"E{k}_MHz" for k in range(9))
    assert len(lines) == 1 + 61


def test_levels_p1_has_six_level_columns(tmp_path, capsys):
    cfgp = write(
        tmp_path, "p1.ini",
        "[sample]\ndefect = P1\ndensity_ppm = 20\n"
        "[sweep]\nb_min_mt = 150\nb_max_mt = 230\nb_points = 11\n",
    )
    assert cli.main(["levels", "--config", cfgp]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].count(",") == 6
    assert len(lines) == 12


def test_transitions_csv(tmp_path, capsys):
    cfgp = write(tmp_path, "nv.ini", NV_MINIMAL)
    assert cli.main(["transitions", "--config", cfgp]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "B_mT,f_MHz,weight,from_level,to_level"
    body = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
    assert np.all(body[:, 2] >= 1e-6)  # weight floor
    assert np.all(body[:, 3] == 0.0)   # default initial level


def test_transitions_diagonalizes_once(tmp_path, monkeypatch, capsys):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(sio.spin_models.np.linalg, "eigh", counted)
    cfgp = write(tmp_path, "nv.ini", NV_MINIMAL + "initial_levels = 0 4\n")
    assert cli.main(["transitions", "--config", cfgp]) == 0
    assert calls == [(61, 9, 9)]
    capsys.readouterr()


def test_map_csv_row_count_and_determinism(tmp_path):
    small = NV_MAP.replace("b_points = 57", "b_points = 7").replace(
        "omega_points = 451", "omega_points = 51"
    )
    cfgp = write(tmp_path, "map.ini", small)
    o1, o2, o3 = (str(tmp_path / f"m{i}.csv") for i in range(3))
    assert cli.main(["map", "--config", cfgp, "--out", o1]) == 0
    assert cli.main(["map", "--config", cfgp, "--out", o2]) == 0
    assert cli.main(["map", "--config", cfgp, "--out", o3, "--threads", "3"]) == 0
    b1 = Path(o1).read_bytes()
    assert b1 == Path(o2).read_bytes()
    assert b1 == Path(o3).read_bytes()  # threading must not reorder rows
    lines = b1.decode().strip().split("\n")
    assert lines[0] == "B_mT,f_MHz,S21_mag,S21_arg"
    assert len(lines) == 1 + 7 * 51


def test_map_noise_is_seeded(tmp_path):
    small = NV_MAP.replace("b_points = 57", "b_points = 5").replace(
        "omega_points = 451", "omega_points = 41"
    )
    cfgp = write(tmp_path, "map.ini", small)
    o1, o2, o3 = (str(tmp_path / f"n{i}.csv") for i in range(3))
    cli.main(["map", "--config", cfgp, "--out", o1, "--noise", "0.01"])
    cli.main(["map", "--config", cfgp, "--out", o2, "--noise", "0.01"])
    cli.main(["map", "--config", cfgp, "--out", o3])
    assert Path(o1).read_bytes() == Path(o2).read_bytes()
    assert Path(o1).read_bytes() != Path(o3).read_bytes()
    seeded = write(tmp_path, "map2.ini", small + "seed = 9\n")
    o4 = str(tmp_path / "n4.csv")
    cli.main(["map", "--config", seeded, "--out", o4, "--noise", "0.01"])
    assert Path(o4).read_bytes() != Path(o1).read_bytes()


def test_map_zero_density_is_field_independent(tmp_path):
    text = NV_MAP.replace("density_ppm = 10", "density_ppm = 0").replace(
        "g_ens_mhz = 11.5", ""
    ).replace("b_points = 57", "b_points = 5").replace("omega_points = 451",
                                                       "omega_points = 41")
    cfgp = write(tmp_path, "bare.ini", text)
    out = str(tmp_path / "bare.csv")
    assert cli.main(["map", "--config", cfgp, "--out", out]) == 0
    data = np.array(
        [ln.split(",") for ln in Path(out).read_text().strip().split("\n")[1:]], dtype=float
    )
    mags = data[:, 2].reshape(5, 41)
    assert np.allclose(mags, mags[0], rtol=1e-9)


# ---------------------------------------------------------------- budget


def parse_report(text):
    out = {}
    for line in text.strip().split("\n"):
        if line.startswith("#") or "=" not in line:
            continue
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def test_budget_matches_direct_computation(tmp_path, capsys):
    cfgp = write(tmp_path, "b.ini", NV_MAP)
    assert cli.main(["budget", "--config", cfgp]) == 0
    got = parse_report(capsys.readouterr().out)
    ref = ex.coupling_budget(
        density_ppm=10.0, volume_mm3=ex.SAMPLE1_VOLUME_MM3,
        orientation_fraction=0.5, nuclear_fraction=1.0,
    )
    assert np.isclose(float(got["brms_pt"]), ref["brms_pt"], rtol=1e-5)
    assert np.isclose(float(got["g_single_hz"]), ref["g_single_hz"], rtol=1e-5)
    assert np.isclose(float(got["n_spins"]), ref["n_spins"], rtol=1e-5)
    assert np.isclose(float(got["g_ens_mhz"]), ref["g_ens_mhz"], rtol=1e-5)


def test_budget_doubling_density_scales_sqrt2(tmp_path, capsys):
    c1 = write(tmp_path, "b1.ini", NV_MAP)
    c2 = write(tmp_path, "b2.ini", NV_MAP.replace("density_ppm = 10", "density_ppm = 20"))
    cli.main(["budget", "--config", c1])
    g1 = float(parse_report(capsys.readouterr().out)["g_ens_mhz"])
    cli.main(["budget", "--config", c2])
    g2 = float(parse_report(capsys.readouterr().out)["g_ens_mhz"])
    assert np.isclose(g2 / g1, np.sqrt(2.0), rtol=1e-5)


# ---------------------------------------------------------------- fits


def test_fit_avoided_crossing_synthetic(tmp_path, capsys):
    cfgp = write(tmp_path, "map.ini", NV_MAP)
    assert cli.main(["fit", "--config", cfgp]) == 0
    got = parse_report(capsys.readouterr().out)
    assert got["converged"] == "true"
    assert abs(float(got["g_ens_mhz"]) - 11.5) / 11.5 < 0.03
    assert abs(float(got["b_star_mt"]) - 76.49) < 0.2


@pytest.mark.parametrize("kind, title, keys", [
    ("avoided_crossing", "# avoided-crossing fit",
     ["g_ens_mhz", "omega_r_mhz", "b_star_mt", "slope_mhz_per_mt"]),
    ("lorentzian", "# lorentzian fit",
     ["center_mhz", "fwhm_mhz", "amplitude", "baseline", "q_loaded", "q_ext", "q_int"]),
    ("fano", "# fano fit", ["center_mhz", "width_mhz", "q_asym", "amplitude", "baseline"]),
])
def test_fit_report_keys_in_order(tmp_path, capsys, kind, title, keys):
    cfgp = write(tmp_path, "map.ini", NV_MAP)
    assert cli.main(["fit", "--config", cfgp, "--kind", kind]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == title
    assert lines[1].startswith("# residual rms ")
    got = [ln.split(" = ")[0] for ln in lines[2:]]
    assert got == keys + ["residual_rms", "converged", "iterations"]


def test_fit_from_csv_matches_synthetic(tmp_path, capsys):
    cfgp = write(tmp_path, "map.ini", NV_MAP)
    mapcsv = str(tmp_path / "map.csv")
    cli.main(["map", "--config", cfgp, "--out", mapcsv])
    cli.main(["fit", "--config", cfgp])
    g_syn = float(parse_report(capsys.readouterr().out)["g_ens_mhz"])
    assert cli.main(["fit", "--config", cfgp, "--in", mapcsv]) == 0
    g_csv = float(parse_report(capsys.readouterr().out)["g_ens_mhz"])
    # CSV stores 10 significant digits, so the round trip is near-exact
    assert abs(g_csv - g_syn) / g_syn < 1e-6


def test_fit_lorentzian_from_ideal_trace(tmp_path, capsys):
    q_ext, q_int = 3500.0, 1300.0
    grid, mag = ex.lorentzian_q_trace(5390.0, q_int, q_ext)
    rows = ["f_MHz,S21_mag"] + [f"{f:.10g},{m:.10g}" for f, m in zip(grid, mag)]
    trace = write(tmp_path, "trace.csv", "\n".join(rows) + "\n")
    cfgp = write(tmp_path, "cfg.ini", NV_MAP)
    assert cli.main(["fit", "--config", cfgp, "--kind", "lorentzian", "--in", trace]) == 0
    got = parse_report(capsys.readouterr().out)
    q_l = 1.0 / (1.0 / q_int + 1.0 / q_ext)
    assert abs(float(got["q_loaded"]) - q_l) / q_l < 0.01
    assert abs(float(got["q_ext"]) - q_ext) / q_ext < 0.01
    assert abs(float(got["q_int"]) - q_int) / q_int < 0.01


def test_fit_fano_of_a_symmetric_trace_reports_a_large_q(tmp_path, capsys):
    grid, mag = ex.lorentzian_q_trace(5390.0, 1300.0, 3500.0)
    rows = ["f_MHz,S21_mag"] + [f"{f:.10g},{m:.10g}" for f, m in zip(grid, mag)]
    trace = write(tmp_path, "trace.csv", "\n".join(rows) + "\n")
    cfgp = write(tmp_path, "cfg.ini", NV_MAP)
    assert cli.main(["fit", "--config", cfgp, "--kind", "fano", "--in", trace]) == 0
    q_asym = float(parse_report(capsys.readouterr().out)["q_asym"])  # "inf" when theta is 0
    assert abs(q_asym) > 50.0


@given(st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**6, 10**6))
@example(-0.0)
@example(5e-324)
@example(2.2250738585072014e-308)
def test_csv_number_format_matches_the_format_spec(x):
    # '%.10g', the CSV writer's number contract and its oracle, is f"{x:.10g}"
    assert "%.10g" % x == f"{x:.10g}"


def _g10_texts(values):
    """The whole-array formatter's text of each value, read down its planes."""
    (planes,) = sio._format_g10(np.array(values, dtype=float))
    return [text.tobytes().replace(b"\0", b"").decode() for text in planes.T]


def _decimal(d, p, step):
    """The float nearest the decimal d*10**p, or its neighbour in direction step."""
    x = float(f"{d}e{p}")
    return float(np.nextafter(x, step * np.inf)) if step else x


_ULP_STEPS = st.sampled_from([-1, 0, 1])
_FORMAT_VALUES = st.one_of(
    st.floats(width=64),
    st.integers(-10**12, 10**12).map(float),
    # 11-digit decimals ending in 5: ties of the 10-digit rounding
    st.builds(_decimal, st.integers(10**9, 10**10 - 1).map(lambda k: 10 * k + 5),
              st.integers(-330, 300), _ULP_STEPS),
    st.builds(_decimal, st.just(1), st.integers(-310, 308), _ULP_STEPS),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, np.inf, np.nan]),
)


@given(st.lists(st.tuples(_FORMAT_VALUES, st.booleans()), min_size=1, max_size=40))
@example([(0.12345678905, False), (9999999999.5, False), (1e-4, True), (5e-324, False),
          (0.0, True), (np.inf, True), (np.nan, False), (1e10, False), (1e-289, True),
          (1.7976931348623157e308, True)])
@settings(max_examples=400, deadline=None)
def test_format_g10_matches_percent_format(drawn):
    values = [-x if negate else x for x, negate in drawn]
    assert _g10_texts(values) == ["%.10g" % x for x in values]


def test_format_g10_on_bulk_near_ties_and_grids():
    # every exponent, each with many exact and near ties in one array, and the
    # powers of ten from 1e-310 to 1e308 with their three nearest floats either way
    rng = np.random.default_rng(2024)
    digits = 10 * rng.integers(10**9, 10**10, 8000) + 5
    ties = np.array([float(f"{d}e{p}") for d, p in zip(digits, rng.integers(-330, 300, 8000))])
    below = above = np.array([float(f"1e{k}") for k in range(-310, 309)])
    edges = [below]
    for _ in range(3):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        edges += [below, above]
    values = np.concatenate([
        *edges, [9999999999.7, 9999999999.4, 0.000099999999995, 0.00009999999999],
        ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf), -ties,
        rng.uniform(-1.0, 1.0, 20000) * 10.0 ** rng.uniform(-6, 12, 20000),
        rng.uniform(-1.0, 1.0, 20000) * 10.0 ** rng.uniform(-320, 308, 20000),
        np.linspace(60.0, 90.0, 1001), np.linspace(5300.0, 5500.0, 2001), np.arange(-50.0, 50.0),
    ])
    assert _g10_texts(values) == ["%.10g" % x for x in values]


def test_format_g10_shapes():
    # the axes of the map are formatted once and broadcast: (width,) + shape,
    # each array with the planes its own values use
    assert [p.shape for p in sio._format_g10(np.zeros((3, 1)))] == [(1, 3, 1)]
    assert [p.shape for p in sio._format_g10(np.array([]))] == [(0, 0)]
    assert sio._format_g10([[1.5, -2.0]])[0].shape[1:] == (1, 2)
    assert [p.shape for p in sio._format_g10(np.zeros(2), [-1.5], [])] == [(1, 2), (4, 1), (0, 0)]


def test_fit_malformed_csv_exits_4(tmp_path, capsys):
    cfgp = write(tmp_path, "cfg.ini", NV_MAP)
    bad = write(tmp_path, "bad.csv", "f_MHz,S21_mag\n5390.0,0.5\n5391.0\n")
    assert cli.main(["fit", "--config", cfgp, "--kind", "lorentzian", "--in", bad]) == 4
    assert "line 3" in capsys.readouterr().err
    worse = write(tmp_path, "worse.csv", "f_MHz,S21_mag\n5390.0,half\n")
    assert cli.main(["fit", "--config", cfgp, "--kind", "lorentzian", "--in", worse]) == 4
    assert "line 2" in capsys.readouterr().err
    wrong = write(tmp_path, "wrong.csv", "volts,amps\n1,2\n")
    assert cli.main(["fit", "--config", cfgp, "--kind", "lorentzian", "--in", wrong]) == 4


def _map_csv(b_values, f_values):
    rows = [f"{b},{f},0.5,0.0" for b in b_values for f in f_values]
    return "B_mT,f_MHz,S21_mag,S21_arg\n" + "\n".join(rows) + "\n"


def _spoilt_csv(kind, line, column, value):
    """A clean `fit --kind kind --in` CSV (a Lorentzian trace, or the NV map)
    with one field of one line replaced."""
    if kind == "avoided_crossing":
        smap = ex.nv_anticrossing_map()
        b, f = np.meshgrid(smap.b_axis, smap.omega_axis, indexing="ij")
        header = "B_mT,f_MHz,S21_mag,S21_arg"
        columns = (b, f, np.abs(smap.values), np.angle(smap.values))
    else:
        header, columns = "f_MHz,S21_mag", ex.lorentzian_q_trace(5390.0, 1300.0, 3500.0)
    rows = [[f"{x:.10g}" for x in row] for row in zip(*(np.ravel(c) for c in columns))]
    rows[line - 2][column] = value
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


@pytest.mark.parametrize(
    "kind, text, reason",
    [
        ("lorentzian", "f_MHz,S21_mag\n5389.0,0.2\n5390.0,-0.1\n5391.0,0.2\n",
         "line 3: negative S21_mag"),
        ("avoided_crossing", _map_csv((70.0, 71.0), (5390.0, 5390.0, 5389.0)),
         "omega_axis must be strictly monotone"),
        ("avoided_crossing", _map_csv((70.0, 72.0, 71.0), (5389.0, 5390.0)),
         "b_axis must be strictly monotone"),
        ("lorentzian", _spoilt_csv("lorentzian", 1000, 1, "nan"), "line 1000: non-finite field"),
        ("fano", _spoilt_csv("fano", 1000, 1, "nan"), "line 1000: non-finite field"),
        ("avoided_crossing", _spoilt_csv("avoided_crossing", 700, 2, "inf"),
         "line 700: non-finite field"),
        ("avoided_crossing", _spoilt_csv("avoided_crossing", 700, 2, "-0.5"),
         "line 700: negative S21_mag"),
        ("lorentzian", "f_MHz,S21_mag\n5389.0,0.2\n\n5390.0,inf\n5391.0,0.2\n",
         "line 4: non-finite field"),
        ("avoided_crossing", "B_mT,f_MHz,S21_mag,S21_arg\n70.0,5389.0,0.5,0.0\n\n"
         "70.0,5390.0,-0.5,0.0\n71.0,5389.0,0.5,0.0\n71.0,5390.0,0.5,0.0\n",
         "line 4: negative S21_mag"),
        ("avoided_crossing", "B_mT,f_MHz,S21_mag,S21_arg\n70.0,5389.0,0.5,0.0\n"
         "70.0,5390.0,0.5,0.0\n\n71.0,5389.5,0.5,0.0\n71.0,5390.0,0.5,0.0\n",
         "line 5: inconsistent grid block"),
        ("lorentzian", "f_MHz,S21_mag\n5389.0,0.2,\n5390.0,0.3,\n",
         "line 2: expected 2 fields, got 3"),
        ("lorentzian", "f_MHz,S21_mag\n5389.0,0.2\n#5390.0,0.3\n", "line 3: non-numeric field"),
        ("lorentzian", "f_MHz,S21_mag\n5389.0,#0.2\n", "line 2: non-numeric field"),
        ("lorentzian", "f_MHz,S21_mag\n5389.0\n5390.0\n5391.0\n",
         "line 2: expected 2 fields, got 1"),
        ("avoided_crossing", "B_mT,f_MHz,S21_mag,S21_arg\n70.0,5389.0,0.5\n70.0,5390.0,0.5\n",
         "line 2: expected 4 fields, got 3"),
        ("lorentzian", "f_MHz,S21_mag\n", "no data rows"),
        ("lorentzian", "f_MHz,S21_mag\n\n\n", "no data rows"),
        ("lorentzian", "f_MHz,S21_mag\n \n\t\n", "no data rows"),
        ("lorentzian", "f_MHz,S21_mag\n5389.0,0.2\n  \n5390.0,half\n",
         "line 4: non-numeric field"),
        ("lorentzian", "f_MHz,S21_mag\n5_389.0,0.2\n5390.0,nan\n", "line 3: non-finite field"),
        ("avoided_crossing", "B_mT,f_MHz,S21_mag\n1,5,0.5\n1,6,0.5\n2,5,0.5\n",
         "map is not rectangular"),
        ("avoided_crossing",
         "B_mT,f_MHz,S21_mag\n1,5,0.5\n1,6,0.5\n2,5,0.5\n2,6,0.5\n1,5,0.5\n1,6,0.5\n",
         "b_axis must be strictly monotone"),
        ("avoided_crossing", "B_mT,f_MHz,S21_mag\n1,5,0.5\n2,5,0.5\n2,6,0.5\n3,5,0.5\n",
         "line 4: inconsistent grid block"),
        ("avoided_crossing", "B_mT,f_MHz,S21_mag\n1,5,0.5\n2,5,0.5\n1,6,0.5\n2,6,0.5\n",
         "line 4: inconsistent grid block"),
    ],
    ids=["negative_magnitude", "repeated_frequencies", "unordered_field_blocks",
         "nan_in_trace_lorentzian", "nan_in_trace_fano", "inf_in_map", "negative_map_magnitude",
         "inf_after_a_blank_line", "negative_map_magnitude_after_a_blank_line",
         "inconsistent_block_after_a_blank_line", "trailing_comma", "hash_led_line",
         "hash_led_field", "rows_one_field_short", "map_rows_one_field_short", "header_only",
         "header_and_empty_lines", "header_and_whitespace_lines",
         "non_numeric_after_a_whitespace_line", "nan_after_an_underscored_number",
         "non_rectangular_map", "field_block_repeated", "block_longer_than_the_first",
         "frequency_major_order"],
)
def test_fit_in_rejected_data_exits_4(tmp_path, capsys, kind, text, reason):
    cfgp = write(tmp_path, "cfg.ini", NV_MAP)
    path = write(tmp_path, "in.csv", text)
    assert cli.main(["fit", "--config", cfgp, "--kind", kind, "--in", path]) == 4
    assert capsys.readouterr().err == f"data error: {path}: {reason}\n"


def _trace_text():
    grid, mag = ex.lorentzian_q_trace(5390.0, 1300.0, 3500.0)
    return "f_MHz,S21_mag\n" + "".join(f"{f:.10g},{m:.10g}\n" for f, m in zip(grid, mag))


def _respell_line(text, line, respell):
    lines = text.split("\n")
    lines[line - 1] = respell(lines[line - 1])
    return "\n".join(lines)


FULL_WIDTH_DIGITS = str.maketrans("0123456789", "".join(chr(0xFF10 + d) for d in range(10)))


@pytest.mark.parametrize(
    "respell",
    [
        lambda text: _respell_line(text, 10, lambda ln: ln + "\n  \t"),
        lambda text: _respell_line(text, 10, lambda ln: ln[0] + "_" + ln[1:]),
        lambda text: _respell_line(text, 10, lambda ln: ln.translate(FULL_WIDTH_DIGITS)),
        lambda text: text.replace("\n", "\r\n"),
        lambda text: _respell_line(text, 10, lambda ln: " " + ln.replace(",", " , ") + "\t"),
    ],
    ids=["whitespace_only_line", "underscored_digits", "full_width_digits", "crlf_line_ends",
         "padded_fields"],
)
def test_fit_in_takes_every_number_float_takes(tmp_path, capsys, respell):
    # loadtxt rejects these spellings (or some of them); the CSV reader must
    # still read them as float() does, and fit the same numbers
    cfgp = write(tmp_path, "cfg.ini", NV_MAP)
    clean, spelt = tmp_path / "clean.csv", tmp_path / "spelt.csv"
    clean.write_bytes(_trace_text().encode())
    spelt.write_bytes(respell(_trace_text()).encode())
    assert spelt.read_bytes() != clean.read_bytes()
    argv = ["fit", "--config", cfgp, "--kind", "lorentzian", "--in"]
    assert cli.main(argv + [str(clean)]) == 0
    expected = capsys.readouterr()
    assert cli.main(argv + [str(spelt)]) == 0
    assert capsys.readouterr() == expected
    assert expected.err == ""


def _map_text_per_row(smap):
    """The map CSV written one '%.10g' row tuple at a time from the meshgrid columns."""
    b, f = np.meshgrid(smap.b_axis, smap.omega_axis, indexing="ij")
    columns = (b, f, np.abs(smap.values), np.angle(smap.values))
    rows = ["%.10g,%.10g,%.10g,%.10g" % row for row in zip(*(c.ravel() for c in columns))]
    return "\n".join(["B_mT,f_MHz,S21_mag,S21_arg"] + rows) + "\n"


@pytest.mark.parametrize("grid", ["nv_config", "1x3"])
def test_map_csv_matches_the_per_row_text(tmp_path, monkeypatch, grid):
    cfgp = str(ROOT / "configs" / "nv_10ppm_b110.ini")
    smap = sio._synthesize_map(cli.parse_config(Path(cfgp).read_text()), 0.0)
    if grid == "1x3":
        # a config grid has at least 2 field points, so this map is put in place;
        # its axis values need 11 to 14 significant digits each
        values = np.array([[complex(0.25, -0.0), complex(-0.5, 1e-17), complex(5e-324, 0.0)]])
        smap = sio.cavity_qed.SpectrumMap(
            [75.123456789012], [5389.0123456789, 5390.5, 5391.0 + 1.0 / 3.0], values
        )
        monkeypatch.setattr(sio, "_synthesize_map", lambda cfg, noise: smap)
    out = tmp_path / "map.csv"
    assert cli.main(["map", "--config", cfgp, "--out", str(out)]) == 0
    assert out.read_bytes() == _map_text_per_row(smap).encode()


def _csv_text_per_row(header, columns):
    """The CSV written one '%.10g' row tuple at a time."""
    rows = [",".join(["%.10g"] * len(columns)) % row for row in zip(*columns)]
    return "\n".join([header] + rows) + "\n"


def _shipped(name):
    cfgp = str(ROOT / "configs" / name)
    return cfgp, cli.parse_config(Path(cfgp).read_text())


@pytest.mark.parametrize("name, block", [
    pytest.param(name, block, id=name if block is None else f"{name}-block{block}")
    for block in (None, 1, 7, 500) for name in ("nv_10ppm_b110.ini", "p1_20ppm_b001.ini")
])
def test_levels_csv_matches_the_per_row_text(tmp_path, monkeypatch, name, block):
    # block: lines per written block, None the default
    if block is not None:
        monkeypatch.setattr(sio, "_BLOCK", block)
    cfgp, cfg = _shipped(name)
    _, _, direction, axis, _ = sio._spin_sweep(cfg, "levels")
    grid = sio._b_grid(cfg.sweep)
    curves = sio.spin_models.level_curve(cfg.sample.defect.lower(), direction, axis, grid)
    header = "B_mT," + ",".join(f"E{k}_MHz" for k in range(curves.energies.shape[1]))
    out = tmp_path / "levels.csv"
    assert cli.main(["levels", "--config", cfgp, "--out", str(out)]) == 0
    assert out.read_bytes() == _csv_text_per_row(header, (grid, *curves.energies.T)).encode()


@pytest.mark.parametrize("name, levels", [
    ("nv_10ppm_b110.ini", None), ("p1_20ppm_b001.ini", None),
    ("nv_10ppm_b110.ini", "0 4 8"), ("p1_20ppm_b001.ini", "5 0 3"),
])
def test_transitions_csv_matches_the_per_field_lines(tmp_path, name, levels):
    # one stacked transition_spectrum call gives the rows of one call per field
    cfgp, cfg = _shipped(name)
    if levels is not None:
        text = Path(cfgp).read_text().replace("[sample]", f"[sample]\ninitial_levels = {levels}")
        cfgp = write(tmp_path, name, text)
        cfg = cli.parse_config(text)
    sample = cfg.sample
    _, _, direction, axis, _ = sio._spin_sweep(cfg, "transitions")
    grid = sio._b_grid(cfg.sweep)
    sm = sio.spin_models
    eig = sm.eigensystem(sm._BUILDERS[sample.defect.lower()](grid[:, None] * direction, axis))
    rows = []
    for b, values, vectors in zip(grid, eig.values, eig.vectors):
        _, *columns = sm.transition_spectrum(sm.EigenSystem(values[None], vectors[None]),
                                             sample.initial_levels)
        rows += [(b, *line) for line in zip(*(c.tolist() for c in columns))]
    out = tmp_path / "transitions.csv"
    assert cli.main(["transitions", "--config", cfgp, "--out", str(out)]) == 0
    expected = _csv_text_per_row("B_mT,f_MHz,weight,from_level,to_level", list(zip(*rows)))
    assert out.read_bytes() == expected.encode()


def test_circuit_csv_matches_the_per_row_text(tmp_path, capsys):
    cfgp, cfg = _shipped("loop_gap.ini")
    grid, s21 = ex.loop_gap_trace(cfg.resonator.circuit)
    out = tmp_path / "trace.csv"
    assert cli.main(["circuit", "--config", cfgp, "--out", str(out)]) == 0
    expected = _csv_text_per_row("f_MHz,S21_mag,S21_arg", (grid, np.abs(s21), np.angle(s21)))
    assert out.read_bytes() == expected.encode()
    capsys.readouterr()


def _small_map(n_b, n_f):
    """A map whose axis values need up to 14 significant digits, with drawn S21."""
    rng = np.random.default_rng(100 * n_b + n_f)
    values = rng.normal(size=(n_b, n_f)) + 1j * rng.normal(size=(n_b, n_f))
    values[0, :2] = complex(0.0, -0.0), complex(5e-324, 1e-17)
    b_axis = 75.123456789012 + np.arange(n_b) / 3.0
    return sio.cavity_qed.SpectrumMap(b_axis, 5389.0123456789 + 0.7 * np.arange(n_f), values)


@pytest.mark.parametrize("block", [1, 7, 500])
@pytest.mark.parametrize("shape", [(40, 13), (9, 3), (1, 13)])
@pytest.mark.parametrize("to_stdout", [False, True])
def test_map_csv_in_blocks_matches_the_per_row_text(tmp_path, monkeypatch, capsys, block,
                                                    shape, to_stdout):
    # blocks of whole B rows, the last one short, with the (n, 1) B column and
    # the (m,) f column formatted in each block; to a file and to stdout
    monkeypatch.setattr(sio, "_BLOCK", block)
    smap = _small_map(*shape)
    monkeypatch.setattr(sio, "_synthesize_map", lambda cfg, noise: smap)
    out = tmp_path / "map.csv"
    argv = ["map", "--config", str(ROOT / "configs" / "nv_10ppm_b110.ini")]
    assert cli.main(argv + ([] if to_stdout else ["--out", str(out)])) == 0
    captured = capsys.readouterr()
    text = captured.out if to_stdout else out.read_bytes().decode()
    assert text == _map_text_per_row(smap)
    assert captured.err == ""


@pytest.mark.parametrize("block", [1, 7, 500])
def test_csv_columns_broadcast_in_blocks(tmp_path, monkeypatch, block):
    # a column shaped (1, m) holds one row for every block, as (m,) does
    monkeypatch.setattr(sio, "_BLOCK", block)
    b, f = np.arange(9.0)[:, None] / 7.0, np.linspace(-1.0, 1.0, 5)
    columns = (b, f[None, :], f, b * f + 1e-300)
    path = tmp_path / "grid.csv"
    sio._write_csv(str(path), "a,b,c,d", columns)
    expected = _csv_text_per_row("a,b,c,d", [c.ravel() for c in np.broadcast_arrays(*columns)])
    assert path.read_bytes() == expected.encode()


_SIGNED_FORMAT_VALUES = st.tuples(_FORMAT_VALUES, st.booleans()).map(
    lambda t: -t[0] if t[1] else t[0])


@st.composite
def _hard_columns(draw):
    """Columns shaped (n, 1), (m,), (1, m) and (n, m) of the formatter's hard values."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))

    def column(size):
        return np.array(draw(st.lists(_SIGNED_FORMAT_VALUES, min_size=size, max_size=size)))

    return column(n)[:, None], column(m), column(m)[None, :], column(n * m).reshape(n, m)


@given(_hard_columns())
@example((np.array([[-0.0], [np.inf], [9999999999.5]]), np.array([np.nan, 5e-324, 1e-5]),
          np.array([[0.12345678905, -1e10, 1e-289]]),
          np.array([[1e22, -2.2250738585072014e-308, 0.0], [1e-300, -np.inf, 123.0],
                    [-np.nan, 1.7976931348623157e308, 0.000099999999995]])))
@seed(20181017)
@settings(max_examples=50, deadline=None, database=None)
def test_csv_columns_of_hard_values_in_blocks(tmp_path_factory, columns):
    # near-ties, inf, nan, subnormals, exponent rows and -0.0 in broadcast
    # columns, written in blocks of 1, 7 and 500 lines
    path = tmp_path_factory.getbasetemp() / "hard_values.csv"
    rows = [c.ravel() for c in np.broadcast_arrays(*columns)]
    expected = _csv_text_per_row("a,b,c,d", rows).encode()
    for block in (1, 7, 500):
        with mock.patch.object(sio, "_BLOCK", block):
            sio._write_csv(str(path), "a,b,c,d", columns)
        assert path.read_bytes() == expected, f"block {block}"


@pytest.mark.parametrize("block", [1, 7, 500, None])
@pytest.mark.parametrize("to_stdout", [False, True])
def test_transitions_csv_with_no_lines_is_its_header(tmp_path, monkeypatch, capsys, block,
                                                      to_stdout):
    if block is not None:
        monkeypatch.setattr(sio, "_BLOCK", block)
    empty = (np.zeros(0, int), np.zeros(0), np.zeros(0), np.zeros(0, int), np.zeros(0, int))
    monkeypatch.setattr(sio.spin_models, "transition_spectrum", lambda eig, initial_levels: empty)
    out = tmp_path / "transitions.csv"
    argv = ["transitions", "--config", str(ROOT / "configs" / "nv_10ppm_b110.ini")]
    assert cli.main(argv + ([] if to_stdout else ["--out", str(out)])) == 0
    text = capsys.readouterr().out if to_stdout else out.read_bytes().decode()
    assert text == "B_mT,f_MHz,weight,from_level,to_level\n"


def test_csv_write_and_read_memory_is_bounded_by_the_block(tmp_path):
    # a 400 x 501 map (200,400 lines, 8.9 MB); tracemalloc sees numpy's buffers
    rng = np.random.default_rng(15)
    columns = (np.linspace(180.0, 200.0, 400)[:, None], np.linspace(5300.0, 5500.0, 501),
               rng.random((400, 501)), rng.uniform(-np.pi, np.pi, (400, 501)))
    path = str(tmp_path / "map.csv")
    tracemalloc.start()
    try:
        sio._write_csv(path, "B_mT,f_MHz,S21_mag,S21_arg", columns)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        data = sio._read_csv(path, ("B_mT", "f_MHz", "S21_mag"))
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert os.path.getsize(path) > 8_000_000
    assert data.shape == (400 * 501, 4)
    assert write_peak < 8_000_000
    assert read_peak < data.nbytes + 4_000_000


def test_shipped_configs_and_canonical_maps_start_no_thread(tmp_path, monkeypatch):
    # their sweeps (57 and 105 fields) and map windows (57 and 45 fields) are
    # far below the two slices from which eigensystem splits a stack
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(sm, "_usable_cpus", lambda: 64)
    monkeypatch.setattr(sm.threading, "Thread", no_thread)
    for name in ("nv_10ppm_b110.ini", "p1_20ppm_b001.ini"):
        for command in ("levels", "transitions", "map"):
            out = str(tmp_path / f"{command}.csv")
            assert cli.main([command, "--config", str(ROOT / "configs" / name), "--out", out]) == 0
    assert ex.nv_anticrossing_map().values.shape == (57, 541)
    for line in range(3):
        assert ex.p1_anticrossing_map(line, 8.8).values.shape == (45, 481)


def test_map_from_csv_builds_the_complex_map_in_place(tmp_path):
    # a 400 x 501 map: the parsed (n, 4) array and the complex map, with no
    # second complex temporary (mag * np.exp(1j * arg) peaked at 13.03 MB)
    rng = np.random.default_rng(28)
    columns = (np.linspace(180.0, 200.0, 400)[:, None], np.linspace(5300.0, 5500.0, 501),
               rng.random((400, 501)), rng.uniform(-np.pi, np.pi, (400, 501)))
    path = str(tmp_path / "map.csv")
    sio._write_csv(path, "B_mT,f_MHz,S21_mag,S21_arg", columns)
    tracemalloc.start()
    try:
        smap = sio._map_from_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid = sio._read_csv(path, ("B_mT", "f_MHz", "S21_mag")).reshape(400, 501, 4)
    assert smap.values.tobytes() == (grid[:, :, 2] * np.exp(1j * grid[:, :, 3])).tobytes()
    assert peak < grid.nbytes + smap.values.nbytes + 1_000_000


def _read_csv_from_lines(path, expected_header):
    """The CSV reader as it was before it streamed: the whole file as a list of
    lines, then one loadtxt call over them, with the float() walk as fallback;
    then the finite check and the negative S21_mag check, each naming its line."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise cli.CsvError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if header[: len(expected_header)] != list(expected_header):
        raise cli.CsvError(
            f"{path}: line 1: expected header starting with {','.join(expected_header)}"
        )
    data = None
    try:
        if any(lines[1:]):
            data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        pass
    if data is None or data.shape[1] != len(header):
        rows = []
        for n, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise cli.CsvError(
                    f"{path}: line {n}: expected {len(header)} fields, got {len(parts)}"
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                raise cli.CsvError(f"{path}: line {n}: non-numeric field")
        if not rows:
            raise cli.CsvError(f"{path}: no data rows")
        data = np.array(rows)
    numbered = [n for n, line in enumerate(lines[1:], start=2) if line.strip()]
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise cli.CsvError(f"{path}: line {numbered[bad[0]]}: non-finite field")
    negative = np.flatnonzero(data[:, expected_header.index("S21_mag")] < 0)
    if negative.size:
        raise cli.CsvError(f"{path}: line {numbered[negative[0]]}: negative S21_mag")
    return data


# \x0c and the other characters at which str.splitlines() ends a line, but
# which loadtxt reads as blanks around a field
_LINE_BREAKS_WITHIN = ["\x0c", "\x0b", "\x1c", "\x85", "\u2028"]
_PADDING = st.sampled_from(["", "", " ", "\t", *_LINE_BREAKS_WITHIN])
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    # spellings that only float() takes, and values the reader must refuse
    st.sampled_from(["1_0", " 5 ", "\uff15.\uff12", "\u0663", "nan", "-inf", "half", "", "0x1"]),
)
_FIELD = st.tuples(_PADDING, _NUMBER, _PADDING).map("".join)
_CSV_LINE = st.one_of(
    st.lists(_FIELD, min_size=2, max_size=2).map(",".join),
    st.lists(_FIELD, min_size=1, max_size=3).map(",".join),
    st.sampled_from(["", " ", " \t ", *_LINE_BREAKS_WITHIN]),
)


@st.composite
def _csv_texts(draw):
    header = draw(st.sampled_from(["f_MHz,S21_mag", " f_MHz , S21_mag", "f_MHz,S21_mag\x0c",
                                   "f_MHz,volts", ""]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join([header] + draw(st.lists(_CSV_LINE, max_size=8)))
    return text + end if draw(st.booleans()) else text


def _read_outcome(read, path):
    try:
        return read(path, ("f_MHz", "S21_mag"))
    except cli.CsvError as exc:
        return str(exc)


@given(_csv_texts(), st.sampled_from([1, 2, 3, 7, 1 << 14]))
@example("f_MHz,S21_mag\n5389.0,0.2\n5390.0,0.3\n", 1 << 14)
@example("f_MHz,S21_mag\r\n5389.0,0.2\r\n\r\n5390.0,nan", 1 << 14)
@example("f_MHz,S21_mag\n5389.0\x0c,0.2\n5390.0,0.3\n", 1 << 14)
@example("f_MHz,S21_mag\n5389.0,0.2\x0c\n5390.0,inf\n", 3)
@example("f_MHz,S21_mag\n1_0,0.2\n \n\uff15,0.3", 2)
@example("f_MHz,S21_mag\n", 1 << 14)
@example("f_MHz,S21_mag", 1)
@example("", 1)
@settings(max_examples=300, deadline=None)
def test_csv_reader_matches_the_line_list_reader(tmp_path_factory, text, block):
    path = str(tmp_path_factory.mktemp("oracle") / "in.csv")
    with open(path, "wb") as fh:
        fh.write(text.encode())
    expected = _read_outcome(_read_csv_from_lines, path)
    with mock.patch.object(sio, "_BLOCK", block):
        got = _read_outcome(sio._read_csv, path)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, expected)


@pytest.mark.parametrize("line", [1, 2, 3001])
def test_csv_that_is_not_utf8_exits_4(tmp_path, capsys, line):
    # a Latin-1 'µ' (byte 0xb5) as some instrument exports write it; line 3001
    # lies past the first block the reader takes.  Line 2 spells its number in
    # full-width digits: UTF-8 that is not ASCII, and that loadtxt refuses
    lines = [b"f_MHz,S21_mag"] + [b"%.1f,0.5" % (5000.0 + k) for k in range(3000)]
    lines[1] = "\uff15\uff10\uff10\uff10.0,0.5".encode()
    lines[line - 1] += b" \xb5"
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    cfgp = str(ROOT / "configs" / "loop_gap.ini")
    assert cli.main(["fit", "--kind", "lorentzian", "--config", cfgp, "--in", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"data error: {path}: line {line}: not UTF-8 text\n"


def test_map_csv_not_utf8_past_the_first_block_exits_4(tmp_path, capsys):
    # loadtxt parses the first block, then meets the byte while decoding a
    # later one: the line is found afresh, counted from the file's start
    cfgp = write(tmp_path, "cfg.ini", NV_MAP)
    path = tmp_path / "map.csv"
    assert cli.main(["map", "--config", cfgp, "--out", str(path)]) == 0
    lines = path.read_bytes().splitlines(keepends=True)
    offsets = np.cumsum([len(line) for line in lines])
    line = int(np.searchsorted(offsets, 40_000)) + 2  # the first line starting past 40 KB
    assert offsets[line - 2] >= 2 * sio._BLOCK
    lines[line - 1] = b"\xff" + lines[line - 1]
    path.write_bytes(b"".join(lines))
    assert cli.main(["fit", "--config", cfgp, "--in", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"data error: {path}: line {line}: not UTF-8 text\n"


def test_config_that_is_not_utf8_exits_4(tmp_path, capsys):
    text = NV_MAP.encode()
    path = tmp_path / "latin1.ini"
    path.write_bytes(text + b"# a 5 \xb5m film\n")
    assert cli.main(["levels", "--config", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: cannot read config: 'utf-8' codec can't decode byte 0xb5 in position "
        f"{len(text) + 6}: invalid start byte\n"
    )


def test_missing_files_exit_4(tmp_path, capsys):
    cfgp = write(tmp_path, "cfg.ini", NV_MAP)
    assert cli.main(["levels", "--config", str(tmp_path / "absent.ini")]) == 4
    assert cli.main(["fit", "--config", cfgp, "--in", str(tmp_path / "absent.csv")]) == 4
    capsys.readouterr()


@pytest.mark.parametrize("command, config", [
    ("levels", "nv_10ppm_b110.ini"),
    ("transitions", "nv_10ppm_b110.ini"),
    ("map", "nv_10ppm_b110.ini"),
    ("circuit", "loop_gap.ini"),
])
def test_out_in_a_missing_directory_exits_4(tmp_path, capsys, command, config):
    out = tmp_path / "absent" / "out.csv"
    assert cli.main([command, "--config", str(ROOT / "configs" / config), "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"i/o error: [Errno 2] No such file or directory: '{out}'\n"


def test_bad_config_exits_2(tmp_path, capsys):
    cfgp = write(tmp_path, "bad.ini", "[sample]\ndefect = NV\n")
    assert cli.main(["levels", "--config", cfgp]) == 2
    assert "config error" in capsys.readouterr().err
    # map without a resonator section is a config error too
    cfgp2 = write(tmp_path, "nores.ini", NV_MINIMAL)
    assert cli.main(["map", "--config", cfgp2]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["avoided_crossing", "lorentzian", "fano"])
@pytest.mark.parametrize("sigma", ["0", "0.002"])
def test_fit_in_rejects_noise(tmp_path, capsys, kind, sigma):
    # noise is added to synthesized data only; it used to be ignored next to --in
    cfgp = write(tmp_path, "map.ini", NV_MAP)
    data = str(tmp_path / "data.csv")
    command = "map" if kind == "avoided_crossing" else "circuit"
    cfg_data = cfgp if command == "map" else str(ROOT / "configs" / "loop_gap.ini")
    assert cli.main([command, "--config", cfg_data, "--out", data]) == 0
    capsys.readouterr()
    argv = ["fit", "--config", cfgp, "--kind", kind, "--in", data, "--noise", sigma]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error: --noise applies to synthesized data only; it cannot be used with --in\n"
    )


@pytest.mark.parametrize("kind", ["lorentzian", "fano"])
def test_noisy_synthesized_trace_is_seeded(capsys, kind):
    # the noise is drawn from [sweep] seed, so two runs print the same bytes
    argv = ["fit", "--config", str(ROOT / "configs" / "loop_gap.ini"), "--kind", kind]
    outs = []
    for extra in (["--noise", "0.01"], ["--noise", "0.01"], []):
        assert cli.main(argv + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] != outs[2]


def test_fit_without_repulsion_exits_3(tmp_path, capsys):
    bare = NV_MAP.replace("density_ppm = 10", "density_ppm = 0").replace(
        "g_ens_mhz = 11.5", ""
    )
    cfgp = write(tmp_path, "bare.ini", bare)
    assert cli.main(["fit", "--config", cfgp]) == 3
    assert "fit error" in capsys.readouterr().err


def _trace_peaked_on_repeated_frequencies(all_repeated):
    """A 50-row trace whose peak row shares its frequency with its neighbours
    (or with every row), so the starting half-maximum width is zero."""
    freqs = np.full(50, 5390.0) if all_repeated else np.linspace(5380.0, 5400.0, 50)
    freqs[20:30] = 5390.0
    mag = np.full(50, 0.01)
    mag[25] = 0.5
    return "f_MHz,S21_mag\n" + "".join(f"{f:.10g},{m:.10g}\n" for f, m in zip(freqs, mag))


@pytest.mark.parametrize("kind", ["lorentzian", "fano"])
@pytest.mark.parametrize("all_repeated", [True, False], ids=["all_rows", "rows_20_to_29"])
def test_fit_with_a_model_not_finite_at_the_start_exits_3(tmp_path, capsys, kind, all_repeated):
    # used to report converged = true with a nan rms (fano), or to end in a
    # traceback from extract_qs (lorentzian)
    cfgp = write(tmp_path, "cfg.ini", NV_MAP)
    trace = write(tmp_path, "trace.csv", _trace_peaked_on_repeated_frequencies(all_repeated))
    assert cli.main(["fit", "--config", cfgp, "--kind", kind, "--in", trace]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fit error: model is not finite at the start values\n"


def _trace_centred_below_zero():
    """A Lorentzian trace over -60..40 MHz centred at -10 MHz: its loaded Q is negative."""
    grid = np.linspace(-60.0, 40.0, 1001)
    mag = sio.fitting.lorentzian_model(grid, -10.0, 4.0, 0.4, 0.05)
    return "f_MHz,S21_mag\n" + "".join(f"{f:.10g},{m:.10g}\n" for f, m in zip(grid, mag))


@pytest.mark.parametrize("source", ["in_csv"])
def test_fit_lorentzian_centred_at_or_below_zero_exits_3(tmp_path, capsys, source):
    # used to end in a ValueError traceback from extract_qs, exit 1
    loop_gap = (ROOT / "configs" / "loop_gap.ini").read_text()
    argv = ["fit", "--kind", "lorentzian"]
    trace = write(tmp_path, "trace.csv", _trace_centred_below_zero())
    argv += ["--config", write(tmp_path, "cfg.ini", loop_gap), "--in", trace]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fit error: internal Q denominator not positive: Q_L = ")
    assert captured.err.count("\n") == 1


def test_fit_lorentzian_with_a_peak_of_1_or_more_and_a_loaded_q_below_0_exits_3(tmp_path, capsys):
    # a peak transmission of 1 or more skips extract_qs, whose Q_L test it used
    # to miss: the report said q_loaded = -2.5 and converged = true, exit 0
    grid = np.linspace(-60.0, 40.0, 1001)
    mag = sio.fitting.lorentzian_model(grid, -10.0, 4.0, 1.4, 0.05)
    trace = write(tmp_path, "trace.csv", "f_MHz,S21_mag\n"
                  + "".join(f"{f:.10g},{m:.10g}\n" for f, m in zip(grid, mag)))
    cfgp = str(ROOT / "configs" / "loop_gap.ini")
    out = tmp_path / "report.txt"
    argv = ["fit", "--kind", "lorentzian", "--config", cfgp, "--in", trace]
    assert cli.main(argv + ["--out", str(out)]) == 3
    assert not out.exists()
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fit error: loaded Q not positive: Q_L = -2.5\n" * 2


@pytest.mark.parametrize("r_ohm, exit_code", [(68.5, 0), (67.0, 2), (1e-6, 2)])
def test_circuit_trace_stays_above_0_mhz_or_the_config_exits_2(tmp_path, capsys, r_ohm, exit_code):
    # loop_gap_trace spans 8 loaded linewidths on either side of f0, so it
    # reaches 0 MHz once Q_L <= 8; r_ohm = 68.5 gives Q_L just above 8
    text = CIRCUIT_ONLY.replace("r_ohm = 11010", f"r_ohm = {r_ohm!r}")
    f0, *qs = cli.scalars.q_decomposition(cli.scalars.CircuitElements(0.25, 3.465, r_ohm))
    q_loaded = 1.0 / sum(1.0 / q for q in qs)
    assert (q_loaded > 8.0) == (exit_code == 0) and q_loaded < 8.1
    out = tmp_path / "trace.csv"
    assert cli.main(["circuit", "--config", write(tmp_path, "c.ini", text),
                     "--out", str(out)]) == exit_code
    captured = capsys.readouterr()
    if exit_code:
        assert not out.exists() and captured.out == ""
        assert captured.err == (f"config error: circuit elements in [resonator] have loaded Q "
                                f"{q_loaded:.6g}, not above 8: their trace would reach 0 MHz\n")
    else:
        f = np.loadtxt(out, delimiter=",", skiprows=1)[:, 0]
        assert len(f) == 1601 and 0.0 < f[0] < 0.02 * f0 and f[-1] < 2.0 * f0


# ---------------------------------------------------------------- circuit


def test_circuit_csv_and_q_report(tmp_path, capsys):
    cfgp = write(tmp_path, "circ.ini", CIRCUIT_ONLY)
    out = str(tmp_path / "trace.csv")
    assert cli.main(["circuit", "--config", cfgp, "--out", out]) == 0
    report = parse_report(capsys.readouterr().out)
    lines = Path(out).read_text().strip().split("\n")
    assert lines[0] == "f_MHz,S21_mag,S21_arg"
    assert len(lines) > 1000
    ref = __import__("spincavity.circuit_model", fromlist=["q_decomposition"])
    f0, q_int, q_e1, q_e2 = ref.q_decomposition(cli.parse_config(CIRCUIT_ONLY).resonator.circuit)
    assert np.isclose(float(report["omega_0_mhz"]), f0, rtol=1e-6)
    assert np.isclose(float(report["q_int"]), q_int, rtol=1e-6)


@pytest.mark.parametrize("command", ["budget", "map", "fit"])
def test_spin_commands_on_circuit_elements_run_their_decomposed_mode(tmp_path, capsys, command):
    # the same bytes as a config that states q_decomposition's mode
    f0, q_int, q_e1, q_e2 = cli.scalars.q_decomposition(
        cli.parse_config(NV_CIRCUIT).resonator.circuit)
    mode = f"omega_r_mhz = {f0!r}\nq_int = {q_int!r}\nq_ext1 = {q_e1!r}\nq_ext2 = {q_e2!r}\n"
    outs = []
    for name, text in (("circuit.ini", NV_CIRCUIT), ("mode.ini", NV_MAP.replace(NV_MAP_MODE, mode))):
        assert cli.main([command, "--config", write(tmp_path, name, text)]) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]
    assert outs[0].err == ""


def test_map_from_circuit_with_crosstalk_exits_2(tmp_path, capsys):
    text = NV_MAP.replace("omega_r_mhz = 5390.0", "").replace(
        "q_int = 1300",
        "l_nh = 0.25\nc_pf = 3.465\nr_ohm = 11010\ncc1_ff = 10\ncc2_ff = 10\ncx_ff = 1\n",
    ).replace("q_ext1 = 7000", "").replace("q_ext2 = 7000", "")
    cfgp = write(tmp_path, "ct.ini", text)
    assert cli.main(["map", "--config", cfgp]) == 2
    capsys.readouterr()


def run_python(*args, text=True):
    """A fresh interpreter with the package's source on its path, and stdout
    and stderr buffered as they are by default."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    ))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=text, timeout=120)


def test_module_entry_point_runs_without_warnings():
    proc = run_python("-m", "spincavity.sweep_cli", "config", "dump",
                      "--config", str(ROOT / "configs" / "loop_gap.ini"))
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert cli.parse_config(proc.stdout).resonator.circuit.l == 0.25


def test_import_loads_no_scipy():
    # scipy is a test dependency only: importing it would cost a cold command
    # most of its run time
    proc = run_python("-c", "import sys, spincavity; "
                      "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_crossing_solves_load_no_scipy_and_no_numpy_polynomial():
    # numpy.polynomial would cost each fresh interpreter that solves a crossing
    # about 4.5 ms and 0.8 MB; the solver takes its Chebyshev series by hand
    proc = run_python("-c", "import sys; from spincavity import experiments as ex; "
                      "ex.nv_crossing(); ex.p1_crossings(); "
                      "print(sorted(m for m in sys.modules "
                      "if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


_LAZY_PACKAGE = """
import sys
import spincavity
print("numpy" in sys.modules)
print(sorted(set(spincavity.__all__) & set(dir(spincavity))))
print(spincavity.fitting.fit_lorentzian.__module__)
names = {}
exec("from spincavity import *", names)
print(sorted(k for k, v in names.items() if getattr(v, "__name__", "") == "spincavity." + k))
"""


def test_package_import_loads_no_numpy_and_reaches_every_module():
    proc = run_python("-c", _LAZY_PACKAGE)
    assert proc.returncode == 0, proc.stderr
    six = str(["cavity_qed", "circuit_model", "experiments", "fitting", "spin_models", "sweep_cli"])
    assert proc.stdout.splitlines() == ["False", six, "spincavity.fitting", six]


def run_cli_fresh(*argv):
    """`python -m spincavity.sweep_cli *argv` with -X importtime: (process, the
    names of the modules it imported, its stderr without the import lines)."""
    proc = run_python("-X", "importtime", "-m", "spincavity.sweep_cli", *argv)
    timed = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    imported = {line.rsplit("|", 1)[1].strip() for line in timed}
    return proc, imported, [line for line in proc.stderr.splitlines() if line not in timed]


@pytest.mark.parametrize("argv", [
    *(["config", "dump", "--config", str(p)] for p in SHIPPED),
    *(["budget", "--config", str(p)] for p in SHIPPED if p.name != "loop_gap.ini"),
], ids=lambda argv: "-".join(argv[:-2] + [Path(argv[-1]).stem]))
def test_scalar_commands_run_without_numpy(capsys, argv):
    proc, imported, errors = run_cli_fresh(*argv)
    assert (proc.returncode, errors) == (0, [])
    assert "spincavity" in imported
    # records are built without dataclasses, which would load inspect
    assert not imported & {"numpy", "dataclasses", "inspect"}
    assert cli.main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


def test_help_and_config_errors_run_without_numpy(tmp_path):
    proc, imported, errors = run_cli_fresh("--help")
    assert (proc.returncode, errors) == (0, [])
    assert proc.stdout.startswith("usage: spincavity ")
    assert not imported & {"numpy", "dataclasses", "inspect"}
    cfgp = write(tmp_path, "bad.ini", NV_MAP.replace("density_ppm = 10", "density_ppm = nan"))
    proc, imported, errors = run_cli_fresh("budget", "--config", cfgp)
    assert proc.returncode == 2
    assert errors == ["config error: key 'density_ppm' in [sample] is not finite: 'nan'"]
    assert not imported & {"numpy", "dataclasses", "inspect"}


def test_no_package_module_imports_dataclasses():
    proc = run_python("-c", "import importlib, sys, spincavity\n"
                      "for name in ['scalars', 'sweep_io', *spincavity.__all__]:\n"
                      "    importlib.import_module('spincavity.' + name)\n"
                      "print(len([m for m in sys.modules if m.startswith('spincavity.')]), "
                      "'dataclasses' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "8 False\n"


def test_fits_load_no_numpy_ma(tmp_path):
    # numpy.ma is loaded by np.median; the fits take their medians from a partition
    cfgp = write(tmp_path, "cfg.ini", NV_MAP)
    out = tmp_path / "map.csv"
    assert cli.main(["map", "--config", cfgp, "--out", str(out)]) == 0
    for argv in (["fit"], ["fit", "--in", str(out)]):
        proc, imported, errors = run_cli_fresh(*argv, "--config", cfgp)
        assert (proc.returncode, errors) == (0, [])
        assert proc.stdout.startswith("# avoided-crossing fit")
        assert "numpy" in imported and "numpy.ma" not in imported


@pytest.mark.parametrize("argv, text, code, reason", [
    (["fit", "--in", "m.csv", "--noise", "0.1"], NV_MAP, 2,
     "config error: --noise applies to synthesized data only; it cannot be used with --in"),
    (["fit", "--in", "{tmp}/missing.csv"], NV_MAP, 4, "data error: cannot read "
     "{tmp}/missing.csv: [Errno 2] No such file or directory: '{tmp}/missing.csv'"),
    (["levels"], P1_COARSE, 2, f"config error: {COARSE_REASON}"),
    (["fit"], NV_NO_REPULSION, 3, None),
], ids=["noise-with-in", "missing-in", "coarse-grid", "fit-error"])
def test_array_command_errors_keep_their_exit_codes_under_m(tmp_path, argv, text, code, reason):
    # the errors are raised in sweep_io and mapped by sweep_cli running as
    # __main__, which sweep_io's import must not load a second time
    cfgp = write(tmp_path, "cfg.ini", text)
    proc, imported, errors = run_cli_fresh(*(a.format(tmp=tmp_path) for a in argv), "--config", cfgp)
    assert proc.returncode == code
    if reason is None:
        assert len(errors) == 1 and errors[0].startswith("fit error: ")
    else:
        assert errors == [reason.format(tmp=tmp_path)]
    assert "numpy" in imported and "spincavity.sweep_cli" not in imported


@pytest.mark.parametrize("argv, text, code", [
    (["map"], NV_MAP, 0),  # about 1 MB to stdout, through a pipe
    (["map", "--out", "{out}"], NV_MAP, 0),
    (["fit"], NV_MAP, 0),
    (["fit"], NV_NO_REPULSION, 3),
    (["map"], NV_MAP.replace("b_points = 57", "b_points = 1"), 2),
    (["fit", "--in", "{tmp}/bad.csv"], NV_MAP, 4),
    (["levels", "--bogus"], NV_MAP, 2),  # argparse's SystemExit
], ids=["map-stdout", "map-out", "fit", "fit-error", "config-error", "bad-csv", "usage"])
def test_process_entry_matches_main(tmp_path, capsys, argv, text, code):
    # the process entry ends without interpreter teardown: nothing it wrote may be lost
    cfgp = write(tmp_path, "cfg.ini", text)
    write(tmp_path, "bad.csv", "B_mT,f_MHz,S21_mag,S21_arg\n73.0,5390.0,half,0\n")

    def command(out):
        return [a.format(out=tmp_path / out, tmp=tmp_path) for a in argv] + ["--config", cfgp]

    proc = run_python("-m", "spincavity.sweep_cli", *command("entry.csv"), text=False)
    try:
        returned = cli.main(command("main.csv"))
    except SystemExit as exc:
        returned = exc.code
    out, err = capsys.readouterr()
    assert proc.returncode == returned == code
    assert proc.stdout == out.encode()
    assert proc.stderr.decode().splitlines()[-1:] == err.splitlines()[-1:]
    assert (code == 0) == (err == "")
    if "{out}" in argv:
        assert (tmp_path / "entry.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()
    if argv == ["map"] and code == 0:
        assert len(proc.stdout) > 900_000


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", [["budget"], ["map"]], ids=["at-exit-flush", "in-main"])
def test_output_stdout_does_not_take_is_an_io_error(tmp_path, argv):
    # writing to /dev/full fails with ENOSPC: budget's few lines wait in the
    # buffer until the process entry flushes it, map's megabyte fails in main
    cfgp = write(tmp_path, "cfg.ini", NV_MAP)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "spincavity.sweep_cli", *argv, "--config", cfgp],
                              cwd=ROOT, env=env, stdout=full, stderr=subprocess.PIPE, text=True,
                              timeout=120)
    assert proc.returncode == 4
    assert proc.stderr == "i/o error: [Errno 28] No space left on device\n"


def test_installed_script_runs_the_process_entry(tmp_path):
    text = (ROOT / "pyproject.toml").read_text()
    assert '\nspincavity = "spincavity.sweep_cli:run"\n' in text
    # a console script calls sys.exit(run()); run ends the process itself
    cfgp = write(tmp_path, "cfg.ini", NV_NO_REPULSION)
    script = "import sys; from spincavity.sweep_cli import run; sys.exit(run())"
    proc = run_python("-c", script, "fit", "--config", cfgp)
    assert proc.returncode == 3
    assert proc.stderr.startswith("fit error: ") and proc.stderr.count("\n") == 1
    proc = run_python("-c", script, "budget", "--config",
                      str(ROOT / "configs" / "p1_20ppm_b001.ini"))
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines()[-1].startswith("g_ens_mhz = ")


def test_config_dump_cli(tmp_path, capsys):
    cfgp = write(tmp_path, "cfg.ini", NV_MAP)
    assert cli.main(["config", "dump", "--config", cfgp]) == 0
    dumped = capsys.readouterr().out
    assert cli.parse_config(dumped) == cli.parse_config(NV_MAP)


def test_main_reuses_its_parser_and_looks_commands_up_when_they_run(tmp_path, monkeypatch):
    cfgp = write(tmp_path, "cfg.ini", NV_MAP)
    parser = cli._build_parser()
    ran = []
    monkeypatch.setattr(cli, "cmd_budget", lambda cfg, args: ran.append("budget") or 0)
    monkeypatch.setattr(sio, "cmd_levels", lambda cfg, args: ran.append("levels") or 0)
    assert cli.main(["budget", "--config", cfgp]) == 0
    assert cli.main(["levels", "--config", cfgp]) == 0
    assert ran == ["budget", "levels"]
    assert cli._build_parser() is parser
