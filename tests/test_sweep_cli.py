"""Config parsing, CSV emission, exit codes, and CLI round trips.

Every end-to-end case goes through main(argv) exactly as the installed
entry point would, with configs and data written to tmp_path.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spincavity import experiments as ex
from spincavity import sweep_cli as cli

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

CIRCUIT_ONLY = """
[resonator]
l_nh = 0.25
c_pf = 3.465
r_ohm = 11010
cc1_ff = 10
cc2_ff = 10
"""

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
])
def test_config_errors_exit_2_with_one_line_reason(tmp_path, capsys, command, text, reason):
    cfgp = write(tmp_path, "bad.ini", text)
    assert cli.main(command + ["--config", cfgp]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {reason}\n"


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


def test_defect_axis_picks_closest_bond():
    axis = cli._defect_axis(np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
    assert np.allclose(axis, np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0))
    axis = cli._defect_axis(np.array([0.0, 0.0, 1.0]))
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

    monkeypatch.setattr(cli.spin_models.np.linalg, "eigh", counted)
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


@given(st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**6, 10**6))
@example(-0.0)
@example(5e-324)
@example(2.2250738585072014e-308)
def test_csv_number_format_matches_the_format_spec(x):
    # the CSV writer formats rows with '%.10g'; CSV text stays that of f"{x:.10g}"
    assert "%.10g" % x == f"{x:.10g}"


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
         "magnitudes must be non-negative (linear scale)"),
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
    ],
    ids=["negative_magnitude", "repeated_frequencies", "unordered_field_blocks",
         "nan_in_trace_lorentzian", "nan_in_trace_fano", "inf_in_map", "negative_map_magnitude",
         "inf_after_a_blank_line", "negative_map_magnitude_after_a_blank_line",
         "inconsistent_block_after_a_blank_line", "trailing_comma", "hash_led_line",
         "hash_led_field", "rows_one_field_short", "map_rows_one_field_short", "header_only",
         "header_and_empty_lines", "header_and_whitespace_lines",
         "non_numeric_after_a_whitespace_line", "nan_after_an_underscored_number"],
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
    smap = cli._synthesize_map(cli.parse_config(Path(cfgp).read_text()), 0.0)
    if grid == "1x3":
        # a config grid has at least 2 field points, so this map is put in place;
        # its axis values need 11 to 14 significant digits each
        values = np.array([[complex(0.25, -0.0), complex(-0.5, 1e-17), complex(5e-324, 0.0)]])
        smap = cli.cavity_qed.SpectrumMap(
            [75.123456789012], [5389.0123456789, 5390.5, 5391.0 + 1.0 / 3.0], values
        )
        monkeypatch.setattr(cli, "_synthesize_map", lambda cfg, noise: smap)
    out = tmp_path / "map.csv"
    assert cli.main(["map", "--config", cfgp, "--out", str(out)]) == 0
    assert out.read_bytes() == _map_text_per_row(smap).encode()


def test_missing_files_exit_4(tmp_path, capsys):
    cfgp = write(tmp_path, "cfg.ini", NV_MAP)
    assert cli.main(["levels", "--config", str(tmp_path / "absent.ini")]) == 4
    assert cli.main(["fit", "--config", cfgp, "--in", str(tmp_path / "absent.csv")]) == 4
    capsys.readouterr()


def test_bad_config_exits_2(tmp_path, capsys):
    cfgp = write(tmp_path, "bad.ini", "[sample]\ndefect = NV\n")
    assert cli.main(["levels", "--config", cfgp]) == 2
    assert "config error" in capsys.readouterr().err
    # map without a resonator section is a config error too
    cfgp2 = write(tmp_path, "nores.ini", NV_MINIMAL)
    assert cli.main(["map", "--config", cfgp2]) == 2
    capsys.readouterr()


def test_fit_without_repulsion_exits_3(tmp_path, capsys):
    bare = NV_MAP.replace("density_ppm = 10", "density_ppm = 0").replace(
        "g_ens_mhz = 11.5", ""
    )
    cfgp = write(tmp_path, "bare.ini", bare)
    assert cli.main(["fit", "--config", cfgp]) == 3
    assert "fit error" in capsys.readouterr().err


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


def test_circuit_without_elements_exits_2(tmp_path, capsys):
    cfgp = write(tmp_path, "cfg.ini", NV_MINIMAL)
    assert cli.main(["circuit", "--config", cfgp]) == 2
    capsys.readouterr()


def test_map_from_circuit_with_crosstalk_exits_2(tmp_path, capsys):
    text = NV_MAP.replace("omega_r_mhz = 5390.0", "").replace(
        "q_int = 1300",
        "l_nh = 0.25\nc_pf = 3.465\nr_ohm = 11010\ncc1_ff = 10\ncc2_ff = 10\ncx_ff = 1\n",
    ).replace("q_ext1 = 7000", "").replace("q_ext2 = 7000", "")
    cfgp = write(tmp_path, "ct.ini", text)
    assert cli.main(["map", "--config", cfgp]) == 2
    capsys.readouterr()


def run_python(*args):
    """A fresh interpreter with the package's source on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    ))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


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


def test_config_dump_cli(tmp_path, capsys):
    cfgp = write(tmp_path, "cfg.ini", NV_MAP)
    assert cli.main(["config", "dump", "--config", cfgp]) == 0
    dumped = capsys.readouterr().out
    assert cli.parse_config(dumped) == cli.parse_config(NV_MAP)
