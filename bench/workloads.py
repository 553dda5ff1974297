"""The benchmark's three workloads: inputs, operations and their checks.

A workload builds its inputs from the seed (set-up), then lists operations.
Each operation calls the program and returns what it produced; its check
compares that against `reference` or against a property the method must
have, and returns the problems found (an empty list when it passes).

Paths are relative to the root of the checkout, which is the working
directory of every run.
"""

import configparser
import contextlib
import io
import os
import subprocess
import sys

import numpy as np

import reference as ref
from spincavity import experiments, fitting, spin_models, sweep_cli

CONFIGS = {
    "nv": "configs/nv_10ppm_b110.ini",
    "p1": "configs/p1_20ppm_b001.ini",
    "loop_gap": "configs/loop_gap.ini",
}
WORK_DIR = os.path.join("bench", "out")

# 10 significant digits, the precision of every CSV the CLI writes
REL_TOL = 1e-9
G_REL_TOL = 0.03        # avoided-crossing fit: g_ens within 3 %
B_STAR_TOL_MT = 0.1     # avoided-crossing fit: b_star within 0.1 mT
CROSSING_TOL_MT = 1e-3  # crossing_field bisects to a 1e-3 mT bracket
Q_EXT_REL_TOL = 0.05    # acceptance criterion 5
Q_LOADED_REL_TOL = 0.01

# the three P1 lines and the NV line of the shipped configs cross a 5390 MHz
# cavity inside these brackets (the same ones the program uses)
NV_BRACKET = (40.0, 110.0)
P1_BRACKET = (150.0, 230.0)
AXIS_111 = np.ones(3) / np.sqrt(3.0)

# option defaults as stated in the README's configuration tables
SAMPLE_DEFAULTS = {
    "volume_mm3": 4.95,
    "linewidth_mhz": 5.0,
    "orientation_fraction": 0.5,
    "filling_factor": 1.0,
    "transition_weight": 0.5,
    "initial_levels": "0",
}
NUCLEAR_FRACTION_DEFAULT = {"NV": 1.0, "P1": 1.0 / 3.0}
RESONATOR_DEFAULTS = {"q_int": 1300.0, "q_ext1": 7000.0, "q_ext2": 7000.0,
                      "mode_volume_mm3": 11.45, "cx_ff": 0.0, "z0_ohm": 50.0}

# operations that fail on every run until the program is mended; the value
# names the fault (see the README)
KNOWN_FAULTS = {
    "cli.fit_in.p1": "full-window P1 fit returns a wrong g_ens with converged = true",
    "cli.fit_lorentzian_in.loop_gap": "CLI fits a Lorentzian to |S21| instead of |S21|^2",
}


class Op:
    """One operation: `run()` calls the program, `check(out)` lists problems.

    CLI operations also carry their argv, so the same command can be run in a
    fresh interpreter, and the CSV files they write and read.
    """

    def __init__(self, name, run, check, argv=None):
        self.name = name
        self.run = run
        self.check = check
        self.argv = argv
        self.csv_out = None
        self.csv_in = None
        if argv is not None:
            if argv[0] in ("levels", "transitions", "map", "circuit") and "--out" in argv:
                self.csv_out = argv[argv.index("--out") + 1]
            if "--in" in argv:
                self.csv_in = argv[argv.index("--in") + 1]


class CliResult:
    def __init__(self, rc, stdout):
        self.rc = rc
        self.stdout = stdout


def run_cli_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = sweep_cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
    return CliResult(rc, out.getvalue())


def cli_env():
    """Environment of every interpreter the benchmark starts: src on the path,
    and bytecode caches written and used, as in a user's own checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_cli_fresh(argv):
    """The command as a shell user runs it: a new interpreter, src on the path.

    stderr is not checked: every command prints a RuntimeWarning there while
    the package imports sweep_cli from its __init__.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "spincavity.sweep_cli", *argv],
        env=cli_env(), capture_output=True, text=True, timeout=120,
    )
    return CliResult(proc.returncode, proc.stdout)


# ------------------------------------------------------------------ config


def read_ini(path):
    """The config as the benchmark reads it: section -> key -> raw string."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path) as fh:
        cp.read_string(fh.read())
    return {s: dict(cp.items(s)) for s in cp.sections()}


def defect_axis(direction):
    """The bond orientation best aligned with the field, first on ties."""
    bonds = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3.0)
    d = np.asarray(direction, dtype=float)
    cosines = np.round(np.abs(bonds @ (d / np.linalg.norm(d))), 12)
    return bonds[int(np.argmax(cosines))]


class SpinConfig:
    """The numbers of a shipped NV or P1 config that the references need."""

    def __init__(self, path):
        ini = read_ini(path)
        s = {**SAMPLE_DEFAULTS, **ini["sample"]}
        r = {**RESONATOR_DEFAULTS, **ini["resonator"]}
        w = ini["sweep"]
        self.defect = s["defect"].strip().upper()
        self.model = self.defect.lower()
        self.spin = ref.SPIN[self.model]
        self.direction = np.array([float(x) for x in s["field_direction"].split()])
        self.axis = defect_axis(self.direction)
        self.density_ppm = float(s["density_ppm"])
        self.volume_mm3 = float(s["volume_mm3"])
        self.linewidth = float(s["linewidth_mhz"])
        self.orientation_fraction = float(s["orientation_fraction"])
        self.nuclear_fraction = float(
            s.get("nuclear_fraction", NUCLEAR_FRACTION_DEFAULT[self.defect]))
        self.filling_factor = float(s["filling_factor"])
        self.transition_weight = float(s["transition_weight"])
        self.g_ens = float(s["g_ens_mhz"])
        self.initial_levels = tuple(int(x) for x in s["initial_levels"].split())
        self.omega_r = float(r["omega_r_mhz"])
        self.kappas = tuple(self.omega_r / float(r[k]) for k in ("q_int", "q_ext1", "q_ext2"))
        self.mode_volume = float(r["mode_volume_mm3"])
        self.b_grid = np.linspace(float(w["b_min_mt"]), float(w["b_max_mt"]), int(w["b_points"]))
        self.omega_grid = np.linspace(
            float(w["omega_min_mhz"]), float(w["omega_max_mhz"]), int(w["omega_points"]))

    def budget(self):
        return ref.coupling_budget(
            self.omega_r, self.mode_volume, self.density_ppm, self.volume_mm3,
            self.orientation_fraction, self.nuclear_fraction, self.filling_factor,
            self.transition_weight,
        )

    def crossings(self):
        if self.model == "nv":
            return [ref.crossing("nv", self.direction, self.axis, self.omega_r, NV_BRACKET)]
        return [ref.crossing("p1", self.direction, self.axis, self.omega_r, P1_BRACKET, j)
                for j in range(3)]

    def s21_map(self):
        freqs = ref.line_frequencies(self.model, self.direction, self.axis, self.b_grid)
        lines = np.stack(
            [freqs, np.full_like(freqs, self.linewidth), np.full_like(freqs, self.g_ens)], axis=2)
        return ref.cavity_s21(self.omega_grid, self.omega_r, *self.kappas, lines)


class CircuitConfig:
    def __init__(self, path):
        r = {**RESONATOR_DEFAULTS, **read_ini(path)["resonator"]}
        self.elements = tuple(float(r[k]) for k in ("l_nh", "c_pf", "r_ohm", "cc1_ff", "cc2_ff"))
        self.cx = float(r["cx_ff"])
        self.z0 = float(r["z0_ohm"])


def circuit_reference(l_nh, c_pf, r_ohm, cc1_ff, cc2_ff, cx_ff=0.0, z0=50.0, grid=None):
    """Closed-form f0 and Qs (of the network without crosstalk), the trace
    grid the program samples (16 loaded widths, 1601 points, centred on f0),
    the nodal S21 on `grid` (default that grid), and the combined external Q."""
    f0, q_int, q_e1, q_e2 = ref.loop_gap_closed_form(l_nh, c_pf, r_ohm, cc1_ff, cc2_ff, z0)
    width = f0 * (1.0 / q_int + 1.0 / q_e1 + 1.0 / q_e2)
    if grid is None:
        grid = np.linspace(f0 - 8.0 * width, f0 + 8.0 * width, 1601)
    s21 = ref.loop_gap_s21(grid, l_nh, c_pf, r_ohm, cc1_ff, cc2_ff, cx_ff, z0)
    return {
        "f0": f0, "q_int": q_int, "q_ext1": q_e1, "q_ext2": q_e2,
        "q_ext": 1.0 / (1.0 / q_e1 + 1.0 / q_e2),
        "grid": grid, "s21": s21,
        "half_power_width": ref.half_power_width(grid, np.abs(s21) ** 2),
    }


# ------------------------------------------------------------------ checks


def _close(got, want, rel=REL_TOL, floor=0.0):
    return np.abs(np.asarray(got) - np.asarray(want)) <= rel * np.abs(want) + floor


def check_levels(b, energies, ref_e, ref_trace, spin):
    """Tracked levels against the reference at every field.

    As a set they equal the reference eigenvalues, they sum to the trace of
    H, and between grid points no level moves faster than the largest
    Zeeman slope gamma_e S (Hellmann-Feynman: dE/dB = <v|gamma_e d.S|v>).
    """
    e = np.asarray(energies, dtype=float)
    if e.shape != ref_e.shape:
        return [f"levels have shape {e.shape}, reference {ref_e.shape}"]
    problems = []
    tol = REL_TOL * np.max(np.abs(ref_e), axis=1)
    err = np.max(np.abs(np.sort(e, axis=1) - ref_e), axis=1)
    if np.any(err > tol):
        i = int(np.argmax(err - tol))
        problems.append(f"levels at B = {b[i]:.6g} mT differ from the reference by {err[i]:.3g} MHz")
    trace_err = np.abs(e.sum(axis=1) - ref_trace)
    if np.any(trace_err > e.shape[1] * tol):
        i = int(np.argmax(trace_err))
        problems.append(f"level sum at B = {b[i]:.6g} mT misses tr H by {trace_err[i]:.3g} MHz")
    bound = ref.GAMMA_E * spin * np.abs(np.diff(b))[:, None] + 2.0 * tol[1:, None]
    if e.shape[0] > 1 and np.any(np.abs(np.diff(e, axis=0)) > bound):
        i = int(np.argmax(np.max(np.abs(np.diff(e, axis=0)) - bound, axis=1)))
        problems.append(f"a tracked level jumps faster than gamma_e S between "
                        f"{b[i]:.6g} and {b[i + 1]:.6g} mT")
    return problems


def _match_grid(values, grid, what):
    """Index of each printed value in the expected grid, or raise."""
    idx = np.clip(np.searchsorted(grid, values), 1, grid.size - 1)
    idx = np.where(np.abs(grid[idx - 1] - values) < np.abs(grid[idx] - values), idx - 1, idx)
    if not np.all(_close(values, grid[idx], floor=1e-12)):
        raise AssertionError(f"{what} column is off the configured grid")
    return idx


def read_csv(path, header):
    with open(path) as fh:
        first = fh.readline().strip()
    if first != header:
        raise AssertionError(f"{path}: header {first!r}, expected {header!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_levels_csv(path, cfg, refs):
    dim = 9 if cfg.model == "nv" else 6
    data = read_csv(path, "B_mT," + ",".join(f"E{k}_MHz" for k in range(dim)))
    if data.shape[0] != cfg.b_grid.size:
        return [f"{data.shape[0]} rows for {cfg.b_grid.size} fields"]
    if not np.all(_close(data[:, 0], cfg.b_grid, floor=1e-12)):
        return ["B column is off the configured grid"]
    ref_e, ref_trace = refs
    return check_levels(cfg.b_grid, data[:, 1:], ref_e, ref_trace, cfg.spin)


def check_transitions_csv(path, cfg, ref_e):
    """Every line is a reference level difference; the drive weights out of
    each initial level sum to at most S^2 (sum rule for the electron Sx)."""
    data = read_csv(path, "B_mT,f_MHz,weight,from_level,to_level")
    idx = _match_grid(data[:, 0], cfg.b_grid, "B")
    problems = []
    if np.unique(idx).size != cfg.b_grid.size:
        problems.append("some fields have no lines")
    lo, hi = data[:, 3].astype(int), data[:, 4].astype(int)
    if set(lo) - set(cfg.initial_levels):
        problems.append(f"lines start from levels {sorted(set(lo))}, configured {cfg.initial_levels}")
    want = np.abs(ref_e[idx, hi] - ref_e[idx, lo])
    scale = np.max(np.abs(ref_e), axis=1)[idx]
    err = np.abs(data[:, 1] - want)
    if np.any(err > REL_TOL * scale):
        k = int(np.argmax(err - REL_TOL * scale))
        problems.append(f"line at B = {data[k, 0]:.6g} mT, {lo[k]}->{hi[k]}: "
                        f"{data[k, 1]:.10g} MHz, reference {want[k]:.10g}")
    sums = {}
    for i, f, w in zip(idx, lo, data[:, 2]):
        sums[(i, f)] = sums.get((i, f), 0.0) + w
    worst = max(sums.values())
    if worst > cfg.spin**2 + 1e-9:
        problems.append(f"weights out of one level sum to {worst:.6g} > S^2 = {cfg.spin**2:g}")
    return problems


def check_s21_columns(mag, arg, want):
    """|S21| and arg S21 against the reference to 10 significant digits."""
    problems = []
    if np.any(mag > 1.0):
        problems.append(f"|S21| = {mag.max():.10g} > 1")
    bad = ~_close(mag, np.abs(want), floor=1e-15)
    if np.any(bad):
        k = int(np.argmax(bad))
        problems.append(f"|S21| row {k}: {mag[k]:.10g}, reference {np.abs(want[k]):.10g}")
    dphi = np.angle(np.exp(1j * (arg - np.angle(want))))
    bad = np.abs(dphi) > REL_TOL * np.abs(np.angle(want)) + 1e-10
    if np.any(bad):
        k = int(np.argmax(bad))
        problems.append(f"arg S21 row {k}: {arg[k]:.10g}, reference {np.angle(want[k]):.10g}")
    return problems


def check_map_csv(path, cfg, want):
    data = read_csv(path, "B_mT,f_MHz,S21_mag,S21_arg")
    n_b, n_w = cfg.b_grid.size, cfg.omega_grid.size
    if data.shape[0] != n_b * n_w:
        return [f"{data.shape[0]} rows for a {n_b} x {n_w} grid"]
    if not (np.all(_close(data[:, 0], np.repeat(cfg.b_grid, n_w), floor=1e-12))
            and np.all(_close(data[:, 1], np.tile(cfg.omega_grid, n_b)))):
        return ["B or f column is off the configured grid"]
    return check_s21_columns(data[:, 2], data[:, 3], want.ravel())


def parse_report(text):
    out = {}
    for line in text.splitlines():
        if "=" in line and not line.startswith("#"):
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


def check_crossings(found, b_refs):
    """Crossing fields within 1e-3 mT of the reference roots, in order."""
    if len(found) != len(b_refs):
        return [f"{len(found)} crossings, reference has {len(b_refs)}"]
    return [f"crossing {b:.6f} mT, reference {r:.6f}"
            for b, r in zip(found, b_refs) if abs(b - r) > CROSSING_TOL_MT]


def check_crossing_fit(g_fit, b_fit, converged, g_true, b_refs):
    problems = []
    if not converged:
        problems.append("fit did not converge")
    if abs(g_fit - g_true) > G_REL_TOL * g_true:
        problems.append(f"g_ens = {g_fit:.5g} MHz, synthesized with {g_true:.5g}")
    if min(abs(b_fit - b) for b in b_refs) > B_STAR_TOL_MT:
        problems.append(f"b_star = {b_fit:.5g} mT, reference crossings "
                        + "/".join(f"{b:.4f}" for b in b_refs))
    return problems


def check_cli_crossing_fit(res, g_true, b_refs):
    if res.rc != 0:
        return [f"exit code {res.rc}"]
    rep = parse_report(res.stdout)
    return check_crossing_fit(float(rep["g_ens_mhz"]), float(rep["b_star_mt"]),
                              rep["converged"] == "true", g_true, b_refs)


def check_power_lorentzian(q_loaded, q_ext, circ):
    """Q_ext within 5 % of the closed form, Q_L within 1 % of f0 over the
    half-power width of the reference trace."""
    problems = []
    if abs(q_ext - circ["q_ext"]) > Q_EXT_REL_TOL * circ["q_ext"]:
        problems.append(f"q_ext = {q_ext:.6g}, closed form {circ['q_ext']:.6g}")
    q_l = circ["f0"] / circ["half_power_width"]
    if abs(q_loaded - q_l) > Q_LOADED_REL_TOL * q_l:
        problems.append(f"q_loaded = {q_loaded:.6g}, f0 / half-power width {q_l:.6g}")
    return problems


# ------------------------------------------------------------------ workloads


def _cli(name, argv, check):
    return Op(name, lambda: run_cli_in_process(argv), check, argv)


def _out(name):
    return os.path.join(WORK_DIR, name)


def _exit_zero(check):
    def wrapped(res):
        return [f"exit code {res.rc}"] if res.rc != 0 else check(res)
    return wrapped


class Workload:
    """Inputs from a seed, the operations of one pass, and the commands run
    in fresh interpreters (by default the pass's CLI operations)."""

    name = None
    COLD_ROUNDS = 1

    def build_inputs(self, seed):
        raise NotImplementedError

    def operations(self, inp):
        raise NotImplementedError

    def cold_operations(self, ops):
        return [op for op in ops if op.argv is not None]


class FieldSweeps(Workload):
    """Long tracked sweeps and crossing solves; the spin model does the work."""

    name = "field_sweeps"
    COLD_ROUNDS = 3
    N_FIELDS = 1500
    N_DIRECTIONS = 3
    N_CAVITIES = 16

    def build_inputs(self, seed):
        rng = np.random.default_rng([seed, 101])
        dirs = rng.normal(size=(self.N_DIRECTIONS, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return {
            "directions": dirs,
            "nv_grid": np.linspace(0.0, 200.0, self.N_FIELDS) + rng.uniform(5.0, 15.0),
            "p1_grid": np.linspace(0.0, 300.0, self.N_FIELDS) + rng.uniform(5.0, 15.0),
            "nv_cavities": rng.uniform(5360.0, 5420.0, self.N_CAVITIES),
            "p1_cavities": rng.uniform(5360.0, 5420.0, self.N_CAVITIES),
        }

    def operations(self, inp):
        ops = []
        for model in ("nv", "p1"):
            grid = inp[f"{model}_grid"]
            for k, d in enumerate(inp["directions"]):
                levels, trace = ref.levels(model, d, AXIS_111, grid)
                ops.append(Op(
                    f"level_curve.{model}.{k}",
                    lambda model=model, d=d, grid=grid: spin_models.level_curve(
                        model, d, AXIS_111, grid),
                    lambda out, grid=grid, levels=levels, trace=trace, model=model: check_levels(
                        grid, out.energies, levels, trace, ref.SPIN[model]),
                ))
        for i, w in enumerate(inp["nv_cavities"]):
            b_ref = ref.crossing("nv", [1.0, 1.0, 0.0], AXIS_111, w, NV_BRACKET)
            ops.append(Op(
                f"nv_crossing.{i}",
                lambda w=w: experiments.nv_crossing(w),
                lambda b, b_ref=b_ref: check_crossings([b], [b_ref]),
            ))
        for i, w in enumerate(inp["p1_cavities"]):
            b_ref = [ref.crossing("p1", [0.0, 0.0, 1.0], AXIS_111, w, P1_BRACKET, j)
                     for j in range(3)]
            ops.append(Op(
                f"p1_crossings.{i}",
                lambda w=w: experiments.p1_crossings(w),
                lambda bs, b_ref=b_ref: check_crossings(bs, b_ref),
            ))
        for key in ("nv", "p1"):
            cfg = SpinConfig(CONFIGS[key])
            ref_e, _ = ref.levels(cfg.model, cfg.direction, cfg.axis, cfg.b_grid)
            path = _out(f"transitions_{key}.csv")
            ops.append(_cli(
                f"cli.transitions.{key}",
                ["transitions", "--config", CONFIGS[key], "--out", path],
                _exit_zero(lambda res, path=path, cfg=cfg, ref_e=ref_e:
                           check_transitions_csv(path, cfg, ref_e)),
            ))
        return ops


class CliFiles(Workload):
    """The CLI as a user drives it on the shipped configs; CSV I/O does the work."""

    name = "cli_files"
    COLD_ROUNDS = 2

    def build_inputs(self, seed):
        # the shipped configs are the inputs; the seed does not change them
        return {}

    def operations(self, inp):
        ops = []
        for key, path in CONFIGS.items():
            ops.append(_cli(f"cli.config_dump.{key}", ["config", "dump", "--config", path],
                            _exit_zero(lambda res, path=path: check_dump(res.stdout, path))))
        spin = {key: SpinConfig(CONFIGS[key]) for key in ("nv", "p1")}
        for key, cfg in spin.items():
            ops.append(_cli(f"cli.budget.{key}", ["budget", "--config", CONFIGS[key]],
                            _exit_zero(lambda res, cfg=cfg: check_budget(res.stdout, cfg))))
        for key, cfg in spin.items():
            refs = ref.levels(cfg.model, cfg.direction, cfg.axis, cfg.b_grid)
            path = _out(f"levels_{key}.csv")
            ops.append(_cli(f"cli.levels.{key}",
                            ["levels", "--config", CONFIGS[key], "--out", path],
                            _exit_zero(lambda res, p=path, c=cfg, r=refs:
                                       check_levels_csv(p, c, r))))
        for key, cfg in spin.items():
            want = cfg.s21_map()
            for threads in (1, 2):
                path = _out(f"map_{key}_t{threads}.csv")
                argv = ["map", "--config", CONFIGS[key], "--out", path]
                if threads > 1:
                    argv += ["--threads", str(threads)]
                ops.append(_cli(f"cli.map.{key}.t{threads}", argv,
                                _exit_zero(lambda res, p=path, c=cfg, w=want:
                                           check_map_csv(p, c, w))))
        for key, cfg in spin.items():
            b_refs = cfg.crossings()
            ops.append(_cli(
                f"cli.fit_in.{key}",
                ["fit", "--config", CONFIGS[key], "--in", _out(f"map_{key}_t1.csv")],
                lambda res, g=cfg.g_ens, b=b_refs: check_cli_crossing_fit(res, g, b),
            ))
        circ_cfg = CircuitConfig(CONFIGS["loop_gap"])
        circ = circuit_reference(*circ_cfg.elements, cx_ff=circ_cfg.cx, z0=circ_cfg.z0)
        trace = _out("trace_loop_gap.csv")
        ops.append(_cli("cli.circuit.loop_gap",
                        ["circuit", "--config", CONFIGS["loop_gap"], "--out", trace],
                        _exit_zero(lambda res: check_circuit(res.stdout, trace, circ))))
        ops.append(_cli(
            "cli.fit_lorentzian_in.loop_gap",
            ["fit", "--kind", "lorentzian", "--config", CONFIGS["loop_gap"], "--in", trace],
            _exit_zero(lambda res: check_cli_lorentzian(res.stdout, circ)),
        ))
        return ops


def check_dump(text, path):
    """The dump re-parses to an equal config: every key of the file comes back
    with an equal value, and the program parses both to equal objects."""
    original = read_ini(path)
    cp = configparser.ConfigParser()
    cp.read_string(text)
    dumped = {s: dict(cp.items(s)) for s in cp.sections()}
    problems = []
    for section, items in original.items():
        for key, raw in items.items():
            got = dumped.get(section, {}).get(key)
            if got is None:
                problems.append(f"[{section}] {key} missing from the dump")
            elif got.split() != raw.split() and not _same_number(got, raw):
                problems.append(f"[{section}] {key} = {got}, file has {raw}")
    with open(path) as fh:
        original_text = fh.read()
    if sweep_cli.parse_config(text) != sweep_cli.parse_config(original_text):
        problems.append("dump parses to a different config")
    return problems


def _same_number(a, b):
    try:
        return float(a) == float(b)
    except ValueError:
        return False


def check_budget(text, cfg):
    """Printed figures equal the reference chain rounded to the printed 6
    digits; unrounded, the program's chain matches it to 1e-9 relative."""
    want = cfg.budget()
    rep = parse_report(text)
    problems = [f"{k} = {rep.get(k)}, reference {v:.6g}"
                for k, v in want.items() if rep.get(k) != f"{v:.6g}"]
    got = experiments.coupling_budget(
        density_ppm=cfg.density_ppm, volume_mm3=cfg.volume_mm3,
        orientation_fraction=cfg.orientation_fraction,
        nuclear_fraction=cfg.nuclear_fraction, filling_factor=cfg.filling_factor,
        omega_r=cfg.omega_r, mode_volume_mm3=cfg.mode_volume,
        transition_weight=cfg.transition_weight,
    )
    problems += [f"{k} = {got[k]!r}, reference {v!r}" for k, v in want.items()
                 if not _close(got[k], v)]
    return problems


def check_circuit(stdout, path, circ):
    data = read_csv(path, "f_MHz,S21_mag,S21_arg")
    if data.shape[0] != circ["grid"].size or not np.all(_close(data[:, 0], circ["grid"])):
        return ["frequency column is not the 16-width grid around f0"]
    problems = check_s21_columns(data[:, 1], data[:, 2], circ["s21"])
    rep = parse_report(stdout)
    for key, want in (("omega_0_mhz", circ["f0"]), ("q_int", circ["q_int"]),
                      ("q_ext1", circ["q_ext1"]), ("q_ext2", circ["q_ext2"])):
        if key not in rep or not _close(float(rep[key]), want, rel=1e-7):
            problems.append(f"{key} = {rep.get(key)}, closed form {want:.8g}")
    return problems


def check_cli_lorentzian(stdout, circ):
    rep = parse_report(stdout)
    if "q_ext" not in rep:
        return ["no q_ext reported"]
    return check_power_lorentzian(float(rep["q_loaded"]), float(rep["q_ext"]), circ)


class Fits(Workload):
    """Avoided-crossing, Lorentzian and Fano fits on inputs built in set-up;
    the LM engine and the peak picker do the work."""

    name = "fits"
    COLD_ROUNDS = 5
    NOISE_FRACTION = 0.003  # magnitude noise sigma, share of max |S21|
    Q_EXT_RANGE = (85000.0, 3500.0)  # the external-Q span of resonator_q_sweep.py
    N_CC = 9

    def build_inputs(self, seed):
        rng = np.random.default_rng([seed, 303])
        g_nv = rng.uniform(11.5, 13.5, 3)
        g_p1 = rng.uniform(9.5, 11.5, 3)
        noise_seeds = rng.integers(0, 2**31, 6)
        maps = []
        for k, g in enumerate(g_nv):
            smap = experiments.nv_anticrossing_map(g_ens=g)
            maps.append((f"nv.{k}", "nv", 0, g, smap))
        for j, g in enumerate(g_p1):
            maps.append((f"p1.{j}", "p1", j, g, experiments.p1_anticrossing_map(j, g)))
        noisy = []
        for (name, model, line, g, smap), s in zip(maps, noise_seeds):
            sigma = self.NOISE_FRACTION * np.abs(smap.values).max()
            noisy.append((name + ".noisy", model, line, g,
                          experiments.add_magnitude_noise(smap, sigma, int(s))))
        traces = []
        for cc in np.linspace(*(experiments.cc_for_qext(q) for q in self.Q_EXT_RANGE), self.N_CC):
            grid, s21 = experiments.loop_gap_trace(experiments.loop_gap_elements(cc))
            traces.append((cc, grid, np.abs(s21) ** 2))
        return {"maps": maps + noisy, "traces": traces}

    def operations(self, inp):
        b_nv = [ref.crossing("nv", [1.0, 1.0, 0.0], AXIS_111, 5390.0, NV_BRACKET)]
        b_p1 = [ref.crossing("p1", [0.0, 0.0, 1.0], AXIS_111, 5390.0, P1_BRACKET, j)
                for j in range(3)]
        ops = []
        for name, model, line, g, smap in inp["maps"]:
            b_ref = b_nv if model == "nv" else [b_p1[line]]
            ops.append(Op(
                f"fit_avoided_crossing.{name}",
                lambda smap=smap: fitting.fit_avoided_crossing(smap),
                lambda r, g=g, b_ref=b_ref: check_crossing_fit(
                    r.params["g_ens"], r.params["b_star"], r.converged, g, b_ref),
            ))
        # the L, C, R of the shipped loop-gap config, which loop_gap_elements uses
        l_nh, c_pf, r_ohm = CircuitConfig(CONFIGS["loop_gap"]).elements[:3]
        lorentz = {}
        for i, (cc, grid, power) in enumerate(inp["traces"]):
            circ = circuit_reference(l_nh, c_pf, r_ohm, cc, cc, grid=grid)
            ops.append(Op(
                f"fit_lorentzian.cc{i}",
                lambda i=i, grid=grid, power=power: power_lorentzian(grid, power, lorentz, i),
                lambda out, circ=circ: (["fit did not converge"] if not out[0].converged else [])
                + check_power_lorentzian(out[1]["q_loaded"], out[1]["q_ext"], circ),
            ))
            ops.append(Op(
                f"fit_fano.cc{i}",
                lambda grid=grid, power=power: fitting.fit_fano(fitting.Spectrum1D(grid, power)),
                lambda r, i=i, circ=circ: check_fano(r, lorentz.get(i), circ),
            ))
        return ops

    def cold_operations(self, ops):
        """`fit` from the shell on the NV config, clean and with noise."""
        cfg = SpinConfig(CONFIGS["nv"])
        b_refs = cfg.crossings()
        return [
            _cli(f"cli.fit.nv{suffix}", ["fit", "--config", CONFIGS["nv"], *extra],
                 lambda res: check_cli_crossing_fit(res, cfg.g_ens, b_refs))
            for suffix, extra in (("", []), (".noisy", ["--noise", "0.002"]))
        ]


def power_lorentzian(grid, power, store, key):
    """Fit |S21|^2 and read the Qs as resonator_q_sweep.py does: the peak
    transmission amplitude is the square root of the fitted peak power."""
    store.pop(key, None)
    fit = fitting.fit_lorentzian(fitting.Spectrum1D(grid, power))
    qs = fitting.extract_qs(fit, np.sqrt(fit.params["amplitude"] + fit.params["baseline"]))
    store[key] = fit
    return fit, qs


def check_fano(r, lorentzian, circ):
    problems = [] if r.converged else ["fit did not converge"]
    if abs(r.params["center"] - circ["f0"]) > circ["half_power_width"]:
        problems.append(f"centre {r.params['center']:.6g} MHz, f0 {circ['f0']:.6g}")
    if lorentzian is None:
        problems.append("no Lorentzian fit of the same trace to compare with")
    elif r.residual_rms > lorentzian.residual_rms:
        problems.append(f"residual {r.residual_rms:.3g} above the Lorentzian's "
                        f"{lorentzian.residual_rms:.3g}")
    return problems


WORKLOADS = {w.name: w for w in (FieldSweeps(), CliFiles(), Fits())}
