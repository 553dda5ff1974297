"""Configuration-driven command line front end.

Experiments are described by INI files with [sample], [resonator] and [sweep]
sections; commands wire the physics modules together and emit flat CSV for
plotting, or fit reports as key = value blocks.  Unknown keys are rejected so
typos fail loudly instead of silently falling back to defaults.

Exit codes: 0 success, 2 configuration error, 3 fit failure or
non-convergence, 4 input/output or data-format error.
"""

import argparse
import configparser
import sys
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import cavity_qed, circuit_model, experiments, fitting, spin_models


class ConfigError(Exception):
    pass


class CsvError(Exception):
    pass


def _indices(raw):
    try:
        return tuple(int(p) for p in raw.replace(",", " ").split())
    except ValueError:
        raise ValueError("must be integers") from None


def _miller(raw):
    try:
        triple = _indices(raw)
    except ValueError:
        triple = ()
    if len(triple) != 3 or not any(triple):
        raise ValueError(f"must be three Miller indices, got {raw!r}")
    return triple


def _key(default=MISSING, parse=float, lo=None, hi=None):
    """A config key: the field name is the INI key; no default means required."""
    return field(default=default, metadata={"parse": parse, "lo": lo, "hi": hi})


@dataclass(frozen=True)
class SampleConfig:
    defect: str = _key(parse=str.upper)
    density_ppm: float = _key(lo=0.0)
    volume_mm3: float = _key(experiments.SAMPLE1_VOLUME_MM3, lo=0.0)
    field_direction: tuple = _key((1, 1, 0), parse=_miller)
    linewidth_mhz: float = _key(5.0, lo=1e-9)
    orientation_fraction: float = _key(0.5, lo=0.0, hi=1.0)
    nuclear_fraction: float = _key(1.0, lo=0.0, hi=1.0)  # 1/3 for P1, set in parse_config
    filling_factor: float = _key(1.0, lo=0.0, hi=1.0)
    transition_weight: float = _key(experiments.DEFAULT_TRANSITION_WEIGHT, lo=0.0)
    g_ens_mhz: float | None = _key(None, lo=0.0)
    initial_levels: tuple = _key((0,), parse=_indices)


@dataclass(frozen=True)
class ResonatorConfig:
    omega_r_mhz: float | None = _key(None, lo=1e-9)
    q_int: float = _key(experiments.Q_INT, lo=1e-9)
    q_ext1: float = _key(2.0 * experiments.Q_EXT_MIN, lo=1e-9)
    q_ext2: float = _key(2.0 * experiments.Q_EXT_MIN, lo=1e-9)
    mode_volume_mm3: float = _key(experiments.MODE_VOLUME_MM3, lo=1e-12)
    l_nh: float | None = _key(None)  # circuit mode: l_nh to cc2_ff are required together
    c_pf: float | None = _key(None)
    r_ohm: float | None = _key(None)
    cc1_ff: float | None = _key(None)
    cc2_ff: float | None = _key(None)
    cx_ff: float | None = _key(None)
    z0_ohm: float | None = _key(None)
    circuit: circuit_model.CircuitElements | None = None  # built from the circuit keys


@dataclass(frozen=True)
class SweepConfig:
    b_min_mt: float = _key(60.0)
    b_max_mt: float = _key(90.0)
    b_points: int = _key(61, parse=int, lo=2)
    omega_min_mhz: float = _key(5340.0)
    omega_max_mhz: float = _key(5440.0)
    omega_points: int = _key(401, parse=int, lo=2)
    seed: int = _key(0, parse=int, lo=0)


@dataclass(frozen=True)
class ExperimentConfig:
    sample: SampleConfig | None
    resonator: ResonatorConfig | None
    sweep: SweepConfig


# [resonator] keys of the CircuitElements fields, in their order
_CIRCUIT_KEYS = ("l_nh", "c_pf", "r_ohm", "cc1_ff", "cc2_ff", "cx_ff", "z0_ohm")
_SECTIONS = {"sample": SampleConfig, "resonator": ResonatorConfig, "sweep": SweepConfig}
_NOUNS = {float: "a number", int: "an integer"}  # parse errors of the built-in parsers


def _schema(cls):
    return [f for f in fields(cls) if "parse" in f.metadata]


def _value(section, key, raw, parse=float, lo=None, hi=None):
    try:
        v = parse(raw)
    except ValueError as exc:
        reason = f"is not {_NOUNS[parse]}: {raw!r}" if parse in _NOUNS else exc
        raise ConfigError(f"key '{key}' in [{section}] {reason}")
    if isinstance(v, float) and not np.isfinite(v):
        raise ConfigError(f"key '{key}' in [{section}] is not finite: {raw!r}")
    if lo is not None and v < lo or hi is not None and v > hi:
        shown = f"{v:g}" if isinstance(v, float) else v
        raise ConfigError(f"key '{key}' in [{section}] out of range: {shown}")
    return v


def _parse_section(section, items):
    """Keyword arguments of the section's dataclass from its INI items."""
    schema = _schema(_SECTIONS[section])
    allowed = {f.name for f in schema}
    for key in items:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in section [{section}]")
    values = {}
    for f in schema:
        if f.name in items:
            values[f.name] = _value(section, f.name, items[f.name], **f.metadata)
        elif f.default is MISSING:
            raise ConfigError(f"missing required key '{f.name}' in section [{section}]")
    return values


def _parse_circuit(values):
    """CircuitElements from the parsed [resonator] values, None without circuit keys.

    The optional keys left out are filled into `values` with their defaults.
    """
    if not any(k in values for k in _CIRCUIT_KEYS):
        return None
    missing = [k for k in _CIRCUIT_KEYS[:5] if k not in values]
    if missing:
        raise ConfigError(
            "missing required circuit key(s) " + ", ".join(f"'{k}'" for k in missing)
            + " in section [resonator] (circuit mode)"
        )
    for key, f in zip(_CIRCUIT_KEYS, fields(circuit_model.CircuitElements)):
        values.setdefault(key, f.default)
    try:
        return circuit_model.CircuitElements(*(values[k] for k in _CIRCUIT_KEYS))
    except ValueError as exc:
        raise ConfigError(f"invalid circuit elements in [resonator]: {exc}")


def parse_config(text):
    """Parse and validate INI config text into an ExperimentConfig."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}")
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")

    sample = None
    if cp.has_section("sample"):
        items = dict(cp.items("sample"))
        values = _parse_section("sample", items)
        if values["defect"] not in ("NV", "P1"):
            raise ConfigError(f"defect must be NV or P1, got {items['defect']!r}")
        if values["defect"] == "P1":
            values.setdefault("nuclear_fraction", 1.0 / 3.0)
        n_levels = spin_models.DIMENSION[values["defect"].lower()]
        for i in values.get("initial_levels", ()):
            if not 0 <= i < n_levels:
                raise ConfigError(
                    f"key 'initial_levels' in [sample] out of range: {i} "
                    f"({values['defect']} has levels 0 to {n_levels - 1})"
                )
        sample = SampleConfig(**values)

    resonator = None
    if cp.has_section("resonator"):
        values = _parse_section("resonator", dict(cp.items("resonator")))
        circuit = _parse_circuit(values)
        resonator = ResonatorConfig(**values, circuit=circuit)

    items = dict(cp.items("sweep")) if cp.has_section("sweep") else {}
    sweep = SweepConfig(**_parse_section("sweep", items))
    if sweep.b_min_mt >= sweep.b_max_mt:
        raise ConfigError("b_min_mt must be smaller than b_max_mt in section [sweep]")
    if sweep.omega_min_mhz >= sweep.omega_max_mhz:
        raise ConfigError("omega_min_mhz must be smaller than omega_max_mhz in [sweep]")
    return ExperimentConfig(sample, resonator, sweep)


def _text(v):
    return " ".join(str(i) for i in v) if isinstance(v, tuple) else str(v)


def dump_config(cfg):
    """Canonical INI text in declaration order; str(float) is exact on re-parsing."""
    lines = []
    for section in _SECTIONS:
        part = getattr(cfg, section)
        if part is None:
            continue
        lines.append(f"[{section}]")
        for f in _schema(type(part)):
            v = getattr(part, f.name)
            if v is not None:
                lines.append(f"{f.name} = {_text(v)}")
        lines.append("")
    return "\n".join(lines)


def _require(cfg, part, command):
    value = getattr(cfg, part)
    if value is None:
        raise ConfigError(f"command '{command}' needs a [{part}] section in the config")
    return value


def _defect_axis(direction):
    """Bond orientation best aligned with the field (first on ties)."""
    bonds = spin_models.bond_orientations()
    cosines = np.abs(bonds @ direction)
    return bonds[int(np.argmax(np.round(cosines, 12)))]


def _field_setup(sample):
    direction = np.asarray(sample.field_direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    return direction, _defect_axis(direction)


def _resonator_mode(res):
    if res.omega_r_mhz is not None:
        return experiments.resonator_mode(res.omega_r_mhz, res.q_int, res.q_ext1, res.q_ext2)
    if res.circuit is not None:
        if res.circuit.cx != 0:
            raise ConfigError(
                "cannot derive a resonator mode from a circuit with crosstalk; "
                "give omega_r_mhz explicitly"
            )
        return experiments.resonator_mode(*circuit_model.q_decomposition(res.circuit))
    raise ConfigError("section [resonator] needs omega_r_mhz or circuit elements")


def _budget(sample, res_mode, mode_volume):
    return experiments.coupling_budget(
        density_ppm=sample.density_ppm,
        volume_mm3=sample.volume_mm3,
        orientation_fraction=sample.orientation_fraction,
        nuclear_fraction=sample.nuclear_fraction,
        filling_factor=sample.filling_factor,
        omega_r=res_mode.omega_r,
        mode_volume_mm3=mode_volume,
        transition_weight=sample.transition_weight,
    )


def _line_coupling(sample, res_mode, mode_volume):
    if sample.g_ens_mhz is not None:
        return sample.g_ens_mhz
    return _budget(sample, res_mode, mode_volume)["g_ens_mhz"]


def _b_grid(sweep):
    return np.linspace(sweep.b_min_mt, sweep.b_max_mt, sweep.b_points)


def _omega_grid(sweep):
    return np.linspace(sweep.omega_min_mhz, sweep.omega_max_mhz, sweep.omega_points)


def _write(out_path, text):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _write_csv(out_path, header, rows, grid=None):
    """One line per row tuple; '%.10g' % x is f"{x:.10g}" for floats and ints.

    With `grid`, an (outer, inner) pair of axes, line k starts with point k of
    their row-major product and `rows` holds only the fields after it; each
    axis value is formatted once, not once per line.
    """
    n_fields = header.count(",") + 1 - (0 if grid is None else 2)
    rows = map(",".join(["%.10g"] * n_fields).__mod__, rows)
    if grid is not None:
        outer, inner = (["%.10g," % x for x in axis] for axis in grid)
        rows = [o + i + r for o in outer for i, r in zip(inner, rows)]
    _write(out_path, "\n".join([header, *rows]) + "\n")


def cmd_levels(cfg, args):
    sample = _require(cfg, "sample", "levels")
    direction, axis = _field_setup(sample)
    grid = _b_grid(cfg.sweep)
    curves = spin_models.level_curve(sample.defect.lower(), direction, axis, grid)
    header = "B_mT," + ",".join(f"E{k}_MHz" for k in range(curves.energies.shape[1]))
    _write_csv(args.out, header, zip(grid, *curves.energies.T))
    return 0


def cmd_transitions(cfg, args):
    sample = _require(cfg, "sample", "transitions")
    direction, axis = _field_setup(sample)
    grid = _b_grid(cfg.sweep)
    build = spin_models._BUILDERS[sample.defect.lower()]
    eig = spin_models.eigensystem(build(grid[:, None] * direction, axis))
    rows = []
    for b, values, vectors in zip(grid, eig.values, eig.vectors):
        lines = spin_models.transition_spectrum(
            spin_models.EigenSystem(values, vectors), initial_levels=sample.initial_levels
        )
        rows += [(b, ln.freq, ln.weight, ln.from_index, ln.to_index) for ln in lines]
    _write_csv(args.out, "B_mT,f_MHz,weight,from_level,to_level", rows)
    return 0


def _synthesize_map(cfg, noise, threads=None):
    """S21 map over the config's sweep; `threads`, like --threads, is ignored."""
    sample = _require(cfg, "sample", "map")
    res = _require(cfg, "resonator", "map")
    res_mode = _resonator_mode(res)
    direction, axis = _field_setup(sample)
    smap = experiments.spin_line_map(
        sample.defect, direction, axis, _b_grid(cfg.sweep), _omega_grid(cfg.sweep), res_mode,
        sample.linewidth_mhz, _line_coupling(sample, res_mode, res.mode_volume_mm3),
    )
    if noise:
        smap = experiments.add_magnitude_noise(smap, noise, cfg.sweep.seed)
    return smap


def cmd_map(cfg, args):
    smap = _synthesize_map(cfg, args.noise)
    rows = zip(np.abs(smap.values).ravel().tolist(), np.angle(smap.values).ravel().tolist())
    grid = (smap.b_axis.tolist(), smap.omega_axis.tolist())
    _write_csv(args.out, "B_mT,f_MHz,S21_mag,S21_arg", rows, grid)
    return 0


def cmd_budget(cfg, args):
    sample = _require(cfg, "sample", "budget")
    res = _require(cfg, "resonator", "budget")
    res_mode = _resonator_mode(res)
    budget = _budget(sample, res_mode, res.mode_volume_mm3)
    text = [
        "# coupling budget",
        f"# B_rms = sqrt(mu0 h f / 2V): f = {res_mode.omega_r:g} MHz, "
        f"V = {res.mode_volume_mm3:g} mm^3",
        f"# g_single = gamma_e B_rms sqrt(w): gamma_e = {spin_models.GAMMA_E:g} MHz/mT, "
        f"w = {sample.transition_weight:g}",
        f"# N = n_C V_s c * orientation * nuclear: V_s = {sample.volume_mm3:g} mm^3, "
        f"c = {sample.density_ppm:g} ppm, orientation = {sample.orientation_fraction:g}, "
        f"nuclear = {sample.nuclear_fraction:g}",
        f"# g_ens = g_single sqrt(N * filling): filling = {sample.filling_factor:g}",
        f"brms_pt = {budget['brms_pt']:.6g}",
        f"g_single_hz = {budget['g_single_hz']:.6g}",
        f"n_spins = {budget['n_spins']:.6g}",
        f"g_ens_mhz = {budget['g_ens_mhz']:.6g}",
    ]
    _write(args.out, "\n".join(text) + "\n")
    return 0


def _line_number(lines, row):
    """File line of data row `row` of a CSV read as `lines`; blank lines hold no row."""
    return [n for n, line in enumerate(lines[1:], start=2) if line.strip()][row]


def _read_csv(path, expected_header):
    """The data rows as a float array, and the file's lines to name a bad row by."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CsvError(f"cannot read {path}: {exc}")
    if not lines:
        raise CsvError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if header[: len(expected_header)] != list(expected_header):
        raise CsvError(
            f"{path}: line 1: expected header starting with {','.join(expected_header)}"
        )
    data = None
    try:
        if any(lines[1:]):  # else loadtxt warns of no data; the walk below reports it
            data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        pass
    if data is None or data.shape[1] != len(header):
        # loadtxt takes a subset of what float() takes: the line walk parses the
        # rest, and names the line at fault in what neither takes
        rows = []
        for n, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise CsvError(f"{path}: line {n}: expected {len(header)} fields, got {len(parts)}")
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                raise CsvError(f"{path}: line {n}: non-numeric field")
        if not rows:
            raise CsvError(f"{path}: no data rows")
        data = np.array(rows)
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise CsvError(f"{path}: line {_line_number(lines, bad[0])}: non-finite field")
    return data, lines


def _map_from_csv(path):
    data, lines = _read_csv(path, ("B_mT", "f_MHz", "S21_mag"))
    # a negative magnitude would enter mag * exp(i arg) as a phase flip
    negative = np.flatnonzero(data[:, 2] < 0)
    if negative.size:
        raise CsvError(f"{path}: line {_line_number(lines, negative[0])}: negative S21_mag")
    b_vals = data[:, 0]
    b_axis, first_index = np.unique(b_vals, return_index=True)
    b_axis = b_vals[np.sort(first_index)]
    n_b = b_axis.size
    if data.shape[0] % n_b != 0:
        raise CsvError(f"{path}: map is not rectangular")
    n_w = data.shape[0] // n_b
    omega_axis = data[:n_w, 1]
    mag = data[:, 2].reshape(n_b, n_w)
    arg = data[:, 3].reshape(n_b, n_w) if data.shape[1] > 3 else np.zeros_like(mag)
    blocks = data[:, :2].reshape(n_b, n_w, 2)
    inconsistent = (blocks[:, :, 0] != b_axis[:, None]) | (blocks[:, :, 1] != omega_axis)
    bad = np.flatnonzero(inconsistent.any(axis=1))
    if bad.size:
        raise CsvError(f"{path}: line {_line_number(lines, bad[0] * n_w)}: inconsistent grid block")
    return _checked(path, cavity_qed.SpectrumMap, b_axis, omega_axis, mag * np.exp(1j * arg))


def _trace_from_csv(path):
    data, _ = _read_csv(path, ("f_MHz", "S21_mag"))
    return _checked(path, fitting.Spectrum1D, data[:, 0], data[:, 1])


def _checked(path, cls, *fields):
    """cls(*fields), its rejection of the file's data raised as a CsvError."""
    try:
        return cls(*fields)
    except ValueError as exc:
        raise CsvError(f"{path}: {exc}") from None


def _synthesize_trace(cfg, noise):
    res = _require(cfg, "resonator", "fit")
    if res.circuit is not None:
        grid, s21 = experiments.loop_gap_trace(res.circuit)
        mag = np.abs(s21)
    else:
        res_mode = _resonator_mode(res)
        grid = _omega_grid(cfg.sweep)
        mag = np.abs(cavity_qed.s21_spectrum(grid, res_mode, []))
    if noise:
        mag = experiments.noisy_magnitude(mag, noise, cfg.sweep.seed)
    return fitting.Spectrum1D(grid, mag)


# unit suffix of a fitted parameter's report key; parameters missing here have none
_UNITS = {
    "g_ens": "_mhz", "omega_r": "_mhz", "center": "_mhz", "fwhm": "_mhz", "width": "_mhz",
    "b_star": "_mt", "slope": "_mhz_per_mt",
}


def cmd_fit(cfg, args):
    if args.kind == "avoided_crossing":
        data = _map_from_csv(args.infile) if args.infile else _synthesize_map(cfg, args.noise)
    else:
        data = _trace_from_csv(args.infile) if args.infile else _synthesize_trace(cfg, args.noise)
    result = getattr(fitting, f"fit_{args.kind}")(data)  # at call time: bench/tracer.py swaps it
    p = result.params
    report = {k + _UNITS.get(k, ""): v for k, v in p.items()}
    if args.kind == "lorentzian":
        report["q_loaded"] = p["center"] / p["fwhm"]
        peak = p["amplitude"] + p["baseline"]
        if 0.0 < peak < 1.0:
            qs = fitting.extract_qs(result, peak)
            report["q_ext"], report["q_int"] = qs["q_ext"], qs["q_int"]
    text = [
        f"# {args.kind.replace('_', '-')} fit",
        f"# residual rms {result.residual_rms:.3e}, {result.iterations} iterations",
        *(f"{k} = {v:.8g}" for k, v in report.items()),
        f"residual_rms = {result.residual_rms:.8g}",
        f"converged = {'true' if result.converged else 'false'}",
        f"iterations = {result.iterations}",
    ]
    _write(args.out, "\n".join(text) + "\n")
    return 0 if result.converged else 3


def cmd_circuit(cfg, args):
    res = _require(cfg, "resonator", "circuit")
    if res.circuit is None:
        raise ConfigError("command 'circuit' needs circuit elements in [resonator]")
    grid, s21 = experiments.loop_gap_trace(res.circuit)
    _write_csv(args.out, "f_MHz,S21_mag,S21_arg", zip(grid, np.abs(s21), np.angle(s21)))
    if args.out is not None and res.circuit.cx == 0:
        f0, q_int, q_e1, q_e2 = circuit_model.q_decomposition(res.circuit)
        sys.stdout.write(
            f"omega_0_mhz = {f0:.8g}\nq_int = {q_int:.8g}\n"
            f"q_ext1 = {q_e1:.8g}\nq_ext2 = {q_e2:.8g}\n"
        )
    return 0


def cmd_config_dump(cfg, args):
    _write(args.out, dump_config(cfg))
    return 0


def _sigma(raw):
    """--noise: a finite standard deviation >= 0."""
    try:
        v = float(raw)
    except ValueError:
        v = np.nan
    if not 0.0 <= v < np.inf:
        raise argparse.ArgumentTypeError(f"must be a finite sigma >= 0, got {raw!r}")
    return v


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spincavity",
        description="Spin-ensemble / microwave-resonator forward models and fits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, helptext, synth=False, parent=sub):
        p = parent.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if synth:
            p.add_argument("--noise", type=_sigma, default=0.0, metavar="SIGMA",
                           help="additive Gaussian noise on |S21|, seeded from the config")
            p.add_argument("--threads", type=int, default=1, metavar="N",
                           help="accepted and ignored; maps are built in one thread")
        p.set_defaults(func=func)
        return p

    add("levels", cmd_levels, "adiabatically tracked energy levels vs field")
    add("transitions", cmd_transitions, "ESR lines and weights vs field")
    add("map", cmd_map, "transmission map over the (B, f) sweep grid", synth=True)
    fit = add("fit", cmd_fit, "fit a map or trace, synthetic or from CSV", synth=True)
    fit.add_argument("--kind", default="avoided_crossing",
                     choices=("avoided_crossing", "lorentzian", "fano"))
    fit.add_argument("--in", dest="infile", default=None,
                     help="CSV input (otherwise synthesized from the config)")
    add("budget", cmd_budget, "coupling-constant budget report")
    add("circuit", cmd_circuit, "lumped-element resonator trace and Q values")
    config = sub.add_parser("config", help="configuration utilities")
    add("dump", cmd_config_dump, "echo the parsed config in canonical form",
        parent=config.add_subparsers(dest="subcommand", required=True))
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        sys.stderr.write(f"error: cannot read config: {exc}\n")
        return 4
    try:
        cfg = parse_config(text)
        return args.func(cfg, args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except fitting.FitError as exc:
        sys.stderr.write(f"fit error: {exc}\n")
        return 3
    except CsvError as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return 4
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
