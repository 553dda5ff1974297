"""Configuration-driven command line front end.

Experiments are described by INI files with [sample], [resonator] and [sweep]
sections; commands wire the physics modules together and emit flat CSV for
plotting, or fit reports as key = value blocks.  Unknown keys are rejected so
typos fail loudly instead of silently falling back to defaults.

This module holds the config schema, `config dump`, `budget` and the argument
parser, and imports no numpy: those two commands run on `scalars`.  The array
commands are in `sweep_io`, imported when one of them runs.  `main(argv)`
runs one command in process and returns its exit code; `run()`, the process
entry, exits with it without tearing the interpreter down.

Exit codes: 0 success, 2 configuration error, 3 fit failure or
non-convergence, 4 input/output or data-format error.
"""

import argparse
import configparser
import functools
import gc
import math
import os
import sys

from . import scalars
from .scalars import ConfigError, CsvError  # the errors main maps to exit codes


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


_REQUIRED = object()


class _Key(dict):
    """The parser and bounds of a config key, and its default (see _Section)."""


def _key(default=_REQUIRED, parse=float, lo=None, hi=None):
    """A config key: the field name is the INI key; no default means required."""
    return _Key(default=default, parse=parse, lo=lo, hi=hi)


class _Section(scalars.Record):
    """A config section.  Each `_key` class attribute moves into the class's
    `_schema` (field name: parser and bounds), and its default, if it has one,
    stays in its place as the field's default."""

    def __init_subclass__(cls):
        cls._schema = {name: key for name, key in vars(cls).items() if isinstance(key, _Key)}
        for name, key in cls._schema.items():
            delattr(cls, name)
            if key["default"] is not _REQUIRED:
                setattr(cls, name, key["default"])
            del key["default"]
        super().__init_subclass__()


class SampleConfig(_Section):
    defect: str = _key(parse=str.upper)
    density_ppm: float = _key(lo=0.0)
    volume_mm3: float = _key(scalars.SAMPLE1_VOLUME_MM3, lo=0.0)
    field_direction: tuple = _key((1, 1, 0), parse=_miller)
    linewidth_mhz: float = _key(5.0, lo=1e-9)
    orientation_fraction: float = _key(0.5, lo=0.0, hi=1.0)
    nuclear_fraction: float = _key(1.0, lo=0.0, hi=1.0)  # 1/3 for P1, set in parse_config
    filling_factor: float = _key(1.0, lo=0.0, hi=1.0)
    transition_weight: float = _key(scalars.DEFAULT_TRANSITION_WEIGHT, lo=0.0)
    g_ens_mhz: float | None = _key(None, lo=0.0)
    initial_levels: tuple = _key((0,), parse=_indices)


class ResonatorConfig(_Section):
    omega_r_mhz: float | None = _key(None, lo=1e-9)
    q_int: float = _key(scalars.Q_INT, lo=1e-9)
    q_ext1: float = _key(2.0 * scalars.Q_EXT_MIN, lo=1e-9)
    q_ext2: float = _key(2.0 * scalars.Q_EXT_MIN, lo=1e-9)
    mode_volume_mm3: float = _key(scalars.MODE_VOLUME_MM3, lo=1e-12)
    l_nh: float | None = _key(None)  # circuit mode: l_nh to cc2_ff are required together
    c_pf: float | None = _key(None)
    r_ohm: float | None = _key(None)
    cc1_ff: float | None = _key(None)
    cc2_ff: float | None = _key(None)
    cx_ff: float | None = _key(None)
    z0_ohm: float | None = _key(None)
    circuit: scalars.CircuitElements | None = None  # built from the circuit keys


class SweepConfig(_Section):
    b_min_mt: float = _key(60.0)
    b_max_mt: float = _key(90.0)
    b_points: int = _key(61, parse=int, lo=2)
    omega_min_mhz: float = _key(5340.0)
    omega_max_mhz: float = _key(5440.0)
    omega_points: int = _key(401, parse=int, lo=2)
    seed: int = _key(0, parse=int, lo=0)


class ExperimentConfig(scalars.Record):
    sample: SampleConfig | None
    resonator: ResonatorConfig | None
    sweep: SweepConfig


# [resonator] keys of the CircuitElements fields, in their order
_CIRCUIT_KEYS = ("l_nh", "c_pf", "r_ohm", "cc1_ff", "cc2_ff", "cx_ff", "z0_ohm")
_SECTIONS = {"sample": SampleConfig, "resonator": ResonatorConfig, "sweep": SweepConfig}
_NOUNS = {float: "a number", int: "an integer"}  # parse errors of the built-in parsers


def _value(section, key, raw, parse=float, lo=None, hi=None):
    try:
        v = parse(raw)
    except ValueError as exc:
        reason = f"is not {_NOUNS[parse]}: {raw!r}" if parse in _NOUNS else exc
        raise ConfigError(f"key '{key}' in [{section}] {reason}")
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(f"key '{key}' in [{section}] is not finite: {raw!r}")
    if lo is not None and v < lo or hi is not None and v > hi:
        shown = f"{v:g}" if isinstance(v, float) else v
        raise ConfigError(f"key '{key}' in [{section}] out of range: {shown}")
    return v


def _parse_section(section, items):
    """Keyword arguments of the section's record from its INI items."""
    cls = _SECTIONS[section]
    for key in items:
        if key not in cls._schema:
            raise ConfigError(f"unknown key '{key}' in section [{section}]")
    values = {}
    for name, spec in cls._schema.items():
        if name in items:
            values[name] = _value(section, name, items[name], **spec)
        elif name not in cls._defaults:
            raise ConfigError(f"missing required key '{name}' in section [{section}]")
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
    for key, name in zip(_CIRCUIT_KEYS[5:], scalars.CircuitElements._fields[5:]):
        values.setdefault(key, getattr(scalars.CircuitElements, name))
    try:
        circuit = scalars.CircuitElements(*(values[k] for k in _CIRCUIT_KEYS))
    except ValueError as exc:
        raise ConfigError(f"invalid circuit elements in [resonator]: {exc}")
    try:  # extreme elements over- or underflow the closed-form resonance
        f0, *qs = scalars.q_decomposition(circuit.replace(cx=0.0))
    except ZeroDivisionError:
        f0, qs = math.inf, ()
    if not 0.0 < f0 < math.inf:
        raise ConfigError(f"circuit elements in [resonator] resonate at {f0:g} MHz")
    if min(qs) == math.inf:  # a mode without any decay rate
        raise ConfigError(
            "circuit elements in [resonator] have no loss: Q_int and both Q_ext are inf"
        )
    # the low end of loop_gap_trace's grid, formed as there, must stay above
    # 0 MHz; a Q that underflows to 0 makes the linewidth inf
    width = f0 * sum(1.0 / q if q else math.inf for q in qs)
    if f0 - scalars.TRACE_LINEWIDTHS * width <= 0.0:
        raise ConfigError(f"circuit elements in [resonator] have loaded Q {f0 / width:.6g}, "
                          f"not above {scalars.TRACE_LINEWIDTHS:g}: their trace would reach 0 MHz")
    return circuit


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
        n_levels = scalars.DIMENSION[values["defect"].lower()]
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
        for name in part._schema:
            v = getattr(part, name)
            if v is not None:
                lines.append(f"{name} = {_text(v)}")
        lines.append("")
    return "\n".join(lines)


def _require(cfg, part, command):
    value = getattr(cfg, part)
    if value is None:
        raise ConfigError(f"command '{command}' needs a [{part}] section in the config")
    return value


def _resonator_mode(res):
    if res.omega_r_mhz is not None:
        return scalars.resonator_mode(res.omega_r_mhz, res.q_int, res.q_ext1, res.q_ext2)
    if res.circuit is not None:
        if res.circuit.cx != 0:
            raise ConfigError(
                "cannot derive a resonator mode from a circuit with crosstalk; "
                "give omega_r_mhz explicitly"
            )
        return scalars.resonator_mode(*scalars.q_decomposition(res.circuit))
    raise ConfigError("section [resonator] needs omega_r_mhz or circuit elements")


def _budget(sample, res_mode, mode_volume):
    return scalars.coupling_budget(
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


def _write(out_path, chunks):
    """Write the str chunks, in order, to out_path, or to stdout when it is None."""
    if out_path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out_path, "w") as fh:
            fh.writelines(chunks)


def cmd_budget(cfg, args):
    sample = _require(cfg, "sample", "budget")
    res = _require(cfg, "resonator", "budget")
    res_mode = _resonator_mode(res)
    budget = _budget(sample, res_mode, res.mode_volume_mm3)
    text = [
        "# coupling budget",
        f"# B_rms = sqrt(mu0 h f / 2V): f = {res_mode.omega_r:g} MHz, "
        f"V = {res.mode_volume_mm3:g} mm^3",
        f"# g_single = gamma_e B_rms sqrt(w): gamma_e = {scalars.GAMMA_E:g} MHz/mT, "
        f"w = {sample.transition_weight:g}",
        f"# N = n_C V_s c * orientation * nuclear: V_s = {sample.volume_mm3:g} mm^3, "
        f"c = {sample.density_ppm:g} ppm, orientation = {sample.orientation_fraction:g}, "
        f"nuclear = {sample.nuclear_fraction:g}",
        f"# g_ens = g_single sqrt(N * filling): filling = {sample.filling_factor:g}",
        *(f"{k} = {v:.6g}" for k, v in budget.items()),
    ]
    _write(args.out, ["\n".join(text) + "\n"])
    return 0


def cmd_config_dump(cfg, args):
    _write(args.out, [dump_config(cfg)])
    return 0


def _sigma(raw):
    """--noise: a finite standard deviation >= 0."""
    try:
        v = float(raw)
    except ValueError:
        v = math.nan
    if not 0.0 <= v < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite sigma >= 0, got {raw!r}")
    return v


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spincavity",
        description="Spin-ensemble / microwave-resonator forward models and fits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, helptext, synth=False, parent=sub):
        """A subcommand; `func` names its command function (see _command)."""
        p = parent.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if synth:
            p.add_argument("--noise", type=_sigma, default=None, metavar="SIGMA",
                           help="additive Gaussian noise on the synthesized |S21|, seeded "
                                "from the config (not with fit --in)")
            p.add_argument("--threads", type=int, default=1, metavar="N",
                           help="accepted and ignored")
        p.set_defaults(func=func)
        return p

    add("levels", "cmd_levels", "adiabatically tracked energy levels vs field")
    add("transitions", "cmd_transitions", "ESR lines and weights vs field")
    add("map", "cmd_map", "transmission map over the (B, f) sweep grid", synth=True)
    fit = add("fit", "cmd_fit", "fit a map or trace, synthetic or from CSV", synth=True)
    fit.add_argument("--kind", default="avoided_crossing",
                     choices=("avoided_crossing", "lorentzian", "fano"))
    fit.add_argument("--in", dest="infile", default=None,
                     help="CSV input (otherwise synthesized from the config)")
    add("budget", "cmd_budget", "coupling-constant budget report")
    add("circuit", "cmd_circuit", "lumped-element resonator trace and Q values")
    config = sub.add_parser("config", help="configuration utilities")
    add("dump", "cmd_config_dump", "echo the parsed config in canonical form",
        parent=config.add_subparsers(dest="subcommand", required=True))
    return parser


def _command(name):
    """The command function `name`, looked up when it runs.  The array commands
    are in sweep_io, which loads numpy, so it is imported only for them."""
    if name in globals():
        return globals()[name]
    from . import sweep_io
    return getattr(sweep_io, name)


def __getattr__(name):
    # the map synthesis moved to sweep_io; bench/baseline.py still reaches it here
    if name == "_synthesize_map":
        from . import sweep_io
        return sweep_io._synthesize_map
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: cannot read config: {exc}\n")
        return 4
    try:
        cfg = parse_config(text)
        return _command(args.func)(cfg, args)
    except (ConfigError, scalars.TrackingError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except scalars.FitError as exc:
        sys.stderr.write(f"fit error: {exc}\n")
        return 3
    except CsvError as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return 4
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 4


def run(argv=None):
    """The process entry of `spincavity` and `python -m spincavity.sweep_cli`.

    It runs main with the cyclic garbage collector off, and when main returns
    it flushes stdout and stderr and ends the process with main's exit code,
    skipping the interpreter's teardown.  After a success, output that
    stdout does not take at the flush (a closed pipe, a full disk) is an i/o
    error, exit 4, as in main.  A SystemExit from argparse, or an error main
    does not handle, leaves through the interpreter as usual.
    """
    gc.disable()
    code = main(argv)
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code == 0:  # a failed command has already given its reason
            sys.stderr.write(f"i/o error: {exc}\n")
            code = 4
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    # under -m, sweep_io's helper import finds this module instead of running
    # it a second time
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    run()
