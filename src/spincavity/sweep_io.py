"""The command line's array commands: levels, transitions, map, fit and circuit.

They hold the CSV writer and reader and the synthesis of maps and traces from
a config.  This module imports numpy and the physics modules, so sweep_cli
imports it only when one of these commands runs; `config dump` and `budget`
start without it.
"""

import itertools
import sys
import warnings

import numpy as np

from . import cavity_qed, circuit_model, experiments, fitting, spin_models
from .scalars import ConfigError, CsvError, FitError
from .sweep_cli import _line_coupling, _require, _resonator_mode, _write


def _defect_axis(direction):
    """Bond orientation best aligned with the field (first on ties)."""
    bonds = spin_models.bond_orientations()
    cosines = np.abs(bonds @ direction)
    return bonds[int(np.argmax(np.round(cosines, 12)))]


def _spin_sweep(cfg, command):
    """The sweep of the config's spin commands: the [sample] section (a missing
    one's error names `command`), the lower-case defect key, the unit field
    direction, the defect axis and the field grid."""
    sample = _require(cfg, "sample", command)
    direction = np.asarray(sample.field_direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    return sample, sample.defect.lower(), direction, _defect_axis(direction), _b_grid(cfg.sweep)


def _b_grid(sweep):
    return np.linspace(sweep.b_min_mt, sweep.b_max_mt, sweep.b_points)


def _omega_grid(sweep):
    return np.linspace(sweep.omega_min_mhz, sweep.omega_max_mhz, sweep.omega_points)


# 10**k for k <= 15, exact: the scalings 10**(9 - e) of exponents -6 to 9
_POW10 = np.array([float(10**k) for k in range(16)])
# lines per block of _write_csv and characters per block of _lines: few enough
# that the work arrays of a block stay in cache
_BLOCK = 1 << 14


def _format_g10(*xs):
    """'%.10g' % v of every v of each x in xs, as one (width,) + x.shape uint8
    array of character planes per x, padded with 0.

    Plane i holds character i of every value's text, so that each character
    column is written as one contiguous row; the bytes of a value down the
    planes, without the 0s, are its text.  All of xs are formatted in one
    array pass, and each keeps only the planes its own values use.  The pass
    writes zero and every v whose text has no exponent, -4 <= e <= 9 after
    rounding: its 10-digit mantissa m comes from one scaling q = |v| * 10**(9 - e),
    which lies within 3e-6 of the exact product, so rint(q) is correctly rounded
    unless q is within 1e-5 of a half-integer.  Those near-ties, exponent
    notation, inf and nan go through '%', in one list.  A text holds a sign, a
    '0.000' prefix for exponents -1 to -4, and the 10 digits with a '.' slot
    after each of the first 9.
    """
    xs = [np.asarray(x, dtype=float) for x in xs]
    flat = np.concatenate([x.ravel() for x in xs])
    out = np.zeros((25, flat.size), np.uint8)
    # the work arrays are updated in place where they can be: a fresh array of
    # a block's size costs its page faults
    a = np.abs(flat)
    zero = a == 0.0
    fast = a < np.inf
    np.copyto(a, 1.0, where=zero | ~fast)
    # floor(log10) is one off only within a few ulp of a power of ten, where the
    # mantissa rounds to 1e9 with the larger exponent or carries from 1e10 to it
    e = np.log10(a)
    e = np.floor(e, out=e).astype(np.int32)
    # exponents outside -6 to 9 take a clipped scale: '%' writes their text
    q = np.multiply(a, _POW10[np.clip(9 - e, 0, 15)], out=a)
    m = np.rint(q)
    q -= m
    np.abs(q, out=q)
    q -= 0.5
    np.abs(q, out=q)
    fast &= q > 1e-5
    carry = m == 1e10
    np.copyto(m, 1e9, where=carry)
    e += carry
    fast &= (e >= -4) & (e <= 9)
    np.copyto(m, 0.0, where=zero | ~fast)
    place = e.astype(np.int8)  # e leaves the int8 range only where '%' writes the text
    out[0] = np.signbit(flat) * np.uint8(ord("-"))
    # exponents -1 to -4 put '0.' and then 0 to 3 zeros before the digits
    for col, (below, char) in enumerate(zip((0, 0, -1, -2, -3), b"0.000"), start=1):
        out[col] = (place < below) * np.uint8(char)
    # digits from the last, in int32 halves of m < 1e10 (m / 1e5 is exact to
    # far below 1e-5, so its floor is); a fraction digit is kept up to the last
    # nonzero one
    hi = np.floor(np.divide(m, 1e5, out=q), out=q)
    v = np.subtract(m, 1e5 * hi, out=m).astype(np.int32)
    hi = hi.astype(np.int32)
    nonzero = np.zeros(flat.size, bool)
    for j in range(9, -1, -1):
        if j < 9:
            out[7 + 2 * j] = ((place == j) & nonzero) * np.uint8(ord("."))
        if j == 4:
            v = hi
        q10 = v // 10
        row = out[6 + 2 * j]
        np.subtract(v, 10 * q10, out=row, casting="unsafe")
        v = q10
        nonzero |= row != 0
        row += np.uint8(ord("0"))
        row *= nonzero | (place >= j)
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = np.array(["%.10g" % v for v in flat[slow].tolist()], dtype="S25")
        out[:, slow] = texts.view(np.uint8).reshape(-1, 25).T
    cells = []
    for x, planes in zip(xs, np.split(out, np.cumsum([x.size for x in xs[:-1]]), axis=1)):
        used = planes.any(axis=1)
        cells.append(planes[used].reshape((int(used.sum()),) + x.shape))
    return cells


def _write_csv(out_path, header, columns):
    """One line per element of the broadcast `columns`, in C order.

    Every number is Python's '%.10g' of it (10 significant digits, correctly
    rounded), and ints are written as floats.  The lines are formatted and
    written in blocks of whole leading-axis rows, about _BLOCK lines each, so
    the memory used is that of a block, not of the file.  A column that does
    not vary along the leading axis is formatted whole in every block.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    step = max(1, _BLOCK // max(1, int(np.prod(shape[1:]))))
    whole = [c.ndim < len(shape) or len(c) == 1 for c in columns]
    blocks = (_csv_lines([c if w else c[i : i + step] for c, w in zip(columns, whole)])
              for i in range(0, shape[0], step))
    _write(out_path, itertools.chain([header + "\n"], blocks))


def _csv_lines(columns):
    """The text of the lines of a block of `_write_csv`'s columns.

    Every column is formatted before it is broadcast, so a grid axis shaped
    (n, 1) or (n,) is formatted once per value, not once per line.  The block
    is assembled as character planes, one per character column of its lines,
    and transposed once into lines.
    """
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    cells = _format_g10(*columns)
    ends = np.cumsum([len(cell) + 1 for cell in cells])
    planes = np.empty((ends[-1],) + shape, np.uint8)
    for cell, end in zip(cells, ends):
        planes[end - 1 - len(cell) : end - 1] = cell.reshape(
            cell.shape[:1] + (1,) * (len(shape) + 1 - cell.ndim) + cell.shape[1:])
    planes[ends - 1] = ord(",")
    planes[-1] = ord("\n")
    lines = planes.reshape(len(planes), -1).T
    return lines.tobytes().translate(None, b"\0").decode("ascii")


def cmd_levels(cfg, args):
    _, defect, direction, axis, grid = _spin_sweep(cfg, "levels")
    curves = spin_models.level_curve(defect, direction, axis, grid)
    header = "B_mT," + ",".join(f"E{k}_MHz" for k in range(curves.energies.shape[1]))
    _write_csv(args.out, header, (grid, *curves.energies.T))
    return 0


def cmd_transitions(cfg, args):
    sample, defect, direction, axis, grid = _spin_sweep(cfg, "transitions")
    eig = spin_models.eigensystem(spin_models._BUILDERS[defect](grid[:, None] * direction, axis))
    index, *columns = spin_models.transition_spectrum(eig, initial_levels=sample.initial_levels)
    _write_csv(args.out, "B_mT,f_MHz,weight,from_level,to_level", (grid[index], *columns))
    return 0


def _synthesize_map(cfg, noise, threads=None, command="map"):
    """S21 map over the config's sweep; `threads`, like --threads, is ignored.

    A missing section's error names `command`, the command that runs.
    """
    sample, defect, direction, axis, grid = _spin_sweep(cfg, command)
    res = _require(cfg, "resonator", command)
    res_mode = _resonator_mode(res)
    smap = experiments.spin_line_map(
        defect, direction, axis, grid, _omega_grid(cfg.sweep), res_mode,
        sample.linewidth_mhz, _line_coupling(sample, res_mode, res.mode_volume_mm3),
    )
    if noise:
        smap = experiments.add_magnitude_noise(smap, noise, cfg.sweep.seed)
    return smap


def cmd_map(cfg, args):
    smap = _synthesize_map(cfg, args.noise)
    columns = (smap.b_axis[:, None], smap.omega_axis, np.abs(smap.values), np.angle(smap.values))
    _write_csv(args.out, "B_mT,f_MHz,S21_mag,S21_arg", columns)
    return 0


def _lines(fh):
    """The lines of text file `fh` as str.splitlines() cuts its whole text.

    They are read in blocks of about _BLOCK characters that end at a line end.
    splitlines() also ends a line at \\x0b, \\x0c, \\x1c-\\x1e, \\x85, \\u2028
    and \\u2029, which loadtxt would read as blanks around a field.
    """
    blocks = iter(lambda: (fh.read(_BLOCK) + fh.readline()).splitlines(), [])
    return itertools.chain.from_iterable(blocks)


def _data_lines(fh):
    """(line number, text) of each data line of CSV file `fh`; blank lines hold no row."""
    return ((n, line) for n, line in enumerate(_lines(fh), start=1) if n > 1 and line.strip())


def _line_number(path, row):
    """File line of data row `row` of the CSV at `path`."""
    with open(path, encoding="utf-8") as fh:
        return next(itertools.islice(_data_lines(fh), row, None))[0]


def _undecodable_line(path):
    """Line of the first bytes of the file at `path` that are not UTF-8."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        # such bytes read as lone surrogates, which encoding replaces
        return next(n for n, line in enumerate(_lines(fh), start=1)
                    if line.encode(errors="replace").decode() != line)


def _walk(path, fh, width):
    """The data rows of CSV file `fh` parsed by float(), which takes what loadtxt
    takes and more; the first line that neither takes is named in a CsvError."""
    fh.seek(0)
    rows = []
    for n, line in _data_lines(fh):
        parts = line.split(",")
        if len(parts) != width:
            raise CsvError(f"{path}: line {n}: expected {width} fields, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise CsvError(f"{path}: line {n}: non-numeric field")
    if not rows:
        raise CsvError(f"{path}: no data rows")
    return np.array(rows)


def _read_csv(path, expected_header):
    """The data rows as a float array, parsed as the file is read.

    A non-finite field or a negative S21_mag is a CsvError naming its line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = _lines(fh)
            first = next(lines, None)
            if first is None:
                raise CsvError(f"{path}: empty file")
            header, want = [h.strip() for h in first.split(",")], ",".join(expected_header)
            if header[: len(expected_header)] != list(expected_header):
                raise CsvError(f"{path}: line 1: expected header starting with {want}")
            try:
                with warnings.catch_warnings():
                    # no rows reads as shape (0, 1) with a warning; the walk reports it
                    warnings.simplefilter("ignore", UserWarning)
                    data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            except UnicodeDecodeError:  # a ValueError, but no spelling the walk could read
                raise
            except ValueError:
                data = None
            if data is None or data.shape[1] != len(header):
                data = _walk(path, fh, len(header))
    except OSError as exc:
        raise CsvError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError:
        raise CsvError(f"{path}: line {_undecodable_line(path)}: not UTF-8 text") from None
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise CsvError(f"{path}: line {_line_number(path, bad[0])}: non-finite field")
    # both headers hold S21_mag; a negative one would enter a map's
    # mag * exp(i arg) as a phase flip
    negative = np.flatnonzero(data[:, expected_header.index("S21_mag")] < 0)
    if negative.size:
        raise CsvError(f"{path}: line {_line_number(path, negative[0])}: negative S21_mag")
    return data


def _map_from_csv(path):
    data = _read_csv(path, ("B_mT", "f_MHz", "S21_mag"))
    # a field block is as long as the first run of equal B_mT values
    n_w = int(np.argmax(data[:, 0] != data[0, 0])) or len(data)
    if len(data) % n_w:
        raise CsvError(f"{path}: map is not rectangular")
    grid = data.reshape(-1, n_w, data.shape[1])
    b_axis, omega_axis = grid[:, 0, 0], grid[0, :, 1]
    inconsistent = (grid[:, :, 0] != b_axis[:, None]) | (grid[:, :, 1] != omega_axis)
    bad = np.flatnonzero(inconsistent.any(axis=1))
    if bad.size:
        raise CsvError(f"{path}: line {_line_number(path, bad[0] * n_w)}: inconsistent grid block")
    # mag * exp(1j * arg), built in place in the one complex array
    mag = grid[:, :, 2]
    z = np.multiply(1j, grid[:, :, 3]) if data.shape[1] > 3 else np.zeros(mag.shape, complex)
    np.exp(z, out=z)
    z *= mag
    return _checked(path, cavity_qed.SpectrumMap, b_axis, omega_axis, z)


def _trace_from_csv(path):
    data = _read_csv(path, ("f_MHz", "S21_mag"))
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
    else:
        grid = _omega_grid(cfg.sweep)
        s21 = cavity_qed.s21_spectrum(grid, _resonator_mode(res), [])
    mag = np.abs(s21)
    if noise:
        mag = experiments.noisy_magnitude(mag, noise, cfg.sweep.seed)
    return fitting.Spectrum1D(grid, mag)


# unit suffix of a fitted parameter's report key; parameters missing here have none
_UNITS = {
    "g_ens": "_mhz", "omega_r": "_mhz", "center": "_mhz", "fwhm": "_mhz", "width": "_mhz",
    "b_star": "_mt", "slope": "_mhz_per_mt",
}


def cmd_fit(cfg, args):
    if args.infile and args.noise is not None:
        raise ConfigError("--noise applies to synthesized data only; it cannot be used with --in")
    if args.kind == "avoided_crossing":
        data = (_map_from_csv(args.infile) if args.infile
                else _synthesize_map(cfg, args.noise, command="fit"))
    else:
        data = _trace_from_csv(args.infile) if args.infile else _synthesize_trace(cfg, args.noise)
    result = getattr(fitting, f"fit_{args.kind}")(data)  # at call time: bench/tracer.py swaps it
    p = result.params
    report = {k + _UNITS.get(k, ""): v for k, v in p.items()}
    if args.kind == "lorentzian":
        report["q_loaded"] = q_l = p["center"] / p["fwhm"]
        peak = p["amplitude"] + p["baseline"]
        if 0.0 < peak < 1.0:  # extract_qs tests Q_L and gives it again, with Q_ext and Q_int
            report.update(fitting.extract_qs(result, peak))
        elif not q_l > 0:
            raise FitError(f"loaded Q not positive: Q_L = {q_l:.6g}")
    text = [
        f"# {args.kind.replace('_', '-')} fit",
        f"# residual rms {result.residual_rms:.3e}, {result.iterations} iterations",
        *(f"{k} = {v:.8g}" for k, v in report.items()),
        f"residual_rms = {result.residual_rms:.8g}",
        f"converged = {'true' if result.converged else 'false'}",
        f"iterations = {result.iterations}",
    ]
    _write(args.out, ["\n".join(text) + "\n"])
    return 0 if result.converged else 3


def cmd_circuit(cfg, args):
    res = _require(cfg, "resonator", "circuit")
    if res.circuit is None:
        raise ConfigError("command 'circuit' needs circuit elements in [resonator]")
    grid, s21 = experiments.loop_gap_trace(res.circuit)
    _write_csv(args.out, "f_MHz,S21_mag,S21_arg", (grid, np.abs(s21), np.angle(s21)))
    if args.out is not None and res.circuit.cx == 0:
        qs = circuit_model.q_decomposition(res.circuit)
        names = ("omega_0_mhz", "q_int", "q_ext1", "q_ext2")
        sys.stdout.write("".join(f"{k} = {v:.8g}\n" for k, v in zip(names, qs)))
    return 0
