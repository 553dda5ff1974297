"""Resonator plus spin ensemble: coupling budget, polaritons, transmission.

Frequencies and decay rates are ordinary frequencies in MHz (not angular),
fields in mT or pT as noted, volumes in mm^3.  Collective coupling follows
the usual g * sqrt(N) enhancement of N ground-state spins sharing one cavity
mode.
"""

import math

import numpy as np

# the budget's scalar pieces and the record base, defined in the numpy-free scalars
from .scalars import (CARBON_SITES_PER_MM3, MU_0, PLANCK_H, EnsembleSpec, Record, ResonatorMode,
                      effective_spin_count, ensemble_coupling, single_spin_coupling, vacuum_brms)


class SpinLine(Record):
    """One ESR transition as seen by the cavity.

    omega_s is one frequency, or one per field point of a map (s21_map).
    """

    omega_s: float
    gamma: float
    g_ens: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("linewidth must be positive")
        if self.g_ens < 0:
            raise ValueError("coupling must be non-negative")


class SpectrumMap(Record, eq=False):
    """Complex S21 on a rectangular (field, frequency) grid."""

    b_axis: np.ndarray
    omega_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        b, w, v = (np.asarray(a) for a in (self.b_axis, self.omega_axis, self.values))
        for ax, name in ((b, "b_axis"), (w, "omega_axis")):
            d = np.diff(ax)
            if ax.ndim != 1 or (ax.size > 1 and not (np.all(d > 0) or np.all(d < 0))):
                raise ValueError(f"{name} must be strictly monotone")
        if v.shape != (b.size, w.size):
            raise ValueError("values must have shape (len(b_axis), len(omega_axis))")
        if not all(np.isfinite(a).all() for a in (b, w, v)):
            raise ValueError("b_axis, omega_axis and values must be finite")
        object.__setattr__(self, "b_axis", b)
        object.__setattr__(self, "omega_axis", w)
        object.__setattr__(self, "values", v)


def polariton_frequencies(omega_r, omega_s, g_ens):
    """Eigenfrequencies of the coupled cavity-ensemble doublet, (lower, upper)."""
    if g_ens < 0:
        raise ValueError("coupling must be non-negative")
    mean = 0.5 * (omega_r + omega_s)
    split = np.sqrt(g_ens**2 + 0.25 * (omega_r - omega_s) ** 2)
    return mean - split, mean + split


def s21_spectrum(omega_grid, res, lines):
    """Two-port transmission of the cavity dressed by Lorentzian spin lines.

    S21(w) = sqrt(k1 k2) / [i(w - w_r) + k/2 + sum_j g_j^2 / (i(w - w_sj) + gamma_j/2)]

    Linear response: each line enters through its susceptibility, valid at
    the very low probe powers used for these measurements.
    """
    omega = np.asarray(omega_grid, dtype=float)
    if omega.size == 0:
        raise ValueError("empty frequency grid")
    denom = 1j * (omega - res.omega_r) + 0.5 * res.kappa
    for ln in lines:
        denom = denom + ln.g_ens**2 / (1j * (omega - ln.omega_s) + 0.5 * ln.gamma)
    return np.sqrt(res.kappa_ext1 * res.kappa_ext2) / denom


def s21_map(b_grid, omega_grid, res, lines):
    """Transmission over a (B, frequency) grid.

    Each SpinLine in `lines` holds its frequency at every field point:
    omega_s has the length of b_grid (the spin lines move with B, the
    cavity does not).  The whole map is one broadcast s21_spectrum.
    """
    b, omega = np.asarray(b_grid, dtype=float), np.asarray(omega_grid, dtype=float)
    if any(np.shape(ln.omega_s) != b.shape for ln in lines):
        raise ValueError("each line needs one frequency per field point")
    columns = [ln.replace(omega_s=np.reshape(ln.omega_s, (-1, 1))) for ln in lines]
    values = s21_spectrum(np.broadcast_to(omega, (b.size, omega.size)), res, columns)
    return SpectrumMap(b, omega, values)


# the 17 Chebyshev-Lobatto nodes x_j = cos(theta_j), ascending from -1 to 1,
# and the DCT-I matrix taking values at them to the Chebyshev coefficients c
# of their interpolant sum_k c_k T_k(x), with T_k(cos theta) = cos(k theta)
_K = np.arange(17)
_THETA = np.pi * (16 - _K) / 16
_NODES = np.cos(_THETA)
_HALVED = np.where(_K % 16 == 0, 0.5, 1.0)
_DCT = np.cos(np.outer(_K, _THETA)) * np.outer(_HALVED, _HALVED) / 8


def crossing_field(transition_curve, omega_r, bracket):
    """Field at which a transition curve crosses the cavity.

    :param transition_curve: callable taking an array of n fields (mT) to
        their frequencies (MHz), an (n,) array for one line or an (L, n)
        array for L lines, each monotone and analytic on the bracket
    :param bracket: (b_lo, b_hi) with each crossing inside
    :returns: crossing field, mT; a list of L of them for L lines

    The curve is called once, on 17 Chebyshev-Lobatto nodes that include
    b_lo and b_hi exactly.  A line's root is that of its Chebyshev
    interpolant in the first node cell where the line crosses omega_r, found
    by Newton's method kept inside the cell by bisection; a root on a node is
    that node.  The interpolant of a curve analytic on the bracket matches it
    to rounding.  A line whose last two coefficients together exceed 1e-9 of
    its range at the nodes is not resolved by 17 nodes (a kink, say), and
    raises ValueError rather than return a root that may be wrong.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    b = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _NODES
    b[0], b[-1] = lo, hi
    values = np.asarray(transition_curve(b), dtype=float)
    roots = []
    for f in np.atleast_2d(values) - omega_r:
        change = np.flatnonzero(np.sign(f[:-1]) != np.sign(f[1:]))
        if not change.size:
            raise ValueError(f"no crossing of {omega_r:g} MHz inside [{lo:g}, {hi:g}] mT")
        c = _DCT @ f
        if not abs(c[-2]) + abs(c[-1]) <= 1e-9 * (f.max() - f.min()):
            raise ValueError(f"17 nodes do not resolve the curve on [{lo:g}, {hi:g}] mT")
        i = change[0]
        if f[i] == 0 or f[i + 1] == 0:
            roots.append(float(b[i] if f[i] == 0 else b[i + 1]))
            continue
        x = _cell_root(c, _NODES[i], _NODES[i + 1], f[i], f[i + 1])
        roots.append(float(0.5 * (lo + hi) + 0.5 * (hi - lo) * x))
    return roots[0] if values.ndim == 1 else roots


def _cell_root(c, a, z, f_a, f_z):
    """Root in (a, z) of the Chebyshev series c, which has the signs f_a and
    f_z at a and z: Newton's method from the secant, bisecting where a step
    leaves the bracket."""
    x, ck = a - f_a * (z - a) / (f_z - f_a), c * _K
    for _ in range(100):
        theta = math.acos(x)
        p = float(c @ np.cos(_K * theta))
        slope = float(ck @ np.sin(_K * theta)) / math.sin(theta)
        if p * f_a > 0:
            a = x
        elif p * f_a < 0:
            z = x
        step = x - p / slope if slope else math.inf
        if not a < step < z:
            step = 0.5 * (a + z)
        x, dx = step, step - x
        if abs(dx) <= 1e-14:
            break
    return x
