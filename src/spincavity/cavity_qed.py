"""Resonator plus spin ensemble: coupling budget, polaritons, transmission.

Frequencies and decay rates are ordinary frequencies in MHz (not angular),
fields in mT or pT as noted, volumes in mm^3.  Collective coupling follows
the usual g * sqrt(N) enhancement of N ground-state spins sharing one cavity
mode.
"""

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


def crossing_field(transition_curve, omega_r, bracket):
    """Field at which a transition curve crosses the cavity.

    :param transition_curve: callable taking an array of fields (mT) to the
        array of their frequencies (MHz), monotone on the bracket
    :param bracket: (b_lo, b_hi) with the crossing inside
    :returns: crossing field, mT

    Three rounds each evaluate the curve once, on 17 points across the
    bracket, and keep the first cell in which it crosses omega_r as the next
    bracket; the root is interpolated linearly in the last cell, which is
    1/4096 of the bracket wide.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    for _ in range(3):
        b = np.linspace(lo, hi, 17)
        f = transition_curve(b) - omega_r
        change = np.flatnonzero(np.sign(f[:-1]) != np.sign(f[1:]))
        if not change.size:
            raise ValueError(f"no crossing of {omega_r:g} MHz inside [{lo:g}, {hi:g}] mT")
        i = change[0]
        lo, hi = b[i], b[i + 1]
    return float(lo - f[i] * (hi - lo) / (f[i + 1] - f[i]))
