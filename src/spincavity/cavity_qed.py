"""Resonator plus spin ensemble: coupling budget, polaritons, transmission.

Frequencies and decay rates are ordinary frequencies in MHz (not angular),
fields in mT or pT as noted, volumes in mm^3.  Collective coupling follows
the usual g * sqrt(N) enhancement of N ground-state spins sharing one cavity
mode.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.constants import h as PLANCK_H
from scipy.constants import mu_0 as MU_0

# conventional diamond cell: 8 carbon atoms, edge 0.3567 nm
LATTICE_A_MM = 0.3567e-6
CARBON_SITES_PER_MM3 = 8.0 / LATTICE_A_MM**3

CROSSING_TOL_MT = 1e-3  # width of the final bracket of crossing_field


@dataclass(frozen=True)
class ResonatorMode:
    """Cavity frequency and decay rates, all in MHz (FWHM convention)."""

    omega_r: float
    kappa_int: float
    kappa_ext1: float
    kappa_ext2: float

    def __post_init__(self):
        rates = (self.kappa_int, self.kappa_ext1, self.kappa_ext2)
        if any(r < 0 for r in rates) or sum(rates) <= 0:
            raise ValueError("decay rates must be non-negative with positive total")

    @property
    def kappa(self):
        return self.kappa_int + self.kappa_ext1 + self.kappa_ext2


@dataclass(frozen=True)
class SpinLine:
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


@dataclass(frozen=True)
class EnsembleSpec:
    """Inputs of the spin-count budget for one defect species in one sample."""

    density_ppm: float
    volume: float  # mm^3
    orientation_fraction: float = 1.0
    nuclear_fraction: float = 1.0
    filling_factor: float = 1.0

    def __post_init__(self):
        if self.density_ppm < 0 or self.volume < 0:
            raise ValueError("density and volume must be non-negative")
        for name in ("orientation_fraction", "nuclear_fraction", "filling_factor"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class SpectrumMap:
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


def vacuum_brms(omega_r, mode_volume):
    """RMS vacuum magnetic field of the mode, in pT.

    B_rms = sqrt(mu0 h f / (2 V)): half of the zero-point energy h f / 2
    stored magnetically in an effective volume V.
    """
    if omega_r <= 0 or mode_volume <= 0:
        raise ValueError("frequency and mode volume must be positive")
    f_hz = omega_r * 1e6
    v_m3 = mode_volume * 1e-9
    return np.sqrt(MU_0 * PLANCK_H * f_hz / (2.0 * v_m3)) * 1e12


def single_spin_coupling(b_rms, gamma_e, transition_weight):
    """Coupling of one spin to the vacuum field, in Hz.

    g = gamma_e * B_rms * sqrt(w) with w the squared drive matrix element of
    the transition (from transition_spectrum).
    """
    if transition_weight < 0:
        raise ValueError("transition weight must be non-negative")
    # MHz/mT * pT: 1e6 Hz / 1e9 pT leaves a factor 1e-3
    return gamma_e * b_rms * 1e-3 * np.sqrt(transition_weight)


def effective_spin_count(spec):
    """Number of spins participating in one transition of one sub-ensemble.

    Carbon site density times ppm concentration, cut down by the fraction of
    bond orientations and nuclear projections that contribute.  The mode
    filling factor is deliberately not applied here; it belongs to the
    coupling (g -> g sqrt(filling)) where the budget assembles it.
    """
    n = (
        CARBON_SITES_PER_MM3
        * spec.volume
        * spec.density_ppm
        * 1e-6
        * spec.orientation_fraction
        * spec.nuclear_fraction
    )
    return n


def ensemble_coupling(g_single, n):
    """Collective coupling g * sqrt(n), converted from Hz to MHz."""
    if n < 0:
        raise ValueError("spin count must be non-negative")
    return g_single * np.sqrt(n) * 1e-6


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
    columns = [replace(ln, omega_s=np.reshape(ln.omega_s, (-1, 1))) for ln in lines]
    values = s21_spectrum(np.broadcast_to(omega, (b.size, omega.size)), res, columns)
    return SpectrumMap(b, omega, values)


def crossing_field(transition_curve, omega_r, bracket):
    """Field at which a transition curve crosses the cavity, by bisection.

    :param transition_curve: callable B (mT) -> frequency (MHz), monotone on
        the bracket
    :param bracket: (b_lo, b_hi) with the crossing inside
    :returns: crossing field to within CROSSING_TOL_MT
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    f_lo = transition_curve(lo) - omega_r
    f_hi = transition_curve(hi) - omega_r
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        raise ValueError(f"no crossing of {omega_r:g} MHz inside [{lo:g}, {hi:g}] mT")
    while hi - lo > CROSSING_TOL_MT:
        mid = 0.5 * (lo + hi)
        f_mid = transition_curve(mid) - omega_r
        if f_mid == 0.0:
            return mid
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
