"""Least-squares extraction of physical parameters from spectra and maps.

All fits run on a small Levenberg-Marquardt engine kept in this module so
that results are bit-deterministic for identical inputs: fixed damping
schedule, no randomized restarts, convergence on relative parameter step.
Lineshape Jacobians are analytic; the avoided-crossing model uses central
finite differences.
"""

from dataclasses import dataclass

import numpy as np

from .cavity_qed import polariton_frequencies


class FitError(ValueError):
    """Raised when the data violates a fit precondition (no peak, no crossing)."""


@dataclass(frozen=True, eq=False)
class Spectrum1D:
    """Frequency grid (MHz) and linear |S21| magnitudes."""

    omega: np.ndarray
    magnitude: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.omega, dtype=float)
        m = np.asarray(self.magnitude, dtype=float)
        if w.shape != m.shape or w.ndim != 1:
            raise ValueError("omega and magnitude must be 1d arrays of equal length")
        if np.any(m < 0):
            raise ValueError("magnitudes must be non-negative (linear scale)")
        if not (np.isfinite(w).all() and np.isfinite(m).all()):
            raise ValueError("omega and magnitude must be finite")
        object.__setattr__(self, "omega", w)
        object.__setattr__(self, "magnitude", m)


@dataclass(frozen=True)
class FitResult:
    params: dict
    residual_rms: float
    converged: bool
    iterations: int


REL_STEP_TOL = 1e-8
MAX_ITER = 200


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _levmar(residual, jacobian, p0):
    """Damped least squares; returns (params, rms, converged, iterations).

    Steps with non-finite cost (transient overflow in a model evaluation)
    count as rejected and only raise the damping, so warnings are silenced.
    """
    p = np.asarray(p0, dtype=float).copy()
    r = residual(p)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    it = 0
    while it < MAX_ITER:
        it += 1
        jac = jacobian(p)
        a = jac.T @ jac
        g = jac.T @ r
        diag = np.diag(a).copy()
        diag[diag <= 0] = 1.0
        stepped = False
        while lam < 1e14:
            try:
                delta = np.linalg.solve(a + lam * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            r_new = residual(p + delta)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                p = p + delta
                r, cost = r_new, cost_new
                lam = max(lam / 3.0, 1e-12)
                stepped = True
                rel = np.max(np.abs(delta) / np.maximum(np.abs(p), 1e-8))
                if rel < REL_STEP_TOL:
                    converged = True
                break
            lam *= 10.0
        if converged or not stepped:
            converged = converged or not stepped  # damping exhausted at a minimum
            break
    rms = float(np.sqrt(cost / r.size))
    return p, rms, converged, it


def lorentzian_model(omega, center, fwhm, amplitude, baseline):
    hw = 0.5 * fwhm
    return baseline + amplitude * hw**2 / ((omega - center) ** 2 + hw**2)


def _lorentzian_jac(omega, center, fwhm, amplitude, baseline):
    hw = 0.5 * fwhm
    u = omega - center
    den = u**2 + hw**2
    jac = np.empty((omega.size, 4))
    jac[:, 0] = amplitude * hw**2 * 2 * u / den**2
    jac[:, 1] = amplitude * hw * u**2 / den**2
    jac[:, 2] = hw**2 / den
    jac[:, 3] = 1.0
    return jac


def fano_model(omega, center, width, q_asym, amplitude, baseline):
    """Fano profile normalized so the amplitude stays finite as q grows."""
    hw = 0.5 * width
    u = omega - center
    return baseline + amplitude * (q_asym * hw + u) ** 2 / ((1 + q_asym**2) * (u**2 + hw**2))


def _fano_jac(omega, center, width, q_asym, amplitude, baseline):
    hw = 0.5 * width
    u = omega - center
    den = u**2 + hw**2
    top = q_asym * hw + u
    norm = 1.0 + q_asym**2
    jac = np.empty((omega.size, 5))
    jac[:, 0] = -amplitude / norm * (2 * top * den - top**2 * 2 * u) / den**2
    jac[:, 1] = 0.5 * amplitude / norm * (2 * top * q_asym * den - top**2 * 2 * hw) / den**2
    # factored so no intermediate scales like q^2 or worse; large-q iterations stay finite
    jac[:, 2] = amplitude / norm * (2 * top * hw - ((2 * q_asym / norm) * top) * top) / den
    jac[:, 3] = top**2 / (norm * den)
    jac[:, 4] = 1.0
    return jac


def _check_peak(spec):
    if spec.omega.size < 8:
        raise FitError("need at least 8 points to fit a resonance")
    if spec.magnitude.max() <= 2.0 * np.median(spec.magnitude):
        raise FitError("no discernible peak (max not above 2x median)")


def _peak_guess(spec):
    m, w = spec.magnitude, spec.omega
    i0 = int(np.argmax(m))
    base = float(np.median(m))
    amp = float(m[i0] - base)
    half = base + 0.5 * amp
    # contiguous run at or above half maximum containing the peak: it ends
    # next to the nearest points below half maximum on either side
    below = np.flatnonzero(m < half)
    k = int(np.searchsorted(below, i0))
    lo = int(below[k - 1]) + 1 if k > 0 else 0
    hi = int(below[k]) - 1 if k < below.size else m.size - 1
    dw = abs(w[min(hi + 1, w.size - 1)] - w[max(lo - 1, 0)])
    fwhm = max(dw, 2.0 * np.min(np.abs(np.diff(w))))
    return float(w[i0]), fwhm, amp, base


def fit_lorentzian(spec):
    """Fit magnitude vs frequency to a Lorentzian peak on a flat baseline.

    :returns: FitResult with params center, fwhm, amplitude, baseline
    """
    _check_peak(spec)
    p0 = np.array(_peak_guess(spec))
    w, m = spec.omega, spec.magnitude

    def resid(p):
        return lorentzian_model(w, *p) - m

    def jac(p):
        return _lorentzian_jac(w, *p)

    p, rms, ok, it = _levmar(resid, jac, p0)
    params = {"center": p[0], "fwhm": abs(p[1]), "amplitude": p[2], "baseline": p[3]}
    return FitResult(params, rms, ok, it)


def fit_fano(spec):
    """Fit an asymmetric (Fano) resonance; large |q_asym| recovers a Lorentzian.

    Two deterministic starts with opposite asymmetry sign; the lower residual
    wins, ties go to the positive start.
    """
    _check_peak(spec)
    c0, w0, a0, b0 = _peak_guess(spec)
    w, m = spec.omega, spec.magnitude

    def resid(p):
        return fano_model(w, *p) - m

    def jac(p):
        return _fano_jac(w, *p)

    best = None
    for q0 in (2.0, -2.0):
        p0 = np.array([c0, w0, q0, a0, b0])
        p, rms, ok, it = _levmar(resid, jac, p0)
        if best is None or rms < best[1] - 1e-15:
            best = (p, rms, ok, it)
    p, rms, ok, it = best
    params = {
        "center": p[0],
        "width": abs(p[1]),
        "q_asym": p[2],
        "amplitude": p[3],
        "baseline": p[4],
    }
    return FitResult(params, rms, ok, it)


def extract_qs(fit, insertion_loss_peak):
    """Loaded, external, internal quality factors from a Lorentzian fit.

    Symmetric two-port convention: the peak transmission equals Q_L/Q_ext
    with the two ports lumped into one external Q.
    """
    if not 0.0 < insertion_loss_peak < 1.0:
        raise ValueError("insertion loss peak must lie strictly between 0 and 1")
    q_l = fit.params["center"] / fit.params["fwhm"]
    q_ext = q_l / insertion_loss_peak
    inv_int = 1.0 / q_l - 1.0 / q_ext
    if inv_int <= 0:
        raise ValueError("internal Q denominator not positive")
    return {"q_loaded": q_l, "q_ext": q_ext, "q_int": 1.0 / inv_int}


def _column_peaks(omega, mag):
    """Per field column of the (n_b, n_omega) map `mag`, the sorted positions
    of its up to two strongest interior local maxima above a robust threshold.

    A column's threshold is its median + 3 * 1.4826 * MAD.  Two maxima only
    count as separate peaks if the valley between them drops at least 3x the
    noise below the smaller one, so noise cannot split a single ridge in two.
    Sub-bin positions by parabolic interpolation around each maximum.
    """
    med = np.median(mag, axis=1, keepdims=True)
    noise = 1.4826 * np.median(np.abs(mag - med), axis=1)
    thresh = med[:, 0] + 3.0 * noise
    mid = mag[:, 1:-1]
    cols, idx = np.nonzero((mid > mag[:, :-2]) & (mid >= mag[:, 2:]) & (mid > thresh[:, None]))
    idx += 1
    # candidates by column, strongest first, ties in frequency order
    order = np.lexsort((idx, -mag[cols, idx], cols))
    chosen = [[] for _ in range(mag.shape[0])]
    for c, i in zip(cols[order].tolist(), idx[order].tolist()):
        picked = chosen[c]
        if len(picked) == 2:
            continue
        if picked:
            j = picked[0]
            lo, hi = (i, j) if i < j else (j, i)
            if mag[c, lo : hi + 1].min() > min(mag[c, i], mag[c, j]) - 3.0 * noise[c]:
                continue
        picked.append(i)
    cols = np.array([c for c, picked in enumerate(chosen) for _ in picked], dtype=int)
    idx = np.array([i for picked in chosen for i in picked], dtype=int)
    left, top, right = mag[cols, idx - 1], mag[cols, idx], mag[cols, idx + 1]
    denom = left - 2 * top + right
    shift = np.divide(0.5 * (left - right), denom, out=np.zeros(denom.shape), where=denom != 0)
    shift = np.clip(shift, -0.5, 0.5)
    pos = iter((omega[idx] + shift * (omega[idx + 1] - omega[idx])).tolist())
    return [sorted([next(pos) for _ in picked]) for picked in chosen]


def fit_avoided_crossing(smap):
    """Extract the ensemble coupling from an anticrossing transmission map.

    Peaks are picked per field column, then both branches are least-squares
    matched to the coupled-mode frequencies with a linear spin tune
    omega_s(B) = omega_r + slope (B - b_star).

    :returns: FitResult with params g_ens, omega_r, b_star, slope
    """
    b_axis = np.asarray(smap.b_axis, dtype=float)
    omega_axis = np.asarray(smap.omega_axis, dtype=float)
    mag = np.abs(smap.values)

    per_column = _column_peaks(omega_axis, mag)
    usable = [i for i, pk in enumerate(per_column) if pk]
    if len(usable) < 5:
        raise FitError("fewer than 5 usable columns with a detectable peak")
    doubles = [i for i in usable if len(per_column[i]) == 2]
    if len(doubles) < 3:
        raise FitError("no repulsion detected (too few columns with two peaks)")

    # cavity frequency: strongest peak in the most detuned usable columns
    n_edge = max(2, len(usable) // 5)
    edge_cols = usable[:n_edge] + usable[-n_edge:]
    omega_r0 = float(np.median([per_column[i][-1] if len(per_column[i]) == 1
                                else _strongest(omega_axis, mag[i], per_column[i])
                                for i in edge_cols]))

    # the polariton sum rule gives the bare spin frequency per two-peak column
    bs = np.array([b_axis[i] for i in doubles])
    ws = np.array([per_column[i][0] + per_column[i][1] - omega_r0 for i in doubles])
    slope0, icept0 = np.polyfit(bs, ws, 1)
    if slope0 == 0:
        raise FitError("spin branch does not tune with field")
    b_star0 = (omega_r0 - icept0) / slope0
    if not b_axis.min() <= b_star0 <= b_axis.max():
        raise FitError(f"crossing at {b_star0:.2f} mT falls outside the field range")
    g0 = 0.5 * min(per_column[i][1] - per_column[i][0] for i in doubles)

    obs_b, obs_w = [], []
    for i in usable:
        for pk in per_column[i]:
            obs_b.append(b_axis[i])
            obs_w.append(pk)
    obs_b, obs_w = np.array(obs_b), np.array(obs_w)

    def resid(p):
        g, omega_r, b_star, slope = p
        omega_s = omega_r + slope * (obs_b - b_star)
        lo, hi = polariton_frequencies(omega_r, omega_s, abs(g))
        return np.where(np.abs(obs_w - lo) <= np.abs(obs_w - hi), obs_w - lo, obs_w - hi)

    def jac(p):
        out = np.empty((obs_b.size, p.size))
        for k in range(p.size):
            h = max(1e-6 * abs(p[k]), 1e-7)
            pp, pm = p.copy(), p.copy()
            pp[k] += h
            pm[k] -= h
            out[:, k] = (resid(pp) - resid(pm)) / (2 * h)
        return out

    p0 = np.array([g0, omega_r0, b_star0, slope0])
    p, rms, ok, it = _levmar(resid, jac, p0)
    params = {"g_ens": abs(p[0]), "omega_r": p[1], "b_star": p[2], "slope": p[3]}
    return FitResult(params, rms, ok, it)


def _strongest(omega, mag, peaks):
    """Of the listed peak positions, the one with the larger magnitude nearby."""
    vals = [mag[int(np.argmin(np.abs(omega - pk)))] for pk in peaks]
    return peaks[int(np.argmax(vals))]
