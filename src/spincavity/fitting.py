"""Least-squares extraction of physical parameters from spectra and maps.

All fits run on a small Levenberg-Marquardt engine kept in this module so
that results are bit-deterministic for identical inputs: fixed damping
schedule, no randomized restarts, convergence on relative parameter step.
Every model returns its values together with a function that builds its
analytic Jacobian from the same evaluation.
"""

import numpy as np

from .cavity_qed import polariton_frequencies
from .scalars import FitError, Record  # FitError is mapped to the CLI's exit code 3


class Spectrum1D(Record, eq=False):
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


class FitResult(Record):
    params: dict
    residual_rms: float
    converged: bool
    iterations: int


REL_STEP_TOL = 1e-8
MAX_ITER = 200


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _levmar(evaluate, p0):
    """Damped least squares; returns (params, rms, converged, iterations).

    evaluate(p) returns the residual at p and a zero-argument function that
    builds the Jacobian there from the same evaluation.  The engine calls that
    function only at the start and at accepted points, so a rejected trial
    costs one residual.  Steps with non-finite cost (transient overflow in a
    model evaluation) count as rejected and only raise the damping, so
    warnings are silenced; a non-finite cost at the start is a FitError.
    """
    p = np.asarray(p0, dtype=float).copy()
    r, jacobian = evaluate(p)
    cost = float(r @ r)
    if not np.isfinite(cost):
        raise FitError("model is not finite at the start values")
    lam = 1e-3
    converged = False
    it = 0
    while not converged and it < MAX_ITER:
        it += 1
        jac = jacobian()
        a = jac.T @ jac
        g = jac.T @ r
        a_diag = np.diag(a)
        diag = np.where(a_diag <= 0, 1.0, a_diag)
        damped = a.copy()
        while lam < 1e14:
            np.fill_diagonal(damped, a_diag + lam * diag)
            delta = np.linalg.solve(damped, -g)
            r_new, jac_new = evaluate(p + delta)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                p = p + delta
                r, cost, jacobian = r_new, cost_new, jac_new
                lam = max(lam / 3.0, 1e-12)
                rel = np.max(np.abs(delta) / np.maximum(np.abs(p), 1e-8))
                converged = bool(rel < REL_STEP_TOL)
                break
            lam *= 10.0
        else:  # damping exhausted at a minimum
            converged = True
    rms = float(np.sqrt(cost / r.size))
    return p, rms, converged, it


def _lorentzian(omega, center, fwhm, amplitude, baseline):
    """The Lorentzian's values and a function building its Jacobian from them."""
    hw = 0.5 * fwhm
    u = omega - center
    den = u**2 + hw**2

    def jacobian():
        den2 = den**2
        jac = np.empty((4, omega.size))  # one contiguous row per parameter
        jac[0] = amplitude * hw**2 * 2 * u / den2
        jac[1] = amplitude * hw * u**2 / den2
        jac[2] = hw**2 / den
        jac[3] = 1.0
        return jac.T

    return baseline + amplitude * hw**2 / den, jacobian


def lorentzian_model(omega, center, fwhm, amplitude, baseline):
    return _lorentzian(omega, center, fwhm, amplitude, baseline)[0]


def _fano(omega, center, width, theta, amplitude, baseline):
    """The Fano profile's values and a function building its Jacobian from them.

    The asymmetry is the angle theta, with q = cot(theta): the shape
    (cos(theta) hw + sin(theta) u)^2 / (u^2 + hw^2) is bounded and smooth in
    theta, the Lorentzian at theta = 0 and the antiresonance at pi / 2.
    """
    hw = 0.5 * width
    u = omega - center
    den = u**2 + hw**2
    cos, sin = np.cos(theta), np.sin(theta)
    top = cos * hw + sin * u
    shape = top**2 / den

    def jacobian():
        k = 2.0 * amplitude * top / den
        jac = np.empty((5, omega.size))
        jac[0] = k * (u * top / den - sin)
        jac[1] = 0.5 * k * (cos - hw * top / den)
        jac[2] = k * (cos * u - sin * hw)
        jac[3] = shape
        jac[4] = 1.0
        return jac.T

    return baseline + amplitude * shape, jacobian


def fano_model(omega, center, width, q_asym, amplitude, baseline):
    """Fano profile normalized so the amplitude stays finite as q grows:
    amplitude (q hw + u)^2 / ((1 + q^2)(u^2 + hw^2)) + baseline, with
    u = omega - center and hw = width / 2.  q = 0 is the antiresonance and
    q = +-inf the Lorentzian."""
    return _fano(omega, center, width, np.arctan2(1.0, q_asym), amplitude, baseline)[0]


def _median(x):
    """np.median(x, axis=-1), bit for bit, from one partition."""
    k = x.shape[-1] // 2
    if x.shape[-1] % 2:
        return np.partition(x, k, axis=-1)[..., k]
    part = np.partition(x, (k - 1, k), axis=-1)
    return (part[..., k - 1] + part[..., k]) / 2


def _check_peak(spec):
    if spec.omega.size < 8:
        raise FitError("need at least 8 points to fit a resonance")
    if spec.magnitude.max() <= 2.0 * _median(spec.magnitude):
        raise FitError("no discernible peak (max not above 2x median)")


def _peak_guess(spec):
    m, w = spec.magnitude, spec.omega
    i0 = int(np.argmax(m))
    base = float(_median(m))
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


def _fit_peak(spec, model, start):
    """LM fit of the kernel `model` to a peaked spectrum, from the parameters
    that start(center, fwhm, amplitude, baseline) makes of the peak guess."""
    _check_peak(spec)
    w, m = spec.omega, spec.magnitude

    def evaluate(p):
        value, jacobian = model(w, *p)
        return value - m, jacobian

    return _levmar(evaluate, np.array(start(*_peak_guess(spec))))


def fit_lorentzian(spec):
    """Fit magnitude vs frequency to a Lorentzian peak on a flat baseline.

    :returns: FitResult with params center, fwhm, amplitude, baseline
    """
    p, rms, ok, it = _fit_peak(spec, _lorentzian, lambda *guess: guess)
    params = {"center": p[0], "fwhm": abs(p[1]), "amplitude": p[2], "baseline": p[3]}
    return FitResult(params, rms, ok, it)


def fit_fano(spec):
    """Fit an asymmetric (Fano) resonance, starting from the Lorentzian.

    One LM run in the angle theta = arccot(q_asym) from theta = 0 and the
    peak guess.  q_asym is reported as cot(theta): inf when theta stays
    exactly 0, and large |q_asym| for a nearly symmetric line.
    """
    p, rms, ok, it = _fit_peak(spec, _fano, lambda c, w, a, b: (c, w, 0.0, a, b))
    params = {
        "center": p[0],
        "width": abs(p[1]),
        "q_asym": np.cos(p[2]) / np.sin(p[2]) if p[2] != 0.0 else np.inf,
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
    # 1/Q_L - 1/Q_ext = (1 - peak)/Q_L has the sign of Q_L, which is tested before
    # any 1/Q_L; a peak within rounding of 1 can still leave a zero difference
    if not (q_l > 0 and 1.0 / q_l > 1.0 / q_ext):
        raise FitError(f"internal Q denominator not positive: Q_L = {q_l:.6g}, Q_ext = {q_ext:.6g}")
    return {"q_loaded": q_l, "q_ext": q_ext, "q_int": 1.0 / (1.0 / q_l - 1.0 / q_ext)}


def _column_peaks(omega, mag):
    """Per field column of the (n_b, n_omega) map `mag`, the sorted positions
    of its up to two strongest interior local maxima above a robust threshold.

    A column's threshold is its median + 3 * 1.4826 * MAD.  Two maxima only
    count as separate peaks if the valley between them drops at least 3x the
    noise below the smaller one, so noise cannot split a single ridge in two.
    Sub-bin positions by parabolic interpolation around each maximum.
    """
    med = _median(mag)[:, None]
    noise = 1.4826 * _median(np.abs(mag - med))
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
    omega_r0 = float(_median(np.array([per_column[i][-1] if len(per_column[i]) == 1
                                       else _strongest(omega_axis, mag[i], per_column[i])
                                       for i in edge_cols])))

    # the polariton sum rule gives the bare spin frequency per two-peak column
    bs = np.array([b_axis[i] for i in doubles])
    ws = np.array([per_column[i][0] + per_column[i][1] - omega_r0 for i in doubles])
    slope0, icept0 = np.polyfit(bs, ws, 1)
    # a tuning of less than one frequency step over the window is rounding, not a slope
    if abs(slope0) * np.ptp(b_axis) < np.abs(np.diff(omega_axis)).min():
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

    p0 = np.array([g0, omega_r0, b_star0, slope0])
    p, rms, ok, it = _levmar(lambda p: _branch_residual(obs_b, obs_w, *p), p0)
    params = {"g_ens": abs(p[0]), "omega_r": p[1], "b_star": p[2], "slope": p[3]}
    return FitResult(params, rms, ok, it)


def _branch_residual(obs_b, obs_w, g, omega_r, b_star, slope):
    """Each observed peak minus its nearer coupled-mode branch, and a function
    building the analytic Jacobian in (g, omega_r, b_star, slope).

    With delta = slope (B - b_star) / 2 the branches are
    omega_r + delta + sigma sqrt(g^2 + delta^2), sigma = -1 (lower) or +1.
    """
    offset = obs_b - b_star
    lo, hi = polariton_frequencies(omega_r, omega_r + slope * offset, abs(g))
    lower = np.abs(obs_w - lo) <= np.abs(obs_w - hi)

    def jacobian():
        delta = 0.5 * slope * offset
        sigma_split = np.where(lower, -1.0, 1.0) / np.sqrt(g**2 + delta**2)
        tilt = 1.0 + sigma_split * delta  # minus d(residual) / d(delta)
        jac = np.empty((4, obs_b.size))
        jac[0] = -g * sigma_split
        jac[1] = -1.0
        jac[2] = 0.5 * slope * tilt
        jac[3] = -0.5 * offset * tilt
        return jac.T

    return np.where(lower, obs_w - lo, obs_w - hi), jacobian


def _strongest(omega, mag, peaks):
    """Of the listed peak positions, the one with the larger magnitude nearby."""
    vals = [mag[int(np.argmin(np.abs(omega - pk)))] for pk in peaks]
    return peaks[int(np.argmax(vals))]
