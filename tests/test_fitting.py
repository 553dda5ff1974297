"""Lineshape fits, Q extraction, avoided-crossing parameter recovery."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from spincavity import cavity_qed as cq
from spincavity import experiments as ex
from spincavity import fitting as ft
from spincavity import sweep_cli as cli
from spincavity import sweep_io as sio

ROOT = Path(__file__).resolve().parents[1]

CENTER, FWHM, AMP, BASE = 5390.0, 4.9, 0.6, 0.02


def clean_lorentzian(n=801, half_span=40.0):
    grid = np.linspace(CENTER - half_span, CENTER + half_span, n)
    return grid, ft.lorentzian_model(grid, CENTER, FWHM, AMP, BASE)


def branch_map(g=11.5, omega_r=5390.0, b_star=76.49, slope=170.0):
    """Map whose ridges sit exactly on the coupled-mode branches."""
    b_grid = np.linspace(b_star - 3.5, b_star + 3.5, 57)
    omega_grid = np.linspace(omega_r - 45.0, omega_r + 45.0, 541)
    rows = []
    for b in b_grid:
        omega_s = omega_r + slope * (b - b_star)
        row = np.zeros(omega_grid.size)
        for pk in cq.polariton_frequencies(omega_r, omega_s, g):
            row += 0.8 * 1.25**2 / ((omega_grid - pk) ** 2 + 1.25**2)
        rows.append(row)
    return cq.SpectrumMap(b_grid, omega_grid, np.array(rows).astype(complex))


# ---------------------------------------------------------------- validation


def test_spectrum1d_validation():
    with pytest.raises(ValueError):
        ft.Spectrum1D(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        ft.Spectrum1D(np.array([1.0, 2.0]), np.array([0.5, -0.1]))


def _fit_spoilt_trace(column, value):
    columns = [c.copy() for c in ex.lorentzian_q_trace(5390.0, 1300.0, 3500.0)]
    columns[column][500] = value
    return ft.fit_lorentzian(ft.Spectrum1D(*columns))


def _fit_spoilt_map(value):
    smap = ex.nv_anticrossing_map()
    values = smap.values.copy()
    values[28, 200] = value
    return ft.fit_avoided_crossing(cq.SpectrumMap(smap.b_axis, smap.omega_axis, values))


@pytest.mark.parametrize(
    "fit_spoilt",
    [lambda: _fit_spoilt_trace(1, np.nan), lambda: _fit_spoilt_trace(0, np.inf),
     lambda: _fit_spoilt_map(np.inf)],
    ids=["nan_magnitude", "inf_omega", "inf_map_value"],
)
def test_non_finite_data_is_rejected_before_a_fit(fit_spoilt):
    # each used to fit with converged = True (a nan rms, or a finite g_ens)
    with pytest.raises(ValueError, match="must be finite"):
        fit_spoilt()


def test_fit_rejects_flat_and_tiny_data():
    grid = np.linspace(0, 1, 50)
    with pytest.raises(ft.FitError):
        ft.fit_lorentzian(ft.Spectrum1D(grid, np.ones(50)))
    with pytest.raises(ft.FitError):
        ft.fit_lorentzian(ft.Spectrum1D(grid[:5], np.ones(5)))


# ---------------------------------------------------------------- Lorentzian


def test_lorentzian_exact_round_trip():
    grid, mag = clean_lorentzian()
    res = ft.fit_lorentzian(ft.Spectrum1D(grid, mag))
    assert res.converged
    assert abs(res.params["center"] - CENTER) < 1e-6
    assert abs(res.params["fwhm"] - FWHM) / FWHM < 1e-6
    assert abs(res.params["amplitude"] - AMP) / AMP < 1e-6
    assert abs(res.params["baseline"] - BASE) < 1e-6
    assert res.residual_rms < 1e-9


def test_lorentzian_monte_carlo_recovery():
    """1 % additive noise: center stays within fwhm/50, width within 3 %."""
    grid, mag = clean_lorentzian()
    for seed in range(120):
        rng = np.random.default_rng(seed)
        noisy = np.clip(mag + rng.normal(0.0, 0.01 * AMP, grid.shape), 0.0, None)
        res = ft.fit_lorentzian(ft.Spectrum1D(grid, noisy))
        assert res.converged
        assert abs(res.params["center"] - CENTER) < FWHM / 50.0
        assert abs(res.params["fwhm"] - FWHM) / FWHM < 0.03


def test_lorentzian_scale_and_translation_invariance():
    grid, mag = clean_lorentzian()
    r1 = ft.fit_lorentzian(ft.Spectrum1D(grid, mag))
    r2 = ft.fit_lorentzian(ft.Spectrum1D(grid, 1000.0 * mag))
    assert abs(r2.params["center"] - r1.params["center"]) < 1e-9
    assert abs(r2.params["fwhm"] - r1.params["fwhm"]) / FWHM < 1e-9
    r3 = ft.fit_lorentzian(ft.Spectrum1D(grid + 250.0, mag))
    assert abs(r3.params["center"] - (r1.params["center"] + 250.0)) < 1e-9
    assert abs(r3.params["fwhm"] - r1.params["fwhm"]) < 1e-9


def test_fit_determinism():
    grid, mag = clean_lorentzian()
    rng = np.random.default_rng(42)
    noisy = np.clip(mag + rng.normal(0.0, 0.01 * AMP, grid.shape), 0.0, None)
    a = ft.fit_lorentzian(ft.Spectrum1D(grid, noisy))
    b = ft.fit_lorentzian(ft.Spectrum1D(grid, noisy.copy()))
    assert a.params == b.params
    assert a.iterations == b.iterations


def reference_peak_guess(spec):
    """The start of a Lorentzian fit, growing the half-maximum run one index
    at a time: the oracle of `_peak_guess`.  Also returns the run (lo, hi)."""
    m, w = spec.magnitude, spec.omega
    i0 = int(np.argmax(m))
    base = float(np.median(m))
    amp = float(m[i0] - base)
    above = set(np.flatnonzero(m >= base + 0.5 * amp).tolist())
    lo = hi = i0
    while lo - 1 in above:
        lo -= 1
    while hi + 1 in above:
        hi += 1
    dw = abs(w[min(hi + 1, w.size - 1)] - w[max(lo - 1, 0)])
    fwhm = max(dw, 2.0 * np.min(np.abs(np.diff(w))))
    return (float(w[i0]), fwhm, amp, base), (lo, hi)


def _peak_guess_traces():
    loop_gap = cli.parse_config((ROOT / "configs" / "loop_gap.ini").read_text())
    grid, mag = clean_lorentzian()
    return {
        "loop_gap": sio._synthesize_trace(loop_gap, 0.0),
        "left_edge": ft.Spectrum1D(grid[400:], mag[400:]),
        "right_edge": ft.Spectrum1D(grid[:401], mag[:401]),
    }


@pytest.mark.parametrize("name, run", [("loop_gap", None), ("left_edge", 0), ("right_edge", 400)])
def test_peak_guess_and_lorentzian_fit_match_the_reference_walk(monkeypatch, name, run):
    spec = _peak_guess_traces()[name]
    guess, (lo, hi) = reference_peak_guess(spec)
    if run is None:
        assert hi - lo + 1 == 147  # the loop-gap peak's points at half maximum
    else:
        assert run in (lo, hi)  # the run touches an end of the grid
    assert ft._peak_guess(spec) == guess
    fit = ft.fit_lorentzian(spec)
    monkeypatch.setattr(ft, "_peak_guess", lambda s: reference_peak_guess(s)[0])
    assert ft.fit_lorentzian(spec) == fit


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1), integers=st.booleans())
def test_peak_guess_matches_the_reference_walk(n, seed, integers):
    rng = np.random.default_rng(seed)
    mag = rng.integers(0, 4, n).astype(float) if integers else rng.random(n)
    spec = ft.Spectrum1D(np.linspace(5340.0, 5440.0, n), mag)
    assert ft._peak_guess(spec) == reference_peak_guess(spec)[0]


# ---------------------------------------------------------------- Fano


def test_fano_exact_round_trip():
    grid = np.linspace(CENTER - 40, CENTER + 40, 801)
    mag = ft.fano_model(grid, CENTER, FWHM, 1.7, AMP, BASE)
    res = ft.fit_fano(ft.Spectrum1D(grid, mag))
    assert res.converged
    assert abs(res.params["center"] - CENTER) < 1e-5
    assert abs(res.params["width"] - FWHM) / FWHM < 1e-5
    assert abs(res.params["q_asym"] - 1.7) < 1e-4
    assert res.residual_rms < 1e-8


def test_fano_reduces_to_lorentzian_at_large_q():
    # symmetric input: asymmetry runs away and the shape degenerates cleanly
    grid, mag = clean_lorentzian()
    res = ft.fit_fano(ft.Spectrum1D(grid, mag))
    assert abs(res.params["q_asym"]) > 50.0
    assert abs(res.params["width"] - FWHM) / FWHM < 0.01
    assert res.residual_rms < 1e-6 * AMP


def test_fano_model_antiresonance_at_zero_q():
    # q = 0 is a pure dip touching the baseline at the center; peak finding
    # rejects such data, so only the model identity is checked here
    grid = np.linspace(CENTER - 40, CENTER + 40, 801)
    mag = ft.fano_model(grid, CENTER, FWHM, 0.0, AMP, 0.3)
    assert np.isclose(mag[np.argmin(np.abs(grid - CENTER))], 0.3, atol=1e-4)
    assert np.isclose(mag.min(), 0.3, atol=1e-4)


def test_fano_model_limits_are_the_antiresonance_and_the_lorentzian():
    grid = np.linspace(CENTER - 40, CENTER + 40, 801)
    u2, hw2 = (grid - CENTER) ** 2, (0.5 * FWHM) ** 2
    np.testing.assert_allclose(ft.fano_model(grid, CENTER, FWHM, 0.0, AMP, BASE),
                               AMP * u2 / (u2 + hw2) + BASE, rtol=1e-14)
    for q in (np.inf, -np.inf):
        np.testing.assert_allclose(ft.fano_model(grid, CENTER, FWHM, q, AMP, BASE),
                                   ft.lorentzian_model(grid, CENTER, FWHM, AMP, BASE), rtol=1e-14)


def test_fano_fits_the_capacitance_sweep_from_one_start():
    # |S21|^2 traces over the whole Q_ext range, the power that criterion 5's cc
    # sweep fits; cross-talk-free circuits make them almost Lorentzian, so the
    # fit starts there and needs few steps
    ccs = np.linspace(ex.cc_for_qext(ex.Q_EXT_MAX), ex.cc_for_qext(ex.Q_EXT_MIN), 9)
    for cc in ccs:
        grid, s21 = ex.loop_gap_trace(ex.loop_gap_elements(cc))
        spec = ft.Spectrum1D(grid, np.abs(s21) ** 2)
        res = ft.fit_fano(spec)
        assert res.converged and res.iterations <= 6, (cc, res.iterations)
        assert res.residual_rms <= ft.fit_lorentzian(spec).residual_rms


def test_fano_negative_asymmetry_round_trip():
    grid = np.linspace(CENTER - 40, CENTER + 40, 801)
    mag = ft.fano_model(grid, CENTER, FWHM, -1.7, AMP, BASE)
    res = ft.fit_fano(ft.Spectrum1D(grid, mag))
    assert res.converged
    assert abs(res.params["q_asym"] + 1.7) < 1e-4


# ---------------------------------------------------------------- Q extraction


def test_extract_qs_arithmetic():
    fit = ft.FitResult({"center": 5390.0, "fwhm": 2.695}, 0.0, True, 1)
    qs = ft.extract_qs(fit, 0.5)
    assert np.isclose(qs["q_loaded"], 2000.0)
    assert np.isclose(qs["q_ext"], 4000.0)
    assert np.isclose(qs["q_int"], 4000.0)
    with pytest.raises(ValueError):
        ft.extract_qs(fit, 1.0)
    with pytest.raises(ValueError):
        ft.extract_qs(fit, 0.0)
    # a negative center gives a negative Q_L, so 1/Q_L - 1/Q_ext < 0
    flipped = ft.FitResult({"center": -5390.0, "fwhm": 2.695}, 0.0, True, 1)
    with pytest.raises(ValueError, match="internal Q denominator not positive"):
        ft.extract_qs(flipped, 0.5)


@pytest.mark.parametrize("center, fwhm, peak", [
    (-5390.0, 2.695, 0.5), (-0.0, 2.695, 0.5), (0.0, 2.695, 0.5),
    (1002.0, 1.0, 1.0 - 2.0**-53),  # Q_ext = Q_L / peak rounds to where 1/Q_ext == 1/Q_L
])
def test_extract_qs_rejects_a_denominator_not_above_zero_as_a_fit_error(center, fwhm, peak):
    # a fitted centre at or below 0 MHz gives Q_L <= 0, which the CLI reports as
    # a fit error; a centre of exactly 0 used to return nan Qs with warnings
    fit = ft.FitResult({"center": np.float64(center), "fwhm": np.float64(fwhm)}, 0.0, True, 1)
    with pytest.raises(ft.FitError, match="internal Q denominator not positive"):
        ft.extract_qs(fit, peak)


def test_extract_qs_round_trip_from_synthetic_trace():
    for q_ext in (3500.0, 85000.0):
        q_l = 1.0 / (1.0 / 1300.0 + 1.0 / q_ext)
        grid, mag = ex.lorentzian_q_trace(5390.0, 1300.0, q_ext)
        res = ft.fit_lorentzian(ft.Spectrum1D(grid, mag))
        qs = ft.extract_qs(res, res.params["amplitude"] + res.params["baseline"])
        assert abs(qs["q_loaded"] - q_l) / q_l < 0.01
        assert abs(qs["q_ext"] - q_ext) / q_ext < 0.01
        assert abs(qs["q_int"] - 1300.0) / 1300.0 < 0.01


# ---------------------------------------------------------------- anticrossing


def reference_column_peaks(omega, mag):
    """The peak picker of one field column, one frequency at a time: the
    oracle of the whole-map `_column_peaks`."""
    med = np.median(mag)
    noise = 1.4826 * np.median(np.abs(mag - med))
    thresh = med + 3.0 * noise
    idx = [
        i
        for i in range(1, mag.size - 1)
        if mag[i] > mag[i - 1] and mag[i] >= mag[i + 1] and mag[i] > thresh
    ]
    idx.sort(key=lambda i: -mag[i])
    chosen = []
    for i in idx:
        distinct = True
        for j in chosen:
            lo, hi = (i, j) if i < j else (j, i)
            valley = mag[lo : hi + 1].min()
            if valley > min(mag[i], mag[j]) - 3.0 * noise:
                distinct = False
                break
        if distinct:
            chosen.append(i)
        if len(chosen) == 2:
            break
    peaks = []
    for i in chosen:
        denom = mag[i - 1] - 2 * mag[i] + mag[i + 1]
        shift = 0.0 if denom == 0 else 0.5 * (mag[i - 1] - mag[i + 1]) / denom
        shift = float(np.clip(shift, -0.5, 0.5))
        peaks.append(float(omega[i] + shift * (omega[min(i + 1, omega.size - 1)] - omega[i])))
    return sorted(peaks)


def _peak_test_map(kind, n_b, n_w, seed):
    """A (n_b, n_w) magnitude map: uniform noise, small integers (ties and
    plateaus: a 0/1 floor with dense spikes of 3 to 8) or two Gaussian ridges
    per column on noise."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.random((n_b, n_w))
    if kind == "integer":
        spikes = rng.integers(3, 9, (n_b, n_w)) * (rng.random((n_b, n_w)) < 0.3)
        return (rng.integers(0, 2, (n_b, n_w)) + spikes).astype(float)
    x = np.arange(n_w)
    centers = rng.uniform(0, n_w, (n_b, 2, 1))
    widths = rng.uniform(0.5, 0.2 * n_w + 1.0, (n_b, 2, 1))
    heights = rng.uniform(0.2, 1.0, (n_b, 2, 1))
    ridges = (heights * np.exp(-0.5 * ((x - centers) / widths) ** 2)).sum(axis=1)
    return np.abs(ridges + rng.normal(0.0, rng.uniform(0.0, 0.1), (n_b, n_w)))


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["random", "integer", "gaussians"]),
    n_b=st.integers(1, 6),
    n_w=st.integers(3, 80),
    seed=st.integers(0, 2**32 - 1),
    descending=st.booleans(),
)
@example(kind="random", n_b=1, n_w=3, seed=0, descending=False)
@example(kind="integer", n_b=1, n_w=3, seed=1, descending=True)
@example(kind="gaussians", n_b=1, n_w=60, seed=2, descending=False)
@example(kind="integer", n_b=4, n_w=3, seed=3, descending=False)
def test_column_peaks_match_the_per_column_reference(kind, n_b, n_w, seed, descending):
    mag = _peak_test_map(kind, n_b, n_w, seed)
    omega = np.linspace(5340.0, 5440.0, n_w)[:: -1 if descending else 1]
    assert ft._column_peaks(omega, mag) == [reference_column_peaks(omega, row) for row in mag]


@pytest.mark.parametrize("noise", [0.0, 0.01])
def test_column_peaks_match_the_reference_on_physical_maps(noise):
    p1_window = cli.parse_config((ROOT / "configs" / "p1_20ppm_b001.ini").read_text())
    maps = (ex.nv_anticrossing_map(), ex.p1_anticrossing_map(1, 8.8),
            sio._synthesize_map(p1_window, 0.0))
    for smap in maps:
        if noise:
            smap = ex.add_magnitude_noise(smap, noise, 5)
        mag = np.abs(smap.values)
        expected = [reference_column_peaks(smap.omega_axis, row) for row in mag]
        assert ft._column_peaks(smap.omega_axis, mag) == expected


def test_avoided_crossing_idealized_round_trip():
    """Peaks placed exactly on the branches: recovery to the grid resolution.

    Peak positions quantize to the frequency pixels (parabolic refinement
    leaves ~1e-4 of a bin), so the coupling comes back to ~3e-5 relative, not
    to machine precision.
    """
    smap = branch_map()
    res = ft.fit_avoided_crossing(smap)
    assert res.converged
    assert abs(res.params["g_ens"] - 11.5) / 11.5 < 5e-4
    assert abs(res.params["omega_r"] - 5390.0) < 1e-3
    assert abs(res.params["b_star"] - 76.49) < 1e-3
    assert abs(res.params["slope"] - 170.0) / 170.0 < 5e-4


def test_avoided_crossing_magnitude_rescale_is_bitwise():
    smap = branch_map()
    r1 = ft.fit_avoided_crossing(smap)
    r2 = ft.fit_avoided_crossing(
        cq.SpectrumMap(smap.b_axis, smap.omega_axis, smap.values * 1000.0)
    )
    assert r1.params == r2.params


def test_avoided_crossing_physical_map():
    smap = ex.nv_anticrossing_map()
    res = ft.fit_avoided_crossing(smap)
    assert res.converged
    # finite linewidths push the transmission peaks slightly apart
    assert abs(res.params["g_ens"] - 11.5) / 11.5 < 0.02
    assert abs(res.params["b_star"] - ex.nv_crossing()) < 0.1


def test_avoided_crossing_with_noise():
    smap = ex.nv_anticrossing_map()
    sigma = 0.01 * np.abs(smap.values).max()
    for seed in (0, 1):
        noisy = ex.add_magnitude_noise(smap, sigma, seed)
        res = ft.fit_avoided_crossing(noisy)
        assert abs(res.params["g_ens"] - 11.5) / 11.5 < 0.05


def test_avoided_crossing_needs_repulsion():
    smap = ex.nv_anticrossing_map(g_ens=0.0)
    with pytest.raises(ft.FitError):
        ft.fit_avoided_crossing(smap)


def test_avoided_crossing_needs_enough_columns():
    full = branch_map()
    tiny = cq.SpectrumMap(full.b_axis[:3], full.omega_axis, full.values[:3])
    with pytest.raises(ft.FitError):
        ft.fit_avoided_crossing(tiny)


def test_avoided_crossing_rejects_crossing_outside_window():
    # both branches visible and tuning, but extrapolated to meet at 80 mT,
    # beyond the mapped field range
    b_grid = np.linspace(70.0, 77.0, 29)
    omega_grid = np.linspace(5340.0, 5440.0, 501)
    rows = []
    for b in b_grid:
        omega_s = 5390.0 + 10.0 * (b - 80.0)
        row = np.zeros(omega_grid.size)
        for pk in cq.polariton_frequencies(5390.0, omega_s, 11.5):
            row += 0.8 * 1.25**2 / ((omega_grid - pk) ** 2 + 1.25**2)
        rows.append(row)
    smap = cq.SpectrumMap(b_grid, omega_grid, np.array(rows).astype(complex))
    with pytest.raises(ft.FitError):
        ft.fit_avoided_crossing(smap)


def test_avoided_crossing_rejects_a_branch_that_does_not_tune():
    # the same two peaks in every column: the sum-rule slope is rounding
    # (about 1e-13 MHz/mT), far below one frequency step over the window
    b_grid = np.linspace(70.0, 80.0, 41)
    omega_grid = np.linspace(5340.0, 5440.0, 501)
    row = sum(0.2 * 1.5**2 / ((omega_grid - pk) ** 2 + 1.5**2) for pk in (5380.0, 5400.0))
    smap = cq.SpectrumMap(b_grid, omega_grid, np.tile(row, (b_grid.size, 1)).astype(complex))
    with pytest.raises(ft.FitError, match="spin branch does not tune with field"):
        ft.fit_avoided_crossing(smap)


# ---------------------------------------------------------------- LM engine


def central_differences(values, p, rel_step):
    """d values / d p by central differences, one column per parameter."""
    columns = []
    for k in range(len(p)):
        h = rel_step * max(abs(p[k]), 1.0)
        up, down = list(p), list(p)
        up[k] += h
        down[k] -= h
        columns.append((values(up) - values(down)) / (2 * h))
    return np.column_stack(columns)


def assert_jacobian_matches(jacobian, values, p, rel_step, tol):
    """Each column of the analytic Jacobian within tol of central differences,
    relative to the column's largest entry."""
    jac = jacobian()
    diff = np.abs(jac - central_differences(values, p, rel_step)).max(axis=0)
    assert (diff <= tol * np.abs(jac).max(axis=0)).all(), diff / np.abs(jac).max(axis=0)


JACOBIAN_CHECK = settings(max_examples=150, deadline=None, database=None)
TRACE_GRID = np.linspace(5340.0, 5440.0, 401)


@seed(20180402)
@JACOBIAN_CHECK
@given(
    center=st.floats(5370.0, 5410.0),
    fwhm=st.floats(1.0, 30.0),
    amplitude=st.floats(0.01, 2.0),
    baseline=st.floats(0.0, 0.1),
)
def test_lorentzian_jacobian_matches_central_differences(center, fwhm, amplitude, baseline):
    p = (center, fwhm, amplitude, baseline)
    value, jacobian = ft._lorentzian(TRACE_GRID, *p)
    assert np.array_equal(value, ft.lorentzian_model(TRACE_GRID, *p))
    assert_jacobian_matches(jacobian, lambda q: ft._lorentzian(TRACE_GRID, *q)[0], p, 1e-7, 1e-5)


@seed(20180402)
@JACOBIAN_CHECK
@given(
    center=st.floats(5370.0, 5410.0),
    width=st.floats(1.0, 30.0),
    theta=st.floats(-np.pi / 2, np.pi / 2),
    amplitude=st.floats(0.01, 2.0),
    baseline=st.floats(0.0, 0.1),
)
@example(center=5390.0, width=4.9, theta=0.0, amplitude=0.6, baseline=0.02)  # the Lorentzian
@example(center=5390.0, width=4.9, theta=np.pi / 2, amplitude=0.6, baseline=0.02)  # q = 0
def test_fano_jacobian_matches_central_differences(center, width, theta, amplitude, baseline):
    p = (center, width, theta, amplitude, baseline)
    q = np.cos(theta) / np.sin(theta) if theta else np.inf  # as fit_fano reports it
    assert np.array_equal(
        ft.fano_model(TRACE_GRID, center, width, q, amplitude, baseline),
        ft._fano(TRACE_GRID, center, width, np.arctan2(1, q), amplitude, baseline)[0],
    )
    assert_jacobian_matches(ft._fano(TRACE_GRID, *p)[1],
                            lambda r: ft._fano(TRACE_GRID, *r)[0], p, 1e-7, 1e-5)


def normalised_q_fano(omega, center, width, q_asym, amplitude, baseline):
    """The Fano profile in its normalised q form, the oracle of fano_model."""
    hw = 0.5 * width
    u = omega - center
    return baseline + amplitude * (q_asym * hw + u) ** 2 / ((1 + q_asym**2) * (u**2 + hw**2))


@seed(20180402)
@JACOBIAN_CHECK
@given(
    center=st.floats(5370.0, 5410.0),
    width=st.floats(1.0, 30.0),
    q_asym=st.floats(-1000.0, 1000.0),
    amplitude=st.floats(0.01, 2.0),
    baseline=st.floats(0.0, 0.1),
)
@example(center=5390.0, width=4.9, q_asym=0.0, amplitude=0.6, baseline=0.0)
def test_fano_model_matches_the_normalised_q_form(center, width, q_asym, amplitude, baseline):
    # relative to the amplitude where the profile touches a zero baseline
    p = (center, width, q_asym, amplitude, baseline)
    np.testing.assert_allclose(ft.fano_model(TRACE_GRID, *p), normalised_q_fano(TRACE_GRID, *p),
                               rtol=1e-12, atol=1e-12 * amplitude)


@seed(20180402)
@JACOBIAN_CHECK
@given(
    g=st.floats(2.0, 20.0),
    omega_r=st.floats(5300.0, 5500.0),
    b_star=st.floats(20.0, 200.0),
    slope=st.floats(5.0, 200.0),
    falling=st.booleans(),
    rng_seed=st.integers(0, 2**32 - 1),
)
def test_branch_residual_jacobian_matches_central_differences(
    g, omega_r, b_star, slope, falling, rng_seed
):
    # each point lies within 0.4 splittings of its branch, so no step of the
    # differences moves it across the midpoint where the nearer branch switches
    rng = np.random.default_rng(rng_seed)
    slope = -slope if falling else slope
    obs_b = b_star + rng.uniform(-3.0, 3.0, 40)
    lo, hi = cq.polariton_frequencies(omega_r, omega_r + slope * (obs_b - b_star), g)
    branch = np.where(rng.random(40) < 0.5, lo, hi)
    obs_w = branch + rng.uniform(-0.4, 0.4, 40) * (hi - lo)
    p = (g, omega_r, b_star, slope)
    _, jacobian = ft._branch_residual(obs_b, obs_w, *p)
    values = lambda q: ft._branch_residual(obs_b, obs_w, *q)[0]  # noqa: E731
    assert_jacobian_matches(jacobian, values, p, 1e-6, 1e-4)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def reference_levmar(residual, jacobian, p0):
    """The LM engine with the residual and the Jacobian as separate calls of
    the parameters, each made afresh: the oracle of `_levmar`'s schedule."""
    p = np.asarray(p0, dtype=float).copy()
    r = residual(p)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    it = 0
    while it < ft.MAX_ITER:
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
                if rel < ft.REL_STEP_TOL:
                    converged = True
                break
            lam *= 10.0
        if converged or not stepped:
            converged = converged or not stepped
            break
    rms = float(np.sqrt(cost / r.size))
    return p, rms, converged, it


def rosenbrock(p):
    return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]])


def rosenbrock_jacobian(p):
    return np.array([[-20.0 * p[0], 10.0], [-1.0, 0.0]])


def test_levmar_evaluates_each_trial_once_and_builds_jacobians_only_where_it_steps_from():
    evaluated, built = [], []

    def evaluate(p):
        evaluated.append(p.copy())

        def jacobian():
            built.append(p.copy())
            return rosenbrock_jacobian(p)

        return rosenbrock(p), jacobian

    residual_at, jacobian_at = [], []

    def residual(p):
        residual_at.append(p.copy())
        return rosenbrock(p)

    def jacobian(p):
        jacobian_at.append(p.copy())
        return rosenbrock_jacobian(p)

    p, rms, converged, it = ft._levmar(evaluate, [-1.2, 1.0])
    ref_p, ref_rms, ref_converged, ref_it = reference_levmar(residual, jacobian, [-1.2, 1.0])
    assert converged and np.allclose(p, 1.0)
    assert np.array_equal(p, ref_p) and (rms, converged, it) == (ref_rms, ref_converged, ref_it)
    # one evaluation per trial point, the start included, at the reference's points
    assert np.array_equal(evaluated, residual_at)
    # one Jacobian per iteration, built at the start or at an accepted point
    assert len(built) == it and np.array_equal(built, jacobian_at)
    assert len(evaluated) > len(built) + 5  # rejected trials paid for no Jacobian


def test_levmar_stops_when_no_damping_lowers_the_cost():
    # the cost's minimum is a kink at p = 0, where the Jacobian handed in
    # points uphill, so every trial, however damped, raises the cost
    def residual(p):
        return 1.0 + np.abs(p)

    def jacobian(p):
        return np.ones((1, 1))

    p, *rest = ft._levmar(lambda p: (residual(p), lambda: jacobian(p)), [0.0])
    ref_p, *ref_rest = reference_levmar(residual, jacobian, [0.0])
    assert (p.tolist(), rest) == (ref_p.tolist(), ref_rest) == ([0.0], [1.0, True, 1])


@pytest.mark.parametrize("rows", [1, 2, 5, 50])
def test_levmar_damped_matrix_is_never_singular(rows):
    # the damped normal matrix a + lam diag(a), with a zero diagonal entry
    # taken as 1, is positive definite for every lam > 0: Jacobians near the
    # underflow of a = J^T J, with identical or zero columns, solve without
    # raising and end at finite parameters
    for scale in 10.0 ** -np.arange(140, 170):
        col = np.linspace(1.0, 2.0, rows) * scale
        for jac in (np.stack([col, col], axis=1), np.stack([col, 0.0 * col], axis=1), col[:, None]):
            def evaluate(p, jac=jac):
                return jac @ p - 1.0, lambda: jac

            p, rms, converged, iterations = ft._levmar(evaluate, np.ones(jac.shape[1]))
            assert np.all(np.isfinite(p)) and np.isfinite(rms)


def _noisy_nv_map():
    smap = ex.nv_anticrossing_map()
    return ex.add_magnitude_noise(smap, 0.003 * np.abs(smap.values).max(), 7)


@pytest.mark.parametrize(
    "fit",
    [
        lambda: ft.fit_lorentzian(ft.Spectrum1D(*ex.lorentzian_q_trace(5390.0, 1300.0, 3500.0))),
        lambda: ft.fit_fano(ft.Spectrum1D(*clean_lorentzian())),
        lambda: ft.fit_avoided_crossing(_noisy_nv_map()),
    ],
    ids=["lorentzian", "fano", "avoided_crossing"],
)
def test_fits_match_the_reference_engine(monkeypatch, fit):
    result = fit()

    def separate_calls(evaluate, p0):
        return reference_levmar(lambda p: evaluate(p)[0], lambda p: evaluate(p)[1](), p0)

    monkeypatch.setattr(ft, "_levmar", separate_calls)
    assert fit() == result


def test_levmar_rejects_a_start_where_the_model_is_not_finite():
    with pytest.raises(ft.FitError, match="not finite at the start"):
        ft._levmar(lambda p: (np.array([np.nan, 1.0]), None), [1.0, 2.0])
