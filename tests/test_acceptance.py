"""End-to-end acceptance checks for the forward models and fits.

Each test prints exactly one [criterion N] PASS/FAIL line (visible with
pytest -s, or in the failure report otherwise) and then asserts it, so a red
criterion is visible both ways.  Tolerances are asserted exactly as stated;
nothing here is loosened to force a pass.
"""

import numpy as np
from scipy.optimize import brentq

from spincavity import cavity_qed as cq
from spincavity import circuit_model as cm
from spincavity import experiments as ex
from spincavity import fitting as ft
from spincavity import spin_models as sm

from test_cavity_qed import tc_single_excitation
from test_spin_models import AXIS_111, B110, lab_frame_nv

# the stated NV parameters, spelled out so that the reference crossing does
# not move with the package constants
NV_STATED = sm.NVParams(
    gamma_e=28.0,
    d_zfs=2877.5,
    quadrupole_p=-5.0,
    hyperfine=sm.HyperfineTensor(a_perp=-2.7, a_par=-2.1),
)


def _criterion(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _lab_frame_nv_line(b_mt):
    vals = np.linalg.eigvalsh(lab_frame_nv(b_mt * B110, AXIS_111, NV_STATED))
    return vals[-1] - vals[0]


def test_criterion_1_nv_crossing_field():
    # reference: lab-frame Hamiltonian and Brent's method, sharing neither the
    # defect-frame builder nor the root finder with the package
    b_ref = brentq(lambda b: _lab_frame_nv_line(b) - 5390.0, 40.0, 110.0, xtol=1e-9)
    b_cross = ex.nv_crossing()
    b_fit = ft.fit_avoided_crossing(ex.nv_anticrossing_map()).params["b_star"]
    f_at_737 = ex.nv_transition_frequency(73.7)
    # crossing_field takes the root of a Chebyshev interpolant that matches
    # the line to rounding; Brent's xtol of 1e-9 mT bounds the reference
    ok = abs(b_cross - b_ref) <= 1e-8 and abs(b_fit - b_ref) <= 0.1
    detail = (
        f"full-span NV line for B || [110] crosses 5390 MHz at {b_cross:.6f} mT, "
        f"lab-frame reference {b_ref:.6f} mT (within 1e-8 needed); fitted "
        f"b_star {b_fit:.4f} mT (within 0.1 needed); the quoted 73.7 mT is out of "
        f"reach, the line sits at {f_at_737:.1f} MHz there"
    )
    assert _criterion(1, ok, detail), detail


def test_criterion_2_polariton_splitting_and_fit():
    smap = ex.nv_anticrossing_map(g_ens=11.5)
    mag = np.abs(smap.values)
    splits = []
    for pk in ft._column_peaks(smap.omega_axis, mag):
        if len(pk) == 2:
            splits.append(pk[1] - pk[0])
    min_split = min(splits)
    fit0 = ft.fit_avoided_crossing(smap)
    bias0 = abs(fit0.params["g_ens"] - 11.5) / 11.5
    sigma = 0.01 * mag.max()
    biases = []
    for seed in (0, 1, 2):
        noisy = ex.add_magnitude_noise(smap, sigma, seed)
        fitn = ft.fit_avoided_crossing(noisy)
        biases.append(abs(fitn.params["g_ens"] - 11.5) / 11.5)
    ok = (
        abs(min_split - 23.0) <= 0.5
        and bias0 < 0.02
        and max(biases) < 0.05
    )
    detail = (
        f"min splitting {min_split:.2f} MHz (target 23.0 +- 0.5); noiseless fit "
        f"g = {fit0.params['g_ens']:.3f} MHz ({100 * bias0:.2f} % off, < 2 % needed); "
        f"1 % noise worst {100 * max(biases):.2f} % (< 5 % needed)"
    )
    assert _criterion(2, ok, detail), detail


def test_criterion_3_p1_triple_anticrossing():
    b0, b1, b2 = ex.p1_crossings()
    seps = (b1 - b0, b2 - b1)
    errors = []
    for idx, g_true in ((0, 8.8), (1, 7.9), (2, 7.8)):
        smap = ex.p1_anticrossing_map(idx, g_true)
        fit = ft.fit_avoided_crossing(smap)
        errors.append(abs(fit.params["g_ens"] - g_true) / g_true)
    ok = (
        abs(b0 - 188.7) <= 2.0
        and all(3.0 <= s <= 4.5 for s in seps)
        and max(errors) < 0.03
    )
    detail = (
        f"crossings at {b0:.2f}/{b1:.2f}/{b2:.2f} mT (first within 2 mT of 188.7), "
        f"separations {seps[0]:.2f}/{seps[1]:.2f} mT (3..4.5 needed); round-trip "
        f"fit errors {'/'.join(f'{100 * e:.2f}' for e in errors)} % (< 3 % needed)"
    )
    assert _criterion(3, ok, detail), detail


def test_criterion_4_coupling_budget():
    budget = ex.coupling_budget()
    g1 = budget["g_single_hz"]
    g_ens = budget["g_ens_mhz"]
    ratio = max(g_ens / 11.5, 11.5 / g_ens)
    ok = 0.15 <= g1 <= 0.4 and ratio <= 2.0
    detail = (
        f"B_rms = {budget['brms_pt']:.2f} pT gives single-spin g = {g1:.3f} Hz "
        f"(0.15..0.4 needed); ensemble g = {g_ens:.2f} MHz, factor {ratio:.2f} "
        f"of 11.5 (<= 2 needed)"
    )
    assert _criterion(4, ok, detail), detail


def test_criterion_5_q_round_trip():
    worst_ql, worst_qe = 0.0, 0.0
    for q_ext in (3500.0, 85000.0):
        q_l = 1.0 / (1.0 / 1300.0 + 1.0 / q_ext)
        grid, mag = ex.lorentzian_q_trace(5390.0, 1300.0, q_ext)
        fit = ft.fit_lorentzian(ft.Spectrum1D(grid, mag))
        qs = ft.extract_qs(fit, fit.params["amplitude"] + fit.params["baseline"])
        worst_ql = max(worst_ql, abs(qs["q_loaded"] - q_l) / q_l)
        worst_qe = max(worst_qe, abs(qs["q_ext"] - q_ext) / q_ext)

    # cross-check against the circuit: fit transmitted power so the fitted
    # width is the -3 dB width, and take sqrt(peak power) as insertion loss
    worst_cross = 0.0
    for cc in np.linspace(3.5, 17.2, 5):
        elems = ex.loop_gap_elements(cc)
        _, q_int, q_e1, q_e2 = cm.q_decomposition(elems)
        q_ext_circuit = 1.0 / (1.0 / q_e1 + 1.0 / q_e2)
        grid, s21 = ex.loop_gap_trace(elems)
        fit = ft.fit_lorentzian(ft.Spectrum1D(grid, np.abs(s21) ** 2))
        peak_amp = np.sqrt(fit.params["amplitude"] + fit.params["baseline"])
        qs = ft.extract_qs(fit, peak_amp)
        worst_cross = max(worst_cross, abs(qs["q_ext"] - q_ext_circuit) / q_ext_circuit)

    ok = worst_ql < 0.01 and worst_qe < 0.01 and worst_cross < 0.05
    detail = (
        f"ideal-trace round trip: Q_L off by {100 * worst_ql:.3f} %, Q_ext by "
        f"{100 * worst_qe:.3f} % (< 1 % needed); circuit vs fit Q_ext off by "
        f"{100 * worst_cross:.3f} % across the cc sweep (< 5 % needed)"
    )
    assert _criterion(5, ok, detail), detail


def test_criterion_6_property_spot_checks():
    rng = np.random.default_rng(17)
    checks = {}

    b = rng.uniform(-80, 80, size=3)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    h_nv = sm.build_nv_hamiltonian(b, axis)
    h_p1 = sm.build_p1_hamiltonian(b, axis)
    checks["hermiticity"] = max(
        np.max(np.abs(h_nv - h_nv.conj().T)), np.max(np.abs(h_p1 - h_p1.conj().T))
    ) < 1e-10

    eig = sm.eigensystem(h_nv)
    rebuilt = eig.vectors @ np.diag(eig.values) @ eig.vectors.conj().T
    checks["eigen-reconstruction"] = np.max(np.abs(rebuilt - h_nv)) < 1e-10

    d = np.array([0.189103, -0.351212, 0.917001])
    d /= np.linalg.norm(d)
    ax2 = np.array([-0.732613, 0.21804, -0.644777])
    ax2 /= np.linalg.norm(ax2)
    b0 = 117.278
    eig2 = sm.eigensystem(sm.build_nv_hamiltonian(b0 * d, ax2))
    assert np.min(np.diff(eig2.values)) > 1.0  # generic point, no crossing
    df = sm.rotation_to_z(ax2) @ d
    sxo = sm.spin_operators(1.0)
    dh = sm.GAMMA_E * sum(df[a] * np.kron(sxo[a], np.eye(3)) for a in range(3))
    step = 1e-5
    fd = (
        np.linalg.eigvalsh(sm.build_nv_hamiltonian((b0 + step) * d, ax2))
        - np.linalg.eigvalsh(sm.build_nv_hamiltonian((b0 - step) * d, ax2))
    ) / (2 * step)
    hf = np.real(np.einsum("ij,jk,ki->i", eig2.vectors.conj().T, dh, eig2.vectors))
    checks["hellmann-feynman"] = np.max(np.abs(fd - hf) / np.maximum(np.abs(hf), 1.0)) < 1e-6

    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    v1 = np.linalg.eigvalsh(sm.build_nv_hamiltonian(b, axis))
    v2 = np.linalg.eigvalsh(sm.build_nv_hamiltonian(q @ b, q @ axis))
    checks["rotational covariance"] = np.max(np.abs(v1 - v2)) / np.max(np.abs(v1)) < 1e-9

    drive = np.kron(sm.spin_operators(1.0)[0], np.eye(3))
    weight = sm.transition_spectrum(eig, initial_levels=(2,), weight_floor=0.0)[2]
    vec = eig.vectors[:, 2]
    var = np.real(vec.conj() @ (drive @ drive @ vec)) - np.real(vec.conj() @ (drive @ vec)) ** 2
    checks["weight sum rule"] = abs(sum(weight.tolist()) - var) < 1e-9

    lo, hi = cq.polariton_frequencies(5390.0, 5413.0, 9.0)
    checks["polariton sum rule"] = abs((lo + hi) - (5390.0 + 5413.0)) < 1e-9

    elems = ex.loop_gap_elements(9.0, cx_ff=1.0)
    s11, s12, s21, s22 = cm.loop_gap_smatrix(np.linspace(5300, 5470, 21), elems)
    recip = np.max(np.abs(s12 - s21)) < 1e-12
    passive = all(
        np.linalg.norm(np.array([[s11[k], s12[k]], [s21[k], s22[k]]]), 2) <= 1 + 1e-9
        for k in range(21)
    )
    checks["reciprocity+passivity"] = recip and passive

    elems0 = ex.loop_gap_elements(9.0)
    f0, q_int, q_e1, q_e2 = cm.q_decomposition(elems0)
    q_l = 1.0 / (1.0 / q_int + 1.0 / q_e1 + 1.0 / q_e2)
    grid = np.linspace(f0 - 8 * f0 / q_l, f0 + 8 * f0 / q_l, 20001)
    power = np.abs(cm.loop_gap_s21(grid, elems0)) ** 2
    above = grid[power >= 0.5 * power.max()]
    checks["loaded-Q composition"] = abs((above[-1] - above[0]) - f0 / q_l) / (f0 / q_l) < 0.02

    tc_ok = True
    for n in (1, 2, 3):
        vals = tc_single_excitation(5390.0, 5397.0, 4.0, n)
        lo, hi = cq.polariton_frequencies(5390.0, 5397.0, 4.0 * np.sqrt(n))
        tc_ok = tc_ok and abs(vals.min() - lo) / 5390.0 < 1e-6
        tc_ok = tc_ok and abs(vals.max() - hi) / 5390.0 < 1e-6
    checks["tavis-cummings oracle"] = tc_ok

    grid = np.linspace(5350.0, 5430.0, 801)
    mag = ft.lorentzian_model(grid, 5390.0, 5.0, 0.5, 0.01)
    noisy = np.clip(mag + rng.normal(0, 0.005, grid.shape), 0, None)
    r1 = ft.fit_lorentzian(ft.Spectrum1D(grid, noisy))
    r2 = ft.fit_lorentzian(ft.Spectrum1D(grid, noisy.copy()))
    r3 = ft.fit_lorentzian(ft.Spectrum1D(grid + 111.0, noisy))
    checks["fit determinism+translation"] = (
        r1.params == r2.params
        and abs(r3.params["center"] - r1.params["center"] - 111.0) < 1e-9
        and abs(r3.params["fwhm"] - r1.params["fwhm"]) < 1e-9
    )

    failed = [name for name, ok in checks.items() if not ok]
    ok = not failed
    detail = (
        f"{len(checks)} property groups"
        + ("" if ok else f"; failing: {', '.join(failed)}")
    )
    assert _criterion(6, ok, detail), detail
