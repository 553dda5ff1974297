"""Coupling budget, polaritons, input-output transmission, crossing search.

The collective-coupling chain is checked against a small Tavis-Cummings
diagonalization (N spins, photon number cutoff 3) whose single-excitation
doublet must reproduce the g*sqrt(N) closed form.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import constants
from scipy.optimize import brentq

from spincavity import cavity_qed as cq
from spincavity import experiments as ex

from test_spin_models import AXIS_111, B001, B110, lab_frame_nv, lab_frame_p1

OMEGA_R = 5390.0


# ---------------------------------------------------------------- dataclasses


def test_resonator_mode_totals():
    res = cq.ResonatorMode(OMEGA_R, 4.0, 0.5, 0.7)
    assert np.isclose(res.kappa, 5.2)
    with pytest.raises(ValueError):
        cq.ResonatorMode(OMEGA_R, -1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        cq.ResonatorMode(OMEGA_R, 0.0, 0.0, 0.0)


def test_spin_line_validation():
    with pytest.raises(ValueError):
        cq.SpinLine(OMEGA_R, 0.0, 1.0)
    with pytest.raises(ValueError):
        cq.SpinLine(OMEGA_R, 1.0, -1.0)


def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        cq.EnsembleSpec(-1.0, 1.0)
    with pytest.raises(ValueError):
        cq.EnsembleSpec(1.0, 1.0, orientation_fraction=1.5)


def test_spectrum_map_validation():
    with pytest.raises(ValueError):
        cq.SpectrumMap(np.array([1.0, 1.0]), np.array([1.0, 2.0]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        cq.SpectrumMap(np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.zeros((3, 2)))
    # plain lists are taken as arrays, as by fitting.Spectrum1D
    smap = cq.SpectrumMap([70.0, 71.0], [5389.0, 5390.0], [[0.5, 0.5], [0.5, 0.5]])
    for got, want in zip((smap.b_axis, smap.omega_axis, smap.values),
                         ([70.0, 71.0], [5389.0, 5390.0], [[0.5, 0.5], [0.5, 0.5]])):
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)
    with pytest.raises(ValueError, match="values must have shape"):
        cq.SpectrumMap([70.0, 71.0], [5389.0, 5390.0], [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]])


# ---------------------------------------------------------------- budget


def test_vacuum_brms_value():
    # effective mode volume 11.45 mm^3 puts the vacuum field at 14.0 pT
    brms = cq.vacuum_brms(OMEGA_R, 11.45)
    assert np.isclose(brms, 13.999405333680414, rtol=1e-12, atol=0)
    assert abs(brms - 14.0) < 0.01


def test_physical_constants_match_scipy():
    # literals, so that importing the package loads no scipy; rel=1e-9 catches
    # a typo and accepts a later CODATA revision of mu_0
    assert cq.PLANCK_H == pytest.approx(constants.h, rel=1e-9)
    assert cq.MU_0 == pytest.approx(constants.mu_0, rel=1e-9)


def test_vacuum_brms_scaling():
    b0 = cq.vacuum_brms(OMEGA_R, 11.45)
    assert np.isclose(cq.vacuum_brms(4 * OMEGA_R, 11.45), 2 * b0, rtol=1e-12, atol=0)
    assert np.isclose(cq.vacuum_brms(OMEGA_R, 4 * 11.45), 0.5 * b0, rtol=1e-12, atol=0)
    with pytest.raises(ValueError):
        cq.vacuum_brms(-1.0, 11.45)
    with pytest.raises(ValueError):
        cq.vacuum_brms(OMEGA_R, 0.0)


def test_carbon_site_density_against_mass_density():
    """8/a^3 must agree with rho N_A / M for diamond (3.515 g/cm^3)."""
    from_mass = 3.515 * 6.02214076e23 / 12.011 * 1e-3  # per mm^3
    assert np.isclose(cq.CARBON_SITES_PER_MM3, from_mass, rtol=2e-3, atol=0)
    assert np.isclose(cq.CARBON_SITES_PER_MM3, 1.7627091503754514e20, rtol=1e-12, atol=0)


def test_effective_spin_count():
    spec = cq.EnsembleSpec(10.0, 4.95, orientation_fraction=0.5)
    n = cq.effective_spin_count(spec)
    assert np.isclose(n, 4362705147179242.0, rtol=1e-12, atol=0)
    # linear in every factor
    spec2 = cq.EnsembleSpec(20.0, 4.95, orientation_fraction=0.5)
    assert np.isclose(cq.effective_spin_count(spec2), 2 * n, rtol=1e-12, atol=0)
    spec3 = cq.EnsembleSpec(10.0, 4.95, orientation_fraction=0.5, nuclear_fraction=1 / 3)
    assert np.isclose(cq.effective_spin_count(spec3), n / 3, rtol=1e-12, atol=0)


def test_single_spin_and_ensemble_coupling():
    g1 = cq.single_spin_coupling(14.0, 28.0, 1.0)
    assert np.isclose(g1, 28.0 * 14.0 * 1e-3, rtol=1e-12, atol=0)  # 0.392 Hz
    assert np.isclose(cq.single_spin_coupling(14.0, 28.0, 0.25), 0.5 * g1, rtol=1e-12, atol=0)
    assert np.isclose(cq.ensemble_coupling(g1, 1e12), g1 * 1e6 * 1e-6, rtol=1e-12, atol=0)
    with pytest.raises(ValueError):
        cq.ensemble_coupling(g1, -1.0)
    with pytest.raises(ValueError, match="transition weight must be non-negative"):
        cq.single_spin_coupling(14.0, 28.0, -0.25)


def test_budget_chain_for_reference_sample():
    budget = ex.coupling_budget()
    assert np.isclose(budget["brms_pt"], 13.999405333680414, rtol=1e-9, atol=0)
    assert np.isclose(budget["g_single_hz"], 0.27717408443268726, rtol=1e-9, atol=0)
    assert np.isclose(budget["n_spins"], 4362705147179242.0, rtol=1e-9, atol=0)
    assert np.isclose(budget["g_ens_mhz"], 18.307563651272343, rtol=1e-9, atol=0)


def test_budget_filling_factor_scales_g():
    full = ex.coupling_budget(filling_factor=1.0)
    half = ex.coupling_budget(filling_factor=0.5)
    assert np.isclose(half["g_ens_mhz"], full["g_ens_mhz"] / np.sqrt(2.0), rtol=1e-12, atol=0)
    assert np.isclose(half["n_spins"], full["n_spins"], rtol=1e-12, atol=0)


# ---------------------------------------------------------------- polaritons


def test_polariton_resonant_splitting():
    lo, hi = cq.polariton_frequencies(OMEGA_R, OMEGA_R, 11.5)
    assert np.isclose(hi - lo, 23.0, rtol=1e-12, atol=0)
    assert np.isclose(lo + hi, 2 * OMEGA_R, rtol=1e-12, atol=0)


def test_polariton_zero_coupling():
    lo, hi = cq.polariton_frequencies(OMEGA_R, OMEGA_R + 30.0, 0.0)
    assert np.isclose(lo, OMEGA_R, rtol=1e-12, atol=0)
    assert np.isclose(hi, OMEGA_R + 30.0, rtol=1e-12, atol=0)
    with pytest.raises(ValueError):
        cq.polariton_frequencies(OMEGA_R, OMEGA_R, -1.0)


@given(
    st.floats(1000.0, 10000.0),
    st.floats(-300.0, 300.0),
    st.floats(0.0, 100.0),
)
def test_polariton_sum_rule(omega_r, detuning, g):
    """Branch frequencies always sum to the bare frequencies."""
    lo, hi = cq.polariton_frequencies(omega_r, omega_r + detuning, g)
    assert abs((lo + hi) - (2 * omega_r + detuning)) < 1e-9 * omega_r
    assert hi - lo >= 2 * g - 1e-9


def tc_single_excitation(omega_r, omega_s, g1, n_spins, cutoff=3):
    """Single-excitation eigenvalues of the driven-free Tavis-Cummings block.

    Built in the full (cutoff+1) x 2^N product space; eigenstates are kept
    when their excitation-number expectation is 1 to machine precision, which
    is exact here because the Hamiltonian conserves the total excitation.
    """
    na = cutoff + 1
    dims = [na] + [2] * n_spins
    a = np.diag(np.sqrt(np.arange(1.0, na)), 1)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])

    def embed(mats):
        full = np.array([[1.0]])
        for m in mats:
            full = np.kron(full, m)
        return full

    eye = [np.eye(d) for d in dims]
    a_full = embed([a] + eye[1:])
    h = omega_r * (a_full.conj().T @ a_full)
    n_exc = a_full.conj().T @ a_full
    for j in range(n_spins):
        mats = list(eye)
        mats[1 + j] = lower
        s_j = embed(mats)
        h = h + omega_s * (s_j.conj().T @ s_j)
        h = h + g1 * (a_full.conj().T @ s_j + s_j.conj().T @ a_full)
        n_exc = n_exc + s_j.conj().T @ s_j
    vals, vecs = np.linalg.eigh(h)
    exc = np.real(np.einsum("ij,jk,ki->i", vecs.conj().T, n_exc, vecs))
    return vals[np.abs(exc - 1.0) < 1e-6]


@pytest.mark.parametrize("n_spins", [1, 2, 3])
@pytest.mark.parametrize("detuning", [0.0, 7.0])
def test_tavis_cummings_matches_root_n(n_spins, detuning):
    g1 = 4.0
    vals = tc_single_excitation(OMEGA_R, OMEGA_R + detuning, g1, n_spins)
    assert vals.size == n_spins + 1
    lo, hi = cq.polariton_frequencies(OMEGA_R, OMEGA_R + detuning, g1 * np.sqrt(n_spins))
    assert abs(vals.min() - lo) / OMEGA_R < 1e-6
    assert abs(vals.max() - hi) / OMEGA_R < 1e-6


# ---------------------------------------------------------------- transmission


def test_s21_bare_cavity_lineshape():
    res = cq.ResonatorMode(OMEGA_R, 3.0, 0.6, 0.4)
    grid = np.linspace(OMEGA_R - 40, OMEGA_R + 40, 16001)
    mag = np.abs(cq.s21_spectrum(grid, res, []))
    peak = np.sqrt(res.kappa_ext1 * res.kappa_ext2) / (res.kappa / 2)
    assert np.isclose(mag.max(), peak, rtol=1e-6, atol=0)
    assert np.isclose(grid[np.argmax(mag)], OMEGA_R, atol=0.01)
    # half-power full width equals kappa
    above = grid[mag**2 >= 0.5 * peak**2]
    assert np.isclose(above[-1] - above[0], res.kappa, atol=0.02)


def test_s21_lossless_symmetric_peak_is_unity():
    res = cq.ResonatorMode(OMEGA_R, 0.0, 1.0, 1.0)
    val = np.abs(cq.s21_spectrum(np.array([OMEGA_R]), res, []))
    assert np.isclose(val[0], 1.0, rtol=1e-12, atol=0)


def test_s21_empty_grid_rejected():
    res = cq.ResonatorMode(OMEGA_R, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        cq.s21_spectrum(np.array([]), res, [])


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_s21_bounded_by_unity(seed):
    """Passive network: transmitted amplitude can never exceed 1."""
    rng = np.random.default_rng(seed)
    res = cq.ResonatorMode(
        OMEGA_R, rng.uniform(0, 10), rng.uniform(0.01, 5), rng.uniform(0.01, 5)
    )
    lines = [
        cq.SpinLine(OMEGA_R + rng.uniform(-50, 50), rng.uniform(0.1, 10), rng.uniform(0, 20))
        for _ in range(rng.integers(0, 3))
    ]
    grid = np.linspace(OMEGA_R - 80, OMEGA_R + 80, 801)
    assert np.max(np.abs(cq.s21_spectrum(grid, res, lines))) <= 1.0 + 1e-9


def test_s21_narrow_line_peaks_on_polaritons():
    # losses at g/100 leave the maxima on the coupled-mode branches
    g = 10.0
    res = cq.ResonatorMode(OMEGA_R, g / 300, g / 300, g / 300)
    line = cq.SpinLine(OMEGA_R, g / 100, g)
    grid = np.linspace(OMEGA_R - 20, OMEGA_R + 20, 40001)
    mag = np.abs(cq.s21_spectrum(grid, res, [line]))
    lo, hi = cq.polariton_frequencies(OMEGA_R, OMEGA_R, g)
    left = grid < OMEGA_R
    pk_lo = grid[left][np.argmax(mag[left])]
    pk_hi = grid[~left][np.argmax(mag[~left])]
    assert abs(pk_lo - lo) < 0.01 * g
    assert abs(pk_hi - hi) < 0.01 * g


def test_s21_map_rows_match_spectra():
    res = cq.ResonatorMode(OMEGA_R, 3.0, 0.5, 0.5)
    b_grid = np.array([70.0, 75.0, 80.0])
    omega_grid = np.linspace(OMEGA_R - 30, OMEGA_R + 30, 101)
    line = cq.SpinLine(OMEGA_R + 10 * (b_grid - 75.0), 2.0, 8.0)
    smap = cq.s21_map(b_grid, omega_grid, res, [line])
    assert smap.values.shape == (3, 101)
    row1 = cq.s21_spectrum(omega_grid, res, [cq.SpinLine(line.omega_s[1], 2.0, 8.0)])
    assert np.array_equal(smap.values[1], row1)
    with pytest.raises(ValueError):
        cq.s21_map(b_grid, omega_grid, res, [cq.SpinLine(line.omega_s[:2], 2.0, 8.0)])
    with pytest.raises(ValueError):  # one frequency for the whole sweep
        cq.s21_map(b_grid, omega_grid, res, [cq.SpinLine(OMEGA_R, 2.0, 8.0)])


def test_s21_map_zero_coupling_is_field_independent():
    res = cq.ResonatorMode(OMEGA_R, 3.0, 0.5, 0.5)
    b_grid = np.linspace(60, 90, 7)
    omega_grid = np.linspace(OMEGA_R - 30, OMEGA_R + 30, 51)
    smap = cq.s21_map(b_grid, omega_grid, res, [cq.SpinLine(OMEGA_R + 5 * b_grid, 2.0, 0.0)])
    assert np.allclose(smap.values, smap.values[0], rtol=1e-12, atol=0)


def test_s21_map_two_lines_rows_are_spectra_bitwise():
    res = cq.ResonatorMode(OMEGA_R, 3.0, 0.5, 0.7)
    b_grid = np.linspace(60.0, 90.0, 13)
    omega_grid = np.linspace(OMEGA_R - 40, OMEGA_R + 40, 201)
    lines = [
        cq.SpinLine(OMEGA_R + 3.0 * (b_grid - 75.0), 2.0, 8.0),
        cq.SpinLine(OMEGA_R + 20.0 - 2.5 * (b_grid - 75.0), 1.5, 5.0),
    ]
    smap = cq.s21_map(b_grid, omega_grid, res, lines)
    for i in range(b_grid.size):
        row = [cq.SpinLine(ln.omega_s[i], ln.gamma, ln.g_ens) for ln in lines]
        assert np.array_equal(smap.values[i], cq.s21_spectrum(omega_grid, res, row))


def test_s21_map_without_lines_is_bare_cavity_on_every_row():
    res = cq.ResonatorMode(OMEGA_R, 3.0, 0.5, 0.5)
    b_grid = np.linspace(60.0, 90.0, 5)
    omega_grid = np.linspace(OMEGA_R - 30, OMEGA_R + 30, 51)
    smap = cq.s21_map(b_grid, omega_grid, res, [])
    assert smap.values.shape == (5, 51)
    assert smap.values.flags.writeable
    assert np.array_equal(smap.values, np.tile(cq.s21_spectrum(omega_grid, res, []), (5, 1)))
    smap.values[0, 0] = 0.0
    assert smap.values[1, 0] != 0.0


# ---------------------------------------------------------------- crossings


def test_crossing_field_linear_curve():
    b = cq.crossing_field(lambda x: 28.0 * x, OMEGA_R, (100.0, 300.0))
    assert abs(b - OMEGA_R / 28.0) < 1e-3


def test_crossing_field_endpoint_and_failure():
    assert cq.crossing_field(lambda x: 28.0 * x, 2800.0, (100.0, 300.0)) >= 100.0
    assert cq.crossing_field(lambda x: x, 100.0, (100.0, 300.0)) == 100.0
    assert cq.crossing_field(lambda x: x, 300.0, (100.0, 300.0)) == 300.0
    with pytest.raises(ValueError, match="no crossing"):
        cq.crossing_field(lambda x: 28.0 * x, 10000.0, (100.0, 300.0))


@pytest.mark.parametrize("curve", [
    lambda b: np.where(b < 170.0, 28.0 * b, 4760.0 + 40.0 * (b - 170.0)),
    lambda b: np.stack([28.0 * b, np.where(b < 170.0, 28.0 * b, 4760.0 + 40.0 * (b - 170.0))]),
], ids=["one-line", "second-of-two-lines"])
def test_crossing_field_rejects_a_curve_its_nodes_do_not_resolve(curve):
    # monotone, with a kink at 170 mT: the root is 173.5 mT, and the root of
    # the interpolant on the 17 nodes lies 0.024 mT below it
    with pytest.raises(ValueError, match="17 nodes do not resolve the curve"):
        cq.crossing_field(curve, 4900.0, (150.0, 230.0))


def test_crossing_field_of_stacked_lines_is_each_line_alone():
    curves = (lambda b: 28.0 * b, lambda b: 5390.0 + 30.0 * (b - 187.0) + 0.05 * (b - 187.0) ** 3)
    stacked = cq.crossing_field(lambda b: np.stack([c(b) for c in curves]), 5390.0, (150.0, 230.0))
    alone = [cq.crossing_field(c, 5390.0, (150.0, 230.0)) for c in curves]
    assert isinstance(alone[0], float) and stacked == alone
    assert abs(stacked[0] - 5390.0 / 28.0) < 1e-12
    assert abs(stacked[1] - 187.0) < 1e-12


@pytest.mark.parametrize("omega_r", [5300.0, 5390.0, 5500.0])
def test_p1_crossings_are_the_single_line_solves_bitwise(omega_r):
    # one curve call for the three lines, each line's root as its own solve gives it
    alone = [ex._crossings("p1", [j], omega_r)[0] for j in range(3)]
    assert ex.p1_crossings(omega_r) == alone


def test_nv_crossing_field_value():
    assert abs(ex.nv_crossing() - 76.490079) < 1e-5


def test_p1_crossing_fields():
    b0, b1, b2 = ex.p1_crossings()
    assert abs(b0 - 188.738088) < 1e-5
    assert abs(b1 - 192.430697) < 1e-5
    assert abs(b2 - 196.187092) < 1e-5


def _lab_frame_root(lab, direction, pair, omega_r, bracket):
    """Crossing of a lab-frame line with the cavity, by Brent's method."""
    lo, hi = pair

    def detuning(b):
        vals = np.linalg.eigvalsh(lab(b * direction, AXIS_111))
        return vals[hi] - vals[lo] - omega_r

    return brentq(detuning, *bracket, xtol=1e-12)


@given(st.floats(5300.0, 5500.0))
@settings(max_examples=10, deadline=None)
@example(5300.0)
@example(5500.0)
def test_crossings_match_the_lab_frame_roots(omega_r):
    # every crossing lies within 1e-10 mT of Brent's root on the lab-frame Hamiltonian
    nv = _lab_frame_root(lab_frame_nv, B110, ex.LINE_PAIRS["nv"][0], omega_r, (40.0, 110.0))
    assert abs(ex.nv_crossing(omega_r) - nv) <= 1e-10
    for pair, b in zip(ex.LINE_PAIRS["p1"], ex.p1_crossings(omega_r)):
        assert abs(b - _lab_frame_root(lab_frame_p1, B001, pair, omega_r, (150.0, 230.0))) <= 1e-10


def test_p1_transition_ordering():
    # nuclear-conserving lines keep their order over the sweep window
    for b in (170.0, 192.0, 215.0):
        f = [ex.p1_transition_frequency(b, j) for j in range(3)]
        assert f[0] > f[1] > f[2]
    with pytest.raises(ValueError):
        ex.p1_transition_frequency(190.0, 3)
    for line in (1.0, True):
        with pytest.raises(ValueError, match=r"line_index must lie in 0\.\.2"):
            ex.p1_transition_frequency(190.0, line)
        with pytest.raises(ValueError, match=r"line_index must lie in 0\.\.2"):
            ex.p1_anticrossing_map(line, 8.8)


def test_spin_line_map_rejects_lines_that_are_not_line_indices():
    b_grid, omega_grid = np.linspace(180.0, 200.0, 5), np.linspace(5370.0, 5410.0, 9)
    args = ("p1", B001, AXIS_111, b_grid, omega_grid, ex.resonator_mode(), 2.5, 8.8)
    for lines in ([3], [1.0], [True], [-1]):
        with pytest.raises(ValueError, match=r"line_index must lie in 0\.\.2"):
            ex.spin_line_map(*args, lines)
    # a numpy integer is an index like an int
    assert np.array_equal(ex.spin_line_map(*args, [np.int64(1)]).values,
                          ex.spin_line_map(*args, [1]).values)


def test_anticrossing_map_windows():
    # each map is centred on its line's crossing with the default cavity
    smap = ex.nv_anticrossing_map()
    assert smap.values.shape == (57, 541)
    assert np.isclose(smap.b_axis.mean(), ex.nv_crossing(), rtol=0, atol=1e-9)
    assert np.isclose(smap.omega_axis.mean(), ex.OMEGA_R_MHZ, rtol=0, atol=1e-9)
    for j, b_star in enumerate(ex.p1_crossings()):
        smap = ex.p1_anticrossing_map(j, 8.8)
        assert smap.values.shape == (45, 481)
        assert np.isclose(smap.b_axis.mean(), b_star, rtol=0, atol=1e-9)
        assert np.isclose(smap.omega_axis.mean(), ex.OMEGA_R_MHZ, rtol=0, atol=1e-9)


@pytest.mark.parametrize("line_index", [0, 1, 2])
def test_p1_map_lines_match_sorted_levels(line_index):
    # the map takes its lines from levels tracked along the sweep, the
    # crossing search from levels sorted at each field: both must agree
    g = 8.8
    smap = ex.p1_anticrossing_map(line_index, g)
    freqs = ex.p1_transition_frequency(smap.b_axis, line_index)
    lines = [cq.SpinLine(freqs, ex.MAP_LINEWIDTH_MHZ, g)]
    ref = cq.s21_map(smap.b_axis, smap.omega_axis, ex.resonator_mode(), lines)
    np.testing.assert_allclose(smap.values, ref.values, rtol=1e-9)
