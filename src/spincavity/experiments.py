"""Canonical experiment setups wired from the physics modules.

These are the concrete sample and resonator configurations the command-line
tool, the example scripts, and the acceptance suite all share: the NV sample
probed with the field along [110] (only the two non-orthogonal bond
orientations tune through the cavity), the P1 triple anticrossing with the
field along [001] (all four bonds equivalent), the coupling budget, and a
loop-gap element set matching the measured quality factors.
"""

from dataclasses import replace

import numpy as np

from . import cavity_qed, circuit_model, fitting, spin_models

OMEGA_R_MHZ = 5390.0
Q_INT = 1300.0
Q_EXT_MIN = 3500.0
Q_EXT_MAX = 85000.0

B110 = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
B001 = np.array([0.0, 0.0, 1.0])
AXIS_111 = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)

# effective mode volume reproducing the quoted 14 pT vacuum field
MODE_VOLUME_MM3 = 11.45

# Sample 1: 3 x 1.5 x 1.1 mm^3 plate, 10 ppm NV, 20 ppm P1
SAMPLE1_VOLUME_MM3 = 3.0 * 1.5 * 1.1
SAMPLE1_NV_PPM = 10.0
SAMPLE1_P1_PPM = 20.0

# ensemble linewidth used for the synthetic maps (FWHM); narrow enough that
# the transmission peaks sit on the coupled-mode branches
MAP_LINEWIDTH_MHZ = 2.5

DEFAULT_TRANSITION_WEIGHT = 0.5  # idealized two-level drive matrix element


# level pairs (lo, hi) of each defect's cavity-tuned lines, indexed by ascending
# energy at the start of a sweep: NV lowest to highest; P1 (k, 5 - k) conserves
# the nuclear projection, m_I = +1, 0, -1 in that order
LINE_PAIRS = {"nv": ((0, 8),), "p1": ((0, 5), (1, 4), (2, 3))}


def resonator_mode(
    omega_r=OMEGA_R_MHZ, q_int=Q_INT, q_ext1=2.0 * Q_EXT_MIN, q_ext2=2.0 * Q_EXT_MIN
):
    """Cavity decay rates from the internal and per-port external quality factors.

    The default ports each carry half of the combined external loss Q_EXT_MIN.
    """
    return cavity_qed.ResonatorMode(omega_r, omega_r / q_int, omega_r / q_ext1, omega_r / q_ext2)


# per defect: field direction of the canonical sweep, the field bracket (mT)
# that holds the crossings with the cavity, and the anticrossing map window
# (b_halfwidth mT, b_points, omega_halfwidth MHz, omega_points); the P1
# frequency window is narrow enough (hyperfine spacing is ~100 MHz) that
# only the mapped line enters, so each anticrossing is fit alone
_SETUP = {
    "nv": (B110, (40.0, 110.0), (3.5, 57, 45.0, 541)),
    "p1": (B001, (150.0, 230.0), (2.8, 45, 40.0, 481)),
}


def spin_line_map(defect, direction, axis, b_grid, omega_grid, res, linewidth, g_ens, lines=None):
    """Transmission map of the cavity dressed by the defect's spin lines.

    Line frequencies are differences of the levels tracked along the sweep,
    for the pairs of LINE_PAIRS[defect] selected by index in `lines` (all by
    default), in the order in which s21_spectrum sums them.
    """
    pairs = LINE_PAIRS[defect.lower()]
    if lines is not None:
        pairs = [pairs[j] for j in lines]
    e = spin_models.level_curve(defect.lower(), direction, axis, b_grid).energies
    spins = [cavity_qed.SpinLine(np.abs(e[:, hi] - e[:, lo]), linewidth, g_ens) for lo, hi in pairs]
    return cavity_qed.s21_map(b_grid, omega_grid, res, spins)


def _line_frequency(defect, b_mt, line):
    """Line `line` of LINE_PAIRS[defect] on the canonical sweep, from sorted levels.

    b_mt is one field or an array of them; the result has its shape.
    """
    pairs = LINE_PAIRS[defect]
    if line not in range(len(pairs)):
        raise ValueError(f"line_index must lie in 0..{len(pairs) - 1}")
    lo, hi = pairs[line]
    b_dc = np.multiply.outer(b_mt, _SETUP[defect][0])
    vals = np.linalg.eigvalsh(spin_models._BUILDERS[defect](b_dc, AXIS_111))
    return vals[..., hi] - vals[..., lo]


def _crossing(defect, line, omega_r):
    bracket = _SETUP[defect][1]
    return cavity_qed.crossing_field(lambda b: _line_frequency(defect, b, line), omega_r, bracket)


def _anticrossing_map(defect, line, g_ens, linewidth):
    """Map of one line around its crossing with the default cavity.

    The field window of _SETUP[defect] is centered on the crossing of the
    computed line with the cavity, so the anticrossing sits inside the map.
    """
    res = resonator_mode()
    direction, _, (b_half, b_points, w_half, w_points) = _SETUP[defect]
    b_star = _crossing(defect, line, res.omega_r)
    b_grid = np.linspace(b_star - b_half, b_star + b_half, b_points)
    omega_grid = np.linspace(res.omega_r - w_half, res.omega_r + w_half, w_points)
    return spin_line_map(
        defect, direction, AXIS_111, b_grid, omega_grid, res, linewidth, g_ens, (line,)
    )


def nv_transition_frequency(b_mt):
    """Lowest-to-highest NV transition for B along [110], non-orthogonal bonds;
    b_mt is one field or an array of them."""
    return _line_frequency("nv", b_mt, 0)


def nv_crossing(omega_r=OMEGA_R_MHZ):
    """Field where the NV transition meets the cavity, mT."""
    return _crossing("nv", 0, omega_r)


def nv_anticrossing_map(g_ens=11.5, linewidth=MAP_LINEWIDTH_MHZ):
    """Synthetic transmission map of the NV avoided crossing, 57 fields x 541 frequencies."""
    return _anticrossing_map("nv", 0, g_ens, linewidth)


def p1_transition_frequency(b_mt, line_index):
    """P1 nuclear-conserving line (0, 1, 2 = m_I +1, 0, -1) for B along [001];
    b_mt is one field or an array of them.

    The pairing (k, 5 - k) of ascending levels conserves the nuclear
    projection: the hyperfine ordering flips sign between the two electron
    manifolds.
    """
    return _line_frequency("p1", b_mt, line_index)


def p1_crossings(omega_r=OMEGA_R_MHZ):
    """The three P1 crossing fields (m_I = +1, 0, -1 order), ascending in B."""
    return [_crossing("p1", j, omega_r) for j in range(3)]


def p1_anticrossing_map(line_index, g_ens):
    """Synthetic map of one of the three P1 anticrossings, 45 fields x 481 frequencies."""
    return _anticrossing_map("p1", line_index, g_ens, MAP_LINEWIDTH_MHZ)


def coupling_budget(
    density_ppm=SAMPLE1_NV_PPM,
    volume_mm3=SAMPLE1_VOLUME_MM3,
    orientation_fraction=0.5,
    nuclear_fraction=1.0,
    filling_factor=1.0,
    omega_r=OMEGA_R_MHZ,
    mode_volume_mm3=MODE_VOLUME_MM3,
    transition_weight=DEFAULT_TRANSITION_WEIGHT,
):
    """Chain from mode volume to collective coupling; returns the whole ledger."""
    spec = cavity_qed.EnsembleSpec(
        density_ppm, volume_mm3, orientation_fraction, nuclear_fraction, filling_factor
    )
    brms = cavity_qed.vacuum_brms(omega_r, mode_volume_mm3)
    g1 = cavity_qed.single_spin_coupling(brms, spin_models.GAMMA_E, transition_weight)
    n = cavity_qed.effective_spin_count(spec)
    g_ens = cavity_qed.ensemble_coupling(g1, n * spec.filling_factor)
    return {
        "brms_pt": brms,
        "g_single_hz": g1,
        "n_spins": n,
        "g_ens_mhz": g_ens,
    }


# loop-gap element set: resonates near the measured frequency with the
# measured internal Q; cc spans the measured external-Q tuning range
LOOP_GAP_L_NH = 0.25
LOOP_GAP_C_PF = 3.465
LOOP_GAP_R_OHM = 11010.0


def loop_gap_elements(cc_ff, cx_ff=0.0):
    """Symmetric-port element set with the given coupling capacitance (fF)."""
    return circuit_model.CircuitElements(
        LOOP_GAP_L_NH, LOOP_GAP_C_PF, LOOP_GAP_R_OHM, cc_ff, cc_ff, cx_ff
    )


def cc_for_qext(q_ext_combined):
    """Per-port coupling capacitance (fF) hitting a combined external Q.

    Inverts the weak-coupling relation Q_ext,port = C_eff/(w0 Z0 cc^2) with
    both ports equal and Z0 the circuit model's default port impedance
    (50 Ohm); solved iteratively since cc feeds back into C_eff.
    """
    q_port = 2.0 * q_ext_combined
    l = LOOP_GAP_L_NH * 1e-9
    cc = 0.0
    for _ in range(40):
        c_eff = LOOP_GAP_C_PF * 1e-12 + 2.0 * cc
        w0 = 1.0 / np.sqrt(l * c_eff)
        cc = np.sqrt(c_eff / (q_port * w0 * circuit_model.CircuitElements.z0))
    return cc * 1e15


def loop_gap_trace(elems):
    """(frequency grid MHz, complex S21), 1601 points over 16 loaded linewidths
    around the circuit resonance."""
    f0, q_int, q_e1, q_e2 = circuit_model.q_decomposition(replace(elems, cx=0.0))
    width = f0 * (1.0 / q_int + 1.0 / q_e1 + 1.0 / q_e2)  # an uncoupled port adds 1/inf = 0
    grid = np.linspace(f0 - 8.0 * width, f0 + 8.0 * width, 1601)
    return grid, circuit_model.loop_gap_s21(grid, elems)


def lorentzian_q_trace(omega_r, q_int, q_ext):
    """Ideal two-port trace with the stated quality factors, baseline zero,
    2001 points over 16 linewidths."""
    q_l = 1.0 / (1.0 / q_int + 1.0 / q_ext)
    fwhm = omega_r / q_l
    grid = np.linspace(omega_r - 8.0 * fwhm, omega_r + 8.0 * fwhm, 2001)
    return grid, fitting.lorentzian_model(grid, omega_r, fwhm, q_l / q_ext, 0.0)


def noisy_magnitude(mag, sigma, seed=0):
    """Seeded additive Gaussian noise on a magnitude array, clipped at zero."""
    rng = np.random.default_rng(seed)
    return np.clip(mag + rng.normal(0.0, sigma, mag.shape), 0.0, None)


def add_magnitude_noise(smap, sigma, seed=0):
    """Additive Gaussian noise on |S21|, clipped at zero, phase preserved."""
    noisy = noisy_magnitude(np.abs(smap.values), sigma, seed)
    values = noisy * np.exp(1j * np.angle(smap.values))
    return cavity_qed.SpectrumMap(smap.b_axis, smap.omega_axis, values)
