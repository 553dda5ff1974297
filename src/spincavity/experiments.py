"""Canonical experiment setups wired from the physics modules.

These are the concrete sample and resonator configurations the command-line
tool and the acceptance suite share: the NV sample probed with the field
along [110] (only the two non-orthogonal bond orientations tune through the
cavity), the P1 triple anticrossing with the field along [001] (all four
bonds equivalent), the coupling budget, and a loop-gap element set matching
the measured quality factors.
"""

import numpy as np

from . import cavity_qed, circuit_model, fitting, scalars, spin_models
# the scalar setup, defined in the numpy-free scalars
from .scalars import OMEGA_R_MHZ, Q_EXT_MIN, SAMPLE1_VOLUME_MM3, coupling_budget, resonator_mode

Q_EXT_MAX = 85000.0

B110 = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
B001 = np.array([0.0, 0.0, 1.0])
AXIS_111 = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)

# ensemble linewidth used for the synthetic maps (FWHM); narrow enough that
# the transmission peaks sit on the coupled-mode branches
MAP_LINEWIDTH_MHZ = 2.5


# level pairs (lo, hi) of each defect's cavity-tuned lines, indexed by ascending
# energy at the start of a sweep: NV lowest to highest; P1 (k, 5 - k) conserves
# the nuclear projection, m_I = +1, 0, -1 in that order
LINE_PAIRS = {"nv": ((0, 8),), "p1": ((0, 5), (1, 4), (2, 3))}


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
    defect = defect.lower()
    pairs = LINE_PAIRS[defect] if lines is None else _line_pairs(defect, lines)
    e = spin_models.level_curve(defect, direction, axis, b_grid).energies
    spins = [cavity_qed.SpinLine(np.abs(e[:, hi] - e[:, lo]), linewidth, g_ens) for lo, hi in pairs]
    return cavity_qed.s21_map(b_grid, omega_grid, res, spins)


def _line_pairs(defect, lines):
    """The level pairs of LINE_PAIRS[defect] at the indices `lines`."""
    pairs = LINE_PAIRS[defect]
    # ints only: 1.0 and True pass the range test, then fail or pass as an index
    if not all(np.issubdtype(type(line), np.integer) and line in range(len(pairs))
               for line in lines):
        raise ValueError(f"line_index must lie in 0..{len(pairs) - 1}")
    return [pairs[line] for line in lines]


def _line_frequency(defect, b_mt, lines):
    """Lines `lines` of LINE_PAIRS[defect] on the canonical sweep, from sorted levels.

    b_mt is one field or an array of them; the result holds one frequency
    array of its shape per line, all from one diagonalization.
    """
    lo, hi = np.array(_line_pairs(defect, lines)).T
    b_dc = np.multiply.outer(b_mt, _SETUP[defect][0])
    vals = np.linalg.eigvalsh(spin_models._BUILDERS[defect](b_dc, AXIS_111))
    return np.moveaxis(vals[..., hi] - vals[..., lo], -1, 0)


def _crossings(defect, lines, omega_r):
    """Crossing field of each line of `lines` with the cavity, from one curve call."""
    bracket = _SETUP[defect][1]
    return cavity_qed.crossing_field(lambda b: _line_frequency(defect, b, lines), omega_r, bracket)


def _anticrossing_map(defect, line, g_ens):
    """Map of one line around its crossing with the default cavity.

    The field window of _SETUP[defect] is centered on the crossing of the
    computed line with the cavity, so the anticrossing sits inside the map.
    """
    res = resonator_mode()
    direction, _, (b_half, b_points, w_half, w_points) = _SETUP[defect]
    (b_star,) = _crossings(defect, [line], res.omega_r)
    b_grid = np.linspace(b_star - b_half, b_star + b_half, b_points)
    omega_grid = np.linspace(res.omega_r - w_half, res.omega_r + w_half, w_points)
    return spin_line_map(
        defect, direction, AXIS_111, b_grid, omega_grid, res, MAP_LINEWIDTH_MHZ, g_ens, (line,)
    )


def nv_transition_frequency(b_mt):
    """Lowest-to-highest NV transition for B along [110], non-orthogonal bonds;
    b_mt is one field or an array of them."""
    return _line_frequency("nv", b_mt, [0])[0]


def nv_crossing(omega_r=OMEGA_R_MHZ):
    """Field where the NV transition meets the cavity, mT."""
    return _crossings("nv", [0], omega_r)[0]


def nv_anticrossing_map(g_ens=11.5):
    """Synthetic transmission map of the NV avoided crossing, 57 fields x 541 frequencies."""
    return _anticrossing_map("nv", 0, g_ens)


def p1_transition_frequency(b_mt, line_index):
    """P1 nuclear-conserving line (0, 1, 2 = m_I +1, 0, -1) for B along [001];
    b_mt is one field or an array of them.

    The pairing (k, 5 - k) of ascending levels conserves the nuclear
    projection: the hyperfine ordering flips sign between the two electron
    manifolds.
    """
    return _line_frequency("p1", b_mt, [line_index])[0]


def p1_crossings(omega_r=OMEGA_R_MHZ):
    """The three P1 crossing fields (m_I = +1, 0, -1 order), ascending in B."""
    return _crossings("p1", range(3), omega_r)


def p1_anticrossing_map(line_index, g_ens):
    """Synthetic map of one of the three P1 anticrossings, 45 fields x 481 frequencies."""
    return _anticrossing_map("p1", line_index, g_ens)


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

    Iterates on circuit_model.q_decomposition of loop_gap_elements(cc): each
    port's Q_ext falls as 1/cc^2, so cc *= sqrt(Q_ext,combined / target)
    would land on the target at once if cc did not also add to C_eff.  Any
    positive start converges.
    """
    cc = 1.0
    for _ in range(40):
        _, _, q_e1, q_e2 = circuit_model.q_decomposition(loop_gap_elements(cc))
        cc *= np.sqrt(1.0 / (1.0 / q_e1 + 1.0 / q_e2) / q_ext_combined)
    return cc


def loop_gap_trace(elems):
    """(frequency grid MHz, complex S21), 1601 points over TRACE_LINEWIDTHS
    loaded linewidths on either side of the circuit resonance."""
    f0, q_int, q_e1, q_e2 = circuit_model.q_decomposition(elems.replace(cx=0.0))
    # an uncoupled port adds 1/inf = 0 to the linewidth
    span = scalars.TRACE_LINEWIDTHS * (f0 * (1.0 / q_int + 1.0 / q_e1 + 1.0 / q_e2))
    grid = np.linspace(f0 - span, f0 + span, 1601)
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
