"""Independent reference for the benchmark's checks.

Everything here is written apart from the spincavity package and imports
nothing from it.  The stated physical constants are literals, so moving a
package constant moves the program and not the reference:

* lab-frame NV and P1 Hamiltonians (tensors rotated into the lab frame,
  where the package builds in the defect frame and rotates the field);
* a bisection root finder for crossing fields;
* the input-output S21 of a two-port cavity dressed by Lorentzian spin lines;
* the loop-gap S21 from a numerical nodal solve of the three-node network
  (the package eliminates the internal node in closed form);
* the closed-form coupling budget with CODATA h and mu_0;
* the half-power width of a sampled power trace.

Units follow the package: MHz, mT, mm^3, nH / pF / fF / Ohm.

Run ``python3 bench/reference.py`` to print the reference numbers the checks
compare against; nothing is stored, every run recomputes them.
"""

import numpy as np

GAMMA_E = 28.0  # MHz/mT

NV_D = 2877.5        # zero-field splitting, MHz
NV_A_PERP = -2.7     # MHz
NV_A_PAR = -2.1      # MHz
NV_QUAD = -5.0       # MHz

P1_A_PERP = 114.03   # MHz
P1_A_PAR = 81.33     # MHz

H_PLANCK = 6.62607015e-34    # J s, CODATA (exact)
MU_0 = 1.25663706127e-6      # N/A^2, CODATA 2022
LATTICE_A_MM = 0.3567e-6     # diamond cubic cell edge
CARBON_PER_CELL = 8.0

SPIN = {"nv": 1.0, "p1": 0.5}


def _spin_ops(s):
    """(Sx, Sy, Sz) for spin s, basis m = +s ... -s."""
    m = np.arange(s, -s - 1, -1.0)
    sp = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    sm = sp.conj().T
    return (sp + sm) / 2, (sp - sm) / 2j, np.diag(m).astype(complex)


def _electron_nuclear(s):
    dim_s = int(round(2 * s + 1))
    es, ei = np.eye(dim_s), np.eye(3)
    s_ops = [np.kron(o, ei) for o in _spin_ops(s)]
    i_ops = [np.kron(es, o) for o in _spin_ops(1.0)]
    return s_ops, i_ops


def _hyperfine(a_perp, a_par, n, s_ops, i_ops):
    a_lab = a_perp * np.eye(3) + (a_par - a_perp) * np.outer(n, n)
    return sum(a_lab[a, c] * (s_ops[a] @ i_ops[c]) for a in range(3) for c in range(3))


def hamiltonian_parts(model, direction, axis):
    """(H0, M) with H(B) = H0 + B M for a field B (mT) along a unit direction.

    Everything is built in the lab frame: the defect axis n enters through
    (n.S)^2, (n.I)^2 and the rotated hyperfine tensor.
    """
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    s_ops, i_ops = _electron_nuclear(SPIN[model])
    ns = sum(n[a] * s_ops[a] for a in range(3))
    if model == "nv":
        ni = sum(n[a] * i_ops[a] for a in range(3))
        h0 = NV_D * (ns @ ns) + NV_QUAD * (ni @ ni)
        h0 = h0 + _hyperfine(NV_A_PERP, NV_A_PAR, n, s_ops, i_ops)
    else:
        h0 = _hyperfine(P1_A_PERP, P1_A_PAR, n, s_ops, i_ops)
    m = GAMMA_E * sum(d[a] * s_ops[a] for a in range(3))
    return h0, m


def levels(model, direction, axis, b_grid):
    """Sorted eigenvalues (n_fields, dim) and the trace of H at each field."""
    h0, m = hamiltonian_parts(model, direction, axis)
    b = np.asarray(b_grid, dtype=float)
    h = h0[None, :, :] + b[:, None, None] * m[None, :, :]
    return np.linalg.eigvalsh(h), np.real(np.trace(h, axis1=1, axis2=2))


def line_frequencies(model, direction, axis, b_grid):
    """Cavity-facing spin lines per field: NV top minus bottom level; P1 the
    three nuclear-conserving pairs (k, 5 - k) of the sorted levels."""
    e, _ = levels(model, direction, axis, b_grid)
    if model == "nv":
        return (e[:, -1] - e[:, 0])[:, None]
    return np.stack([e[:, 5 - k] - e[:, k] for k in range(3)], axis=1)


def bisect_root(f, lo, hi, xtol=1e-10):
    """Root of f in [lo, hi] by bisection; f(lo) and f(hi) must differ in sign."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise ValueError(f"no sign change in [{lo}, {hi}]")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def crossing(model, direction, axis, omega_r, bracket, line=0):
    """Field (mT) where spin line `line` meets the cavity frequency omega_r."""

    def f(b):
        return line_frequencies(model, direction, axis, [b])[0, line] - omega_r

    return bisect_root(f, *bracket)


def cavity_s21(omega, omega_r, kappa_int, kappa_1, kappa_2, lines):
    """Input-output transmission over (field, frequency).

    S21 = sqrt(k1 k2) / [i(w - w_r) + k/2 + sum_j g_j^2 / (i(w - w_j) + gamma_j/2)]

    :param lines: (n_fields, n_lines, 3) array of (omega_s, gamma, g) per field
    :returns: (n_fields, n_omega) complex array
    """
    w = np.asarray(omega, dtype=float)[None, :]
    ln = np.asarray(lines, dtype=float)
    kappa = kappa_int + kappa_1 + kappa_2
    den = 1j * (w - omega_r) + 0.5 * kappa + np.zeros((ln.shape[0], 1))
    for j in range(ln.shape[1]):
        ws, gam, g = ln[:, j, 0:1], ln[:, j, 1:2], ln[:, j, 2:3]
        den = den + g**2 / (1j * (w - ws) + 0.5 * gam)
    return np.sqrt(kappa_1 * kappa_2) / den


def loop_gap_s21(freq_mhz, l_nh, c_pf, r_ohm, cc1_ff, cc2_ff, cx_ff=0.0, z0=50.0):
    """S21 of the loop-gap network from the full nodal equations.

    Nodes: port 1, port 2 and the tank node A.  cc1 joins 1-A, cc2 joins A-2,
    cx joins 1-2, the parallel RLC ties A to ground.  Port 1 is driven by a
    source of EMF E behind z0, port 2 is terminated in z0; S21 = 2 V2 / E.
    """
    f = np.asarray(freq_mhz, dtype=float)
    w = 2e6 * np.pi * f
    y1 = 1j * w * cc1_ff * 1e-15
    y2 = 1j * w * cc2_ff * 1e-15
    yx = 1j * w * cx_ff * 1e-15
    ya = 1.0 / r_ohm + 1j * w * c_pf * 1e-12 + 1.0 / (1j * w * l_nh * 1e-9)
    g0 = 1.0 / z0
    y = np.zeros((f.size, 3, 3), dtype=complex)
    y[:, 0, 0] = y1 + yx + g0
    y[:, 1, 1] = y2 + yx + g0
    y[:, 2, 2] = y1 + y2 + ya
    y[:, 0, 1] = y[:, 1, 0] = -yx
    y[:, 0, 2] = y[:, 2, 0] = -y1
    y[:, 1, 2] = y[:, 2, 1] = -y2
    rhs = np.zeros((f.size, 3, 1), dtype=complex)
    rhs[:, 0, 0] = g0  # Norton equivalent of a unit EMF behind z0
    v = np.linalg.solve(y, rhs)
    return 2.0 * v[:, 1, 0]


def loop_gap_closed_form(l_nh, c_pf, r_ohm, cc1_ff, cc2_ff, z0=50.0):
    """Weak-coupling resonance (MHz) and Qs: (f0, q_int, q_ext1, q_ext2).

    The port capacitors load the tank, C_eff = C + cc1 + cc2, and each leaks
    power through z0: Q_ext,port = C_eff / (w0 z0 cc^2).
    """
    l = l_nh * 1e-9
    c_eff = (c_pf + 1e-3 * (cc1_ff + cc2_ff)) * 1e-12
    w0 = 1.0 / np.sqrt(l * c_eff)
    q_int = r_ohm * np.sqrt(c_eff / l)
    q_ext = [c_eff / (w0 * z0 * (cc * 1e-15) ** 2) for cc in (cc1_ff, cc2_ff)]
    return w0 / (2e6 * np.pi), q_int, q_ext[0], q_ext[1]


def coupling_budget(
    omega_r_mhz,
    mode_volume_mm3,
    density_ppm,
    volume_mm3,
    orientation_fraction,
    nuclear_fraction,
    filling_factor,
    transition_weight,
):
    """Mode volume to ensemble coupling: B_rms (pT), g_single (Hz), N, g_ens (MHz)."""
    b_rms_t = np.sqrt(MU_0 * H_PLANCK * omega_r_mhz * 1e6 / (2.0 * mode_volume_mm3 * 1e-9))
    brms_pt = b_rms_t * 1e12
    g_single_hz = GAMMA_E * 1e6 * (b_rms_t * 1e3) * np.sqrt(transition_weight)
    n_spins = (
        CARBON_PER_CELL / LATTICE_A_MM**3
        * volume_mm3
        * density_ppm
        * 1e-6
        * orientation_fraction
        * nuclear_fraction
    )
    g_ens_mhz = g_single_hz * np.sqrt(n_spins * filling_factor) * 1e-6
    return {
        "brms_pt": brms_pt,
        "g_single_hz": g_single_hz,
        "n_spins": n_spins,
        "g_ens_mhz": g_ens_mhz,
    }


def half_power_width(freq, power):
    """Full width at half maximum of a sampled single-peak power trace,
    with linear interpolation between the samples that straddle half power."""
    f = np.asarray(freq, dtype=float)
    p = np.asarray(power, dtype=float)
    i0 = int(np.argmax(p))
    half = 0.5 * p[i0]
    lo = i0
    while lo > 0 and p[lo - 1] >= half:
        lo -= 1
    hi = i0
    while hi < p.size - 1 and p[hi + 1] >= half:
        hi += 1
    if lo == 0 or hi == p.size - 1:
        raise ValueError("trace does not fall to half power on both sides")
    f_lo = f[lo - 1] + (half - p[lo - 1]) * (f[lo] - f[lo - 1]) / (p[lo] - p[lo - 1])
    f_hi = f[hi] + (half - p[hi]) * (f[hi + 1] - f[hi]) / (p[hi + 1] - p[hi])
    return f_hi - f_lo


if __name__ == "__main__":
    axis = np.ones(3) / np.sqrt(3.0)
    b_nv = crossing("nv", [1.0, 1.0, 0.0], axis, 5390.0, (40.0, 110.0))
    b_p1 = [crossing("p1", [0.0, 0.0, 1.0], axis, 5390.0, (150.0, 230.0), j) for j in range(3)]
    print(f"NV crossing, B || [110], [111] bond, 5390 MHz: {b_nv:.6f} mT")
    print("P1 crossings, B || [001], 5390 MHz: " + ", ".join(f"{b:.6f}" for b in b_p1) + " mT")
    budget = coupling_budget(5390.0, 11.45, 10.0, 4.95, 0.5, 1.0, 1.0, 0.5)
    print("NV budget (10 ppm, 4.95 mm^3, V_mode 11.45 mm^3): "
          + ", ".join(f"{k} = {v:.9g}" for k, v in budget.items()))
    f0, q_int, q_e1, q_e2 = loop_gap_closed_form(0.25, 3.465, 11010.0, 10.0, 10.0)
    print(f"loop gap (cc = 10 fF): f0 = {f0:.6f} MHz, Q_int = {q_int:.2f}, "
          f"Q_ext = {1.0 / (1.0 / q_e1 + 1.0 / q_e2):.1f} combined")
