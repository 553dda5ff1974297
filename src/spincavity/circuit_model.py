"""Lumped-element model of the loop-gap resonator as a two-port network.

The loop is an inductor, the gap slits a capacitor, machining and seam losses
a parallel resistance.  Antenna pins couple capacitively to either port and a
small direct port-to-port capacitance models crosstalk, which is what skews
the lineshape from Lorentzian to Fano.

Element units: nH, pF, fF, Ohm.  Frequencies in MHz.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CircuitElements:
    l: float            # nH
    c: float            # pF
    r_loss: float       # Ohm, parallel
    cc1: float = 10.0   # fF
    cc2: float = 10.0   # fF
    cx: float = 0.0     # fF
    z0: float = 50.0    # Ohm

    def __post_init__(self):
        if self.l <= 0 or self.c <= 0 or self.z0 <= 0 or self.r_loss <= 0:
            raise ValueError("l, c, r_loss, z0 must be positive")
        if self.cc1 < 0 or self.cc2 < 0 or self.cx < 0:
            raise ValueError("coupling and crosstalk capacitances must be non-negative")


def loop_gap_smatrix(omega_grid, elems):
    """(s11, s12, s21, s22) over the grid, by nodal reduction of the internal node.

    Ports are nodes 1 and 2, the tank hangs off node A: cc1 bridges 1-A, cc2
    bridges A-2, cx bridges 1-2, and the parallel RLC ties A to ground.
    Eliminating A leaves a 2x2 port admittance; S = (I - z0 Y)(I + z0 Y)^-1.
    """
    f = np.asarray(omega_grid, dtype=float)
    if f.size == 0:
        raise ValueError("empty frequency grid")
    w = 2e6 * np.pi * f  # rad/s
    y1 = 1j * w * elems.cc1 * 1e-15
    y2 = 1j * w * elems.cc2 * 1e-15
    yx = 1j * w * elems.cx * 1e-15
    ytank = 1.0 / elems.r_loss + 1.0 / (1j * w * elems.l * 1e-9) + 1j * w * elems.c * 1e-12

    ysum = y1 + y2 + ytank
    y11 = y1 + yx - y1 * y1 / ysum
    y22 = y2 + yx - y2 * y2 / ysum
    y12 = -yx - y1 * y2 / ysum

    z0 = elems.z0
    # invert (I + z0 Y) per frequency, closed form for the 2x2 symmetric case
    a11 = 1.0 + z0 * y11
    a22 = 1.0 + z0 * y22
    a12 = z0 * y12
    det = a11 * a22 - a12 * a12
    b11 = 1.0 - z0 * y11
    b22 = 1.0 - z0 * y22
    b12 = -z0 * y12
    s11 = (b11 * a22 - b12 * a12) / det
    s12 = (b12 * a11 - b11 * a12) / det
    s21 = (b12 * a22 - b22 * a12) / det
    s22 = (b22 * a11 - b12 * a12) / det
    return s11, s12, s21, s22


def loop_gap_s21(omega_grid, elems):
    """Complex S21 of the resonator network over a frequency grid (MHz)."""
    return loop_gap_smatrix(omega_grid, elems)[2]


def q_decomposition(elems):
    """Resonance frequency and quality factors of the cx = 0 network.

    Weak-coupling closed forms: seen from the tank, each port capacitor is
    nearly grounded through the small z0, so it adds to the tank capacitance,
    C_eff = C + cc1 + cc2, and leaks power at a rate set by z0 cc^2.

    :returns: (omega_0 MHz, q_int, q_ext1, q_ext2)
    """
    if elems.cx != 0:
        raise ValueError("q_decomposition is defined for zero crosstalk only")
    l = elems.l * 1e-9
    c_eff = (elems.c + 1e-3 * (elems.cc1 + elems.cc2)) * 1e-12
    w0 = 1.0 / np.sqrt(l * c_eff)
    q_int = elems.r_loss * np.sqrt(c_eff / l)
    q_ext = []
    for cc_ff in (elems.cc1, elems.cc2):
        cc = cc_ff * 1e-15
        q_ext.append(c_eff / (w0 * elems.z0 * cc**2) if cc > 0 else np.inf)
    return w0 / (2e6 * np.pi), q_int, q_ext[0], q_ext[1]
