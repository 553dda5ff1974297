"""Lumped-element model of the loop-gap resonator as a two-port network.

The loop is an inductor, the gap slits a capacitor, machining and seam losses
a parallel resistance.  Antenna pins couple capacitively to either port and a
small direct port-to-port capacitance models crosstalk, which is what skews
the lineshape from Lorentzian to Fano.

Element units: nH, pF, fF, Ohm.  Frequencies in MHz.
"""

import numpy as np

from .scalars import CircuitElements, q_decomposition  # defined in the numpy-free scalars


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
