"""Two-port algebra, nodal solution of the coupled tank, Q decomposition.

The nodal S-matrix is validated against an independent path: the same cx = 0
network expressed as a cascade of ABCD blocks (series cc1, shunt RLC, series
cc2) converted through the textbook formula.  The chain-matrix blocks live
here, as the oracle, and are tested first.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincavity import circuit_model as cm
from spincavity import experiments as ex
from spincavity import fitting as ft


@dataclass(frozen=True, eq=False)
class TwoPortNetwork:
    abcd: np.ndarray


def abcd_series(z):
    """Series impedance z (Ohm) as a chain matrix."""
    z = complex(z)
    if not np.isfinite(z):
        raise ValueError("series impedance must be finite")
    return TwoPortNetwork(np.array([[1.0, z], [0.0, 1.0]], dtype=complex))


def abcd_shunt(y):
    """Shunt admittance y (S) as a chain matrix."""
    y = complex(y)
    if not np.isfinite(y):
        raise ValueError("shunt admittance must be finite")
    return TwoPortNetwork(np.array([[1.0, 0.0], [y, 1.0]], dtype=complex))


def cascade(nets):
    """Chain-matrix product of two-ports, left to right."""
    nets = list(nets)
    if not nets:
        raise ValueError("cascade of zero networks")
    m = nets[0].abcd
    for net in nets[1:]:
        m = m @ net.abcd
    return TwoPortNetwork(m)


def abcd_to_s(net, z0=50.0):
    """Standard chain-matrix to scattering-matrix conversion."""
    if z0 <= 0:
        raise ValueError("port impedance must be positive")
    a, b, c, d = net.abcd.ravel()
    den = a + b / z0 + c * z0 + d
    if den == 0:
        raise ValueError("singular conversion denominator")
    det = a * d - b * c
    s11 = (a + b / z0 - c * z0 - d) / den
    s12 = 2.0 * det / den
    s21 = 2.0 / den
    s22 = (-a + b / z0 - c * z0 + d) / den
    return np.array([[s11, s12], [s21, s22]])


def tank_admittance(f_mhz, elems):
    w = 2e6 * np.pi * f_mhz
    return 1.0 / elems.r_loss + 1.0 / (1j * w * elems.l * 1e-9) + 1j * w * elems.c * 1e-12


def cascade_s21(f_mhz, elems):
    """Reference path: ABCD cascade of the cx = 0 network."""
    w = 2e6 * np.pi * f_mhz
    chain = cascade(
        [
            abcd_series(1.0 / (1j * w * elems.cc1 * 1e-15)),
            abcd_shunt(tank_admittance(f_mhz, elems)),
            abcd_series(1.0 / (1j * w * elems.cc2 * 1e-15)),
        ]
    )
    return abcd_to_s(chain, elems.z0)[1, 0]


# ---------------------------------------------------------------- two-ports


def test_abcd_building_blocks():
    s = abcd_series(3.0 + 4.0j)
    assert np.allclose(s.abcd, [[1, 3 + 4j], [0, 1]])
    y = abcd_shunt(0.02j)
    assert np.allclose(y.abcd, [[1, 0], [0.02j, 1]])
    assert np.isclose(np.linalg.det(s.abcd), 1.0)
    assert np.isclose(np.linalg.det(y.abcd), 1.0)
    with pytest.raises(ValueError):
        abcd_series(np.inf)
    with pytest.raises(ValueError):
        abcd_shunt(complex(np.nan, 0.0))


def test_cascade_order_and_determinant():
    a = abcd_series(10.0)
    b = abcd_shunt(0.05)
    ab = cascade([a, b])
    assert np.allclose(ab.abcd, a.abcd @ b.abcd)
    # reciprocal blocks keep det = 1 through any chain
    chain = cascade([a, b, a, b, a])
    assert np.isclose(np.linalg.det(chain.abcd), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        cascade([])


def test_abcd_to_s_identity_is_through_line():
    s = abcd_to_s(cascade([abcd_series(0.0)]))
    assert np.allclose(s, [[0, 1], [1, 0]], atol=1e-15)


def test_abcd_to_s_matched_series_resistor():
    # z = z0: classic thirds
    s = abcd_to_s(abcd_series(50.0), z0=50.0)
    assert np.isclose(s[1, 0], 2.0 / 3.0)
    assert np.isclose(s[0, 0], 1.0 / 3.0)
    with pytest.raises(ValueError):
        abcd_to_s(abcd_series(1.0), z0=0.0)


def test_circuit_elements_validation():
    with pytest.raises(ValueError):
        cm.CircuitElements(0.0, 3.0, 1000.0)
    with pytest.raises(ValueError):
        cm.CircuitElements(0.25, 3.0, 1000.0, cc1=-1.0)


# ---------------------------------------------------------------- nodal model


def test_nodal_matches_abcd_cascade():
    elems = ex.loop_gap_elements(8.0)
    grid = np.linspace(5300.0, 5480.0, 401)
    s21 = cm.loop_gap_s21(grid, elems)
    ref = np.array([cascade_s21(f, elems) for f in grid])
    assert np.max(np.abs(s21 - ref)) < 1e-10


def test_nodal_model_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="empty frequency grid"):
        cm.loop_gap_s21(np.array([]), ex.loop_gap_elements(8.0))


def test_decoupled_port_kills_transmission():
    elems = cm.CircuitElements(0.25, 3.465, 11010.0, cc1=0.0, cc2=8.0)
    grid = np.linspace(5300.0, 5480.0, 101)
    s11, s12, s21, s22 = cm.loop_gap_smatrix(grid, elems)
    assert np.max(np.abs(s21)) < 1e-12
    assert np.allclose(np.abs(s11), 1.0, atol=1e-9)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_smatrix_reciprocal_and_passive(seed):
    rng = np.random.default_rng(seed)
    elems = cm.CircuitElements(
        l=rng.uniform(0.1, 2.0),
        c=rng.uniform(0.5, 10.0),
        r_loss=rng.uniform(100.0, 50000.0),
        cc1=rng.uniform(0.0, 30.0),
        cc2=rng.uniform(0.0, 30.0),
        cx=rng.uniform(0.0, 5.0),
    )
    grid = np.linspace(1000.0, 12000.0, 25)
    s11, s12, s21, s22 = cm.loop_gap_smatrix(grid, elems)
    assert np.max(np.abs(s12 - s21)) < 1e-12
    for k in range(grid.size):
        s = np.array([[s11[k], s12[k]], [s21[k], s22[k]]])
        assert np.linalg.norm(s, 2) <= 1.0 + 1e-9


# ---------------------------------------------------------------- Q factors


def test_q_decomposition_uncoupled_tank():
    elems = cm.CircuitElements(0.25, 3.465, 11010.0, cc1=0.0, cc2=0.0)
    f0, q_int, q_e1, q_e2 = cm.q_decomposition(elems)
    l, c = 0.25e-9, 3.465e-12
    assert np.isclose(f0, 1.0 / (2e6 * np.pi * np.sqrt(l * c)), rtol=1e-12, atol=0)
    assert np.isclose(q_int, 11010.0 * np.sqrt(c / l), rtol=1e-12, atol=0)
    assert q_e1 == np.inf and q_e2 == np.inf


def test_q_decomposition_rejects_crosstalk():
    with pytest.raises(ValueError):
        cm.q_decomposition(cm.CircuitElements(0.25, 3.465, 11010.0, cx=1.0))


def test_q_ext_quarter_on_halved_coupling():
    # q_ext ~ 1/cc^2 once C_eff is frozen by the dominant tank capacitance
    small = cm.q_decomposition(cm.CircuitElements(0.25, 3.465, 11010.0, 1.0, 0.0))
    half = cm.q_decomposition(cm.CircuitElements(0.25, 3.465, 11010.0, 0.5, 0.0))
    ratio = half[2] / small[2]
    assert 3.99 < ratio < 4.01


def test_design_point_hits_measured_q_range():
    """The frozen element set spans Q_ext 3500..85000 with < 0.5 % f0 drift."""
    cc_open = ex.cc_for_qext(ex.Q_EXT_MAX)   # weak coupling
    cc_tight = ex.cc_for_qext(ex.Q_EXT_MIN)
    assert np.isclose(cc_open, 3.469001682738316, rtol=1e-9, atol=0)
    assert np.isclose(cc_tight, 17.196717604373468, rtol=1e-9, atol=0)
    f0s = []
    for cc, target in ((cc_open, 85000.0), (cc_tight, 3500.0)):
        f0, q_int, q_e1, q_e2 = cm.q_decomposition(ex.loop_gap_elements(cc))
        combined = 1.0 / (1.0 / q_e1 + 1.0 / q_e2)
        assert abs(combined - target) / target < 1e-6
        assert abs(q_int - 1300.0) / 1300.0 < 0.005
        f0s.append(f0)
    assert np.isclose(f0s[0], 5402.118996775542, rtol=1e-9, atol=0)
    assert np.isclose(f0s[1], 5380.88537789879, rtol=1e-9, atol=0)
    assert abs(f0s[1] - f0s[0]) / f0s[0] < 0.005


def test_q_ext_monotone_in_coupling():
    ccs = np.linspace(3.0, 18.0, 100)
    q = []
    for cc in ccs:
        _, _, q_e1, q_e2 = cm.q_decomposition(ex.loop_gap_elements(cc))
        q.append(1.0 / (1.0 / q_e1 + 1.0 / q_e2))
    assert np.all(np.diff(q) < 0)


def test_loaded_q_matches_power_bandwidth():
    """f0 / Q_L from the decomposition tracks the -3 dB width of |S21|^2."""
    for cc in (5.0, 12.0, 17.0):
        elems = ex.loop_gap_elements(cc)
        f0, q_int, q_e1, q_e2 = cm.q_decomposition(elems)
        q_l = 1.0 / (1.0 / q_int + 1.0 / q_e1 + 1.0 / q_e2)
        grid = np.linspace(f0 - 8 * f0 / q_l, f0 + 8 * f0 / q_l, 20001)
        power = np.abs(cm.loop_gap_s21(grid, elems)) ** 2
        above = grid[power >= 0.5 * power.max()]
        width = above[-1] - above[0]
        assert abs(width - f0 / q_l) / (f0 / q_l) < 0.02


def test_peak_transmission_is_ql_over_qext():
    for cc in (5.0, 12.0, 17.0):
        elems = ex.loop_gap_elements(cc)
        f0, q_int, q_e1, q_e2 = cm.q_decomposition(elems)
        q_ext = 1.0 / (1.0 / q_e1 + 1.0 / q_e2)
        q_l = 1.0 / (1.0 / q_int + 1.0 / q_ext)
        grid, s21 = ex.loop_gap_trace(elems)
        assert abs(np.abs(s21).max() - q_l / q_ext) / (q_l / q_ext) < 0.02


def test_symmetric_network_has_negligible_skew():
    elems = ex.loop_gap_elements(10.0)
    f0, q_int, q_e1, q_e2 = cm.q_decomposition(elems)
    q_l = 1.0 / (1.0 / q_int + 1.0 / q_e1 + 1.0 / q_e2)
    grid, s21 = ex.loop_gap_trace(elems)
    f_peak = grid[np.argmax(np.abs(s21))]
    assert abs(f_peak - f0) / (f0 / q_l) < 0.01


def test_crosstalk_skews_the_line():
    """A direct port-to-port path makes the resonance visibly asymmetric."""

    def asymmetry(cx):
        elems = ex.loop_gap_elements(10.0, cx_ff=cx)
        grid, s21 = ex.loop_gap_trace(elems)
        mag = np.abs(s21)
        i0 = int(np.argmax(mag))
        half = 0.5 * mag[i0]
        left = i0 - np.argmax(mag[:i0][::-1] <= half)
        right = i0 + np.argmax(mag[i0:] <= half)
        dl, dr = grid[i0] - grid[left], grid[right] - grid[i0]
        return abs(dl - dr) / (dl + dr)

    assert asymmetry(0.0) < 0.02
    assert asymmetry(2.0) > 5 * max(asymmetry(0.0), 1e-4)


def test_fano_fit_absorbs_crosstalk_lineshape():
    # cross-model: the skewed circuit trace is fit well by the Fano profile
    elems = ex.loop_gap_elements(10.0, cx_ff=1.5)
    grid, s21 = ex.loop_gap_trace(elems)
    spec = ft.Spectrum1D(grid, np.abs(s21))
    res = ft.fit_fano(spec)
    assert res.converged
    rel = res.residual_rms / np.abs(s21).max()
    assert rel < 0.05
    assert abs(res.params["q_asym"]) < 50.0
