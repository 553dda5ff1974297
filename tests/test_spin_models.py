"""Spin operator algebra, Hamiltonian builders, transition lines, level tracking.

Frozen numbers in this file were produced by an independent construction that
assembles each Hamiltonian in the lab frame (rotating the coupling tensor
instead of the field) and cross-checks the spectrum; both paths agree to
better than 1e-11 MHz.
"""

import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

from spincavity import spin_models as sm

ROOT = Path(__file__).resolve().parents[1]
B110 = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
B001 = np.array([0.0, 0.0, 1.0])
AXIS_111 = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _normalized_or_none(v):
    n = np.linalg.norm(v)
    return v / n if n > 1e-3 else None


_UNIT_VECTORS = st.lists(st.floats(-1, 1), min_size=3, max_size=3).map(
    lambda v: _normalized_or_none(np.array(v))).filter(lambda v: v is not None)


def lab_frame_nv(b_vec, n, p=None):
    """Independent builder: everything in the lab frame, tensor rotated."""
    p = p if p is not None else sm.NV_DEFAULT
    sx, sy, sz = sm.spin_operators(1.0)
    ix, iy, iz = sm.spin_operators(1.0)
    e3 = np.eye(3)
    s_ops = [np.kron(o, e3) for o in (sx, sy, sz)]
    i_ops = [np.kron(e3, o) for o in (ix, iy, iz)]
    ns = sum(n[a] * s_ops[a] for a in range(3))
    ni = sum(n[a] * i_ops[a] for a in range(3))
    hf = p.hyperfine
    a_lab = hf.a_perp * np.eye(3) + (hf.a_par - hf.a_perp) * np.outer(n, n)
    h = p.gamma_e * sum(b_vec[a] * s_ops[a] for a in range(3))
    h = h + p.d_zfs * (ns @ ns) + p.quadrupole_p * (ni @ ni)
    for a in range(3):
        for c in range(3):
            h = h + a_lab[a, c] * (s_ops[a] @ i_ops[c])
    return h


def lab_frame_p1(b_vec, n, p=None):
    p = p if p is not None else sm.P1_DEFAULT
    sx, sy, sz = sm.spin_operators(0.5)
    ix, iy, iz = sm.spin_operators(1.0)
    e2, e3 = np.eye(2), np.eye(3)
    s_ops = [np.kron(o, e3) for o in (sx, sy, sz)]
    i_ops = [np.kron(e2, o) for o in (ix, iy, iz)]
    hf = p.hyperfine
    a_lab = hf.a_perp * np.eye(3) + (hf.a_par - hf.a_perp) * np.outer(n, n)
    h = p.gamma_e * sum(b_vec[a] * s_ops[a] for a in range(3))
    for a in range(3):
        for c in range(3):
            h = h + a_lab[a, c] * (s_ops[a] @ i_ops[c])
    return h


# ---------------------------------------------------------------- operators


def test_spin_half_matches_pauli():
    sx, sy, sz = sm.spin_operators(0.5)
    assert np.allclose(sx, [[0, 0.5], [0.5, 0]])
    assert np.allclose(sy, [[0, -0.5j], [0.5j, 0]])
    assert np.allclose(sz, [[0.5, 0], [0, -0.5]])


def test_spin_one_matrices():
    sx, sy, sz = sm.spin_operators(1.0)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(sz, np.diag([1.0, 0.0, -1.0]))
    assert np.allclose(sx, [[0, r, 0], [r, 0, r], [0, r, 0]])
    assert np.allclose(sy, [[0, -1j * r, 0], [1j * r, 0, -1j * r], [0, 1j * r, 0]])


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0, 2.5])
def test_spin_operator_algebra(s):
    sx, sy, sz = sm.spin_operators(s)
    dim = int(round(2 * s + 1))
    for o in (sx, sy, sz):
        assert np.allclose(o, o.conj().T)
    assert np.allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-12)
    casimir = sx @ sx + sy @ sy + sz @ sz
    assert np.allclose(casimir, s * (s + 1) * np.eye(dim), atol=1e-12)


def test_spin_operator_rejects_bad_s():
    with pytest.raises(ValueError):
        sm.spin_operators(0.7)
    with pytest.raises(ValueError):
        sm.spin_operators(-0.5)


# ---------------------------------------------------------------- rotations


def test_rotation_to_z_special_cases():
    assert np.allclose(sm.rotation_to_z([0, 0, 1]), np.eye(3))
    r = sm.rotation_to_z([0, 0, -1])
    assert np.allclose(r @ [0, 0, -1], [0, 0, 1])
    assert np.allclose(r @ r.T, np.eye(3))
    r = sm.rotation_to_z(AXIS_111)
    assert np.allclose(r @ AXIS_111, [0, 0, 1], atol=1e-12)


@given(st.lists(st.floats(-1, 1), min_size=3, max_size=3))
# near -z, where the short Rodrigues form divides roundoff by 1 + c
@example(raw=[0.0078125, 0.0078125, -1.0])
def test_rotation_to_z_is_proper(raw):
    v = np.array(raw)
    assume(np.linalg.norm(v) > 1e-3)
    v = v / np.linalg.norm(v)
    r = sm.rotation_to_z(v)
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
    assert np.isclose(np.linalg.det(r), 1.0, atol=1e-12)
    # axes within ~1.4e-6 rad of -z snap to the closed-form branch, which
    # bounds the alignment residual by that angle rather than roundoff
    assert np.allclose(r @ v, [0, 0, 1], atol=2e-6)


def test_rotation_to_z_turns_an_axis_just_off_plus_z():
    # the general branch keeps the small rotation that the identity would drop
    axis = np.array([np.sin(1e-13), 0.0, np.cos(1e-13)])
    r = sm.rotation_to_z(axis)
    assert np.allclose(r @ r.T, np.eye(3), rtol=0, atol=1e-15)
    assert np.allclose(r @ axis, [0, 0, 1], rtol=0, atol=1e-15)


def test_rotation_rejects_non_unit():
    with pytest.raises(ValueError):
        sm.rotation_to_z([1.0, 1.0, 1.0])


# ---------------------------------------------------------------- builders


def test_nv_matches_lab_frame_construction():
    rng = np.random.default_rng(11)
    for _ in range(5):
        b = rng.uniform(-80, 80, size=3)
        n = unit(rng.normal(size=3))
        v1 = np.linalg.eigvalsh(sm.build_nv_hamiltonian(b, n))
        v2 = np.linalg.eigvalsh(lab_frame_nv(b, n))
        assert np.allclose(v1, v2, atol=1e-9)


def test_p1_matches_lab_frame_construction():
    rng = np.random.default_rng(12)
    for _ in range(5):
        b = rng.uniform(-200, 200, size=3)
        n = unit(rng.normal(size=3))
        v1 = np.linalg.eigvalsh(sm.build_p1_hamiltonian(b, n))
        v2 = np.linalg.eigvalsh(lab_frame_p1(b, n))
        assert np.allclose(v1, v2, atol=1e-9)


NV_LEVELS_73P7 = [
    -552.736603598, -551.796928922, -546.245677361,
    1575.624866545, 1578.891198042, 1582.745432654,
    4712.446474315, 4716.445705209, 4719.625533118,
]

P1_LEVELS_192P431 = [
    -2747.156327598, -2695.014047649, -2641.949512348,
    2642.900345959, 2694.994445931, 2746.225095706,
]


def test_nv_levels_at_working_point():
    # 73.7 mT along [110], defect on the non-orthogonal [111] bond
    h = sm.build_nv_hamiltonian(73.7 * B110, AXIS_111)
    vals = np.linalg.eigvalsh(h)
    assert np.allclose(vals, NV_LEVELS_73P7, atol=1e-5)
    assert abs((vals[-1] - vals[0]) - 5272.362136716) < 1e-5


def test_p1_levels_at_working_point():
    h = sm.build_p1_hamiltonian(192.431 * B001, AXIS_111)
    vals = np.linalg.eigvalsh(h)
    assert np.allclose(vals, P1_LEVELS_192P431, atol=1e-5)


def test_nv_zero_field_center_of_mass():
    # hyperfine is traceless here, so tr H = 3(2D) + 3(2P)
    h = sm.build_nv_hamiltonian([0.0, 0.0, 0.0], B001)
    assert np.isclose(np.trace(h).real, 6 * (sm.D_ZFS + sm.QUAD_P), atol=1e-9)


def test_builders_reject_bad_field():
    with pytest.raises(ValueError):
        sm.build_nv_hamiltonian([1.0, 2.0], B001)
    with pytest.raises(ValueError):
        sm.build_p1_hamiltonian([np.nan, 0.0, 0.0], B001)


@pytest.mark.parametrize(
    "axis", [1.0, [0.0, 1.0], [[0.0, 0.0, 1.0]], [0.0, 0.0, 2.0], [np.nan, 0.0, 1.0]]
)
def test_builders_reject_bad_axis(axis):
    with pytest.raises(ValueError):
        sm.build_nv_hamiltonian(50.0 * B110, axis)


def term_by_term(spin, b, axis, p):
    """One field, one term at a time, in the builders' order of addition."""
    sx, sy, sz = sm.spin_operators(spin)
    ix, iy, iz = sm.spin_operators(1.0)
    e_el, e3 = np.eye(sx.shape[0]), np.eye(3)
    s_ops = [np.kron(o, e3) for o in (sx, sy, sz)]
    i_ops = [np.kron(e_el, o) for o in (ix, iy, iz)]
    rot = sm.rotation_to_z(axis)
    bf = rot @ np.asarray(b, dtype=float)
    h = p.gamma_e * sum(bf[a] * s_ops[a] for a in range(3))
    if spin == 1.0:
        h = h + p.d_zfs * np.kron(sz @ sz, e3)
    a_mat = sm._hyperfine_matrix(p.hyperfine)
    for a in range(3):
        for c in range(3):
            if a_mat[a, c] != 0.0:
                h = h + a_mat[a, c] * (s_ops[a] @ i_ops[c])
    if spin == 1.0:
        h = h + p.quadrupole_p * np.kron(e3, iz @ iz)
    return h


@pytest.mark.parametrize("build, spin, default, params", [
    (sm.build_nv_hamiltonian, 1.0, sm.NV_DEFAULT,
     sm.NVParams(d_zfs=2870.25, hyperfine=sm.HyperfineTensor(-2.65, -2.15))),
    (sm.build_p1_hamiltonian, 0.5, sm.P1_DEFAULT,
     sm.P1Params(gamma_e=28.025, hyperfine=sm.HyperfineTensor(113.5, 81.75))),
])
def test_stacked_build_equals_per_row_build(build, spin, default, params):
    """Bit for bit: each row of a stack, its single-field build and the
    term-by-term construction."""
    rng = np.random.default_rng(21)
    fields = rng.uniform(-250.0, 250.0, size=(40, 3))
    for axis, p in [(AXIS_111, None), (unit(rng.normal(size=3)), None),
                    (unit([0.0078125, 0.0078125, -1.0]), None), (AXIS_111, params)]:
        stack = build(fields, axis, p)
        assert stack.shape == (40,) + build(fields[0], axis).shape
        for b, h in zip(fields, stack):
            assert np.array_equal(h, build(b, axis, p))
            assert np.array_equal(h, term_by_term(spin, b, axis, p or default))


def _complex_build(model, b_dc, axis, p):
    """The builders' complex path, rebuilt from _OPERATORS: the Zeeman sum
    times gamma_e, then zero-field splitting, hyperfine in (a, c) order and
    quadrupole, each added in place to a complex stack."""
    s_ops, si, szz, izz = sm._OPERATORS[model]
    bf = (sm.rotation_to_z(axis) @ np.asarray(b_dc, dtype=float)[..., None])[..., 0]
    h = np.zeros(bf.shape[:-1] + s_ops[0].shape, dtype=complex)
    for a in range(3):
        h += bf[..., a, None, None] * s_ops[a]
    h *= p.gamma_e
    a_mat = sm._hyperfine_matrix(p.hyperfine)
    terms = [a_mat[a, c] * si[a][c] for a in range(3) for c in range(3) if a_mat[a, c] != 0.0]
    if model == "nv":
        terms = [p.d_zfs * szz] + terms + [p.quadrupole_p * izz]
    for t in terms:
        h += t
    return h, bf


_SIGNED_ZERO = st.sampled_from([0.0, -0.0])
_FIELD = st.one_of(_SIGNED_ZERO, st.floats(-300.0, 300.0))


@settings(max_examples=80, deadline=None)
@given(
    model=st.sampled_from(["nv", "p1"]),
    axis=st.one_of(st.sampled_from([B001, -B001, AXIS_111]), _UNIT_VECTORS),
    fields=st.lists(st.tuples(_FIELD, _SIGNED_ZERO | _FIELD, _FIELD), min_size=1, max_size=6),
    single=st.booleans(),
)
@example(model="nv", axis=B001, fields=[(0.0, 0.0, 0.0), (-0.0, -0.0, -0.0)], single=False)
@example(model="p1", axis=-B001, fields=[(-0.0, -0.0, -0.0)], single=True)
@example(model="nv", axis=-B001, fields=[(12.5, -0.0, -40.0), (-3.0, 0.0, 7.0)], single=False)
@example(model="p1", axis=B001, fields=[(12.5, 0.0, -40.0), (-3.0, 1e-300, 7.0)], single=False)
@example(model="nv", axis=AXIS_111, fields=[(0.0, 0.0, 0.0)], single=True)
def test_builders_are_real_exactly_without_a_defect_frame_y_field(model, axis, fields, single):
    """Float exactly when every defect-frame field has zero y (either sign),
    each value then the real part of the complex build bit for bit, signed
    zeros included; complex otherwise, equal to the complex build bit for bit."""
    b = np.array(fields[0] if single else fields)
    p = sm.NV_DEFAULT if model == "nv" else sm.P1_DEFAULT
    h = sm._BUILDERS[model](b, axis)
    ref, bf = _complex_build(model, b, axis, p)
    assert h.shape == ref.shape
    if np.any(bf[..., 1]):
        assert h.dtype == complex
        assert h.tobytes() == ref.tobytes()
    else:
        assert h.dtype == float
        assert not np.any(ref.imag)
        assert h.tobytes() == np.ascontiguousarray(ref.real).tobytes()


@pytest.mark.parametrize("build", [sm.build_nv_hamiltonian, sm.build_p1_hamiltonian])
def test_stacked_builders_reject_bad_fields(build):
    with pytest.raises(ValueError):
        build(np.ones((4, 2)), B001)
    with pytest.raises(ValueError):
        build(np.ones((2, 3, 3)), B001)
    bad = np.ones((5, 3))
    bad[3, 1] = np.nan
    with pytest.raises(ValueError):
        build(bad, B001)
    with pytest.raises(ValueError):
        build(np.ones((5, 3)), [1.0, 1.0, 1.0])


@given(
    st.lists(st.floats(-150, 150), min_size=3, max_size=3),
    st.lists(st.floats(-1, 1), min_size=3, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_builders_hermitian(b, ax):
    ax = np.array(ax)
    assume(np.linalg.norm(ax) > 1e-3)
    ax = ax / np.linalg.norm(ax)
    for build in (sm.build_nv_hamiltonian, sm.build_p1_hamiltonian):
        h = build(np.array(b), ax)
        assert np.max(np.abs(h - h.conj().T)) < 1e-10


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_rotational_covariance(seed):
    """Rotating field and defect axis together must not move the spectrum."""
    rng = np.random.default_rng(seed)
    b = rng.uniform(-100, 100, size=3)
    n = unit(rng.normal(size=3))
    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    for build in (sm.build_nv_hamiltonian, sm.build_p1_hamiltonian):
        v1 = np.linalg.eigvalsh(build(b, n))
        v2 = np.linalg.eigvalsh(build(q @ b, q @ n))
        scale = max(1.0, np.max(np.abs(v1)))
        assert np.max(np.abs(v1 - v2)) / scale < 1e-9


# ---------------------------------------------------------------- eigensystem


def test_eigensystem_reconstructs():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    h = (a + a.conj().T) / 2
    eig = sm.eigensystem(h)
    rebuilt = eig.vectors @ np.diag(eig.values) @ eig.vectors.conj().T
    assert np.max(np.abs(rebuilt - h)) < 1e-10
    assert np.all(np.diff(eig.values) >= 0)


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(ValueError):
        sm.eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        sm.eigensystem(np.zeros((2, 3)))


def test_eigensystem_stack_matches_single_matrices():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(8, 5, 5)) + 1j * rng.normal(size=(8, 5, 5))
    h = (a + a.conj().swapaxes(1, 2)) / 2
    eig = sm.eigensystem(h)
    assert eig.values.shape == (8, 5) and eig.vectors.shape == (8, 5, 5)
    for k in range(8):
        one = sm.eigensystem(h[k])
        assert np.array_equal(eig.values[k], one.values)
        assert np.array_equal(eig.vectors[k], one.vectors)


def test_eigensystem_keeps_real_input_real_and_leaves_every_input_unchanged():
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=(2, 6, 5, 5))
    real = a + a.swapaxes(1, 2)
    cplx = real + 1j * (b - b.swapaxes(1, 2))
    for h, dtype in [(real, float), (real[0], float), (cplx, complex), (cplx[0], complex)]:
        before = h.copy()
        eig = sm.eigensystem(h)
        assert np.array_equal(h, before)
        assert eig.values.dtype == float and eig.vectors.dtype == dtype
    eig, as_complex = sm.eigensystem(real), sm.eigensystem(real.astype(complex))
    assert np.max(np.abs(eig.values - as_complex.values)) < 1e-12 * np.max(np.abs(eig.values))
    rebuilt = eig.vectors @ (eig.values[:, :, None] * eig.vectors.swapaxes(1, 2))
    assert np.max(np.abs(rebuilt - real)) < 1e-12 * np.max(np.abs(real))


def test_eigensystem_rejects_a_non_symmetric_real_stack():
    h = np.zeros((4, 3, 3))
    h[1, 2, 0] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        sm.eigensystem(h)
    assert np.count_nonzero(h) == 1 and h[1, 2, 0] == 1.0


def test_eigensystem_rejects_bad_stacks():
    h = np.zeros((4, 3, 3), dtype=complex)
    h[2, 0, 1] = 1.0  # one non-Hermitian matrix in the stack
    with pytest.raises(ValueError, match="Hermitian"):
        sm.eigensystem(h)
    with pytest.raises(ValueError, match="square"):
        sm.eigensystem(np.zeros((4, 2, 3)))
    with pytest.raises(ValueError, match="square"):
        sm.eigensystem(np.zeros((2, 2, 3, 3)))


@pytest.mark.parametrize("h", [
    [[1.0, np.nan], [0.0, 2.0]],  # nan - 0 compares false against any tolerance
    [[1.0, np.inf], [np.inf, 2.0]],  # inf - inf is nan
    [[np.nan, 0.0], [0.0, 1.0]],
    [[1.0, np.inf], [0.0, 2.0]],
    [[1.0, complex(0.0, np.inf)], [complex(0.0, -np.inf), 2.0]],
    np.stack([np.eye(3), np.diag([1.0, -np.inf, 2.0]), np.eye(3)]),
], ids=["nan-upper", "inf-pair", "nan-diagonal", "inf-upper", "complex-inf-pair", "stack"])
def test_eigensystem_rejects_non_finite_input(h):
    # every warning fails a test, so this also checks that none is raised
    with pytest.raises(ValueError, match="non-finite"):
        sm.eigensystem(h)


def _cubic_hermitian_eigs(h):
    """Closed-form eigenvalues of a 3x3 Hermitian matrix (trigonometric cubic)."""
    m = np.trace(h).real / 3.0
    k = h - m * np.eye(3)
    p = np.trace(k @ k).real / 6.0
    if p <= 0:
        return np.array([m, m, m])
    q = np.linalg.det(k).real / 2.0
    phi = np.arccos(np.clip(q / p**1.5, -1.0, 1.0)) / 3.0
    lam = m + 2.0 * np.sqrt(p) * np.cos(phi + 2.0 * np.pi * np.arange(3) / 3.0)
    return np.sort(lam)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_eigensystem_matches_cubic_formula(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = (a + a.conj().T) / 2
    ref = _cubic_hermitian_eigs(h)
    # the trig formula itself loses digits when eigenvalues nearly collide
    assume(np.min(np.diff(ref)) > 1e-2)
    vals = sm.eigensystem(h).values
    scale = max(1.0, np.max(np.abs(ref)))
    assert np.max(np.abs(vals - ref)) / scale < 1e-9


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_hellmann_feynman_slopes(seed):
    """dE/dB equals the expectation of the Zeeman operator, away from crossings.

    The builder returns matrices in the defect frame, so the sweep direction
    is rotated there before forming dH/dB.
    """
    rng = np.random.default_rng(seed)
    d = unit(rng.normal(size=3))
    axis = unit(rng.normal(size=3))
    b = rng.uniform(20.0, 150.0)
    eig = sm.eigensystem(sm.build_nv_hamiltonian(b * d, axis))
    assume(np.min(np.diff(eig.values)) > 1.0)
    df = sm.rotation_to_z(axis) @ d
    sx, sy, sz = sm.spin_operators(1.0)
    s_ops = [np.kron(o, np.eye(3)) for o in (sx, sy, sz)]
    dh = sm.GAMMA_E * sum(df[a] * s_ops[a] for a in range(3))
    step = 1e-5
    vp = np.linalg.eigvalsh(sm.build_nv_hamiltonian((b + step) * d, axis))
    vm = np.linalg.eigvalsh(sm.build_nv_hamiltonian((b - step) * d, axis))
    fd = (vp - vm) / (2.0 * step)
    hf = np.real(np.einsum("ij,jk,ki->i", eig.vectors.conj().T, dh, eig.vectors))
    assert np.max(np.abs(fd - hf) / np.maximum(np.abs(hf), 1.0)) < 1e-6


# ---------------------------------------------------------------- transitions


def group_lines(columns, digits=6):
    _, freq, weight, _, _ = columns
    tot = {}
    for f, w in zip(freq.tolist(), weight.tolist()):
        key = round(f, digits)
        tot[key] = tot.get(key, 0.0) + w
    return tot


def test_free_spin_half_line():
    # hyperfine switched off: bare electron, one line at gamma_e * B
    p = sm.P1Params(hyperfine=sm.HyperfineTensor(0.0, 0.0))
    eig = sm.eigensystem(sm.build_p1_hamiltonian(10.0 * B001, B001, p))
    tot = group_lines(sm.transition_spectrum(eig, initial_levels=(0,)))
    assert set(tot) == {280.0}
    assert np.isclose(tot[280.0], 0.25, atol=1e-9)


def test_nv_axial_lines_without_hyperfine():
    p = sm.NVParams(hyperfine=sm.HyperfineTensor(0.0, 0.0), quadrupole_p=0.0)
    eig = sm.eigensystem(sm.build_nv_hamiltonian(10.0 * AXIS_111, AXIS_111, p))
    tot = group_lines(sm.transition_spectrum(eig, initial_levels=(0,)))
    assert set(tot) == {sm.D_ZFS - 280.0, sm.D_ZFS + 280.0}
    for w in tot.values():
        assert np.isclose(w, 0.5, atol=1e-9)


def test_p1_dominant_lines_at_working_point():
    # three nuclear-conserving lines, one per m_I, near-equal weight
    eig = sm.eigensystem(sm.build_p1_hamiltonian(192.431 * B001, AXIS_111))
    _, freq, weight, initial, final = sm.transition_spectrum(eig, initial_levels=(0, 1, 2))
    top = np.argsort(-weight, kind="stable")[:3]
    assert np.allclose(np.sort(freq[top]), [5284.849858, 5390.008494, 5493.381423], atol=1e-4)
    assert np.all(np.abs(weight[top] - 1.0 / 6.0) < 2e-3)
    assert np.all(initial[top] + final[top] == 5)


def test_transition_weight_floor_and_index_check():
    eig = sm.eigensystem(sm.build_nv_hamiltonian(30.0 * B110, AXIS_111))
    few = sm.transition_spectrum(eig, weight_floor=1e-2)[1]
    many = sm.transition_spectrum(eig, weight_floor=0.0)[1]
    assert len(few) < len(many)
    assert len(many) == 8  # every final level once
    with pytest.raises(IndexError):
        sm.transition_spectrum(eig, initial_levels=(9,))


def test_transition_spectrum_of_a_stack_in_field_initial_final_order():
    b = np.outer(np.linspace(150.0, 250.0, 4), B001)
    eig = sm.eigensystem(sm.build_p1_hamiltonian(b, AXIS_111))
    index, freq, weight, initial, final = sm.transition_spectrum(eig, (5, 0, 3), weight_floor=0.0)
    expected = [(n, i, f) for n in range(4) for i in (5, 0, 3) for f in range(6) if f != i]
    assert list(zip(index.tolist(), initial.tolist(), final.tolist())) == expected
    for n, values in enumerate(eig.values):
        _, single_freq, single_weight, _, _ = sm.transition_spectrum(
            sm.EigenSystem(values, eig.vectors[n]), (5, 0, 3), 0.0)
        assert single_freq.tolist() == freq[index == n].tolist()
        gaps = [abs(values[f] - values[i]) for _, i, f in expected[:15]]
        assert single_freq.tolist() == gaps
        assert single_weight.tolist() == weight[index == n].tolist()


@pytest.mark.parametrize("model,b", [("nv", 30.0 * B110), ("nv", np.array([3.0, -40.0, 7.0])),
                                     ("p1", 192.431 * B001)])
def test_transition_spectrum_of_one_eigensystem_is_its_stack_of_one(model, b):
    eig = sm.eigensystem(sm._BUILDERS[model](b, AXIS_111))
    one = sm.transition_spectrum(eig, (0, 2), weight_floor=0.0)
    stack = sm.transition_spectrum(sm.EigenSystem(eig.values[None], eig.vectors[None]), (0, 2),
                                   weight_floor=0.0)
    assert len(one) == len(stack) == 5
    for got, want in zip(one, stack):
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()
    assert one[0].tolist() == [0] * one[1].size


def test_transition_weight_floor_keeps_a_line_at_the_floor():
    b = np.outer(np.linspace(20.0, 40.0, 3), B110)
    eig = sm.eigensystem(sm.build_nv_hamiltonian(b, AXIS_111))
    index, _, weight, initial, final = sm.transition_spectrum(eig, (0, 4), weight_floor=0.0)
    floor = weight[5]
    kept = sm.transition_spectrum(eig, (0, 4), weight_floor=floor)
    assert (index[5], initial[5], final[5]) in zip(kept[0], kept[3], kept[4])
    assert kept[2].tolist() == weight[weight >= floor].tolist()
    single = sm.EigenSystem(eig.values[index[5]], eig.vectors[index[5]])
    _, _, single_weight, single_initial, single_final = sm.transition_spectrum(
        single, (initial[5],), weight_floor=floor)
    assert (initial[5], final[5], floor) in zip(single_initial, single_final, single_weight)


@pytest.mark.parametrize("model,b", [("nv", 30.0 * B110), ("p1", 192.431 * B001)])
def test_stacked_weights_equal_the_per_field_products(model, b):
    """Each amplitude <f|Sx|i> is bitwise that of the field's own matrix-vector
    product, and its weight is the correctly rounded square of abs() of it."""
    fields = np.outer(np.linspace(0.5, 1.5, 4), b)
    eig = sm.eigensystem(sm._BUILDERS[model](fields, AXIS_111))
    dim = eig.values.shape[1]
    index, freq, weight, initial, final = sm.transition_spectrum(eig, (0, 2), weight_floor=0.0)
    expected = []
    for n, (values, vectors) in enumerate(zip(eig.values, eig.vectors)):
        for i in (0, 2):
            amps = vectors.conj().T @ (sm._DRIVE[dim] @ vectors[:, i])
            expected += [(n, float(abs(values[f] - values[i])), abs(amps[f]) * abs(amps[f]), i, f)
                         for f in range(dim) if f != i]
    assert list(zip(*(c.tolist() for c in (index, freq, weight, initial, final)))) == expected


def test_transition_spectrum_rejects_other_level_counts():
    # the drive is the electron Sx of the NV (9 levels) or P1 (6 levels) space
    eig = sm.eigensystem(np.diag([0.0, 1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        sm.transition_spectrum(eig)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_transition_sum_rule(seed):
    """Total weight out of a level is the variance of the drive in that state."""
    rng = np.random.default_rng(seed)
    b = rng.uniform(-60, 60, size=3)
    n = unit(rng.normal(size=3))
    eig = sm.eigensystem(sm.build_nv_hamiltonian(b, n))
    drive = np.kron(sm.spin_operators(1.0)[0], np.eye(3))
    i = int(rng.integers(0, 9))
    total = sum(sm.transition_spectrum(eig, initial_levels=(i,), weight_floor=0.0)[2].tolist())
    vec = eig.vectors[:, i]
    expect_sq = np.real(vec.conj() @ (drive @ drive @ vec))
    expect = np.real(vec.conj() @ (drive @ vec))
    assert abs(total - (expect_sq - expect**2)) < 1e-9


# ---------------------------------------------------------------- bonds


def test_bond_orientations():
    bonds = sm.bond_orientations()
    assert bonds.shape == (4, 3)
    assert np.allclose(np.linalg.norm(bonds, axis=1), 1.0)
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.isclose(bonds[i] @ bonds[j], -1.0 / 3.0, atol=1e-12)
    cos110 = np.sort(np.abs(bonds @ B110))
    assert np.allclose(cos110, [0.0, 0.0, 2.0 / np.sqrt(6.0), 2.0 / np.sqrt(6.0)])
    assert np.allclose(np.abs(bonds @ B001), 1.0 / np.sqrt(3.0))


# ---------------------------------------------------------------- level curves


def test_level_curve_single_point_is_eigensystem():
    c = sm.level_curve("nv", B110, AXIS_111, np.array([50.0]))
    eig = sm.eigensystem(sm.build_nv_hamiltonian(50.0 * B110, AXIS_111))
    assert np.allclose(c.energies[0], eig.values)
    assert c.vectors.shape == (1, 9, 9)


def test_level_curve_input_validation():
    with pytest.raises(ValueError):
        sm.level_curve("nv", B110, AXIS_111, np.array([1.0, 3.0, 2.0]))
    for b_range in (np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([])):
        with pytest.raises(ValueError, match="b_range must be a 1d grid with at least one point"):
            sm.level_curve("nv", B110, AXIS_111, b_range)
    with pytest.raises(ValueError):
        sm.level_curve("nv", [0, 0, 0], AXIS_111, np.array([1.0, 2.0]))
    for direction in ([1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [[1.0, 0.0, 0.0]]):
        with pytest.raises(ValueError, match="b_direction must be a finite nonzero 3-vector"):
            sm.level_curve("nv", direction, AXIS_111, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        sm.level_curve("xy", B110, AXIS_111, np.array([1.0, 2.0]))


def test_level_curve_aligned_zeeman_slopes():
    # no hyperfine, field on the axis: slopes are exactly 0 and +-gamma_e
    p = sm.NVParams(hyperfine=sm.HyperfineTensor(0.0, 0.0), quadrupole_p=0.0)
    c = sm.level_curve("nv", AXIS_111, AXIS_111, np.linspace(1.0, 10.0, 19), params=p)
    slopes = np.sort((c.energies[-1] - c.energies[0]) / 9.0)
    expect = [-28.0] * 3 + [0.0] * 3 + [28.0] * 3
    assert np.allclose(slopes, expect, atol=1e-9)


def test_level_curve_nv_span_monotone():
    c = sm.level_curve("nv", B110, AXIS_111, np.linspace(10.0, 100.0, 91))
    span = c.energies.max(axis=1) - c.energies.min(axis=1)
    assert np.all(np.diff(span) > 0)


def _tracked(model, grid):
    """Tracked levels of a toy model, a callable from the field (mT) to a
    Hermitian matrix: the matrices are stacked and diagonalized in one call,
    then ordered by the tracker level_curve uses."""
    eig = sm.eigensystem(np.array([model(b) for b in grid]))
    orders = sm._track(eig.vectors, grid)
    return (
        np.take_along_axis(eig.values, orders, axis=1),
        np.take_along_axis(eig.vectors, orders[:, None, :], axis=2),
    )


def _scramble_model():
    """Unitary-conjugated constant spectrum; fast rotation defeats coarse grids."""
    rng = np.random.default_rng(7)
    dim = 5
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    gen = (a + a.conj().T) / 2
    d = np.diag(np.arange(dim, dtype=float))

    def model(b):
        u = expm(1j * gen * b)
        return u @ d @ u.conj().T

    return model


def test_level_curve_coarse_grid_raises():
    model = _scramble_model()
    with pytest.raises(sm.TrackingError, match="refine the field grid"):
        _tracked(model, np.array([0.0, 1.0, 2.0]))


def test_level_curve_fine_grid_tracks_through_scramble():
    # same model: with enough points the constant eigenvalues stay put
    model = _scramble_model()
    energies, _ = _tracked(model, np.linspace(0.0, 2.0, 801))
    assert np.allclose(energies, np.arange(5.0), atol=1e-9)


@pytest.mark.parametrize("model, lab, b_max", [("nv", lab_frame_nv, 200.0), ("p1", lab_frame_p1, 300.0)])
def test_level_curve_long_sweep_matches_lab_frame(model, lab, b_max):
    """1500 tracked fields along a random direction, as sets, against the
    per-field spectrum of the lab-frame construction."""
    rng = np.random.default_rng(31)
    d = unit(rng.normal(size=3))
    grid = np.linspace(0.0, b_max, 1500) + rng.uniform(5.0, 15.0)
    c = sm.level_curve(model, d, AXIS_111, grid)
    ref = np.array([np.linalg.eigvalsh(lab(b * d, AXIS_111)) for b in grid])
    tol = 1e-9 * np.max(np.abs(ref), axis=1, keepdims=True)
    assert np.all(np.abs(np.sort(c.energies, axis=1) - ref) <= tol)


def test_level_curve_names_first_ambiguous_step():
    # a 6-level basis change whose row-wise argmax is a permutation, with
    # one row peaking below 0.5, at the steps from 1 to 2 and from 3 to 4 mT
    rng = np.random.default_rng(2108)
    q = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
    overlap = np.abs(q)
    assert len(set(overlap.argmax(axis=1))) == 6
    worst = overlap.max(axis=1).min()
    assert worst < 0.5

    def model(b):
        u = np.linalg.matrix_power(q, int(b > 1.5) + int(b > 3.5))
        return u @ np.diag(np.arange(6.0)) @ u.conj().T

    msg = f"between B = 1 and 2 mT \\(overlap {worst:.3f}\\); refine the field grid"
    with pytest.raises(sm.TrackingError, match=msg):
        _tracked(model, np.arange(5.0))


def _jz(s):
    """Diagonal of J_z = S_z + I_z for a spin-s electron (x) I = 1 nitrogen."""
    sz, iz = sm.spin_operators(s)[2], sm.spin_operators(1.0)[2]
    return np.diag(np.kron(sz, np.eye(3)) + np.kron(np.eye(sz.shape[0]), iz)).real


@settings(max_examples=60, deadline=None)
@given(
    model=st.sampled_from(["nv", "p1"]),
    axis=st.one_of(st.sampled_from([B001, -B001, AXIS_111]), _UNIT_VECTORS),
    direction=st.one_of(st.sampled_from(["axis", "-axis"]), _UNIT_VECTORS),
    start=st.floats(-120.0, 120.0),
    step=st.floats(0.05, 2.0),
    n=st.integers(1, 60),
)
@example(model="nv", axis=B001, direction="axis", start=-3.0, step=0.25, n=25)
@example(model="p1", axis=-B001, direction="axis", start=-3.0, step=0.25, n=25)
@example(model="nv", axis=-B001, direction=B110, start=-10.0, step=0.5, n=41)
@example(model="p1", axis=B001, direction=B110, start=-10.0, step=0.5, n=41)
def test_level_curve_field_frame_matches_the_defect_frame(model, axis, direction, start, step, n):
    """Energies and vectors of the real field-frame stack against the
    builder's own stack: along the axis (b_perp = 0), through zero and at
    negative fields, with axis +z (where rotation_to_z is the identity) and -z
    (its special case)."""
    if isinstance(direction, str):
        direction = axis if direction == "axis" else -axis
    grid = start + step * np.arange(n)
    built = []

    def recording(b_dc, ax, params=None):
        built.append(build(b_dc, ax, params))
        return built[-1]

    build = sm._BUILDERS[model]
    with mock.patch.dict(sm._BUILDERS, {model: recording}):
        c = sm.level_curve(model, direction, axis, grid)
    assert len(built) == 1 and built[0].dtype == float
    assert not np.any(built[0].imag)
    h = build(grid[:, None] * direction, axis)
    ref = np.linalg.eigvalsh(h)
    scale = np.max(np.abs(ref), axis=1, keepdims=True)
    assert np.all(np.abs(np.sort(c.energies, axis=1) - ref) <= 1e-9 * scale)
    v = c.vectors
    assert np.max(np.abs(h @ v - v * c.energies[:, None, :])) <= 1e-9
    assert np.max(np.abs(v.conj().swapaxes(1, 2) @ v - np.eye(v.shape[1]))) <= 1e-9


def _per_step_track(vecs, b_range):
    """The tracker with one Python step per pair of fields, composing the
    order at every step: the oracle of _track."""
    n, dim = vecs.shape[:2]
    overlap = np.empty((n - 1, dim, dim))
    for s in range(0, n - 1, 128):
        e = min(s + 128, n - 1)
        np.abs(vecs[s:e].conj().swapaxes(1, 2) @ vecs[s + 1 : e + 1], out=overlap[s:e])
    best = overlap.argmax(axis=2)
    is_perm = np.all(np.sort(best, axis=1) == np.arange(dim), axis=1)
    worst = overlap.max(axis=2).min(axis=1)
    low = np.flatnonzero(is_perm & (worst < 0.5))
    stop = low[0] if low.size else n - 1
    order = list(range(dim))
    orders = [order]
    for i, step in enumerate(best[:stop].tolist()):
        if is_perm[i]:
            order = [step[k] for k in order]
        else:
            tracked = overlap[i][order]
            order = sm.assign(-tracked)
            w = tracked[range(dim), order].min()
            if w < 0.5:
                raise sm._ambiguous(b_range, i, w)
        orders.append(order)
    if low.size:
        raise sm._ambiguous(b_range, stop, worst[stop])
    return np.array(orders)


def _tracks_as_per_step(model, direction, axis, grid):
    """_track and level_curve against the per-step oracle, every field
    reordered, on level_curve's field-frame stack; a TrackingError must be
    the same.  Returns the oracle's orders, or None where it raised."""
    e = sm.rotation_to_z(axis) @ unit(direction)
    fields = np.multiply.outer(grid, [math.hypot(e[0], e[1]), 0.0, e[2]])
    eig = sm.eigensystem(sm._BUILDERS[model](fields, B001))
    try:
        orders = _per_step_track(eig.vectors, grid)
    except sm.TrackingError as exc:
        for call in (lambda: sm._track(eig.vectors, grid),
                     lambda: sm.level_curve(model, direction, axis, grid)):
            with pytest.raises(sm.TrackingError, match=re.escape(str(exc))):
                call()
        return None
    assert np.array_equal(sm._track(eig.vectors, grid), orders)
    c = sm.level_curve(model, direction, axis, grid)
    phases = np.exp(-1j * math.atan2(e[1], e[0]) * _jz(1.0 if model == "nv" else 0.5))
    assert np.array_equal(c.energies, np.take_along_axis(eig.values, orders, axis=1))
    assert np.array_equal(
        c.vectors, phases[:, None] * np.take_along_axis(eig.vectors, orders[:, None, :], axis=2))
    return orders


@pytest.mark.parametrize("model, b_max", [("nv", 200.0), ("p1", 300.0)])
def test_tracking_matches_the_per_step_loop_on_generic_sweeps(model, b_max):
    # the bench's sweeps: avoided crossings only, so the order never changes
    rng = np.random.default_rng(1931)
    grid = np.linspace(0.0, b_max, 1500) + rng.uniform(5.0, 15.0)
    for direction in rng.normal(size=(3, 3)):
        orders = _tracks_as_per_step(model, direction, AXIS_111, grid)
        assert np.all(orders == np.arange(orders.shape[1]))


@pytest.mark.parametrize("model", ["nv", "p1"])
@pytest.mark.parametrize("axis", [AXIS_111, B001, -B001])
def test_tracking_matches_the_per_step_loop_through_true_crossings(model, axis):
    # fields along the defect axis conserve J_z, so levels truly cross and
    # the sorted order changes along the sweep
    orders = _tracks_as_per_step(model, axis, axis, np.linspace(0.1, 150.0, 700))
    assert not np.all(orders == np.arange(orders.shape[1]))


def test_tracking_matches_the_per_step_loop_through_the_assignment_fallback():
    # P1 along [001] from 0.5 mT: a step whose row-wise best match is no
    # permutation, where both trackers solve the assignment
    with mock.patch.object(sm, "assign", wraps=sm.assign) as spy:
        orders = _tracks_as_per_step("p1", B001, AXIS_111, np.linspace(0.5, 300.0, 61))
    assert spy.called and orders is not None


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from(["nv", "p1"]),
    axis=st.one_of(st.sampled_from([B001, -B001, AXIS_111]), _UNIT_VECTORS),
    direction=st.one_of(st.sampled_from(["axis", "-axis"]), _UNIT_VECTORS),
    start=st.floats(-150.0, 150.0),
    step=st.floats(0.01, 3.0),
    n=st.integers(1, 300),
)
# a P1 grid too coarse to track: both raise the same TrackingError
@example(model="p1", axis=AXIS_111, direction=B001, start=0.5, step=49.9, n=7)
def test_tracking_matches_the_per_step_loop_on_drawn_sweeps(model, axis, direction, start, step, n):
    if isinstance(direction, str):
        direction = axis if direction == "axis" else -axis
    _tracks_as_per_step(model, direction, axis, start + step * np.arange(n))


def _lsa_tracked(model, grid):
    """Field-by-field tracking with a global assignment at every step, on the
    model's own dtype (a real symmetric model keeps real eigenvectors)."""
    energies, vectors, prev = [], [], None
    for b in grid:
        vals, vecs = np.linalg.eigh(np.asarray(model(b)))
        order = np.arange(vals.size)
        if prev is not None:
            row, col = linear_sum_assignment(-np.abs(prev.conj().T @ vecs))
            order = col[np.argsort(row)]
        energies.append(vals[order])
        vectors.append(vecs[:, order])
        prev = vectors[-1]
    return np.array(energies), np.array(vectors)


def test_level_curve_assignment_fallback_matches_per_step_assignment():
    # each step rotates the eigenbasis by q, whose rows 0 and 1 both peak in
    # column 0: the row-wise argmax is no permutation, while the best
    # assignment keeps every overlap near 0.7
    def givens(i, j, t):
        g = np.eye(3)
        g[i, i] = g[j, j] = np.cos(t)
        g[i, j], g[j, i] = -np.sin(t), np.sin(t)
        return g

    q = givens(0, 1, 0.8) @ givens(1, 2, 0.2) @ givens(0, 2, 0.1)
    overlap = np.abs(q)
    assert len(set(overlap.argmax(axis=1))) < 3
    row, col = linear_sum_assignment(-overlap)
    assert overlap[row, col].min() >= 0.5

    def model(b):
        u = np.linalg.matrix_power(q, int(round(b)))
        return u @ np.diag([0.0, 1.0, 2.0]) @ u.T

    grid = np.arange(5.0)
    tracked_energies, tracked_vectors = _tracked(model, grid)
    energies, vectors = _lsa_tracked(model, grid)
    assert np.array_equal(tracked_energies, energies)
    assert np.array_equal(tracked_vectors, vectors)
    assert not np.array_equal(tracked_energies[-1], [0.0, 1.0, 2.0])  # levels were relabelled


def test_level_curve_assignment_fallback_on_a_physical_p1_sweep():
    # P1 along [001] from 0.5 mT: at the first step two rows of the overlap
    # peak in the same column, and the best assignment still keeps every
    # overlap near 0.58, so the sweep tracks instead of raising
    grid = np.linspace(0.5, 300.0, 61)
    vecs = sm.eigensystem(sm.build_p1_hamiltonian(grid[:2, None] * B001, AXIS_111)).vectors
    overlap = np.abs(vecs[0].conj().T @ vecs[1])
    assert len(set(overlap.argmax(axis=1))) < 6
    row, col = linear_sum_assignment(-overlap)
    assert overlap[row, col].min() >= 0.5
    c = sm.level_curve("p1", [0, 0, 1], AXIS_111, grid)
    # level_curve diagonalizes the real stack of the frame turned by the
    # field's azimuth phi, then gives row k of the vectors the phase
    # exp(-i phi (m_s + m_I)_k); the oracle tracks that same real stack
    e = sm.rotation_to_z(AXIS_111) @ B001
    field = np.array([math.hypot(e[0], e[1]), 0.0, e[2]])
    energies, vectors = _lsa_tracked(lambda b: sm.build_p1_hamiltonian(b * field, B001).real, grid)
    phases = np.exp(-1j * math.atan2(e[1], e[0]) * _jz(0.5))
    assert np.array_equal(c.energies, energies)
    assert np.array_equal(c.vectors, phases[:, None] * vectors)


def _assignment_cost(kind, n, seed):
    """An (n, n) cost matrix: uniform noise, small integers (many tied
    assignments), minus the overlap |V^H V'| of the eigenbases of two nearly
    equal random Hermitian matrices (close runners-up, as in tracking), or
    minus a scrambled permutation matrix."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.random((n, n))
    if kind == "integers":
        return rng.integers(0, 4, (n, n)).astype(float)
    if kind == "perturbed":
        a, b = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2))
        h, v = a + a.conj().T, b + b.conj().T
        eps = 10.0 ** rng.uniform(-6.0, 1.0)
        vecs = np.linalg.eigh(np.array([h, h + eps * v]))[1]
        return -np.abs(vecs[0].conj().T @ vecs[1])
    return -np.eye(n)[rng.permutation(n)]


def _next_best_total(cost, col):
    """Least total of an assignment that differs from col in some row: the
    best one that avoids one of col's entries."""
    banned = 2.0 * np.abs(cost).sum() + 1.0  # any total with it exceeds any without
    totals = []
    for i, j in enumerate(col):
        c = cost.copy()
        c[i, j] = banned
        totals.append(c[linear_sum_assignment(c)].sum())
    return min(totals)


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(["uniform", "integers", "perturbed", "permutation"]),
    n=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="uniform", n=1, seed=0)
@example(kind="integers", n=9, seed=1)
@example(kind="perturbed", n=9, seed=2)
@example(kind="permutation", n=9, seed=3)
def test_assign_matches_linear_sum_assignment(kind, n, seed):
    cost = _assignment_cost(kind, n, seed)
    col = sm.assign(cost)
    row, ref = linear_sum_assignment(cost)
    assert sorted(col) == list(range(n))
    assert np.isclose(cost[range(n), col].sum(), cost[row, ref].sum(), rtol=0.0, atol=1e-12)
    if _next_best_total(cost, ref) - cost[row, ref].sum() > 1e-9:  # a unique optimum
        assert col == ref.tolist()


def test_assign_rejects_bad_costs():
    for cost in (np.ones((2, 3)), np.ones(3), [[0.0, np.nan], [1.0, 0.0]]):
        with pytest.raises(ValueError, match="finite square"):
            sm.assign(cost)


def test_level_curve_diagonalizes_once(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(sm.np.linalg, "eigh", counted)
    grid = np.linspace(1.0, 200.0, 200)
    for model in ("nv", "p1"):
        calls.clear()
        sm.level_curve(model, [0.3, -0.2, 1.0], AXIS_111, grid / 100.0)
        assert len(calls) == 1 and calls[0][0] == 200


# ---------------------------------------------------------------- threaded stacks


def _bench_sweep(model, seed=2801):
    """Field grid and generic direction of a bench sweep: 1500 fields, a
    direction drawn as bench/workloads.py draws it."""
    rng = np.random.default_rng([seed, 101])
    b_max = {"nv": 200.0, "p1": 300.0}[model]
    return rng.normal(size=3), np.linspace(0.0, b_max, 1500) + rng.uniform(5.0, 15.0)


def _field_frame_stack(model, n):
    direction, grid = _bench_sweep(model)
    e = sm.rotation_to_z(AXIS_111) @ unit(direction)
    fields = np.multiply.outer(grid[:n], [math.hypot(e[0], e[1]), 0.0, e[2]])
    return sm._BUILDERS[model](fields, (0.0, 0.0, 1.0))


def _threads_started(monkeypatch):
    """A list that grows by one for each thread eigensystem starts."""
    started, thread = [], sm.threading.Thread

    def counted(*args, **kwargs):
        started.append(1)
        return thread(*args, **kwargs)

    monkeypatch.setattr(sm.threading, "Thread", counted)
    return started


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("stack, n", [("nv", 1500), ("p1", 1500), ("nv", 512), ("p1", 512),
                                      ("complex", 600)])
def test_threaded_eigensystem_equals_eigh_of_each_chunk(monkeypatch, stack, n, cpus):
    if stack == "complex":
        # a lab-frame field off the defect frame's xz plane makes the build complex
        direction, grid = _bench_sweep("nv")
        h = sm.build_nv_hamiltonian(np.multiply.outer(grid[:n], unit(direction)), AXIS_111)
        assert np.iscomplexobj(h)
    else:
        h = _field_frame_stack(stack, n)
        assert h.dtype == float
    monkeypatch.setattr(sm, "_usable_cpus", lambda: cpus)
    started = _threads_started(monkeypatch)
    eig = sm.eigensystem(h)
    assert len(started) == min(cpus, n // sm._MIN_SLICE) - 1 >= 1
    assert eig.values.dtype == float and eig.vectors.dtype == h.dtype
    chunk = sm._MIN_SLICE // 2
    for lo in range(0, n, chunk):
        values, vectors = np.linalg.eigh(h[lo:lo + chunk])
        assert eig.values[lo:lo + chunk].tobytes() == values.tobytes()
        assert eig.vectors[lo:lo + chunk].tobytes() == vectors.tobytes()
    values, vectors = np.linalg.eigh(h)
    assert eig.values.tobytes() == values.tobytes()
    assert eig.vectors.tobytes() == vectors.tobytes()


def test_eigensystem_below_two_slices_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("eigensystem started a thread")

    monkeypatch.setattr(sm, "_usable_cpus", lambda: 64)
    monkeypatch.setattr(sm.threading, "Thread", no_thread)
    for model in ("nv", "p1"):
        h = _field_frame_stack(model, 2 * sm._MIN_SLICE - 1)
        values, vectors = np.linalg.eigh(h)
        eig = sm.eigensystem(h)
        assert eig.values.tobytes() == values.tobytes()
        assert eig.vectors.tobytes() == vectors.tobytes()
    # one large matrix is not a stack
    big = np.eye(2 * sm._MIN_SLICE)
    assert np.array_equal(sm.eigensystem(big).values, np.ones(len(big)))


def test_eigensystem_uses_no_more_threads_than_usable_cpus(monkeypatch):
    started = _threads_started(monkeypatch)
    monkeypatch.setattr(sm, "_usable_cpus", lambda: 1)
    sm.eigensystem(_field_frame_stack("p1", 1500))
    assert started == []
    monkeypatch.undo()
    started = _threads_started(monkeypatch)
    sm.eigensystem(_field_frame_stack("p1", 1500))
    assert len(started) == min(sm._usable_cpus(), 1500 // sm._MIN_SLICE) - 1


def test_usable_cpus_is_the_affinity_mask_else_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert sm._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(sm.os, "sched_getaffinity")
    monkeypatch.setattr(sm.os, "cpu_count", lambda: 5)
    assert sm._usable_cpus() == 5
    monkeypatch.setattr(sm.os, "cpu_count", lambda: None)
    assert sm._usable_cpus() == 1


class _ChunkFailed(Exception):
    pass


@pytest.mark.parametrize("failing_thread", ["calling", "worker"])
def test_an_exception_in_a_chunk_reaches_the_caller(monkeypatch, failing_thread):
    h = _field_frame_stack("nv", 1500)
    monkeypatch.setattr(sm, "_usable_cpus", lambda: 2)
    eigh = np.linalg.eigh

    def failing_eigh(a, *args, **kwargs):
        calling = threading.current_thread() is threading.main_thread()
        if calling == (failing_thread == "calling"):
            raise _ChunkFailed(failing_thread)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(sm.np.linalg, "eigh", failing_eigh)
    before = threading.active_count()
    with pytest.raises(_ChunkFailed, match=failing_thread):
        sm.eigensystem(h)
    assert threading.active_count() == before


@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("fault, reason", [("asymmetric", "not Hermitian"), ("nan", "non-finite")])
def test_a_bad_matrix_in_a_threaded_chunk_is_a_value_error(monkeypatch, where, fault, reason):
    # each chunk checks itself just before its eigh, so the threads have started
    h = _field_frame_stack("nv", 1500)
    k = 0 if where == "first" else len(h) - 1
    if fault == "nan":
        h[k, 4, 4] = np.nan
    else:
        h[k, 0, 1] += 1e-6
    before_h = h.copy()
    monkeypatch.setattr(sm, "_usable_cpus", lambda: 2)
    started = _threads_started(monkeypatch)
    before = threading.active_count()
    with pytest.raises(ValueError, match=reason):
        sm.eigensystem(h)
    assert threading.active_count() == before and len(started) == 1
    assert h.tobytes() == before_h.tobytes()


@pytest.mark.parametrize("shape", [(3, 0, 0), (0, 3, 3), (0, 0)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_eigensystem_of_an_empty_stack_keeps_its_shapes(shape, dtype):
    eig = sm.eigensystem(np.zeros(shape, dtype))
    assert eig.values.shape == shape[:-1] and eig.values.dtype == float
    assert eig.vectors.shape == shape and eig.vectors.dtype == dtype


@pytest.mark.parametrize("n", [1, 57, 2 * sm._MIN_SLICE - 1])
def test_a_stack_under_two_slices_is_one_eigh_call(monkeypatch, n):
    calls, eigh = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(sm, "_usable_cpus", lambda: 64)
    monkeypatch.setattr(sm.np.linalg, "eigh", counted)
    h = _field_frame_stack("nv", n)
    sm.eigensystem(h)
    assert calls == [h.shape]
    calls.clear()
    sm.eigensystem(h[0])  # one matrix is a stack of one
    assert calls == [(1,) + h.shape[1:]]


@pytest.mark.parametrize("d", [2, 3, 6, 9, 17, 40])
@pytest.mark.parametrize("dtype", [float, complex])
def test_one_matrix_gives_its_own_eigh_bit_for_bit(d, dtype):
    rng = np.random.default_rng([d, dtype is complex])
    for _ in range(5):
        a = rng.normal(size=(d, d)) + (1j * rng.normal(size=(d, d)) if dtype is complex else 0.0)
        h = (a + a.conj().T) / 2
        values, vectors = np.linalg.eigh(h)
        eig = sm.eigensystem(h)
        assert eig.values.shape == (d,) and eig.vectors.shape == (d, d)
        assert eig.values.tobytes() == values.tobytes()
        assert eig.vectors.tobytes() == vectors.tobytes()


@pytest.mark.parametrize("model", ["nv", "p1"])
def test_threaded_level_curve_equals_the_one_thread_sweep(monkeypatch, model):
    direction, grid = _bench_sweep(model)
    monkeypatch.setattr(sm, "_usable_cpus", lambda: 2)
    threaded = sm.level_curve(model, direction, AXIS_111, grid)
    monkeypatch.setattr(sm, "_usable_cpus", lambda: 1)
    single = sm.level_curve(model, direction, AXIS_111, grid)
    assert threaded.energies.tobytes() == single.energies.tobytes()
    assert threaded.vectors.tobytes() == single.vectors.tobytes()


_FRESH_SWEEP = """
import sys
import numpy as np
from spincavity import spin_models as sm
usable = sm._usable_cpus
sm._usable_cpus = lambda: max(2, usable())  # at least two slices on any machine
started, thread = [], sm.threading.Thread
sm.threading.Thread = lambda *a, **k: started.append(1) or thread(*a, **k)
model, inputs, out = sys.argv[1:]
v = np.load(inputs)  # the direction, then the field grid
c = sm.level_curve(model, v[:3], np.ones(3) / np.sqrt(3.0), v[3:])
assert started, "the sweep started no thread"
np.save(out, np.concatenate([c.energies.ravel(), c.vectors.ravel()]))
"""


@pytest.mark.parametrize("model", ["nv", "p1"])
def test_threaded_sweep_in_a_fresh_interpreter_with_default_blas_threads(
        tmp_path, monkeypatch, model):
    # the bench holds BLAS to one thread; a user's default leaves its own pool on
    direction, grid = _bench_sweep(model)
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    inputs, out = tmp_path / "inputs.npy", tmp_path / "sweep.npy"
    np.save(inputs, np.concatenate([direction, grid]))
    proc = subprocess.run([sys.executable, "-c", _FRESH_SWEEP, model, str(inputs), str(out)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.setattr(sm, "_usable_cpus", lambda: 1)
    single = sm.level_curve(model, direction, AXIS_111, grid)
    expected = np.concatenate([single.energies.ravel(), single.vectors.ravel()])
    assert np.load(out).tobytes() == expected.tobytes()
