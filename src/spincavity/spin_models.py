"""Spin Hamiltonians of the two nitrogen defects in diamond.

Energies are frequencies in MHz (H divided by Planck's constant) and magnetic
fields are in mT, so the gyromagnetic ratio of 28 MHz/mT and the tensor
components below can be used exactly as quoted.  All matrices act on the
electron (x) nuclear product space, both single-spin bases ordered
m = +s ... -s.

The Hamiltonian is assembled in the defect frame, z along the symmetry axis,
because the zero-field and hyperfine tensors are diagonal only there; the lab
field is rotated in.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

GAMMA_E = 28.0  # electron gyromagnetic ratio, MHz/mT

# NV center: S = 1 electron, I = 1 nitrogen-14 nucleus
D_ZFS = 2877.5      # zero-field splitting, MHz
A_NV_PERP = -2.7    # MHz
A_NV_PAR = -2.1     # MHz
QUAD_P = -5.0       # nuclear quadrupole, MHz

# P1 center: S = 1/2 electron, same I = 1 nucleus, much stronger hyperfine
A_P1_PERP = 114.03  # MHz
A_P1_PAR = 81.33    # MHz

_UNIT_TOL = 1e-8


@dataclass(frozen=True)
class HyperfineTensor:
    """Hyperfine coupling, axially symmetric about the defect symmetry axis
    (the nitrogen sits along the bond for both defects treated here)."""

    a_perp: float
    a_par: float


@dataclass(frozen=True)
class NVParams:
    gamma_e: float = GAMMA_E
    d_zfs: float = D_ZFS
    quadrupole_p: float = QUAD_P
    hyperfine: HyperfineTensor = HyperfineTensor(A_NV_PERP, A_NV_PAR)


@dataclass(frozen=True)
class P1Params:
    gamma_e: float = GAMMA_E
    hyperfine: HyperfineTensor = HyperfineTensor(A_P1_PERP, A_P1_PAR)


NV_DEFAULT = NVParams()
P1_DEFAULT = P1Params()


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigenvalues sorted ascending (MHz) and orthonormal eigenvectors as columns.

    For a stack of n matrices, values is (n, d) and vectors is (n, d, d).
    """

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class TransitionLine:
    freq: float
    weight: float
    from_index: int
    to_index: int


@dataclass(frozen=True, eq=False)
class LevelCurves:
    """Adiabatically tracked levels over a field sweep.

    energies has shape (n_fields, dim); column k follows one physical level
    by eigenvector continuity, so it is generally not sorted at every field.
    vectors[i] holds the matching eigenvectors (columns) at b_mt[i].
    """

    b_mt: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray


def spin_operators(s):
    """Return (Sx, Sy, Sz) for spin quantum number s in the Sz eigenbasis.

    :param s: non-negative half integer (0.5, 1, 1.5, ...)
    :returns: three (2s+1) x (2s+1) complex Hermitian matrices, dimensionless
    """
    if s < 0 or abs(2 * s - round(2 * s)) > 1e-9:
        raise ValueError(f"spin must be a non-negative half-integer, got {s}")
    dim = int(round(2 * s + 1))
    m = s - np.arange(dim)
    sz = np.diag(m).astype(complex)
    sp = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        sp[k - 1, k] = np.sqrt(s * (s + 1) - m[k] * (m[k] + 1))
    sm = sp.conj().T
    sx = (sp + sm) / 2
    sy = (sp - sm) / 2j
    return sx, sy, sz


def _unit_vector(v, name):
    v = np.asarray(v, dtype=float)
    if v.shape != (3,) or not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be a finite 3-vector")
    if abs(np.linalg.norm(v) - 1.0) > _UNIT_TOL:
        raise ValueError(f"{name} must have unit norm, |{name}| = {np.linalg.norm(v):.6g}")
    return v


def rotation_to_z(axis):
    """Minimal rotation matrix taking the given unit vector onto +z.

    Rodrigues construction about axis x z; the anti-parallel case uses a
    180 degree rotation about x, which is perpendicular to z.

    The short form I + K + K^2/(1 + c) assumes |axis x z|^2 = (1 - c)(1 + c)
    exactly, so it divides the roundoff in |axis| by 1 + c.  That is harmless
    for c >= 0, but near -z it spoils orthonormality; there the rotation is
    built from the unit vector along axis x z, with sine and cosine
    normalized together by r = hypot(|axis x z|, c).
    """
    axis = _unit_vector(axis, "axis")
    zhat = np.array([0.0, 0.0, 1.0])
    c = float(axis @ zhat)
    if c > 1.0 - 1e-12:
        return np.eye(3)
    if c < -1.0 + 1e-12:
        return np.diag([1.0, -1.0, -1.0])
    v = np.cross(axis, zhat)
    k = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    if c >= 0.0:
        return np.eye(3) + k + k @ k / (1.0 + c)
    s = float(np.linalg.norm(v))
    r = np.hypot(s, c)
    k = k / s
    return np.eye(3) + (s / r) * k + (1.0 - c / r) * (k @ k)


def _hyperfine_matrix(hf):
    """3x3 coupling tensor a_perp I + (a_par - a_perp) z z^T in the defect
    frame, z along the symmetry axis."""
    return hf.a_perp * np.eye(3) + (hf.a_par - hf.a_perp) * np.diag([0.0, 0.0, 1.0])


def _check_field(b_dc):
    b = np.asarray(b_dc, dtype=float)
    if b.ndim not in (1, 2) or b.shape[-1] != 3 or not np.all(np.isfinite(b)):
        raise ValueError("b_dc must be a finite 3-vector or an (n, 3) stack of them, in mT")
    return b


def _defect_operators(s):
    """Field-independent operators of a spin-s electron (x) I = 1 nitrogen.

    Returns the electron spin vector, the nine products S_a I_c, and the
    squared axial components Sz^2 and Iz^2, all in the product space.
    """
    es, ns = spin_operators(s), spin_operators(1.0)
    e_el, e_n = np.eye(es[0].shape[0]), np.eye(3)
    s_ops = [np.kron(o, e_n) for o in es]
    i_ops = [np.kron(e_el, o) for o in ns]
    si = [[s_ops[a] @ i_ops[c] for c in range(3)] for a in range(3)]
    return s_ops, si, np.kron(es[2] @ es[2], e_n), np.kron(e_el, ns[2] @ ns[2])


_OPERATORS = {"nv": _defect_operators(1.0), "p1": _defect_operators(0.5)}
# number of levels of each defect's product space
DIMENSION = {defect: ops[0][0].shape[0] for defect, ops in _OPERATORS.items()}
# electron Sx in the product space, by level count: the drive of transition_spectrum
_DRIVE = {DIMENSION[defect]: ops[0][0] for defect, ops in _OPERATORS.items()}


@lru_cache(maxsize=64)
def _frame_terms(defect, axis, p):
    """Rotation into the defect frame and the field-independent terms of H.

    The terms are listed in the order the builder adds them: zero-field
    splitting, hyperfine in (a, c) order, quadrupole.  They are kept apart,
    not summed, so that every sum is formed as in a single-field build.
    """
    rot = rotation_to_z(axis)
    _, si, szz, izz = _OPERATORS[defect]
    a_mat = _hyperfine_matrix(p.hyperfine)
    terms = [a_mat[a, c] * si[a][c] for a in range(3) for c in range(3) if a_mat[a, c] != 0.0]
    if defect == "nv":
        terms = [p.d_zfs * szz] + terms + [p.quadrupole_p * izz]
    return rot, terms


def _build(defect, b_dc, axis, p):
    b = _check_field(b_dc)
    if np.shape(axis) != (3,):
        raise ValueError("axis must be a finite 3-vector")
    # rotation_to_z rejects the rest, so only valid axes enter the cache
    rot, terms = _frame_terms(defect, tuple(np.asarray(axis, dtype=float).tolist()), p)
    # a stacked matmul rounds each row exactly as rot @ b does
    bf = (rot @ b[..., None])[..., 0]
    s_ops = _OPERATORS[defect][0]
    # in place, but with the roundings of gamma_e * (0 + Z_x + Z_y + Z_z) + terms
    h = np.zeros(bf.shape[:-1] + s_ops[0].shape, dtype=complex)
    zeeman = np.empty_like(h)
    for a in range(3):
        h += np.multiply(bf[..., a, None, None], s_ops[a], out=zeeman)
    h *= p.gamma_e
    for t in terms:
        h += t
    return h


def build_nv_hamiltonian(b_dc, nv_axis, params=None):
    """9x9 Hamiltonian of one NV orientation in an applied DC field.

    :param b_dc: field vector, mT, lab (crystal) frame; an (n, 3) stack of
        fields gives the n Hamiltonians at once, each equal bit for bit to
        its single-field build
    :param nv_axis: unit vector along the NV symmetry axis, lab frame
    :param params: NVParams; defaults to the literature values above
    :returns: Hermitian 9x9 complex array, MHz, electron (x) nuclear ordering;
        (n, 9, 9) for a stack of fields
    """
    return _build("nv", b_dc, nv_axis, params if params is not None else NV_DEFAULT)


def build_p1_hamiltonian(b_dc, p1_axis, params=None):
    """6x6 Hamiltonian of one P1 orientation: Zeeman plus axial hyperfine.

    Same conventions as the NV builder, stacks included; no zero-field or
    quadrupole term.
    """
    return _build("p1", b_dc, p1_axis, params if params is not None else P1_DEFAULT)


def eigensystem(h):
    """Diagonalize a Hermitian matrix, or an (n, d, d) stack; eigenvalues ascending.

    A stack is diagonalized in one call and gives values (n, d) and vectors
    (n, d, d), each slice equal to the single-matrix result.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim not in (2, 3) or h.shape[-1] != h.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them")
    if h.size:
        asym = h.conj().swapaxes(-1, -2)
        if np.max(np.abs(np.subtract(h, asym, out=asym))) > 1e-8:
            raise ValueError("matrix is not Hermitian within tolerance")
        del asym
    vals, vecs = np.linalg.eigh(h)
    return EigenSystem(vals, vecs)


def transition_spectrum(eig, initial_levels=(0,), weight_floor=1e-6):
    """ESR lines out of the given initial levels of an NV (9-level) or P1
    (6-level) eigensystem.

    The drive is the electron Sx in the defect frame (the AC field is
    transverse for the geometries of interest).  Frequencies are reported as
    |E_f - E_i| so lines are non-negative regardless of which level lies
    higher; weight is the squared matrix element |<f|Sx|i>|^2.
    """
    dim = eig.values.size
    if dim not in _DRIVE:
        raise ValueError(f"expected a 9- or 6-level eigensystem, got {dim} levels")
    lines = []
    for i in initial_levels:
        if not 0 <= i < dim:
            raise IndexError(f"initial level {i} out of range for dimension {dim}")
        amps = eig.vectors.conj().T @ (_DRIVE[dim] @ eig.vectors[:, i])
        for f in range(dim):
            if f == i:
                continue
            w = float(abs(amps[f]) ** 2)
            if w >= weight_floor:
                lines.append(TransitionLine(float(abs(eig.values[f] - eig.values[i])), w, i, f))
    return lines


def bond_orientations():
    """The four <111> bond directions of the diamond lattice, unit norm."""
    dirs = np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    )
    return dirs / np.sqrt(3.0)


_BUILDERS = {"nv": build_nv_hamiltonian, "p1": build_p1_hamiltonian}


def level_curve(model, b_direction, axis, b_range, params=None):
    """Energy levels along a field sweep, tracked by adiabatic continuity.

    :param model: "nv" or "p1", the defect whose builder makes the Hamiltonians
    :param b_direction: sweep direction, any nonzero 3-vector (normalized here)
    :param axis: defect symmetry axis
    :param b_range: monotone grid of field magnitudes, mT
    :returns: LevelCurves; column k of energies follows the level that starts
        as the k-th lowest at b_range[0]

    The whole sweep is built as one (n, d, d) stack and diagonalized in one
    call.  Adjacent grid points are matched through the eigenvector overlap
    |V[i-1]^H V[i]|: the row-wise maximum is taken where it is a permutation,
    which is then the best global assignment, and the best global assignment
    is solved for where it is not.  An overlap below 0.5 means the grid is
    too coarse to follow the levels and raises with the first offending step.
    """
    b_range = np.asarray(b_range, dtype=float)
    if b_range.ndim != 1 or b_range.size < 1:
        raise ValueError("b_range must be a 1d grid with at least one point")
    if b_range.size > 1:
        d = np.diff(b_range)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("b_range must be strictly monotone")

    direction = np.asarray(b_direction, dtype=float)
    norm = np.linalg.norm(direction)
    if not np.isfinite(norm) or norm == 0:
        raise ValueError("b_direction must be a nonzero 3-vector")
    direction = direction / norm

    key = str(model).lower()
    if key not in _BUILDERS:
        raise ValueError(f"unknown model {model!r}, expected 'nv' or 'p1'")
    h = _BUILDERS[key](b_range[:, None] * direction, axis, params)
    eig = eigensystem(h)
    del h  # free the stack before tracking
    orders = _track(eig.vectors, b_range)
    return LevelCurves(
        b_range,
        np.take_along_axis(eig.values, orders, axis=1),
        np.take_along_axis(eig.vectors, orders[:, None, :], axis=2),
    )


def _track(vecs, b_range):
    """Column order of each field's eigenvectors that follows the levels."""
    n, dim = vecs.shape[:2]
    # in blocks, which bounds the complex temporaries
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
            order = assign(-tracked)
            w = tracked[range(dim), order].min()
            if w < 0.5:
                raise _ambiguous(b_range, i, w)
        orders.append(order)
    if low.size:
        raise _ambiguous(b_range, stop, worst[stop])
    return np.array(orders)


def assign(cost):
    """Column of each row in a minimum-cost assignment of a square matrix.

    The Hungarian method by shortest augmenting paths, O(n^3) on plain lists:
    rows join one at a time, and row and column potentials keep every reduced
    cost nonnegative, so each augmenting path is a Dijkstra search over the
    columns.  Column n is a virtual column holding the row being added.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or not np.all(np.isfinite(c)):
        raise ValueError("cost must be a finite square matrix")
    n = len(c)
    c = c.tolist()
    u, v = [0.0] * n, [0.0] * (n + 1)
    owner = [-1] * (n + 1)  # row matched to each column, -1 while free
    for i in range(n):
        owner[n], j0 = i, n
        dist, via, used = [math.inf] * (n + 1), [n] * (n + 1), [False] * (n + 1)
        while owner[j0] >= 0:
            used[j0] = True
            row, ur = c[owner[j0]], u[owner[j0]]
            delta, j1 = math.inf, n
            for j in range(n):
                if not used[j]:
                    d = row[j] - ur - v[j]
                    if d < dist[j]:
                        dist[j], via[j] = d, j0
                    if dist[j] < delta:
                        delta, j1 = dist[j], j
            for j in range(n + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    dist[j] -= delta
            j0 = j1
        while j0 != n:  # augment back along the path to the virtual column
            owner[j0] = owner[via[j0]]
            j0 = via[j0]
    col = [0] * n
    for j in range(n):
        col[owner[j]] = j
    return col


def _ambiguous(b_range, i, overlap):
    return ValueError(
        "level tracking ambiguous between B = "
        f"{b_range[i]:g} and {b_range[i + 1]:g} mT (overlap {overlap:.3f}); "
        "refine the field grid"
    )
