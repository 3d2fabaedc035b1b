"""Stiffness matrix assembly over interior vertices.

Linear (P1) basis functions on simplicial meshes; the diffusion coefficient
enters through its per-element average D_K, computed for all elements in one
batch (`average_diffusion_all`).  Assembly from a given D_K array is split
out so that a caller holding D_K already does not average it again.
Boundary rows and columns are never assembled: the system lives on the
interior vertices only.  Assembly is deterministic: the same mesh and field
produce a bit-identical matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np
import scipy.io
import scipy.sparse as sp

from .mesh import SimplicialMesh
from .quadrature import simplex_average_rule

__all__ = [
    "DiffusionField",
    "SparseSymmetric",
    "average_diffusion_all",
    "assemble_stiffness",
    "jacobi_scale",
    "write_matrix_market",
]

_SYM_TOL = 1e-12
_SPECTRUM_SLACK = 1e-9


@dataclass(frozen=True)
class DiffusionField:
    """Matrix-valued diffusion coefficient with known spectral bounds.

    evaluator maps a point (d,) to a symmetric positive definite (d, d)
    matrix whose eigenvalues lie in [d_min, d_max].  constant is set for
    spatially constant fields, letting element averaging short-circuit.
    """

    dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    d_min: float
    d_max: float
    constant: np.ndarray | None = None

    def __post_init__(self):
        if not (0 < self.d_min <= self.d_max):
            raise ValueError("need 0 < d_min <= d_max")
        if self.constant is not None:
            c = np.array(self.constant, dtype=float).reshape(self.dim, self.dim)
            c.setflags(write=False)
            object.__setattr__(self, "constant", c)

    @staticmethod
    def identity(dim: int) -> "DiffusionField":
        eye = np.eye(dim)
        return DiffusionField(dim, lambda x: eye, 1.0, 1.0, constant=eye)

    @staticmethod
    def constant_matrix(matrix) -> "DiffusionField":
        m = np.array(matrix, dtype=float)
        if m.ndim == 0:
            m = m[None, None]
        if m.shape[0] != m.shape[1]:
            raise ValueError("diffusion matrix must be square")
        if not np.allclose(m, m.T, rtol=0, atol=_SYM_TOL * max(1, np.abs(m).max())):
            raise ValueError("diffusion matrix must be symmetric")
        m = 0.5 * (m + m.T)
        eigs = np.linalg.eigvalsh(m)
        if eigs[0] <= 0:
            raise ValueError("diffusion matrix must be positive definite")
        return DiffusionField(
            m.shape[0], lambda x: m, float(eigs[0]), float(eigs[-1]), constant=m
        )

    @staticmethod
    def from_callable(dim: int, f, d_min: float, d_max: float) -> "DiffusionField":
        return DiffusionField(dim, f, float(d_min), float(d_max))


def _check_spectrum(field: DiffusionField, mats: np.ndarray, where: str) -> None:
    """Symmetry and declared eigenvalue range of a stack of (d, d) matrices.

    where is formatted with the stack index k of the first offending matrix.
    """
    scale = np.maximum(1.0, np.abs(mats).max(axis=(1, 2)))
    asym = np.abs(mats - np.swapaxes(mats, 1, 2)).max(axis=(1, 2)) > _SYM_TOL * scale
    eigs = np.linalg.eigvalsh(0.5 * (mats + np.swapaxes(mats, 1, 2)))
    lo = field.d_min * (1 - _SPECTRUM_SLACK)
    hi = field.d_max * (1 + _SPECTRUM_SLACK)
    bad = asym | (eigs[:, 0] < lo) | (eigs[:, -1] > hi)
    if not bad.any():
        return
    k = int(np.argmax(bad))
    if asym[k]:
        raise ValueError(f"diffusion matrix not symmetric at {where.format(k=k)}")
    raise ValueError(
        f"diffusion eigenvalues [{eigs[k, 0]:.6g}, {eigs[k, -1]:.6g}] at "
        f"{where.format(k=k)} leave the declared range "
        f"[{field.d_min:.6g}, {field.d_max:.6g}]"
    )


def average_diffusion_all(mesh: SimplicialMesh, field: DiffusionField) -> np.ndarray:
    """Element averages of the diffusion matrix, shape (n_elements, d, d).

    Uses a rule exact for quadratic integrands, hence exact for constant and
    affine coefficient fields.  The evaluator is called once per element and
    quadrature point; every value is checked for symmetry and the declared
    eigenvalue range, and every average for positive definiteness.
    """
    d = mesh.dim
    if field.dim != d:
        raise ValueError(f"field dimension {field.dim} does not match mesh {d}")
    n = mesh.n_elements
    if field.constant is not None:
        _check_spectrum(field, field.constant[None], "constant field")
        return np.broadcast_to(field.constant, (n, d, d)).copy()

    ref_pts, ref_w = simplex_average_rule(d, 2)
    v0 = mesh.vertices[mesh.elements[:, 0]]
    E = mesh.edge_matrices()
    out = np.zeros((n, d, d))
    for q in range(len(ref_w)):
        mats = np.array([
            np.asarray(field.evaluator(x), dtype=float).reshape(d, d)
            for x in v0 + E @ ref_pts[q]
        ])
        _check_spectrum(field, mats, f"element {{k}}, quadrature point {q}")
        out += ref_w[q] * mats
    not_spd = np.linalg.eigvalsh(out)[:, 0] <= 0
    if not_spd.any():
        k = int(np.argmax(not_spd))
        raise ValueError(f"averaged diffusion matrix on element {k} is not SPD")
    return out


@dataclass(frozen=True)
class SparseSymmetric:
    """Symmetric sparse matrix over interior vertices.

    Stores the full symmetric pattern in CSR for fast row access plus a
    dense copy of the diagonal, taken at construction.  Construction
    verifies exact structural and numerical symmetry.
    """

    matrix: sp.csr_matrix
    diagonal: np.ndarray = dataclass_field(init=False)

    def __post_init__(self):
        m = self.matrix
        if m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        diff = (m - m.T).tocoo()
        if diff.nnz and np.abs(diff.data).max() != 0.0:
            raise ValueError("matrix is not exactly symmetric")
        object.__setattr__(self, "diagonal", m.diagonal())
        self.diagonal.setflags(write=False)

    @property
    def order(self) -> int:
        return self.matrix.shape[0]

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()


def _scatter_symmetric(order: int, rows, cols, vals) -> SparseSymmetric:
    """Deterministic duplicate summation: stable sort by (row, col), then
    reduce in insertion order within each group."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=float)
    perm = np.lexsort((cols, rows))  # stable: ties keep insertion order
    rows, cols, vals = rows[perm], cols[perm], vals[perm]
    if len(rows):
        new_group = np.empty(len(rows), dtype=bool)
        new_group[0] = True
        new_group[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.flatnonzero(new_group)
        summed = np.add.reduceat(vals, starts)
        rows, cols = rows[starts], cols[starts]
    else:
        summed = vals
    m = sp.csr_matrix((summed, (rows, cols)), shape=(order, order))
    return SparseSymmetric(m)


def _p1_gradients(mesh: SimplicialMesh) -> np.ndarray:
    """Constant gradients of the d+1 barycentric basis functions per
    element, shape (n, d+1, d)."""
    d = mesh.dim
    inv_e = mesh.inverse_edge_matrices
    grads = np.empty((mesh.n_elements, d + 1, d))
    grads[:, 1:, :] = inv_e
    grads[:, 0, :] = -inv_e.sum(axis=1)
    return grads


def _local_stiffness(mesh: SimplicialMesh, dk: np.ndarray) -> np.ndarray:
    """Per-element stiffness matrices |K| grad(phi_i) . D_K grad(phi_j),
    shape (n, d+1, d+1), from the element averages dk."""
    grads = _p1_gradients(mesh)
    local = np.einsum("kid,kde,kje->kij", grads, dk, grads)
    local *= mesh.volumes[:, None, None]
    return 0.5 * (local + local.transpose(0, 2, 1))


def _assemble_from_local(mesh: SimplicialMesh, local: np.ndarray) -> SparseSymmetric:
    d = mesh.dim
    if mesh.n_interior == 0:
        raise ValueError("mesh has no interior vertices (empty system)")
    ids = mesh.interior_index[mesh.elements]  # (n, d+1)
    rows = np.repeat(ids, d + 1, axis=1).ravel()
    cols = np.tile(ids, (1, d + 1)).ravel()
    vals = local.reshape(len(local), -1).ravel()
    keep = (rows >= 0) & (cols >= 0)
    return _scatter_symmetric(mesh.n_interior, rows[keep], cols[keep], vals[keep])


def _stiffness_from_averages(mesh: SimplicialMesh, dk: np.ndarray) -> SparseSymmetric:
    return _assemble_from_local(mesh, _local_stiffness(mesh, dk))


def assemble_stiffness(mesh: SimplicialMesh, field: DiffusionField) -> SparseSymmetric:
    """Stiffness matrix of the diffusion bilinear form on interior vertices:
    entries sum |K| grad(phi_i) . D_K grad(phi_j) over shared elements."""
    return _stiffness_from_averages(mesh, average_diffusion_all(mesh, field))


def jacobi_scale(a: SparseSymmetric) -> SparseSymmetric:
    """Symmetric diagonal scaling to exact unit diagonal."""
    diag = a.diagonal
    if np.any(diag <= 0):
        raise ValueError("jacobi scaling needs a strictly positive diagonal")
    s = 1.0 / np.sqrt(diag)
    coo = a.matrix.tocoo()
    # s_i * s_j first: commutativity keeps the scaled matrix exactly symmetric
    data = coo.data * (s[coo.row] * s[coo.col])
    data[coo.row == coo.col] = 1.0
    m = sp.csr_matrix((data, (coo.row, coo.col)), shape=a.matrix.shape)
    return SparseSymmetric(m)


# -- MatrixMarket I/O ------------------------------------------------------


def write_matrix_market(a: SparseSymmetric, path) -> None:
    """Coordinate symmetric format, lower triangle stored, values written
    with enough digits to round-trip exactly."""
    with open(path, "wb") as f:
        scipy.io.mmwrite(f, sp.tril(a.matrix), symmetry="symmetric")
