"""Stiffness matrix assembly over interior vertices.

Linear (P1) basis functions on simplicial meshes; the diffusion coefficient
enters through its per-element average D_K, computed for all elements in one
batch (`average_diffusion_all`) with the one degree-2 rule of the dimension
(`quadrature.DEGREE2_RULES`) and one call of the field's batch evaluator (a
pointwise function is looped over only inside `DiffusionField.from_callable`).
Only 2D shares points between elements: the field is evaluated once per mesh
edge, at its midpoint, and each triangle averages the values on its three
edges.  D_K enters only through the element metric M_K = G_K D_K G_K^T,
G_K the inverse of the element's edge matrix, whose rows are the gradients
of the basis functions of vertices 1..d: `_element_metric` forms it, the
one place the edge matrices are inverted (with the closed-form `mesh._inv`),
and a caller holding M_K (the anisotropy factors beta_K read it too)
assembles from it directly.  The range check of every field value and the
SPD test of every D_K take 2D eigenvalues in closed form,
half -+ hypot((a - c) / 2, b) (`mesh._sym_eig_range`); 3D keeps LAPACK's
eigvalsh, since the trigonometric closed form loses about half the digits
of an eigenvalue close to a double one, too coarse against the check's 1e-9
slack.
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

from .mesh import SimplicialMesh, _inv, _sym_eig_range
from .quadrature import DEGREE2_RULES

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

    Exactly one of evaluator and constant is set.  evaluator, for a variable
    field, maps an (m, d) array of points to the (m, d, d) array of SPD
    matrices at them, with eigenvalues in [d_min, d_max].  constant, for a
    spatially constant field, lets element averaging short-circuit.
    """

    dim: int
    evaluator: Callable[[np.ndarray], np.ndarray] | None
    d_min: float
    d_max: float
    constant: np.ndarray | None = None

    def __post_init__(self):
        if (self.evaluator is None) == (self.constant is None):
            raise ValueError("a diffusion field needs exactly one of evaluator and constant")
        if not (0 < self.d_min <= self.d_max):
            raise ValueError("need 0 < d_min <= d_max")
        if self.constant is not None:
            c = np.array(self.constant, dtype=float).reshape(self.dim, self.dim)
            c.setflags(write=False)
            object.__setattr__(self, "constant", c)

    @staticmethod
    def identity(dim: int) -> "DiffusionField":
        return DiffusionField.constant_matrix(np.eye(dim))

    @staticmethod
    def constant_matrix(matrix) -> "DiffusionField":
        m = np.array(matrix, dtype=float)
        if m.ndim == 0:
            m = m[None, None]
        if m.shape[0] != m.shape[1]:
            raise ValueError("diffusion matrix must be square")
        if not np.isfinite(m).all():
            raise ValueError("diffusion matrix entries must be finite")
        if not np.allclose(m, m.T, rtol=0, atol=_SYM_TOL * max(1, np.abs(m).max())):
            raise ValueError("diffusion matrix must be symmetric")
        m = 0.5 * (m + m.T)
        eigs = np.linalg.eigvalsh(m)
        if eigs[0] <= 0:
            raise ValueError("diffusion matrix must be positive definite")
        return DiffusionField(m.shape[0], None, float(eigs[0]), float(eigs[-1]), constant=m)

    @staticmethod
    def from_callable(dim: int, f, d_min: float, d_max: float) -> "DiffusionField":
        """Variable field from a pointwise f: (d,) -> (d, d), which the batch
        evaluator calls once per point, in order: the one per-point loop.
        The values are converted once, into one float array reshaped to
        (m, d, d); f may return anything numpy reads as d * d numbers (an
        array, a nested list), and a value of another size raises
        ValueError."""
        def evaluator(points: np.ndarray) -> np.ndarray:
            return np.array([f(x) for x in points], dtype=float).reshape(len(points), dim, dim)

        return DiffusionField(dim, evaluator, float(d_min), float(d_max))


def _check_spectrum(field: DiffusionField, mats: np.ndarray, locate) -> None:
    """Finiteness, symmetry and declared eigenvalue range of a stack of
    (d, d) matrices.  The comparisons are negated, so a NaN fails them.

    locate maps the mask of offending matrices to (stack index, place): the
    matrix to report and the words naming where it was evaluated.
    """
    finite = np.isfinite(mats).all(axis=(1, 2))
    # LAPACK may fail on NaN or inf: zero those matrices, they are bad anyway
    mats = np.where(finite[:, None, None], mats, 0.0)
    scale = np.maximum(1.0, np.abs(mats).max(axis=(1, 2)))
    asym = ~(np.abs(mats - np.swapaxes(mats, 1, 2)).max(axis=(1, 2)) <= _SYM_TOL * scale)
    smallest, largest = _sym_eig_range(0.5 * (mats + np.swapaxes(mats, 1, 2)))
    lo = field.d_min * (1 - _SPECTRUM_SLACK)
    hi = field.d_max * (1 + _SPECTRUM_SLACK)
    bad = ~finite | asym | ~(smallest >= lo) | ~(largest <= hi)
    if not bad.any():
        return
    i, where = locate(bad)
    if not finite[i]:
        raise ValueError(f"diffusion matrix not finite at {where}")
    if asym[i]:
        raise ValueError(f"diffusion matrix not symmetric at {where}")
    raise ValueError(
        f"diffusion eigenvalues [{smallest[i]:.6g}, {largest[i]:.6g}] at "
        f"{where} leave the declared range "
        f"[{field.d_min:.6g}, {field.d_max:.6g}]"
    )


def _first_bad_point(index: np.ndarray):
    """locate for _check_spectrum when index[k, j] is the stack row of local
    point j of element k: the first offending element in element order, and
    its first offending point."""
    def locate(bad):
        bad_points = bad[index]
        k = int(np.argmax(bad_points.any(axis=1)))
        j = int(np.argmax(bad_points[k]))
        return index[k, j], f"element {k}, quadrature point {j}"
    return locate


def average_diffusion_all(mesh: SimplicialMesh, field: DiffusionField) -> np.ndarray:
    """Element averages of the diffusion matrix, shape (n_elements, d, d).

    Uses the one rule of the dimension in `DEGREE2_RULES`, exact for
    quadratic integrands, hence for constant and affine coefficient fields:
    D_K is the mean of the field at the element's m points, and local point
    j is row j of the table (in 2D, the midpoint of the edge opposite vertex
    j).  The batch evaluator is called once, on every point at once.  Only
    2D points are shared: one point per mesh edge, whose value the two
    triangles of an interior edge share.  In 1D and 3D there is one point
    per element and local point (2 and 4 per element).
    Every value is checked for finiteness, symmetry and the declared
    eigenvalue range, and every average for positive definiteness; a
    failure names the first offending element and its local point.
    """
    d = mesh.dim
    if field.dim != d:
        raise ValueError(f"field dimension {field.dim} does not match mesh {d}")
    n = mesh.n_elements
    if field.constant is not None:
        _check_spectrum(field, field.constant[None], lambda bad: (0, "constant field"))
        return np.broadcast_to(field.constant, (n, d, d)).copy()

    if d == 2:
        ends = mesh.vertices[mesh.facets]  # sorted pairs: neighbours share the point
        points = 0.5 * (ends[:, 0] + ends[:, 1])
        index = mesh.element_facets
    else:
        points = (DEGREE2_RULES[d] @ mesh.vertices[mesh.elements]).reshape(-1, d)
        index = np.arange(len(points)).reshape(n, -1)
    mats = np.asarray(field.evaluator(points), dtype=float)
    if mats.shape != points.shape + (d,):
        raise ValueError(f"diffusion evaluator gave shape {mats.shape}, not {points.shape + (d,)}")
    _check_spectrum(field, mats, _first_bad_point(index))
    out = mats[index].sum(axis=1) / index.shape[1]
    not_spd = _sym_eig_range(out)[0] <= 0
    if not_spd.any():
        k = int(np.argmax(not_spd))
        raise ValueError(f"averaged diffusion matrix on element {k} is not SPD")
    return out


@dataclass(frozen=True)
class SparseSymmetric:
    """Symmetric sparse matrix over interior vertices.

    Stores the full symmetric pattern as canonical CSR (sorted indices,
    duplicates summed, explicit zeros kept), so each (i, j) is read once,
    plus a dense copy of the diagonal, taken at construction.  A matrix not
    in that form is copied first; the caller's is never modified.
    An empty matrix is refused; so is one that is not exactly symmetric.
    """

    matrix: sp.csr_matrix
    diagonal: np.ndarray = dataclass_field(init=False)

    def __post_init__(self):
        m = self.matrix
        if m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if m.shape[0] == 0:
            raise ValueError("matrix has order 0 (empty system)")
        if not (sp.issparse(m) and m.format == "csr" and m.has_canonical_format):
            m = sp.csr_matrix(m, copy=True)
            m.sum_duplicates()
            object.__setattr__(self, "matrix", m)
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


def _scatter_symmetric(order: int, key: np.ndarray, vals: np.ndarray) -> SparseSymmetric:
    """The matrix that adds each vals[i] at (row, col), key[i] = row * order
    + col in int64.  Deterministic duplicate summation: stable sort by key,
    that is by (row, col), then reduce in insertion order within each group.

    Entries that sum to exactly zero stay stored (on a right-angled grid with
    D = I the couplings across each cell's diagonal cancel), so the pattern
    is the vertex graph of the mesh, whose reverse Cuthill-McKee band is the
    narrower one.  scipy's duplicate summation followed by 0.5 (C + C^T)
    drops them: on boundary_layer(2, 100, 5 | 25 | 125) the band of the
    eigen-solves' Cholesky factors widens from kd 100 to 164-166."""
    perm = np.argsort(key, kind="stable")
    key = key[perm]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    summed = np.add.reduceat(vals[perm], starts)
    key = key[starts]
    indptr = np.searchsorted(key, np.arange(order + 1, dtype=np.int64) * order)
    return SparseSymmetric(sp.csr_matrix((summed, key % order, indptr), shape=(order, order)))


def _element_metric(mesh: SimplicialMesh, dk: np.ndarray) -> np.ndarray:
    """M_K = G D_K G^T per element, shape (n, d, d), from the element averages
    dk, with G = inv(edge matrix): entry (i, j) is grad(phi_i) . D_K
    grad(phi_j) for the local vertices 1..d.  Symmetrized once, so exactly
    symmetric."""
    g = _inv(mesh.edge_matrices())
    m = g @ dk @ np.swapaxes(g, 1, 2)
    return 0.5 * (m + np.swapaxes(m, 1, 2))


def _local_stiffness(mesh: SimplicialMesh, metric: np.ndarray) -> np.ndarray:
    """Per-element stiffness matrices |K| grad(phi_i) . D_K grad(phi_j),
    shape (n, d+1, d+1), from the element metric: |K| P M P^T with P = [-1^T;
    I], since grad(phi_0) = -sum_i grad(phi_i).  Exactly symmetric."""
    n, d = metric.shape[:2]
    row_sums = metric.sum(axis=2)
    local = np.empty((n, d + 1, d + 1))
    local[:, 1:, 1:] = metric
    local[:, 0, 1:] = local[:, 1:, 0] = -row_sums
    local[:, 0, 0] = row_sums.sum(axis=1)
    local *= mesh.volumes[:, None, None]
    return local


def _assemble_from_local(mesh: SimplicialMesh, local: np.ndarray) -> SparseSymmetric:
    order = mesh.n_interior
    if order == 0:
        raise ValueError("mesh has no interior vertices (empty system)")
    ids = mesh.interior_index[mesh.elements]  # (n, d+1) int64, -1 on the boundary
    rows, cols = ids[:, :, None], ids[:, None, :]  # of local[k, i, j]
    keep = (rows >= 0) & (cols >= 0)
    return _scatter_symmetric(order, (rows * order + cols)[keep], local[keep])


def _stiffness_from_metric(mesh: SimplicialMesh, metric: np.ndarray) -> SparseSymmetric:
    return _assemble_from_local(mesh, _local_stiffness(mesh, metric))


def assemble_stiffness(mesh: SimplicialMesh, field: DiffusionField) -> SparseSymmetric:
    """Stiffness matrix of the diffusion bilinear form on interior vertices:
    entries sum |K| grad(phi_i) . D_K grad(phi_j) over shared elements."""
    return _stiffness_from_metric(mesh, _element_metric(mesh, average_diffusion_all(mesh, field)))


def jacobi_scale(a: SparseSymmetric) -> SparseSymmetric:
    """Symmetric diagonal scaling to exact unit diagonal."""
    diag = a.diagonal
    if np.any(diag <= 0):
        raise ValueError("jacobi scaling needs a strictly positive diagonal")
    s = 1.0 / np.sqrt(diag)
    m = a.matrix
    rows = np.repeat(np.arange(a.order), np.diff(m.indptr))
    # s_i * s_j first: commutativity keeps the scaled matrix exactly symmetric
    data = m.data * (s[rows] * s[m.indices])
    data[rows == m.indices] = 1.0
    return SparseSymmetric(sp.csr_matrix((data, m.indices, m.indptr), shape=m.shape))


# -- MatrixMarket I/O ------------------------------------------------------


def write_matrix_market(a: SparseSymmetric, path) -> None:
    """Coordinate symmetric format, lower triangle stored, values written
    with enough digits to round-trip exactly."""
    with open(path, "wb") as f:
        scipy.io.mmwrite(f, sp.tril(a.matrix), symmetry="symmetric")
