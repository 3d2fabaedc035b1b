"""Reference computations and test-only helpers used by the tests.

The reference computations deliberately avoid the library's own code paths:
the quadrature is built from scipy's Gauss nodes, basis gradients come from
a Vandermonde solve, and matrices are assembled densely.

The density-function lemma helpers at the end are different: no package code
path calls them, and they check the paper's density-function lemma
numerically (weighted mass matrix, its patch bound, the weighted Dirichlet
eigenvalue bound and the stiffness/mass pencil).  They reuse the package's
_patch_weighted_sums, _sobolev_exponents and the band Cholesky factor at
zero, spectra._Band.factor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import numpy as np
import scipy.io
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.special import roots_legendre

from femcond import (
    DiffusionField,
    ElementGeometry,
    SimplicialMesh,
    SparseSymmetric,
    compute_beta,
    compute_metrics,
    spectra,
)
from femcond.assembly import _assemble_from_local
from femcond.bounds import _patch_weighted_sums, _resolve_p, _sobolev_exponents
from femcond.spectra import (
    DEFAULT_TOL,
    DENSE_CUTOFF,
    EigenSolveError,
    _check_tol,
)


def duffy_rule(dim: int, n: int):
    """Tensor Gauss rule collapsed onto the standard simplex (independent
    of the library's quadrature module)."""
    x, w = roots_legendre(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    pts_list, w_list = [], []
    for combo in itertools.product(range(n), repeat=dim):
        u = np.array([x[c] for c in combo])
        weight = math.prod(w[c] for c in combo)
        pt = np.empty(dim)
        shrink = 1.0
        jac = 1.0
        for k in range(dim):
            pt[k] = u[k] * shrink
            shrink *= 1.0 - u[k]
            jac *= (1.0 - u[k]) ** (dim - 1 - k)
        pts_list.append(pt)
        w_list.append(weight * jac)
    return np.array(pts_list), np.array(w_list)


def monomial_integral_standard_simplex(alpha) -> float:
    """int over {x >= 0, sum x <= 1} of prod x_i^alpha_i, in closed form."""
    num = math.prod(math.factorial(a) for a in alpha)
    return num / math.factorial(sum(alpha) + len(alpha))


def p1_gradient(vertices: np.ndarray, local_vertex: int) -> np.ndarray:
    """Gradient of the linear basis function that is 1 at one vertex of a
    simplex and 0 at the others, via a Vandermonde solve."""
    d = vertices.shape[1]
    m = np.hstack([np.ones((d + 1, 1)), vertices])
    rhs = np.zeros(d + 1)
    rhs[local_vertex] = 1.0
    coeff = np.linalg.solve(m, rhs)
    return coeff[1:]


def assemble_stiffness_dense(mesh: SimplicialMesh, field: DiffusionField,
                             quad_points: int = 5) -> np.ndarray:
    """Dense brute-force stiffness assembly: order-4+ quadrature applied to
    grad(phi_i) . D_K grad(phi_j) on every element."""
    d = mesh.dim
    pts, wts = duffy_rule(d, quad_points)
    n_i = mesh.n_interior
    out = np.zeros((n_i, n_i))
    for elem in mesh.elements:
        verts = mesh.vertices[elem]
        v0 = verts[0]
        edges = (verts[1:] - v0).T
        det = abs(np.linalg.det(edges)) if d > 1 else abs(edges[0, 0])
        dk = average_diffusion_dense(mesh, field, verts, quad_points)
        grads = [p1_gradient(verts, a) for a in range(d + 1)]
        for a in range(d + 1):
            ia = mesh.interior_index[elem[a]]
            if ia < 0:
                continue
            for b in range(d + 1):
                ib = mesh.interior_index[elem[b]]
                if ib < 0:
                    continue
                acc = 0.0
                for q in range(len(wts)):
                    acc += wts[q] * (grads[a] @ dk @ grads[b])
                out[ia, ib] += det * acc
    return out


def average_diffusion_dense(mesh, field: DiffusionField, verts: np.ndarray,
                            quad_points: int = 5) -> np.ndarray:
    d = verts.shape[1]
    if field.constant is not None:
        return np.array(field.constant)
    pts, wts = duffy_rule(d, quad_points)
    v0 = verts[0]
    edges = (verts[1:] - v0).T
    mats = field.evaluator(v0 + pts @ edges.T)  # one batch call per element
    return np.tensordot(wts, mats, axes=1) * math.factorial(d)


def assemble_mass_dense(mesh: SimplicialMesh, rho_k: np.ndarray) -> np.ndarray:
    """Dense weighted mass matrix through quadrature of phi_i phi_j."""
    d = mesh.dim
    pts, wts = duffy_rule(d, 4)
    n_i = mesh.n_interior
    out = np.zeros((n_i, n_i))
    for k, elem in enumerate(mesh.elements):
        verts = mesh.vertices[elem]
        v0 = verts[0]
        edges = (verts[1:] - v0).T
        det = abs(np.linalg.det(edges)) if d > 1 else abs(edges[0, 0])

        def basis(a, x):
            m = np.hstack([np.ones((d + 1, 1)), verts])
            rhs = np.zeros(d + 1)
            rhs[a] = 1.0
            coeff = np.linalg.solve(m, rhs)
            return coeff[0] + coeff[1:] @ x

        for a in range(d + 1):
            ia = mesh.interior_index[elem[a]]
            if ia < 0:
                continue
            for b in range(d + 1):
                ib = mesh.interior_index[elem[b]]
                if ib < 0:
                    continue
                acc = sum(
                    wts[q] * basis(a, v0 + edges @ pts[q]) * basis(b, v0 + edges @ pts[q])
                    for q in range(len(wts))
                )
                out[ia, ib] += rho_k[k] * det * acc
    return out


def toeplitz_stiffness_1d(n_elements: int) -> np.ndarray:
    """Expected 1D uniform unit-interval stiffness: (1/h) tridiag(-1, 2, -1)."""
    h = 1.0 / n_elements
    m = n_elements - 1
    out = np.zeros((m, m))
    np.fill_diagonal(out, 2.0 / h)
    idx = np.arange(m - 1)
    out[idx, idx + 1] = -1.0 / h
    out[idx + 1, idx] = -1.0 / h
    return out


def toeplitz_kappa_1d(n_elements: int) -> float:
    """Closed-form condition number of the 1D uniform stiffness matrix."""
    n = n_elements
    return (1 - math.cos((n - 1) * math.pi / n)) / (1 - math.cos(math.pi / n))


def lambda_max_unfiltered(a, tol: float = 1e-8, seed: int = 0) -> float:
    """Largest eigenvalue by plain ARPACK Lanczos on A itself (which="LA"),
    with the tolerance and start vector the library used before it filtered
    the lambda_max solve."""
    v0 = np.random.default_rng(seed).standard_normal(a.order)
    vals = spla.eigsh(a.matrix, k=1, which="LA", tol=max(tol * 1e-2, 1e-14), v0=v0,
                      return_eigenvectors=False)
    return float(vals[0])


def interlacing_lower_bound(a) -> float:
    """Largest eigenvalue of any 2x2 principal submatrix [[a_ii, a_ij],
    [a_ij, a_jj]] over the off-diagonal nonzeros, or max a_ii without them:
    a lower bound of lambda_max by Cauchy interlacing."""
    coo = a.matrix.tocoo()
    upper = coo.row < coo.col
    d = a.diagonal
    ai, aj = d[coo.row[upper]], d[coo.col[upper]]
    pair = 0.5 * (ai + aj) + np.hypot(0.5 * (ai - aj), coo.data[upper])
    return float(max(d.max(), pair.max(initial=-np.inf)))


def eigenvalues_below(a, sigma: float) -> int:
    """The number of eigenvalues of the stored A below sigma, in exact
    arithmetic: by Sylvester's law of inertia, the number of negative pivots
    of an LDL^T factorization of A - sigma I, computed in fractions.Fraction
    (every double is a rational) and eliminated in A's reverse Cuthill-McKee
    order, so that the fill stays inside A's band.  A zero pivot (sigma an
    eigenvalue of a leading block) raises ZeroDivisionError."""
    coo = a.matrix.tocoo()
    order = reverse_cuthill_mckee(a.matrix.tocsr(), symmetric_mode=True)
    pos = np.empty(a.order, dtype=int)
    pos[order] = np.arange(a.order)
    # row k of the upper triangle of A - sigma I, in elimination order
    rows = [{k: -Fraction(sigma)} for k in range(a.order)]
    for i, j, value in zip(pos[coo.row].tolist(), pos[coo.col].tolist(), coo.data.tolist()):
        if i <= j and value != 0.0:
            rows[i][j] = rows[i].get(j, 0) + Fraction(value)
    negatives = 0
    for k, row in enumerate(rows):
        pivot = row.pop(k)
        if pivot == 0:
            raise ZeroDivisionError(f"zero pivot {k} of A - {sigma!r} I")
        negatives += pivot < 0
        below = sorted(row.items())
        for n, (i, a_ki) in enumerate(below):
            factor, target = a_ki / pivot, rows[i]
            for j, a_kj in below[n:]:
                target[j] = target.get(j, 0) - factor * a_kj
        rows[k] = None  # eliminated
    return negatives


def read_matrix_market(path) -> SparseSymmetric:
    """Read back a file of femcond.write_matrix_market: a square symmetric
    MatrixMarket coordinate file, or ValueError."""
    n, m, _, fmt, _, symmetry = scipy.io.mminfo(path)
    if fmt != "coordinate" or symmetry != "symmetric":
        raise ValueError(f"{path}: not a symmetric MatrixMarket coordinate file")
    if n != m:
        raise ValueError(f"{path}: matrix is not square")
    return SparseSymmetric(sp.csr_matrix(scipy.io.mmread(path), dtype=float))


def check_normalized(mesh: SimplicialMesh, rho: DensityFunction, tol: float = 1e-12) -> bool:
    """Whether a piecewise-constant density has unit weighted volume."""
    total = float(rho.rho_k @ mesh.volumes)
    return abs(total - 1.0) <= tol * max(1.0, abs(total))


def kappa_bounds_1d(mesh: SimplicialMesh) -> dict[str, float]:
    """Specialized 1D condition-number bounds for D = I, written out from
    the interval geometry alone; the general evaluators must reproduce them.

    new:   kappa(A) <= sum d_K * max_j sum_{K in patch} 1/|K|,
           kappa(SAS) <= sum d_K / |K|
    prior: kappa(A) <= N * max_j sum_{K in patch} 1/|K|,
           kappa(SAS) <= sum 1/|K|

    d_K is the distance to the boundary sampled at both endpoints and the
    midpoint of K, as the library samples it.
    """
    if mesh.dim != 1:
        raise ValueError("specialized formulas are 1D only")
    x = mesh.vertices[:, 0]
    lo, hi = x.min(), x.max()
    left, right = x[mesh.elements].min(axis=1), x[mesh.elements].max(axis=1)
    width = right - left
    d_k = np.zeros(mesh.n_elements)
    for s in (left, right, 0.5 * (left + right)):
        d_k = np.maximum(d_k, np.minimum(s - lo, hi - s))
    patch = np.zeros(mesh.n_vertices)
    for k, elem in enumerate(mesh.elements):
        for v in elem:
            if not mesh.boundary_vertex_flags[v]:
                patch[v] += 1.0 / width[k]
    return {
        "new.kappa.A": float(d_k.sum() * patch.max()),
        "new.kappa.SAS": float(np.sum(d_k / width)),
        "prior.kappa.A": float(mesh.n_elements * patch.max()),
        "prior.kappa.SAS": float(np.sum(1.0 / width)),
    }


def patch_volumes(mesh: SimplicialMesh) -> np.ndarray:
    """Total volume of each interior vertex's patch, by interior row index."""
    total = np.zeros(mesh.n_interior)
    for elem, vol in zip(mesh.elements, mesh.volumes):
        for v in elem:
            if not mesh.boundary_vertex_flags[v]:
                total[mesh.interior_index[v]] += vol
    return total


def p_min(mesh: SimplicialMesh) -> int:
    """Min number of elements in an interior vertex's patch (0 without any
    interior vertex)."""
    counts = np.bincount(mesh.elements.ravel(), minlength=mesh.n_vertices)
    interior = counts[~mesh.boundary_vertex_flags]
    return int(interior.min()) if len(interior) else 0


def h_domain_pairwise(mesh: SimplicialMesh) -> float:
    """Domain diameter from the full (nb, nb, d) array of boundary-vertex
    differences."""
    b = mesh.vertices[mesh.boundary_vertex_flags]
    diff = b[:, None, :] - b[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=2)).max())


def boundary_facets_unique_rows(mesh: SimplicialMesh) -> np.ndarray:
    """Boundary facets as sorted vertex rows, deduplicated row-wise by
    np.unique(axis=0) and kept where they occur once: the mesh's facets
    without its integer keys, in lexicographic row order."""
    d = mesh.dim
    facets = np.sort(np.concatenate(
        [np.delete(mesh.elements, drop, axis=1) for drop in range(d + 1)]), axis=1)
    uniq, counts = np.unique(facets, axis=0, return_counts=True)
    return uniq[counts == 1]


def half_spaces_from_volume_centroid(mesh: SimplicialMesh):
    """SimplicialMesh.convex_half_spaces with every plane oriented away from
    the volume centroid sum_K |K| c_K / |domain| instead of the vertex mean."""
    corners = mesh.vertices[mesh.boundary_facets]
    edges = corners[:, 1:] - corners[:, :1]
    if mesh.dim == 1:
        normal = np.ones((len(corners), 1))
    elif mesh.dim == 2:
        normal = np.stack([edges[:, 0, 1], -edges[:, 0, 0]], axis=1)
    else:
        normal = np.cross(edges[:, 0], edges[:, 1])
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    offset = (normal * corners[:, 0]).sum(axis=1)
    centre = mesh.volumes @ mesh.centroids() / mesh.volumes.sum()
    outward = np.where(offset >= normal @ centre, 1.0, -1.0)
    normal *= outward[:, None]
    offset *= outward
    scale = float(np.abs(mesh.vertices).max()) or 1.0
    key = np.round(np.column_stack([normal, offset / scale]), 12)
    first = np.sort(np.unique(key, axis=0, return_index=True)[1])
    normal, offset = normal[first], offset[first]
    b = mesh.vertices[mesh.boundary_vertex_flags]
    if np.any(b @ normal.T > offset + 1e-10 * scale):
        return None
    return normal, offset


def _point_segment_distance(points, a, b):
    """Distances from points (m, d) to segments a->b ((s, d) each), shape (m, s)."""
    ab = b - a  # (s, d)
    denom = (ab**2).sum(axis=1)  # (s,)
    w = points[:, None, :] - a[None, :, :]  # (m, s, d)
    t = (w * ab[None, :, :]).sum(axis=2) / denom[None, :]
    t = np.clip(t, 0.0, 1.0)
    closest = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    return np.sqrt(((points[:, None, :] - closest) ** 2).sum(axis=2))


def _point_triangle_distance(points, a, b, c):
    """Min distance from points (m, 3) to triangles (a, b, c) ((t, 3) each)."""
    e0 = b - a
    e1 = c - a
    d00 = (e0 * e0).sum(axis=1)
    d01 = (e0 * e1).sum(axis=1)
    d11 = (e1 * e1).sum(axis=1)
    denom = d00 * d11 - d01**2
    w = points[:, None, :] - a[None, :, :]  # (m, t, 3)
    wp0 = (w * e0[None]).sum(axis=2)
    wp1 = (w * e1[None]).sum(axis=2)
    u = (d11 * wp0 - d01 * wp1) / denom
    v = (d00 * wp1 - d01 * wp0) / denom
    inside = (u >= 0) & (v >= 0) & (u + v <= 1)
    proj = a[None] + u[..., None] * e0[None] + v[..., None] * e1[None]
    d_in = np.sqrt(((points[:, None, :] - proj) ** 2).sum(axis=2))

    d_edge = np.minimum(
        _point_segment_distance(points, a, b),
        np.minimum(
            _point_segment_distance(points, a, c),
            _point_segment_distance(points, b, c),
        ),
    )
    return np.where(inside, d_in, d_edge)


def boundary_distance_brute(mesh: SimplicialMesh, points: np.ndarray) -> np.ndarray:
    """Distance to the boundary for points assumed inside the closed domain:
    the broadcast kernel on every point x every boundary facet."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    bf = mesh.boundary_facets
    out = np.empty(len(points))
    if mesh.dim == 1:
        bpts = mesh.vertices[bf[:, 0], 0]
        return np.abs(points[:, 0:1] - bpts[None, :]).min(axis=1)

    chunk = max(1, 2_000_000 // max(1, len(bf)))
    if mesh.dim == 2:
        a = mesh.vertices[bf[:, 0]]
        b = mesh.vertices[bf[:, 1]]
        for s in range(0, len(points), chunk):
            out[s:s + chunk] = _point_segment_distance(points[s:s + chunk], a, b).min(axis=1)
    else:
        a = mesh.vertices[bf[:, 0]]
        b = mesh.vertices[bf[:, 1]]
        c = mesh.vertices[bf[:, 2]]
        for s in range(0, len(points), chunk):
            out[s:s + chunk] = _point_triangle_distance(points[s:s + chunk], a, b, c).min(axis=1)
    return out


def patch_weighted_sums_add_at(geometry: ElementGeometry, weights: np.ndarray,
                               n_interior: int) -> np.ndarray:
    """Sum of weights[k] over the elements k of each interior vertex's patch,
    by np.add.at over every (element, vertex) entry of patch_ids in order;
    the entries -1 (boundary vertices) land in one extra bin, dropped."""
    out = np.zeros(n_interior + 1)
    np.add.at(out, geometry.patch_ids,
              np.broadcast_to(weights[:, None], geometry.patch_ids.shape))
    return out[:-1]


# -- density-function lemma helpers ------------------------------------------


@dataclass(frozen=True)
class DensityFunction:
    """Piecewise-constant positive weight, one value per element."""

    rho_k: np.ndarray
    rho_max: float = dataclass_field(default=None)

    def __post_init__(self):
        rho = np.asarray(self.rho_k, dtype=float)
        object.__setattr__(self, "rho_k", rho)
        if rho.ndim != 1 or not np.all(rho > 0):
            raise ValueError("density values must be a 1D array of positives")
        object.__setattr__(self, "rho_max", float(rho.max()))
        rho.setflags(write=False)


def density_equidistributed(mesh: SimplicialMesh) -> DensityFunction:
    """Density giving every element the same weighted volume 1/N."""
    return DensityFunction(1.0 / (mesh.n_elements * mesh.volumes))


def density_beta_weighted(mesh: SimplicialMesh, field: DiffusionField) -> DensityFunction:
    """Density proportional to the per-element anisotropy factor, normalized
    to unit weighted domain volume."""
    beta = compute_beta(mesh, field).beta_k
    return DensityFunction(beta / float(mesh.volumes @ beta))


def assemble_mass_weighted(mesh: SimplicialMesh, rho: DensityFunction) -> SparseSymmetric:
    """Weighted mass matrix on interior vertices using the exact linear-basis
    formula int_K phi_i phi_j = |K| (1 + delta_ij) / ((d+1)(d+2))."""
    if len(rho.rho_k) != mesh.n_elements:
        raise ValueError("density must have one value per element")
    d = mesh.dim
    base = (np.ones((d + 1, d + 1)) + np.eye(d + 1)) / ((d + 1) * (d + 2))
    local = (rho.rho_k * mesh.volumes)[:, None, None] * base[None, :, :]
    return _assemble_from_local(mesh, local)


def bound_lambda_min_B(
    mesh: SimplicialMesh,
    rho: DensityFunction,
    *,
    geometry: ElementGeometry | None = None,
) -> float:
    """Constant-free lower bound on the smallest eigenvalue of the weighted
    mass matrix: the smallest weighted patch volume over (d+1)(d+2)."""
    if geometry is None:
        geometry = compute_metrics(mesh)[1]
    if mesh.n_interior == 0:
        raise ValueError("mesh has no interior vertices")
    wsums = _patch_weighted_sums(geometry, rho.rho_k * geometry.volumes, mesh.n_interior)
    d = mesh.dim
    return float(wsums.min() / ((d + 1) * (d + 2)))


def bound_lambda_rho(
    mesh: SimplicialMesh,
    rho: DensityFunction,
    p: float | None = None,
    *,
    geometry: ElementGeometry | None = None,
) -> float:
    """Lower bound (without the generic constant) on the smallest eigenvalue
    of the Dirichlet Laplacian weighted by the density rho."""
    if geometry is None:
        geometry = compute_metrics(mesh)[1]
    d = mesh.dim
    p = _resolve_p(d, p)
    k_rho = rho.rho_k * geometry.volumes
    d_k = geometry.d_k
    if d == 1:
        return float(1.0 / (k_rho @ d_k))
    if d == 2:
        s = k_rho @ np.log1p(d_k * rho.rho_max) ** 2
        return float((1.0 + s) ** -0.5)
    q, expo, pref = _sobolev_exponents(d, p)
    s = np.sum(k_rho**q * geometry.volumes ** (-1.0 / (p - 1.0)) * d_k**expo)
    return float(pref * s ** (-1.0 / q))


def generalized_min_eigenvalue(
    a: SparseSymmetric,
    b: SparseSymmetric,
    tol: float = DEFAULT_TOL,
    *,
    dense_cutoff: int = DENSE_CUTOFF,
    maxiter: int | None = None,
    seed: int = 0,
) -> float:
    """Smallest lambda with A u = lambda B u for SPD A and B.

    The iterative path is shift-invert Lanczos on the pencil at shift zero,
    with the band Cholesky factor of A that extreme_eigenvalues uses (so an
    A that is not SPD is rejected by its failed factorization).  That
    operator is a positive multiple of A^-1, so ARPACK's eigenvalue is not
    lambda; lambda is the Rayleigh quotient of its vector on the pencil.
    """
    _check_tol(tol)
    if a.order != b.order:
        raise ValueError("matrices must have the same order")
    n = a.order
    if n <= dense_cutoff:
        vals = sla.eigh(a.toarray(), b.toarray(), eigvals_only=True,
                        subset_by_index=(0, 0))
        return float(vals[0])

    v0 = np.random.default_rng(seed).standard_normal(n)
    opinv = spectra._Band(a.matrix).factor(0.0, upper=False)
    if opinv is None:
        raise EigenSolveError("matrix is not SPD (its Cholesky factorization failed)")
    try:
        v = spla.eigsh(
            a.matrix.tocsc(), k=1, M=b.matrix.tocsc(), sigma=0.0, which="LM",
            tol=max(tol * 1e-2, 1e-14), maxiter=maxiter, v0=v0, OPinv=opinv,
        )[1][:, 0]
    except spla.ArpackNoConvergence as exc:
        if not len(exc.eigenvalues):
            raise EigenSolveError("generalized eigensolve produced no estimate") from exc
        v = exc.eigenvectors[:, 0]
    except RuntimeError as exc:
        raise EigenSolveError(f"generalized eigensolve failed: {exc}") from exc
    lam = float(v @ (a.matrix @ v) / (v @ (b.matrix @ v)))
    if lam <= 0:
        raise EigenSolveError("generalized problem is not positive definite")
    return lam
