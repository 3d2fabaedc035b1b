"""Extreme eigenvalues and condition numbers of symmetric matrices.

Small systems (order <= 300) go through a dense symmetric eigensolver.
Larger ones use implicitly restarted Lanczos (ARPACK) for both ends, and
each end is then certified by the inertia of a shifted factor (below).
Every returned eigenvalue carries an explicitly computed relative residual
||A v - lambda v|| / ||lambda v|| on A itself; results that miss the
requested tolerance or their certificate are flagged, not hidden.

lambda_max: filtered Lanczos.  On anisotropic meshes the top of the
spectrum is tightly clustered (relative gaps near 1e-8), so plain Lanczos
on A needs thousands of products and hundreds of restarts.  ARPACK instead
runs on p(A), p(x) = T_9((2x - b)/b) the odd degree-9 Chebyshev polynomial
mapped so that |p| <= 1 on [0, b] and p increases above b.  The lower end
is b = (1 - 1e-3) l, where l, the largest eigenvalue of any 2x2 principal
submatrix over the off-diagonal nonzeros (max a_ii without them), is a
lower bound of lambda_max by Cauchy interlacing.  Hence lambda_max > b and
p(lambda_max) > 1 >= p(lambda) for every eigenvalue lambda in [0, b],
while p increases between b and lambda_max: the largest eigenvalue of p(A)
belongs to the largest eigenvalue of A.  The degree is odd, so a negative
eigenvalue maps below -1 and never wins; an indefinite A still fails the
lambda_min <= 0 check.  The reported lambda_max is the Rayleigh quotient of
the Ritz vector on A, and the residual on A decides convergence.

lambda_min: shift-invert Lanczos at shift zero, with one sparse LU of A in
SuperLU's symmetric mode (minimum-degree ordering on A + A^T, diagonal
pivots), which fills far less than the default column ordering.  Shift-invert
finds the eigenvalue nearest zero, which is the smallest one only if A is
positive definite; the signs of the diagonal pivots give A's inertia
(Sylvester), so a factor with a pivot <= 0 is rejected as not SPD.

Certificates.  A small residual only says that (theta, v) is close to some
eigenpair, possibly an interior one.  Both ends are therefore enclosed by
shifted factors, with the same pivot-sign test:
  lambda_max in [theta_max, sigma_hi + delta]: sigma_hi I - A has all
      pivots positive, sigma_hi = theta_max (1 + tol 1e-2);
  lambda_min in [sigma_lo - delta, theta_min]: A - sigma_lo I has all
      pivots positive, sigma_lo = theta_min (1 - tol 1e-2).
The left end of the first and the right end of the second hold because
theta_max is a Rayleigh quotient on A and theta_min the inverse of a
Rayleigh quotient on A^-1.  When sigma_lo - delta <= 0 the lower end is 0,
which the factor at zero certifies.  Each factor is built, read and
released in turn, so only one is held at a time.

Rounding margin delta.  With diagonal pivots the symmetric-mode LU of a
symmetric M performs the operations of M = L D L^T (U = D L^T).  The
computed factors are the exact ones of M + E with
|E| <= g |L| |D| |L^T|, g = gamma_w / (1 - gamma_w), gamma_w = w u / (1 - w u),
u the unit roundoff and w - 1 the largest number of nonzeros in a column of
U, which bounds the terms of every inner product (Higham, Accuracy and
Stability of Numerical Algorithms, Thm 10.3, on the sparsity pattern;
Rump, BIT 46, 2006).  All pivots positive makes D > 0, and Cauchy-Schwarz
then gives (|L| |D| |L^T|)_ij <= sqrt(m_ii m_jj), the diagonal taken of M + E
(which the 1 / (1 - gamma_w) absorbs).  For the nonnegative |E| with
positive weights s_j = sqrt(m_jj), ||E||_2 <= rho(|E|) <= max_i sum_j
|E_ij| s_j / s_i <= g max_i sum_j m_jj, the sum over the filled pattern of
row i of L + U.  Forming M rounds its diagonal by at most u max_j |m_jj|.
So delta = g max_i sum_j m_jj + u max_j |m_jj|: positive pivots prove that
M + E is SPD with ||E||_2 <= delta, i.e. that lambda_min(M) > -delta.
Underflow is not modelled; the entries here are far above it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import SparseSymmetric

__all__ = [
    "EigenSolveError",
    "SpectralResult",
    "extreme_eigenvalues",
    "DENSE_CUTOFF",
    "DEFAULT_TOL",
]

DENSE_CUTOFF = 300
DEFAULT_TOL = 1e-8
# Chebyshev filter of the lambda_max solve: its odd degree, and the relative
# margin by which its lower end sits below the interlacing bound.
FILTER_DEGREE = 9
FILTER_MARGIN = 1e-3


class EigenSolveError(RuntimeError):
    """Factorization failure or an internally inconsistent solve."""


@dataclass(frozen=True)
class SpectralResult:
    """Extreme eigenvalues of an SPD matrix with certificates.

    residual is the larger of the two achieved relative residuals.
    [lambda_min_lower, lambda_min] and [lambda_max, lambda_max_upper]
    enclose the extreme eigenvalues; certified is True when both enclosures
    are proven (on the dense path the whole spectrum is computed, and the
    enclosures collapse to the computed values).  The converged flag is
    False when the iteration cap was reached first, a residual misses the
    tolerance or a certificate fails (the values are then best estimates).
    On the iterative path, matvecs counts the products with A spent on
    lambda_max and factor_nnz is the L + U fill of the shift-invert
    factorization; both are 0 on the dense path.
    """

    lambda_min: float
    lambda_max: float
    kappa: float
    method: str  # "dense" or "lanczos_shift_invert"
    residual: float
    converged: bool = True
    lambda_min_lower: float = float("nan")
    lambda_max_upper: float = float("nan")
    certified: bool = False
    matvecs: int = 0
    factor_nnz: int = 0
    v_min: np.ndarray | None = None
    v_max: np.ndarray | None = None


def _check_tol(tol: float) -> None:
    if not (0 < tol <= 1e-3):
        raise ValueError(f"tol must be in (0, 1e-3], got {tol}")


def _rel_residual(a: SparseSymmetric, lam: float, v: np.ndarray) -> float:
    r = a.matrix @ v - lam * v
    return float(np.linalg.norm(r) / (abs(lam) * np.linalg.norm(v)))


def _dense_extremes(a: SparseSymmetric, tol: float) -> SpectralResult:
    vals, vecs = np.linalg.eigh(a.toarray())
    lam_min, lam_max = float(vals[0]), float(vals[-1])
    if lam_min <= 0:
        raise EigenSolveError(f"matrix is not SPD (lambda_min = {lam_min:.6g})")
    res = max(
        _rel_residual(a, lam_min, vecs[:, 0]),
        _rel_residual(a, lam_max, vecs[:, -1]),
    )
    return SpectralResult(
        lambda_min=lam_min,
        lambda_max=lam_max,
        kappa=lam_max / lam_min,
        method="dense",
        residual=res,
        converged=res <= tol,
        lambda_min_lower=lam_min,
        lambda_max_upper=lam_max,
        certified=True,
        v_min=vecs[:, 0].copy(),
        v_max=vecs[:, -1].copy(),
    )


def _arpack_one(matrix, tol, maxiter, v0, *, sigma=None, which="LA", opinv=None):
    """One extreme eigenpair via ARPACK; returns (value, vector, converged)."""
    # Ask ARPACK for extra accuracy; the explicit residual check below is
    # what decides convergence against the caller's tolerance.
    arp_tol = max(tol * 1e-2, 1e-14)
    try:
        vals, vecs = spla.eigsh(
            matrix, k=1, which=which, sigma=sigma, tol=arp_tol,
            maxiter=maxiter, v0=v0, OPinv=opinv,
        )
        return float(vals[0]), vecs[:, 0], True
    except spla.ArpackNoConvergence as exc:
        if len(exc.eigenvalues):
            return float(exc.eigenvalues[0]), exc.eigenvectors[:, 0], False
        # No certified pair at all: salvage a crude estimate to report.
        try:
            vals, vecs = spla.eigsh(
                matrix, k=1, which=which, sigma=sigma, tol=0.1,
                maxiter=maxiter, v0=v0, OPinv=opinv,
            )
            return float(vals[0]), vecs[:, 0], False
        except (spla.ArpackNoConvergence, RuntimeError):
            raise EigenSolveError(
                f"eigensolver produced no estimate after {maxiter} iterations"
            ) from exc
    except RuntimeError as exc:
        raise EigenSolveError(f"sparse eigensolve failed: {exc}") from exc


def _interlacing_lower_bound(a: SparseSymmetric) -> float:
    """Largest eigenvalue of any 2x2 principal submatrix [[a_ii, a_ij],
    [a_ij, a_jj]] over the off-diagonal nonzeros, or max a_ii without them:
    a lower bound of lambda_max by Cauchy interlacing."""
    coo = a.matrix.tocoo()
    upper = coo.row < coo.col
    d = a.diagonal
    top = float(d.max())
    if not upper.any():
        return top
    ai, aj = d[coo.row[upper]], d[coo.col[upper]]
    pair = 0.5 * (ai + aj) + np.hypot(0.5 * (ai - aj), coo.data[upper])
    return max(top, float(pair.max()))


class _ChebyshevFilter(spla.LinearOperator):
    """p(A) with p(x) = T_k((2x - b)/b), k = FILTER_DEGREE, applied by the
    three-term recurrence; counts its products with A in matvecs."""

    def __init__(self, a: SparseSymmetric, b: float):
        super().__init__(dtype=np.float64, shape=a.matrix.shape)
        # M2 = 2 (2A - bI)/b, so each recurrence step is one spmv.
        self.m2 = ((4.0 / b) * a.matrix - 2.0 * sp.identity(a.order, format="csr")).tocsr()
        self.matvecs = 0

    def _matvec(self, x):
        prev, cur = x, 0.5 * (self.m2 @ x)
        for _ in range(FILTER_DEGREE - 1):
            prev, cur = cur, self.m2 @ cur - prev
        self.matvecs += FILTER_DEGREE
        return cur


def _lambda_max_filtered(a: SparseSymmetric, tol, maxiter, v0):
    """Largest eigenvalue by Lanczos on the Chebyshev-filtered p(A) (see the
    module docstring).  Returns (Rayleigh quotient on A, Ritz vector,
    converged, products with A)."""
    b = (1.0 - FILTER_MARGIN) * _interlacing_lower_bound(a)
    if not b > 0:
        raise EigenSolveError("matrix is not SPD (no positive diagonal entry)")
    op = _ChebyshevFilter(a, b)
    _, v, ok = _arpack_one(op, tol, maxiter, v0, which="LA")
    return float(v @ (a.matrix @ v) / (v @ v)), v, ok, op.matvecs


def _symmetric_lu(matrix):
    """Sparse LU in SuperLU's symmetric mode: minimum-degree ordering on
    A + A^T and diagonal pivots."""
    return spla.splu(
        matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )


def _nonpositive_pivots(lu) -> int | None:
    """Number of pivots <= 0 of a symmetric-mode factor, or None when it
    left the diagonal pivots (its inertia is then unknown).

    With diagonal pivots (perm_r == perm_c) the factor is P^T A P = L U with
    U = D L^T, so by Sylvester's law of inertia A is SPD exactly when every
    pivot diag(U) is positive.
    """
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return int(np.sum(~(lu.U.diagonal() > 0)))


def _factor_at_zero(a: SparseSymmetric):
    """Symmetric-mode LU of A for shift-invert at zero; a factor that left
    the diagonal or has a pivot <= 0 is rejected as not SPD."""
    try:
        lu = _symmetric_lu(a.matrix)
    except RuntimeError as exc:
        raise EigenSolveError(f"sparse factorization failed: {exc}") from exc
    bad = _nonpositive_pivots(lu)
    if bad is None:
        raise EigenSolveError("matrix is not SPD (LU left the diagonal pivots)")
    if bad:
        raise EigenSolveError(f"matrix is not SPD ({bad} LU pivots <= 0)")
    return lu


def _shifted_bound(a: SparseSymmetric, sigma: float, upper: bool) -> float | None:
    """Certified end of the spectrum from one shifted factor (see the module
    docstring): sigma + delta >= lambda_max when upper and sigma I - A has
    all pivots positive, sigma - delta <= lambda_min when not upper and
    A - sigma I has.  None when a pivot is <= 0, the factor left the
    diagonal or the factorization failed.  The factor is released on
    return."""
    eye = sp.identity(a.order, format="csr")
    m = (sigma * eye - a.matrix) if upper else (a.matrix - sigma * eye)
    try:
        lu = _symmetric_lu(m)
    except RuntimeError:
        return None
    if _nonpositive_pivots(lu) != 0:
        return None
    u_csc = lu.U
    col_count = np.diff(u_csc.indptr)
    diag = np.empty(a.order)
    diag[lu.perm_c] = m.diagonal()  # in the factor's (permuted) order
    # Sum of m_jj over the filled pattern of each row of L + U: the row of U
    # plus the column of U (the row of L, as U = D L^T), diagonal once.
    row_sum = (np.bincount(u_csc.indices, weights=np.repeat(diag, col_count),
                           minlength=a.order)
               + np.add.reduceat(diag[u_csc.indices], u_csc.indptr[:-1]) - diag)
    u = np.finfo(float).eps / 2
    w = int(col_count.max()) + 1
    gamma = w * u / (1 - w * u)
    delta = gamma / (1 - gamma) * float(row_sum.max()) + u * float(np.abs(diag).max())
    return sigma + delta if upper else sigma - delta


def _solve_operator(lu) -> spla.LinearOperator:
    return spla.LinearOperator(lu.shape, matvec=lu.solve, dtype=np.float64)


def _lambda_min_shift_invert(a: SparseSymmetric, lu, tol, maxiter, v0):
    """Eigenvalue nearest zero by shift-invert Lanczos with the factor lu of
    A.  Returns (value, vector, converged)."""
    return _arpack_one(a.matrix, tol, maxiter, v0, sigma=0.0, which="LM",
                       opinv=_solve_operator(lu))


def extreme_eigenvalues(
    a: SparseSymmetric,
    tol: float = DEFAULT_TOL,
    *,
    dense_cutoff: int = DENSE_CUTOFF,
    maxiter: int | None = None,
    seed: int = 0,
) -> SpectralResult:
    """Smallest and largest eigenvalue of an SPD matrix with condition number.

    maxiter caps the ARPACK iterations (restarts) of each iterative solve.
    On the lambda_max side each Lanczos step applies the filter p(A), i.e.
    FILTER_DEGREE = 9 products with A.  A solve that hits the cap is
    flagged converged=False; its lambda_max is still the Rayleigh quotient
    of the returned vector, so it never exceeds the true lambda_max.
    """
    _check_tol(tol)
    n = a.order
    if n <= dense_cutoff:
        return _dense_extremes(a, tol)

    v0 = np.random.default_rng(seed).standard_normal(n)
    lam_max, v_max, ok_max, matvecs = _lambda_max_filtered(a, tol, maxiter, v0)
    # One factor at a time: each certificate factor is released before the
    # next factor is built.
    upper = _shifted_bound(a, lam_max * (1 + tol * 1e-2), upper=True)
    lu = _factor_at_zero(a)
    lam_min, v_min, ok_min = _lambda_min_shift_invert(a, lu, tol, maxiter, v0)
    factor_nnz = lu.L.nnz + lu.U.nnz
    del lu
    if lam_min <= 0:
        raise EigenSolveError(f"matrix is not SPD (lambda_min = {lam_min:.6g})")
    lower = _shifted_bound(a, lam_min * (1 - tol * 1e-2), upper=False)
    certified = upper is not None and lower is not None

    res = max(_rel_residual(a, lam_min, v_min), _rel_residual(a, lam_max, v_max))
    return SpectralResult(
        lambda_min=lam_min,
        lambda_max=lam_max,
        kappa=lam_max / lam_min,
        method="lanczos_shift_invert",
        residual=res,
        converged=ok_min and ok_max and res <= tol and certified,
        lambda_min_lower=max(lower, 0.0) if lower is not None else float("nan"),
        lambda_max_upper=upper if upper is not None else float("nan"),
        certified=certified,
        matvecs=matvecs,
        factor_nnz=factor_nnz,
        v_min=v_min,
        v_max=v_max,
    )
