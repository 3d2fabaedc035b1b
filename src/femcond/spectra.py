"""Extreme eigenvalues and condition numbers of symmetric matrices.

Small systems (order <= 300) go through a dense symmetric eigensolver.
Larger ones use implicitly restarted Lanczos (ARPACK) for both ends, and
each end is then certified by the inertia of a shifted factor (below).
Every returned eigenvalue carries an explicitly computed relative residual
||A v - lambda v|| / ||lambda v|| on A itself; results that miss the
requested tolerance or their certificate are flagged, not hidden.

lambda_max: a loose filtered start, then shift-invert above lambda_max.  On
anisotropic meshes the top of the spectrum is tightly clustered (relative
gaps near 1e-8), so Lanczos on A, or on a polynomial filter of A run to full
accuracy, needs thousands of products.  The solve has three steps.
  1. Start.  ARPACK runs to tolerance 1e-3 on p(A), p(x) = T_9((2x - b)/b)
     the odd degree-9 Chebyshev polynomial mapped so that |p| <= 1 on [0, b]
     and p increases above b.  The lower end is b = (1 - 1e-3) l, where l,
     the largest eigenvalue of any 2x2 principal submatrix over the
     off-diagonal nonzeros (max a_ii without them), is a lower bound of
     lambda_max by Cauchy interlacing.  Hence lambda_max > b and
     p(lambda_max) > 1 >= p(lambda) for every eigenvalue lambda in [0, b],
     while p increases between b and lambda_max: the largest eigenvalue of
     p(A) belongs to the largest eigenvalue of A.  The degree is odd, so a
     negative eigenvalue maps below -1 and never wins.  The Rayleigh
     quotient theta_0 of the Ritz vector on A is <= lambda_max.
  2. Shift.  sigma_1 = theta_0 (1 + 1e-4) is accepted when the
     symmetric-mode factor of sigma_1 I - A has every pivot positive; by
     Sylvester's law of inertia sigma_1 I - A is then SPD, i.e. sigma_1 >
     lambda_max.  A pivot <= 0 instead shows lambda_max >= sigma_1; the next
     shift is then sigma_1 (1 + eta) with eta ten times larger, at most
     until the shift passes the Gershgorin bound max_i sum_j |a_ij| >=
     lambda_max, above which sigma I - A is strictly diagonally dominant (a
     pivot <= 0 there raises).  A shift that had to grow is brought back by
     geometric bisection between the largest shift shown below lambda_max
     and the smallest proven above it, until they are within 1e-4
     relative.
  3. Shift-invert.  (sigma_1 I - A)^-1, proven SPD, has the eigenvalues
     1 / (sigma_1 - lambda) > 0, increasing in lambda, so its largest one
     belongs to lambda_max; the shift spreads the top cluster from relative
     gaps (lambda_1 - lambda_2) / lambda_1 to (lambda_1 - lambda_2) /
     (sigma_1 - lambda_2).  ARPACK which="LA" runs on that inverse from the
     Ritz vector of step 1.  The reported lambda_max is the Rayleigh quotient
     of the result on A, and the residual on A decides convergence.  The
     vector only has to be good: a misconverged pair (an interior eigenvalue,
     or too few digits) is caught by the lambda_max certificate below, which
     does not depend on how the vector was found.

lambda_min: shift-invert Lanczos at shift zero, with one sparse LU of A in
SuperLU's symmetric mode (minimum-degree ordering on A + A^T, diagonal
pivots), which fills far less than the default column ordering.  Shift-invert
finds the eigenvalue nearest zero, which is the smallest one only if A is
positive definite; the signs of the diagonal pivots give A's inertia
(Sylvester), so a factor with a pivot <= 0 is rejected as not SPD.

One ordering per matrix.  The factor at zero is the only one that computes a
fill-reducing ordering.  With q = argsort(perm_c) of that factor, the three
later factors (the lambda_min certificate, the lambda_max shift and the
lambda_max certificate) are of A[q][:, q] shifted, in NATURAL order.  A shift
changes only the diagonal, which is structurally nonzero, so they have the
pattern of the factor at zero (less any zeros that A stores explicitly, which
the subtraction drops) and at most its fill.  Both shift-invert solves use a
10-vector Krylov basis.

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

import math
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
# Chebyshev filter of the lambda_max start: its odd degree, and the relative
# margin by which its lower end sits below the interlacing bound.
FILTER_DEGREE = 9
FILTER_MARGIN = 1e-3
# ARPACK tolerance of the filtered start, the first relative gap eta of the
# lambda_max shift above the start's Rayleigh quotient (multiplied by 10
# until the shift is proven above lambda_max), and the Krylov basis size of
# both shift-invert solves.
START_TOL = 1e-3
SHIFT_GAP = 1e-4
KRYLOV_VECTORS = 10


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
    On the iterative path, matvecs counts the products with A spent on the
    filtered lambda_max start, factor_nnz is the L + U fill of the factor at
    zero (which bounds the fill of every factor of the call), solves counts the
    applications of a factor's inverse over both shift-invert solves and
    factorizations the sparse factorizations built; all four are 0 on the
    dense path.
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
    solves: int = 0
    factorizations: int = 0
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


def _arpack_tol(tol: float) -> float:
    # Ask ARPACK for extra accuracy; the explicit residual check on A is what
    # decides convergence against the caller's tolerance.
    return max(tol * 1e-2, 1e-14)


def _arpack_one(matrix, arp_tol, maxiter, v0, *, sigma=None, which="LA", opinv=None,
                ncv=None):
    """One extreme eigenpair via ARPACK at ARPACK tolerance arp_tol; returns
    (value, vector, converged)."""
    try:
        vals, vecs = spla.eigsh(
            matrix, k=1, which=which, sigma=sigma, tol=arp_tol,
            maxiter=maxiter, v0=v0, OPinv=opinv, ncv=ncv,
        )
        return float(vals[0]), vecs[:, 0], True
    except spla.ArpackNoConvergence as exc:
        if len(exc.eigenvalues):
            return float(exc.eigenvalues[0]), exc.eigenvectors[:, 0], False
        # No certified pair at all: salvage a crude estimate to report.
        try:
            vals, vecs = spla.eigsh(
                matrix, k=1, which=which, sigma=sigma, tol=0.1,
                maxiter=maxiter, v0=v0, OPinv=opinv, ncv=ncv,
            )
            return float(vals[0]), vecs[:, 0], False
        except (spla.ArpackNoConvergence, RuntimeError):
            raise EigenSolveError(
                f"eigensolver produced no estimate after {maxiter} iterations"
            ) from exc
    except RuntimeError as exc:
        raise EigenSolveError(f"sparse eigensolve failed: {exc}") from exc


def _rayleigh(a: SparseSymmetric, v: np.ndarray) -> float:
    return float(v @ (a.matrix @ v) / (v @ v))


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


def _lambda_max_filtered(a: SparseSymmetric, arp_tol, maxiter, v0):
    """Largest eigenvalue by Lanczos on the Chebyshev-filtered p(A) at ARPACK
    tolerance arp_tol (see the module docstring).  Returns (Rayleigh
    quotient on A, Ritz vector, converged, products with A)."""
    b = (1.0 - FILTER_MARGIN) * _interlacing_lower_bound(a)
    if not b > 0:
        raise EigenSolveError("matrix is not SPD (no positive diagonal entry)")
    op = _ChebyshevFilter(a, b)
    _, v, ok = _arpack_one(op, arp_tol, maxiter, v0, which="LA")
    return _rayleigh(a, v), v, ok, op.matvecs


def _symmetric_lu(matrix, permc_spec: str):
    """Sparse LU in SuperLU's symmetric mode: diagonal pivots, columns in the
    order permc_spec ("MMD_AT_PLUS_A": minimum degree on A + A^T;
    "NATURAL": the matrix's own order)."""
    return spla.splu(
        matrix.tocsc(), permc_spec=permc_spec, diag_pivot_thresh=0.0,
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
    """Symmetric-mode LU of A, minimum-degree ordered, for shift-invert at
    zero; a factor that left the diagonal or has a pivot <= 0 is rejected as
    not SPD."""
    try:
        lu = _symmetric_lu(a.matrix, "MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise EigenSolveError(f"sparse factorization failed: {exc}") from exc
    bad = _nonpositive_pivots(lu)
    if bad is None:
        raise EigenSolveError("matrix is not SPD (LU left the diagonal pivots)")
    if bad:
        raise EigenSolveError(f"matrix is not SPD ({bad} LU pivots <= 0)")
    return lu


def _shifted_factor(matrix, sigma: float, upper: bool):
    """Symmetric-mode LU, in the matrix's own order, of M = sigma I - A when
    upper and of M = A - sigma I when not.  Returns (M, factor) when every
    pivot is positive, which proves M SPD, and None when a pivot is <= 0,
    the factor left the diagonal or the factorization failed."""
    eye = sp.identity(matrix.shape[0], format="csr")
    m = (sigma * eye - matrix) if upper else (matrix - sigma * eye)
    try:
        lu = _symmetric_lu(m, "NATURAL")
    except RuntimeError:
        return None
    if _nonpositive_pivots(lu) != 0:
        return None
    return m, lu


def _shifted_bound(matrix, sigma: float, upper: bool) -> float | None:
    """Certified end of the spectrum of the symmetric matrix A from one
    shifted factor in A's own order (see the module docstring): sigma +
    delta >= lambda_max when upper and sigma I - A has all pivots positive,
    sigma - delta <= lambda_min when not upper and A - sigma I has.  None
    when _shifted_factor is.  The factor is released on return."""
    factored = _shifted_factor(matrix, sigma, upper)
    if factored is None:
        return None
    m, lu = factored
    n = matrix.shape[0]
    u_csc = lu.U
    col_count = np.diff(u_csc.indptr)
    diag = np.empty(n)
    diag[lu.perm_c] = m.diagonal()  # in the factor's (permuted) order
    # Sum of m_jj over the filled pattern of each row of L + U: the row of U
    # plus the column of U (the row of L, as U = D L^T), diagonal once.
    row_sum = (np.bincount(u_csc.indices, weights=np.repeat(diag, col_count),
                           minlength=n)
               + np.add.reduceat(diag[u_csc.indices], u_csc.indptr[:-1]) - diag)
    u = np.finfo(float).eps / 2
    w = int(col_count.max()) + 1
    gamma = w * u / (1 - w * u)
    delta = gamma / (1 - gamma) * float(row_sum.max()) + u * float(np.abs(diag).max())
    return sigma + delta if upper else sigma - delta


def _shift_above_lambda_max(matrix, theta0: float):
    """Factor of sigma_1 I - A, A in its own order, whose pivots prove sigma_1
    > lambda_max, with sigma_1 <= lo (1 + SHIFT_GAP) for some lo <=
    lambda_max (see the module docstring).  theta0 <= lambda_max is the
    Rayleigh quotient of the start.  Returns (factor, factorizations built).
    """
    if not theta0 > 0:
        raise EigenSolveError(f"matrix is not SPD (Rayleigh quotient {theta0:.6g})")
    gershgorin = float(abs(matrix).sum(axis=1).max())
    lo, hi, eta, tries = theta0, math.inf, SHIFT_GAP, 0
    factored = None
    while hi > lo * (1 + SHIFT_GAP):
        # Grow the shift above lo until one is proven above lambda_max, then
        # bisect [lo, hi] geometrically.
        sigma = lo * (1 + eta) if math.isinf(hi) else math.sqrt(lo * hi)
        factored = None  # release the last factor before building the next
        factored = _shifted_factor(matrix, sigma, upper=True)
        tries += 1
        if factored is not None:
            hi = sigma
        elif sigma > gershgorin:
            raise EigenSolveError(
                f"sigma I - A has a pivot <= 0 at sigma = {sigma:.6g}, above the "
                f"Gershgorin bound {gershgorin:.6g} of lambda_max"
            )
        else:  # sigma I - A is not SPD: lambda_max >= sigma
            lo, eta = sigma, 10 * eta
    if factored is None:  # the last bisection step fell below lambda_max
        factored = _shifted_factor(matrix, hi, upper=True)
        tries += 1
    return factored[1], tries


class _Inverse(spla.LinearOperator):
    """x -> A^-1 x in A's order, from the factor lu of A[q][:, q] (of A
    itself when q is None); counts its solves."""

    def __init__(self, lu, q: np.ndarray | None = None):
        super().__init__(dtype=np.float64, shape=lu.shape)
        self.lu, self.q = lu, q
        self.solves = 0

    def _matvec(self, x):
        self.solves += 1
        if self.q is None:
            return self.lu.solve(x)
        y = np.empty_like(x)
        y[self.q] = self.lu.solve(x[self.q])
        return y


def _lambda_min_shift_invert(a: SparseSymmetric, inverse, tol, maxiter, v0):
    """Eigenvalue nearest zero by shift-invert Lanczos with inverse = A^-1.
    Returns (value, vector, converged)."""
    return _arpack_one(a.matrix, _arpack_tol(tol), maxiter, v0, sigma=0.0, which="LM",
                       opinv=inverse, ncv=KRYLOV_VECTORS)


def _lambda_max_shift_invert(a: SparseSymmetric, inverse, tol, maxiter, v0):
    """Largest eigenvalue of A by Lanczos on inverse = (sigma_1 I - A)^-1,
    sigma_1 proven above lambda_max.  Returns (Rayleigh quotient on A,
    vector, converged)."""
    _, v, ok = _arpack_one(inverse, _arpack_tol(tol), maxiter, v0, which="LA",
                           ncv=KRYLOV_VECTORS)
    return _rayleigh(a, v), v, ok


def extreme_eigenvalues(
    a: SparseSymmetric,
    tol: float = DEFAULT_TOL,
    *,
    dense_cutoff: int = DENSE_CUTOFF,
    maxiter: int | None = None,
    seed: int = 0,
) -> SpectralResult:
    """Smallest and largest eigenvalue of an SPD matrix with condition number.

    maxiter caps the ARPACK iterations (restarts) of each of the three
    iterative solves: the filtered lambda_max start, whose Lanczos steps
    apply p(A), i.e. FILTER_DEGREE = 9 products with A, and the two
    shift-invert solves.  The start only supplies a shift and a vector, so
    its own convergence is not required.  A shift-invert solve that hits the
    cap is flagged converged=False; lambda_max is still the Rayleigh
    quotient of the returned vector, so it never exceeds the true lambda_max.
    """
    _check_tol(tol)
    n = a.order
    if n <= dense_cutoff:
        return _dense_extremes(a, tol)

    v0 = np.random.default_rng(seed).standard_normal(n)
    # One factor at a time: each is released before the next is built.  The
    # factor at zero chooses the fill-reducing order q that the others share.
    lu = _factor_at_zero(a)
    q = np.argsort(lu.perm_c)
    factor_nnz = lu.L.nnz + lu.U.nnz
    inverse = _Inverse(lu)
    lam_min, v_min, ok_min = _lambda_min_shift_invert(a, inverse, tol, maxiter, v0)
    solves = inverse.solves
    del lu, inverse
    if lam_min <= 0:
        raise EigenSolveError(f"matrix is not SPD (lambda_min = {lam_min:.6g})")
    ordered = a.matrix[q][:, q]
    lower = _shifted_bound(ordered, lam_min * (1 - tol * 1e-2), upper=False)

    theta0, v_start, _, matvecs = _lambda_max_filtered(a, START_TOL, maxiter, v0)
    lu, tries = _shift_above_lambda_max(ordered, theta0)
    inverse = _Inverse(lu, q)
    lam_max, v_max, ok_max = _lambda_max_shift_invert(a, inverse, tol, maxiter, v_start)
    solves += inverse.solves
    del lu, inverse
    upper = _shifted_bound(ordered, lam_max * (1 + tol * 1e-2), upper=True)
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
        solves=solves,
        factorizations=tries + 3,
        v_min=v_min,
        v_max=v_max,
    )
