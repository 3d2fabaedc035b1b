"""Extreme eigenvalues and condition numbers of symmetric matrices.

Every call starts with the band Cholesky factor of A at zero, the SPD test,
which fixes the band order of every later factor.  Small systems (order <=
300) then take both eigenpairs from a dense symmetric eigensolver, larger
ones from implicitly restarted Lanczos (ARPACK); both paths end on the same
two shifted Cholesky certificates (below).  Every returned eigenvalue
carries an explicitly computed relative residual ||A v - lambda v|| /
||lambda v|| on A itself; results that miss the requested tolerance or
their certificate are flagged, not hidden.

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
  2. Shift.  sigma_1 = theta_0 (1 + 1e-4) is accepted when the Cholesky
     factorization of sigma_1 I - A completes, which shows sigma_1 I - A
     positive definite to working precision, i.e. sigma_1 > lambda_max up to
     the rounding margin below.  A failed one instead shows lambda_max >=
     sigma_1; the next shift is then sigma_1 (1 + eta) with eta ten times
     larger, at most until the shift passes the Gershgorin bound max_i sum_j
     |a_ij| >= lambda_max, above which sigma I - A is strictly diagonally
     dominant (a failure there raises).  A shift that had to grow is brought
     back by geometric bisection between the largest shift shown below
     lambda_max and the smallest shown above it, until they are within 1e-4
     relative.
  3. Shift-invert.  (sigma_1 I - A)^-1, positive definite, has the
     eigenvalues 1 / (sigma_1 - lambda) > 0, increasing in lambda, so its
     largest one belongs to lambda_max; the shift spreads the top cluster
     from relative gaps (lambda_1 - lambda_2) / lambda_1 to (lambda_1 -
     lambda_2) / (sigma_1 - lambda_2).  ARPACK which="LA" runs on that
     inverse from the Ritz vector of step 1.  The reported lambda_max is the
     Rayleigh quotient of the result on A, and the residual on A decides
     convergence.  The vector only has to be good: a misconverged pair (an
     interior eigenvalue, or too few digits) is caught by the lambda_max
     certificate below, which does not depend on how the vector was found.

lambda_min: shift-invert Lanczos at shift zero, with the Cholesky factor of
A.  Shift-invert finds the eigenvalue nearest zero, which is the smallest
one only if A is positive definite; a Cholesky factorization completes only
on a matrix that is positive definite to working precision, so a failed one
is rejected as not SPD.

One ordering per matrix.  The factor at zero computes the only ordering of
a call: q = reverse_cuthill_mckee(A), on A's stored pattern, which makes
A[q][:, q] a band matrix of half-bandwidth kd = max |i - j| over its stored
entries.  Every factor of a call (at zero, the lambda_max shift on the
iterative path, and the two certificates) is a LAPACK band Cholesky
factorization (dpbtrf) of A[q][:, q] shifted, in that band: a shift changes
only the diagonal.  Each band is built in Fortran order from
the entries of the lower triangle of A[q][:, q], factored in place and
released before the next one is built, so one (kd + 1) x n array is alive at
a time.  Cost model: a factor takes about n kd^2 flops, a solve 4 n kd, and
both work on n (kd + 1) doubles.  On a d-dimensional grid kd is about the
number of vertices in a cross-section, n^((d-1)/d): at large 2D orders a
fill-reducing sparse factor needs less memory and fewer flops per solve.
Both shift-invert solves use a 10-vector Krylov basis.

Certificates.  A small residual only says that (theta, v) is close to some
eigenpair, possibly an interior one.  Both ends are therefore enclosed by
shifted factorizations:
  lambda_max in [theta_max, sigma_hi + delta]: the Cholesky factorization
      of sigma_hi I - A completes, sigma_hi = theta_max (1 + tol 1e-2);
  lambda_min in [sigma_lo - delta, theta_min]: the Cholesky factorization
      of A - sigma_lo I completes, sigma_lo = theta_min (1 - tol 1e-2).
The outer ends are proven by the factorizations.  On the iterative path
the inner ends hold because theta_max is a Rayleigh quotient on A and
theta_min the inverse of a Rayleigh quotient on A^-1; on the dense path
they are the eigensolver's extreme eigenvalues, exact for a matrix within
a backward error of order u ||A|| of A.  On both paths, when sigma_lo -
delta <= 0 the lower end is 0, which the factor at zero certifies.

Rounding margin delta.  For a symmetric M of half-bandwidth kd, the
computed Cholesky factor R (M = R^T R) is the exact one of M + E with
|E| <= gamma_w |R^T| |R|, gamma_w = w u / (1 - w u), u the unit roundoff
and w = kd + 2: every entry of R comes from an inner product of at most kd
terms, a subtraction and a division or square root, in any order of
summation (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3,
with the band in place of n; Rump, BIT 46, 2006).  For the columns r_i of
R, Cauchy-Schwarz gives (|R^T| |R|)_ij <= ||r_i|| ||r_j||, and ||r_i||^2 =
m_ii + e_ii <= m_ii + gamma_w ||r_i||^2, so |E_ij| <= g sqrt(m_ii m_jj) with
g = gamma_w / (1 - gamma_w), and E vanishes outside the band |i - j| <= kd.
For the nonnegative |E| with positive weights s_j = sqrt(m_jj), ||E||_2 <=
rho(|E|) <= max_i sum_j |E_ij| s_j / s_i <= g max_i sum_{|j - i| <= kd}
m_jj.  Forming M rounds its diagonal by at most u max_j |m_jj|.  So delta =
g max_i sum_{|j - i| <= kd} m_jj + u max_j |m_jj|: a completed factorization
proves M + E positive definite with ||E||_2 <= delta, i.e. lambda_min(M) >
-delta.  Underflow, and the rounding in evaluating delta itself (relative,
below (2 kd + 1) u), are not modelled; the entries here are far above
underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

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
# until the shift is shown above lambda_max), and the Krylov basis size of
# both shift-invert solves.
START_TOL = 1e-3
SHIFT_GAP = 1e-4
KRYLOV_VECTORS = 10
# ARPACK iteration (restart) cap of each of the three iterative solves;
# None leaves ARPACK's default.
MAXITER = None


class EigenSolveError(RuntimeError):
    """Factorization failure or an internally inconsistent solve."""


@dataclass(frozen=True)
class SpectralResult:
    """Extreme eigenvalues of an SPD matrix with certificates.

    residual is the larger of the two achieved relative residuals.
    [lambda_min_lower, lambda_min] and [lambda_max, lambda_max_upper]
    enclose the extreme eigenvalues; certified is True when both outer ends
    are proven by their shifted factorizations, on either path.  converged
    is False when the iteration cap was reached first, a residual misses
    the tolerance or a certificate fails (the values are then best
    estimates).  factor_nnz is the size n (kd + 1) of the band that every
    factor of the call fills, factorizations the number of band Cholesky
    factorizations (3 on the dense path: at zero and the two certificates),
    matvecs the products with A of the filtered lambda_max start and solves
    the applications of a factor's inverse in the shift-invert solves (both
    0 on the dense path).
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


def _arpack_tol(tol: float) -> float:
    # Ask ARPACK for extra accuracy; the explicit residual check on A is what
    # decides convergence against the caller's tolerance.
    return max(tol * 1e-2, 1e-14)


def _arpack_one(matrix, arp_tol, v0, *, sigma=None, which="LA", opinv=None, ncv=None):
    """One extreme eigenpair via ARPACK at ARPACK tolerance arp_tol, capped
    at MAXITER iterations; returns (value, vector, converged)."""
    try:
        vals, vecs = spla.eigsh(
            matrix, k=1, which=which, sigma=sigma, tol=arp_tol,
            maxiter=MAXITER, v0=v0, OPinv=opinv, ncv=ncv,
        )
        return float(vals[0]), vecs[:, 0], True
    except spla.ArpackNoConvergence as exc:
        if len(exc.eigenvalues):
            return float(exc.eigenvalues[0]), exc.eigenvectors[:, 0], False
        # No certified pair at all: salvage a crude estimate to report.
        try:
            vals, vecs = spla.eigsh(
                matrix, k=1, which=which, sigma=sigma, tol=0.1,
                maxiter=MAXITER, v0=v0, OPinv=opinv, ncv=ncv,
            )
            return float(vals[0]), vecs[:, 0], False
        except (spla.ArpackNoConvergence, RuntimeError):
            raise EigenSolveError(
                f"eigensolver produced no estimate after {MAXITER} iterations"
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


def _lambda_max_filtered(a: SparseSymmetric, arp_tol, v0):
    """Largest eigenvalue by Lanczos on the Chebyshev-filtered p(A) at ARPACK
    tolerance arp_tol (see the module docstring).  Returns (Rayleigh
    quotient on A, Ritz vector, converged, products with A)."""
    b = (1.0 - FILTER_MARGIN) * _interlacing_lower_bound(a)
    if not b > 0:
        raise EigenSolveError("matrix is not SPD (no positive diagonal entry)")
    op = _ChebyshevFilter(a, b)
    _, v, ok = _arpack_one(op, arp_tol, v0, which="LA")
    return _rayleigh(a, v), v, ok, op.matvecs


class _Band:
    """The symmetric A in one reverse Cuthill-McKee order q: the entries on
    and below the diagonal of A[q][:, q] by diagonal offset and column, its
    diagonal and its half-bandwidth kd (see the module docstring).  Counts
    the factorizations it builds and the solves applied with them."""

    def __init__(self, matrix):
        n = matrix.shape[0]
        self.q = reverse_cuthill_mckee(matrix, symmetric_mode=True)
        pos = np.empty(n, dtype=np.intp)
        pos[self.q] = np.arange(n)
        coo = matrix.tocoo()
        row, col = pos[coo.row], pos[coo.col]
        lower = row >= col
        self.offset, self.col, self.val = row[lower] - col[lower], col[lower], coo.data[lower]
        self.diagonal = matrix.diagonal()[self.q]
        self.n, self.kd = n, int(self.offset.max(initial=0))
        self.factorizations = self.solves = 0

    def shifted_diagonal(self, sigma: float, upper: bool) -> np.ndarray:
        """Diagonal of M = sigma I - A when upper and of M = A - sigma I when
        not, in the order q."""
        return sigma - self.diagonal if upper else self.diagonal - sigma

    def cholesky(self, sigma: float, upper: bool) -> np.ndarray | None:
        """Lower band Cholesky factor, in LAPACK band storage, of M[q][:, q]
        for M as in shifted_diagonal; None when the factorization fails,
        i.e. M is not positive definite to working precision.  The band is
        built in Fortran order, so dpbtrf factors it in place."""
        ab = np.zeros((self.kd + 1, self.n), order="F")
        ab[self.offset, self.col] = -self.val if upper else self.val
        ab[0] = self.shifted_diagonal(sigma, upper)
        self.factorizations += 1
        factor, info = dpbtrf(ab, lower=1, overwrite_ab=1)
        return factor if info == 0 else None


def _rounding_margin(kd: int, m_diag: np.ndarray) -> float:
    """delta = g max_i sum_{|j - i| <= kd} m_jj + u max_j |m_jj| of a
    completed band Cholesky factorization of M with diagonal m_diag (see the
    module docstring)."""
    u = np.finfo(float).eps / 2
    w = kd + 2
    gamma = w * u / (1 - w * u)
    window = np.lib.stride_tricks.sliding_window_view(np.pad(m_diag, kd), 2 * kd + 1)
    return (gamma / (1 - gamma) * float(window.sum(axis=1).max())
            + u * float(np.abs(m_diag).max()))


class _Inverse(spla.LinearOperator):
    """x -> M^-1 x in A's order, from the band Cholesky factor of M[q][:, q]
    (M = A or a shift of it, q the band's order); counts its solves on band."""

    def __init__(self, band: _Band, factor: np.ndarray):
        super().__init__(dtype=np.float64, shape=(band.n, band.n))
        self.band, self.factor = band, factor

    def _matvec(self, x):
        self.band.solves += 1
        q = self.band.q
        z, _ = dpbtrs(self.factor, x[q], lower=1, overwrite_b=1)
        y = np.empty_like(z)
        y[q] = z
        return y


def _factor_at_zero(a: SparseSymmetric) -> _Inverse:
    """A^-1 for shift-invert at zero, from the band Cholesky factor of A in
    its reverse Cuthill-McKee order; a failed factorization is rejected as
    not SPD."""
    band = _Band(a.matrix)
    factor = band.cholesky(0.0, upper=False)
    if factor is None:
        raise EigenSolveError("matrix is not SPD (its Cholesky factorization failed)")
    return _Inverse(band, factor)


def _shifted_bound(band: _Band, sigma: float, upper: bool) -> float | None:
    """Certified end of the spectrum of the symmetric A from one shifted
    band Cholesky factorization (see the module docstring): sigma + delta >=
    lambda_max when upper and the factorization of sigma I - A completes,
    sigma - delta <= lambda_min when not upper and that of A - sigma I
    does; None when it fails.  The factor is released on return."""
    if band.cholesky(sigma, upper) is None:
        return None
    delta = _rounding_margin(band.kd, band.shifted_diagonal(sigma, upper))
    return sigma + delta if upper else sigma - delta


def _shift_above_lambda_max(band: _Band, theta0: float, gershgorin: float):
    """(sigma_1 I - A)^-1 from a band Cholesky factorization that completes,
    with sigma_1 <= lo (1 + SHIFT_GAP) for some lo <= lambda_max (see the
    module docstring).  theta0 <= lambda_max is the Rayleigh quotient of the
    start, gershgorin = max_i sum_j |a_ij|."""
    if not theta0 > 0:
        raise EigenSolveError(f"matrix is not SPD (Rayleigh quotient {theta0:.6g})")
    lo, hi, eta = theta0, math.inf, SHIFT_GAP
    factor = None
    while hi > lo * (1 + SHIFT_GAP):
        # Grow the shift above lo until one is shown above lambda_max, then
        # bisect [lo, hi] geometrically.
        sigma = lo * (1 + eta) if math.isinf(hi) else math.sqrt(lo * hi)
        factor = None  # release the last factor before building the next
        factor = band.cholesky(sigma, upper=True)
        if factor is not None:
            hi = sigma
        elif sigma > gershgorin:
            raise EigenSolveError(
                f"the Cholesky factorization of sigma I - A fails at sigma = "
                f"{sigma:.6g}, above the Gershgorin bound {gershgorin:.6g} of lambda_max"
            )
        else:  # sigma I - A is not positive definite: lambda_max >= sigma
            lo, eta = sigma, 10 * eta
    if factor is None:  # the last bisection step fell below lambda_max
        factor = band.cholesky(hi, upper=True)
    return _Inverse(band, factor)


def _lambda_min_shift_invert(a: SparseSymmetric, inverse, tol, v0):
    """Eigenvalue nearest zero by shift-invert Lanczos with inverse = A^-1.
    Returns (value, vector, converged)."""
    return _arpack_one(a.matrix, _arpack_tol(tol), v0, sigma=0.0, which="LM",
                       opinv=inverse, ncv=KRYLOV_VECTORS)


def _lambda_max_shift_invert(a: SparseSymmetric, inverse, tol, v0):
    """Largest eigenvalue of A by Lanczos on inverse = (sigma_1 I - A)^-1, sigma_1
    shown above lambda_max: (Rayleigh quotient on A, vector, converged)."""
    _, v, ok = _arpack_one(inverse, _arpack_tol(tol), v0, which="LA", ncv=KRYLOV_VECTORS)
    return _rayleigh(a, v), v, ok


def extreme_eigenvalues(
    a: SparseSymmetric,
    tol: float = DEFAULT_TOL,
    *,
    dense_cutoff: int = DENSE_CUTOFF,
    seed: int = 0,
) -> SpectralResult:
    """Smallest and largest eigenvalue of an SPD matrix with condition number.

    Order <= dense_cutoff takes both eigenpairs from a dense eigensolver.
    Above it, MAXITER caps the ARPACK iterations (restarts) of each of the
    three iterative solves: the filtered lambda_max start, whose Lanczos
    steps apply p(A), i.e. FILTER_DEGREE = 9 products with A, and the two
    shift-invert solves.  The start only supplies a shift and a vector, so
    its own convergence is not required.  A shift-invert solve that hits the
    cap is flagged converged=False; lambda_max is still the Rayleigh
    quotient of the returned vector, so it never exceeds the true lambda_max.
    """
    _check_tol(tol)
    # One factor at a time: each is released before the next is built.  The
    # factor at zero chooses the band order that the others share.
    inverse = _factor_at_zero(a)
    band = inverse.band
    if a.order <= dense_cutoff:
        del inverse
        method, matvecs, ok = "dense", 0, True
        vals, vecs = np.linalg.eigh(a.toarray())
        lam_min, lam_max = float(vals[0]), float(vals[-1])
        v_min, v_max = vecs[:, 0].copy(), vecs[:, -1].copy()
    else:
        method = "lanczos_shift_invert"
        v0 = np.random.default_rng(seed).standard_normal(a.order)
        lam_min, v_min, ok_min = _lambda_min_shift_invert(a, inverse, tol, v0)
        del inverse
        theta0, v_start, _, matvecs = _lambda_max_filtered(a, START_TOL, v0)
        gershgorin = float(abs(a.matrix).sum(axis=1).max())
        inverse = _shift_above_lambda_max(band, theta0, gershgorin)
        lam_max, v_max, ok_max = _lambda_max_shift_invert(a, inverse, tol, v_start)
        del inverse
        ok = ok_min and ok_max
    if lam_min <= 0:  # A passed the factor at zero, so it is numerically singular
        raise EigenSolveError(f"matrix is numerically singular (lambda_min = {lam_min:.6g})")
    lower = _shifted_bound(band, lam_min * (1 - tol * 1e-2), upper=False)
    upper = _shifted_bound(band, lam_max * (1 + tol * 1e-2), upper=True)
    certified = upper is not None and lower is not None

    res = max(_rel_residual(a, lam_min, v_min), _rel_residual(a, lam_max, v_max))
    return SpectralResult(
        lambda_min=lam_min,
        lambda_max=lam_max,
        kappa=lam_max / lam_min,
        method=method,
        residual=res,
        converged=ok and res <= tol and certified,
        lambda_min_lower=max(lower, 0.0) if lower is not None else float("nan"),
        lambda_max_upper=upper if upper is not None else float("nan"),
        certified=certified,
        matvecs=matvecs,
        factor_nnz=band.n * (band.kd + 1),
        solves=band.solves,
        factorizations=band.factorizations,
        v_min=v_min,
        v_max=v_max,
    )
