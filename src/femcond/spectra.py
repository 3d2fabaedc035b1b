"""Extreme eigenvalues and condition numbers of symmetric matrices.

Every call starts with the band Cholesky factor of A at zero, the SPD test,
which fixes the band order of every later factor.  Small systems (order <=
300, and any order below 2) then take both eigenpairs from a dense symmetric
eigensolver.  Larger ones take them from implicitly restarted Lanczos
(ARPACK) in its shift-invert mode: each solve applies (A - sigma I)^-1 from a
band Cholesky factor, whose eigenvalues 1 / (lambda - sigma) are largest in
magnitude for the eigenvalue of A nearest sigma, and reports the Rayleigh
quotient of its vector on A.  Both paths end on the same two shifted
Cholesky certificates (below).  Every returned eigenvalue carries an
explicitly computed relative residual ||A v - lambda v|| / ||lambda v|| on A
itself; results that miss the requested tolerance or their certificate are
flagged, not hidden.

lambda_max: shift-invert from above.  On anisotropic meshes the top of the
spectrum is tightly clustered (relative gaps near 1e-8), so Lanczos on A
needs thousands of products.  At a shift sigma above lambda_max the top
cluster spreads from relative gaps (lambda_1 - lambda_2) / lambda_1 to
(lambda_1 - lambda_2) / (sigma - lambda_2), and every shift used is shown
above lambda_max, so the eigenvalue nearest it is lambda_max.  The solve has
up to three steps.
  1. Start.  sigma_0 = g (1 + 1e-4), with g = max_i sum_j |a_ij| >=
     lambda_max the Gershgorin bound: sigma_0 I - A is strictly diagonally
     dominant with a positive diagonal, so its factorization completes (a
     failure raises).  One solve at sigma_0 to ARPACK tolerance 1e-2 gives a
     vector whose Rayleigh quotient theta_0 <= lambda_max has the relative
     residual r_0 on A.  When r_0 meets the tolerance and the lambda_max
     certificate (below) at theta_0 completes, that pair is the answer.
  2. Shift.  Otherwise sigma_1 = theta_0 (1 + eta), eta = max(1e-4, r_0 / 4),
     is accepted when the Cholesky factorization of sigma_1 I - A completes,
     which shows sigma_1 I - A positive definite to working precision, i.e.
     sigma_1 > lambda_max up to the rounding margin below.  A failed one
     instead shows lambda_max >= sigma_1; the next shift is then sigma_1 (1 +
     eta) with eta doubled, at most until the shift passes g (a failure
     there raises).  A shift that had to grow is brought back by geometric
     bisection between the largest shift shown below lambda_max and the
     smallest shown above it, until they are within the first eta relative.
  3. Solve.  One more solve at sigma_1, from the vector of step 1.  The
     vector only has to be good: a misconverged pair (an interior
     eigenvalue, or too few digits) is caught by the lambda_max certificate
     below, which does not depend on how the vector was found.

lambda_min: one solve at shift zero, with the Cholesky factor of A.
Shift-invert finds the eigenvalue nearest zero, which is the smallest one
only if A is positive definite; a Cholesky factorization completes only on a
matrix that is positive definite to working precision, so a failed one is
rejected as not SPD.

One ordering per matrix.  The factor at zero computes the only ordering of
a call: q = reverse_cuthill_mckee(A), on A's stored pattern, which makes
A[q][:, q] a band matrix of half-bandwidth kd = max |i - j| over its stored
entries.  Every factor of a call (at zero, the lambda_max start and shifts
on the iterative path, and the two certificates) is a LAPACK band Cholesky
factorization (dpbtrf) of A[q][:, q] shifted, in that band: a shift changes
only the diagonal.  Each band is built in Fortran order from the entries of
the lower triangle of A[q][:, q], factored in place and released before the
next one is built, so one (kd + 1) x n array is alive at a time.  Cost
model: a factor takes about n kd^2 flops, a solve 4 n kd, and both work on
n (kd + 1) doubles.  On a d-dimensional grid kd is about the number of
vertices in a cross-section, n^((d-1)/d): at large 2D orders a
fill-reducing sparse factor needs less memory and fewer flops per solve.
Every shift-invert solve uses a 10-vector Krylov basis.

Certificates.  A small residual only says that (theta, v) is close to some
eigenpair, possibly an interior one.  Both ends are therefore enclosed by
shifted factorizations:
  lambda_max in [theta_max, sigma_hi + delta]: the Cholesky factorization
      of sigma_hi I - A completes, sigma_hi = theta_max (1 + tol 1e-2);
  lambda_min in [sigma_lo - delta, theta_min]: the Cholesky factorization
      of A - sigma_lo I completes, sigma_lo = theta_min (1 - tol 1e-2).
The outer ends are proven by the factorizations.  On the iterative path
the inner ends hold because theta_max and theta_min are Rayleigh quotients
on A; on the dense path they are the eigensolver's extreme eigenvalues,
exact for a matrix within a backward error of order u ||A|| of A.  On
both paths, when sigma_lo - delta <= 0 the lower end is 0, which the factor
at zero certifies.

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
# ARPACK tolerance of the lambda_max start, the relative gap of its shift
# above the Gershgorin bound and the least first gap eta of the lambda_max
# shift above the start's Rayleigh quotient, and the Krylov basis size of
# every shift-invert solve.
START_TOL = 1e-2
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

    On the iterative path lambda_min and lambda_max are Rayleigh quotients
    on A, on the dense path the dense eigensolver's values.  residual is the
    larger of the two achieved relative residuals.  [lambda_min_lower,
    lambda_min] and [lambda_max, lambda_max_upper] enclose the extreme
    eigenvalues; certified is True when both outer ends are proven by their
    shifted factorizations, on either path.  converged is False when the
    iteration cap was reached first, a residual misses the tolerance or a
    certificate fails (the values are then best estimates).  factor_nnz is
    the size n (kd + 1) of the band that every factor of the call fills,
    factorizations the number of band Cholesky factorizations (3 on the
    dense path: at zero and the two certificates) and solves the
    applications of a factor's inverse in the shift-invert solves (0 on the
    dense path).
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
    factor_nnz: int = 0
    solves: int = 0
    factorizations: int = 0
    v_min: np.ndarray | None = None
    v_max: np.ndarray | None = None


def _check_tol(tol: float) -> None:
    if not (0 < tol <= 1e-3):
        raise ValueError(f"tol must be in (0, 1e-3], got {tol}")


def _arpack_tol(tol: float) -> float:
    # Ask ARPACK for extra accuracy; the explicit residual check on A is what
    # decides convergence against the caller's tolerance.
    return max(tol * 1e-2, 1e-14)


def _rayleigh(a: SparseSymmetric, v: np.ndarray,
              lam: float | None = None) -> tuple[float, float]:
    """(lam, ||A v - lam v|| / ||lam v||) from one product with A; lam
    defaults to the Rayleigh quotient of v on A."""
    av = a.matrix @ v
    if lam is None:
        lam = float(v @ av / (v @ v))
    return lam, float(np.linalg.norm(av - lam * v) / (abs(lam) * np.linalg.norm(v)))


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
    """x -> (A - sigma I)^-1 x in A's order, from the band Cholesky factor of
    M[q][:, q] (q the band's order), with M = sigma I - A when upper, whose
    solve is negated, and M = A - sigma I when not; counts its solves on
    band."""

    def __init__(self, band: _Band, factor: np.ndarray, sigma: float, upper: bool):
        super().__init__(dtype=np.float64, shape=(band.n, band.n))
        self.band, self.factor, self.sigma, self.upper = band, factor, sigma, upper

    def _matvec(self, x):
        self.band.solves += 1
        q = self.band.q
        z, _ = dpbtrs(self.factor, x[q], lower=1, overwrite_b=1)
        y = np.empty_like(z)
        y[q] = -z if self.upper else z
        return y


def _factor_at_zero(a: SparseSymmetric) -> _Inverse:
    """A^-1 for shift-invert at zero, from the band Cholesky factor of A in
    its reverse Cuthill-McKee order; a failed factorization is rejected as
    not SPD."""
    band = _Band(a.matrix)
    factor = band.cholesky(0.0, upper=False)
    if factor is None:
        raise EigenSolveError("matrix is not SPD (its Cholesky factorization failed)")
    return _Inverse(band, factor, 0.0, upper=False)


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


def _inverse_above(band: _Band, sigma: float, gershgorin: float) -> _Inverse | None:
    """(A - sigma I)^-1 from the band Cholesky factor of sigma I - A, or None
    when that factorization fails, which shows lambda_max >= sigma; a
    failure above the Gershgorin bound gershgorin >= lambda_max raises."""
    factor = band.cholesky(sigma, upper=True)
    if factor is not None:
        return _Inverse(band, factor, sigma, upper=True)
    if sigma > gershgorin:
        raise EigenSolveError(
            f"the Cholesky factorization of sigma I - A fails at sigma = "
            f"{sigma:.6g}, above the Gershgorin bound {gershgorin:.6g} of lambda_max"
        )
    return None


def _shift_above_lambda_max(band: _Band, theta0: float, gap: float, gershgorin: float):
    """(A - sigma_1 I)^-1 from a band Cholesky factorization of sigma_1 I - A
    that completes, with sigma_1 <= lo (1 + gap) for some lo <= lambda_max
    (see the module docstring).  theta0 <= lambda_max is the Rayleigh
    quotient of the start, gap the first relative gap of the shift above it
    and gershgorin = max_i sum_j |a_ij|."""
    if not theta0 > 0:
        raise EigenSolveError(f"matrix is not SPD (Rayleigh quotient {theta0:.6g})")
    lo, hi, eta = theta0, math.inf, gap
    inverse = None
    while hi > lo * (1 + gap):
        # Grow the shift above lo until one is shown above lambda_max, then
        # bisect [lo, hi] geometrically.
        sigma = lo * (1 + eta) if math.isinf(hi) else math.sqrt(lo * hi)
        inverse = None  # release the last factor before building the next
        inverse = _inverse_above(band, sigma, gershgorin)
        if inverse is not None:
            hi = sigma
        else:  # sigma I - A is not positive definite: lambda_max >= sigma
            lo, eta = sigma, 2 * eta
    # None when the last bisection step fell below lambda_max
    return inverse if inverse is not None else _inverse_above(band, hi, gershgorin)


def _shift_invert(a: SparseSymmetric, inverse: _Inverse, arp_tol: float, v0):
    """Eigenpair of A nearest the shift sigma of inverse = (A - sigma I)^-1,
    by ARPACK's shift-invert mode at ARPACK tolerance arp_tol from v0,
    capped at MAXITER iterations.  Returns (Rayleigh quotient on A, its
    relative residual, vector, converged)."""

    def eigsh(arp_tol):
        return spla.eigsh(a.matrix, k=1, sigma=inverse.sigma, OPinv=inverse, tol=arp_tol,
                          maxiter=MAXITER, v0=v0, ncv=KRYLOV_VECTORS)[1][:, 0]

    ok = True
    try:
        v = eigsh(arp_tol)
    except spla.ArpackNoConvergence as exc:
        ok = False
        if len(exc.eigenvalues):
            v = exc.eigenvectors[:, 0]
        else:  # no converged pair at all: salvage a crude estimate to report
            try:
                v = eigsh(0.1)
            except (spla.ArpackNoConvergence, RuntimeError):
                raise EigenSolveError(
                    f"eigensolver produced no estimate after {MAXITER} iterations"
                ) from exc
    except RuntimeError as exc:
        raise EigenSolveError(f"sparse eigensolve failed: {exc}") from exc
    return (*_rayleigh(a, v), v, ok)


def extreme_eigenvalues(
    a: SparseSymmetric,
    tol: float = DEFAULT_TOL,
    *,
    dense_cutoff: int = DENSE_CUTOFF,
    seed: int = 0,
) -> SpectralResult:
    """Smallest and largest eigenvalue of an SPD matrix with condition number.

    Order <= dense_cutoff, or below 2, takes both eigenpairs from a dense
    eigensolver.  Above it, up to three shift-invert solves run (see the
    module docstring): lambda_min at zero, the lambda_max start at the
    Gershgorin shift and, unless the start is already certified to tol,
    lambda_max at a shift shown above it.  MAXITER caps the ARPACK
    iterations (restarts) of each.  A start that is not the answer only
    supplies a shift and a vector, so its own convergence is then not
    required.  A reported solve that hits the cap is flagged
    converged=False; its eigenvalue is still the Rayleigh quotient of the
    returned vector on A, so lambda_max never exceeds the true lambda_max
    and lambda_min never falls below the true lambda_min.
    """
    _check_tol(tol)
    # One factor at a time: each is released before the next is built.  The
    # factor at zero chooses the band order that the others share.
    inverse = _factor_at_zero(a)
    band = inverse.band

    def certify_max(theta):
        return _shifted_bound(band, theta * (1 + tol * 1e-2), upper=True)

    if a.order <= dense_cutoff or a.order < 2:  # ARPACK needs k = 1 < order
        del inverse
        method, ok = "dense", True
        vals, vecs = np.linalg.eigh(a.toarray())
        v_min, v_max = vecs[:, 0].copy(), vecs[:, -1].copy()
        lam_min, res_min = _rayleigh(a, v_min, float(vals[0]))
        lam_max, res_max = _rayleigh(a, v_max, float(vals[-1]))
        upper = certify_max(lam_max)
    else:
        method = "lanczos_shift_invert"
        v0 = np.random.default_rng(seed).standard_normal(a.order)
        lam_min, res_min, v_min, ok_min = _shift_invert(a, inverse, _arpack_tol(tol), v0)
        gershgorin = float(abs(a.matrix).sum(axis=1).max())
        inverse = None  # release the factor at zero before the start's
        inverse = _inverse_above(band, gershgorin * (1 + SHIFT_GAP), gershgorin)
        lam_max, res_max, v_max, ok_max = _shift_invert(a, inverse, START_TOL, v0)
        inverse = None
        upper = certify_max(lam_max) if res_max <= tol else None
        if upper is None:  # the start is not the answer: shift, then solve
            inverse = _shift_above_lambda_max(
                band, lam_max, max(SHIFT_GAP, res_max / 4), gershgorin)
            lam_max, res_max, v_max, ok_max = _shift_invert(
                a, inverse, _arpack_tol(tol), v_max)
            del inverse
            upper = certify_max(lam_max)
        ok = ok_min and ok_max
    if lam_min <= 0:  # A passed the factor at zero, so it is numerically singular
        raise EigenSolveError(f"matrix is numerically singular (lambda_min = {lam_min:.6g})")
    lower = _shifted_bound(band, lam_min * (1 - tol * 1e-2), upper=False)
    certified = upper is not None and lower is not None

    res = max(res_min, res_max)
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
        factor_nnz=band.n * (band.kd + 1),
        solves=band.solves,
        factorizations=band.factorizations,
        v_min=v_min,
        v_max=v_max,
    )
