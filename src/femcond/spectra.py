"""Extreme eigenvalues and condition numbers of symmetric matrices.

An instance has two matrices: A and its Jacobi scaling S A S, S =
diag(A)^(-1/2), stored on A's own index arrays.  Both are solved on A's
band order, A's colouring and A's factor at zero (below); extreme_eigenvalues
solves one matrix by the same steps.  Every call starts with the band
Cholesky factor of A at zero, the SPD test, which fixes the band order of
every later factor; when A's pattern 2-colours, every band holds only half
of the rows (Red-black elimination, below).  Small systems (order <= 300,
and any order below 2) then take both eigenvectors from a dense symmetric
eigensolver.  Larger ones take them from
implicitly restarted Lanczos (ARPACK) in its shift-invert mode: each solve
applies (A - sigma I)^-1 from a band Cholesky factor, whose eigenvalues 1 /
(lambda - sigma) are largest in magnitude for the eigenvalue of A nearest
sigma.  On both paths a returned eigenvalue is the Rayleigh quotient of its
vector on A, and both end on the same two shifted Cholesky certificates
(below).  Every returned eigenvalue carries an explicitly computed relative
residual ||A v - lambda v|| / ||lambda v|| on A itself; results that miss
the requested tolerance or their certificate are flagged, not hidden.

lambda_max: shift-invert from above.  On anisotropic meshes the top of the
spectrum is tightly clustered (relative gaps near 1e-8), so Lanczos on A
needs thousands of products.  At a shift sigma above lambda_max the top
cluster spreads from relative gaps (lambda_1 - lambda_2) / lambda_1 to
(lambda_1 - lambda_2) / (sigma - lambda_2), and every shift used is shown
above lambda_max, so the eigenvalue nearest it is lambda_max.  The solve has
up to three steps.
  1. Start.  A vector whose Rayleigh quotient theta_0 <= lambda_max has the
     relative residual r_0 on A: the mirror start (below) when A's spectrum
     is symmetric about its diagonal, else the local start (below) when
     lambda_max's eigenvector lives on few rows, otherwise one solve to
     ARPACK tolerance 1e-2 at sigma_0 = g (1 + 1e-4), with g = max_i sum_j
     |a_ij| >= lambda_max the Gershgorin bound: sigma_0 I - A is strictly
     diagonally dominant with a positive diagonal, so its factorization
     completes (a failure raises).  When r_0 meets the tolerance and the
     lambda_max certificate (below) at theta_0 completes, that pair is the
     answer.
  2. Shift.  Otherwise sigma_1 = theta_0 (1 + eta), eta = max(1e-4, r_0 / 4),
     is accepted when the Cholesky factorization of sigma_1 I - A completes,
     which shows sigma_1 I - A positive definite to working precision, i.e.
     sigma_1 > lambda_max up to the rounding margin below.  A failed one
     instead shows lambda_max >= sigma_1; the next shift is then sigma_1 (1 +
     eta) with eta doubled, at most until the shift passes g (a failure
     there raises).  The first shift whose factorization completes is
     accepted.  The shift before it failed (or was theta_0), so after k
     failures the accepted one lies at most 2^k eta relative above
     lambda_max.  Bisecting back towards lambda_max would cost more
     factors, each about n kd^2 flops against 4 n kd for a solve, and on the
     stretched and sheared layers measured it saved no full-band solve.
  3. Solve.  One more solve at the accepted shift, from the vector of step
     1.  The vector only has to be good: a misconverged pair (an interior
     eigenvalue, or too few digits) is caught by the lambda_max certificate
     below, which does not depend on how the vector was found.

Mirror start.  Let A have a constant diagonal c, A = c I + N, and let the
graph of N's entries be connected and 2-coloured by the instance's
colouring (below), with signs s_i = +-1 that differ across every edge.
Then S N S = -N for S = diag(s), so S A
S = 2 c I - A: the spectrum is symmetric about c, lambda_max = 2 c -
lambda_min and s v_min is lambda_max's eigenvector, at the cost of one
product with A once lambda_min is solved.  Every Jacobi-scaled matrix has
c = 1 exactly, and on the Kuhn-split tensor grids of the committed sweeps
the graph is the 5- or 7-point stencil, which is bipartite; a uniform
mesh's A qualifies too.
The colouring drops the couplings at most MIRROR_NEGLIGIBLE = 1e-12 times
max |a_ij|, and the mirror a spread of the diagonal that small (relative to
its own matrix's max |a_ij|): a uniform 2D A's diagonal spreads by 4e-16
relative.  Such a dropped E moves the mirrored pair's residual by about
||E|| / lambda_max, far below any tolerance.  The vector is taken as the
start only when its Rayleigh quotient is 2 c - lambda_min and its residual
meets the tolerance, both to tol (v_min itself, with the signs lost, fails
the first); then the residual test and the lambda_max certificate of step
1 judge it like any other start, and a failed certificate sends it on to
steps 2 and 3.  On a sheared mesh there is no colouring and the next start
runs; the mirror costs no factorization, and a matrix whose diagonal varies
(A off a uniform mesh) is turned away without a product.

Local start.  On a stretched boundary layer the top of A's spectrum belongs
to the thin cells along the boundary, and lambda_max's eigenvector lives on
the rows near them: 2 604 of 10 000 on a 2D layer of aspect 5, 25 or 125.
The seeds are the rows whose Gershgorin disc reaches a lower bound l <=
lambda_max: a_ii + sum_{j != i} |a_ij| >= l.  On any other row that sum is
below l, so the eigen-equation (lambda_max - a_ii) v_i = sum_{j != i} a_ij
v_j has weights |a_ij| / (lambda_max - a_ii) that sum to less than 1, |v_i|
is below the largest |v_j| of its neighbours and the eigenvector decays
away from the seeds.  Any lower bound would do, and the larger it is the
fewer the seeds.  The first is l = max_i a_ii, a Rayleigh quotient, which
costs nothing: at aspects 25 and 125 it leaves 396 seeds and S as above.
When its S exceeds n / 2 (below), l = max(max_i a_ii, theta), with theta
the Rayleigh quotient of the top Ritz vector of a short Lanczos run on A
(ARPACK at tolerance 1e-2 from the start vector, 11-21 products, 2-4 ms at
order 10 000; the start vector's own when the run returns none, see ARPACK
below): at aspect 5, max_i a_ii = 7.25 against lambda_max = 8.852 makes
every row a seed, while theta = 8.83 leaves 392.  A constant
diagonal, as in every Jacobi-scaled matrix, makes every row a seed at
max_i a_ii and takes no Ritz value: on the Jacobi-scaled matrices of
sheared layers of order 1 331 to 10 000, the rows that reach lambda_max
itself, the fewest that any lower bound can seed, were 53-92 % of them.
S is the seeds grown by LOCAL_LAYERS = 6 layers of A's graph: at aspect 25
the padded vector's residual on A was 1.6e-7 with 4 layers, 7.1e-9 with 5
and 3.2e-10 with 6, against a tolerance of 1e-8.  When |S| <= n / 2
(LOCAL_SHARE), the start is the top eigenvector of A[S][:, S], padded with
zeros: from the dense eigensolver when |S| is at most the dense cutoff, and
otherwise from steps 1-3 on the submatrix in its own band, without a
certificate, whose final solve needs only ARPACK tolerance tol, since A's
own tests judge the result.  The padded vector's Rayleigh quotient on A is
its Rayleigh quotient on A[S][:, S], so at most lambda_max by Cauchy
interlacing, and everything after the start runs on A: its residual on A
and the certificate on A decide, and a start that misses because S is too
small only costs A's steps 2 and 3 from the padded vector.  So S changes
the speed, never what is certified.  At aspect 5 the padded vector's
residual is 4.6e-4, so A still shifts and solves, from a start close enough
that the first shift holds.  When the seeds alone exceed n / 2, S is
given up before any growing.  When S exceeds n / 2 at both bounds, before
or after growing (3D layers of aspect 25), the start is the Gershgorin one.

lambda_min: one solve at shift zero, with the Cholesky factor of A.
Shift-invert finds the eigenvalue nearest zero, which is the smallest one
only if A is positive definite; a Cholesky factorization completes only on a
matrix that is positive definite to working precision, so a failed one is
rejected as not SPD.  S A S is congruent to A, so the same factorization is
its SPD test, and its lambda_min certificate at sigma_lo > 0 (below) proves
the computed S A S positive definite again.  Its solve runs on A's factor
too, right after A's and before any other factor is built: (S A S)^-1 =
S^-1 A^-1 S^-1.  Both solves, and each matrix's own final lambda_max solve,
ask ARPACK for max(tol 1e-2, 1e-14) (`_arpack_tol`); the final solve on the
local start's submatrix asks for tol (Local start).

ARPACK.  Every Lanczos run, the shift-invert solves and the plain run
behind the local start's Ritz value, is one call of the same function
with one failure rule: a run that stops unconverged (at the MAXITER cap)
returns ARPACK's partial vector, or its own start vector when ARPACK has
none, flagged unconverged, and an ARPACK error raises EigenSolveError.  A
returned eigenvalue is always the Rayleigh quotient of the returned vector
on A, so an unconverged Ritz value is still a lower bound on lambda_max,
and an unconverged end is still judged by its residual and certificate.

One colouring per instance.  _colouring runs one breadth-first search of
A's off-diagonal pattern from row 0, on the pattern without the couplings
at most MIRROR_NEGLIGIBLE max |a_ij| (3D Kuhn tetrahedra leave some of
about 1e-17 max |a_ij|, where 2D leaves 0.0): s_i = +-1 is the parity of
row i's depth, and the pattern is 2-coloured when every kept coupling
joins rows of different parity.  It is None when that fails (a sheared
mesh's triangles) or when the search misses a row.  S A S has A's pattern,
so both matrices' mirror starts and bands read this one colouring; the
search takes under 1 ms at order 10 000.

One ordering per instance.  The factor at zero computes A's only ordering:
q = reverse_cuthill_mckee(A), on A's stored pattern, which makes A[q][:, q]
a band matrix.  S A S has A's stored pattern, so q, the colouring and
every index array below are its too: its band reads its own stored values
through them, and holds exactly what its own q and colouring would give.

Red-black elimination (Saad, Iterative Methods for Sparse Linear Systems,
Sec. 3.3).  Every factorization is of M = sigma I - A or A - sigma I, a
shift changing only the diagonal.  With a colouring, E is the colour class
without row 0 and K the other, and M = [[D_E + G, B], [B^T, M_KK]] with
D_E diagonal, B = M[E][:, K] and G the couplings inside E that the
colouring dropped (none in 1D and 2D); without a colouring E is empty.
The band holds the Schur complement C = M_KK - B^T D_E^-1 B, of order |K|,
ordered by q restricted to K: c_jl subtracts b_ij b_il / d_i over the
rows i of E next to both j and l, so on the tensor grids C couples rows
two grid steps apart and its half-bandwidth kd stays about A's (100
against 100 at 2D order 10 000, 256 against 257 at 3D order 4 096).  An
entry of D_E that is not positive shows M not positive definite (a
principal submatrix), and the factorization fails without a band;
otherwise the certificates below step back from C to M.  A solve of M x =
y takes one band solve between two products with B: x_K = C^-1 (y_K - B^T
D_E^-1 y_E), x_E = D_E^-1 (y_E - B x_K).  A pattern that does not
2-colour keeps all of its rows: C = M, ordered by q, exactly the band
without elimination.
Every factor of either matrix (at zero, the lambda_max start and shifts on
the iterative path, and the two certificates) is a LAPACK band Cholesky
factorization (dpbtrf) of its C.  The local start's submatrix is ordered
the same way once, into its own band of half-bandwidth kd_S without a
colouring, which all of its factors share.  Every factorization, of
either band, is built and counted by _Band.factor, which returns it as the
shift-invert operator or None when it fails; _Band.certify turns one into
a certified end of the spectrum (Certificates).  The products b_ij b_il
are formed once per band; each factorization divides them by D_E, sums
them with M_KK's entries straight into the (kd + 1) x |K| Fortran-order
storage, scaled by a power of 4 (below), factors it in place and releases
it before the next one is built, so one band is alive at a time.  Cost
model: a factor takes about |K| kd^2 flops, a solve 4 |K| kd and two
products with B, and both work on |K| (kd + 1) doubles.  At 2D order 10 000
a factor took 5.8 - 7.1 ms and a solve 0.5 ms, against 11 - 13 ms and 1.0
ms with all rows in the band (2-core VM, one BLAS thread).
On a d-dimensional grid kd is about the number of vertices in a
cross-section, n^((d-1)/d): at large 2D orders a fill-reducing sparse
factor needs less memory and fewer flops per solve.  The submatrix of a
boundary layer is a strip along the boundary, so kd_S is about the strip's
width in vertices: on a 2D layer of order 40 000 and kd 200, S holds 5 404
rows with kd_S 15, so a factor of S costs about 1/1 300 of one of A and a
solve 1/100.  A local start that is the answer leaves A with three
factors (at zero and the two certificates) and lambda_min's solves; one
that misses adds the shift step's factor, and the submatrix adds its own
start's and shift step's factors.  Solved with A, S A S builds no factor
at zero, and a mirror start that is the answer leaves it only its two
certificates and lambda_min's solves on A's factor, as S^-1 A^-1 S^-1.
The model holds only while the factor's entries are normal numbers;
arithmetic on subnormal ones is many times slower.  Every shift-invert
solve uses a 10-vector Krylov basis.

Exact scaling.  The entries of a band Cholesky factor decay away from the
diagonal, and below 2^-1022 they turn subnormal: unscaled, the factor of
sigma I - A on a 2D boundary layer of order 10 000 and kd 100 with D =
diag(1 + x, 1 + 10 y) held 7 748 of them and took three to four times as
long as the factor at zero.  So each band is factored as 4^e C, with e
chosen from |sigma| + max |a_ij| + max_j s_jj, s_jj the diagonal of B^T
D_E^-1 B, to put that bound in [2^898, 2^900): it bounds every entry of C,
as |c_jl| <= |m_jl| + (s_jj + s_ll) / 2 for D_E > 0, and without
elimination it is |sigma| + max |a_ij|.  C's terms are scaled before they
are summed.  A power of two scales exactly and commutes with every
rounding while no result leaves the normal range (Higham, Accuracy and
Stability of Numerical Algorithms, Ch. 2): wherever the factor of C is
normal, the computed factor of 4^e C is exactly 2^e times it, it completes
exactly when that of C does, and a solve on 4^e x returns the same bits as
the unscaled one, while the fill below 2^-1022 shrinks (to 299 subnormals
in the example).  ARPACK then runs on the inverse times 2^s, with 2^(s-1)
<= max |a_ij| < 2^s, both powers applied by one scaling of the right-hand
side: its convergence test tol max(eps^(2/3), |Ritz value|) turns absolute
when the Ritz values of (A - sigma I)^-1 are tiny, and without 2^s it
stops 4^k A, k >= 50, unconverged at a different lambda_max.  B, D_E and
C scale with A exactly, so the elimination's products and quotients do
too.  With both scalings the operator ARPACK sees is the same for 4^k A as
for A, bit for bit, so every eigenvalue and bound for 4^k A is 4^k times
that for A and the vectors and counts are the same.  S A S of 4^k A is
that of A, and so is its lambda_min operator on A's factor at zero: it is
2^s S^-1 A^-1 S^-1 with S^-1 = diag(A)^(1/2) applied before and after A's
operator, each step exact in 4^k, and 2^s from S A S's own max |a_ij|.

Certificates.  A small residual only says that (theta, v) is close to some
eigenpair, possibly an interior one.  Both ends are therefore enclosed by
shifted factorizations:
  lambda_max in [theta_max, sigma_hi + delta]: the factorization of
      sigma_hi I - A completes, sigma_hi = theta_max (1 + tol 1e-2);
  lambda_min in [sigma_lo - delta, theta_min]: the factorization of A -
      sigma_lo I completes, sigma_lo = theta_min (1 - tol 1e-2).
A factorization completes when D_E is positive and the Cholesky
factorization of C completes.  _Band.certify writes both shifts and adds
or subtracts delta.  The outer ends are proven by the factorizations, the
inner ends because theta_max and theta_min are Rayleigh quotients on A, on
both paths.  When sigma_lo - delta <= 0 the lower end is 0, which the
factor at zero certifies.

Rounding margin delta.  It has three terms: the band factor's delta_C,
the formation term phi of C and ||G||.  For a symmetric M of half-bandwidth
kd, the computed Cholesky factor R (M = R^T R) is the exact one of M + E with
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
m_jj.  Forming M rounds its diagonal by at most u max_j |m_jj|.  So delta_C
= g max_i sum_{|j - i| <= kd} m_jj + u max_j |m_jj|, with M the band's C and
its computed diagonal: a completed factorization proves C + E positive
definite with ||E||_2 <= delta_C.  The factorization actually computed is
that of 4^e C, so this argument proves 4^e (C + E) positive definite with
its margin 4^e delta_C; the margin is linear in the diagonal, and evaluated
on C's own diagonal it is delta_C itself.
Forming C.  Each product b_ij b_il / d_i carries three roundings (the
product, d_i = fl(sigma - a_ii), the quotient).  An entry c_jl, l != j,
sums the exact m_jl and at most k of them in turn, k the most neighbours
in E of any kept row, so it errs by at most gamma_(k+3) (|a_jl| + sum_i
|b_ij b_il| / d_i); c_jj = fl(fl(m_jj) - s_jj), with s_jj summed alone, by
at most u |m_jj| + gamma_(k+2) s_jj + u |c_jj|, whose last term is in
delta_C.  For the symmetric error ||.||_2 <= ||.||_inf, so phi = max_j (u
|m_jj| + gamma_(k+3) (sum_{l in K, l != j} |a_jl| + sum_i |b_ij| sum_l
|b_il| / d_i)) over the kept rows j next to E bounds the rest, and phi = 0
without elimination.  The computed C then differs from the exact C of M
(exact d_i, exact sigma) by at most phi + u max_j |c_jj|.
From C to M.  Let eps = delta_C + phi, so C + eps I is positive definite,
and let M' = M - blockdiag(G, 0).  D_E is positive definite, which the
computed d_i show exactly: fl(sigma - a_ii) > 0 exactly when sigma > a_ii.
For eps >= 0, (D_E + eps I)^-1 <= D_E^-1, so the Schur complement M_KK +
eps I - B^T (D_E + eps I)^-1 B of M' + eps I is at least C + eps I, and
M' + eps I is positive definite (Haynsworth inertia additivity).  With
||G||_2 <= max_i sum_j |g_ij| (taken over every coupling inside E),
delta = delta_C + phi + max_i sum_j |g_ij| gives lambda_min(M) > -delta.
Underflow is not modelled: the scaled band's entries lie below 2^900, and
its few remaining subnormal fill entries (299 of 10^6 in the example
above, none in most factors) each err by under 2^-1074, nothing beside the
scaled margin, which is at least u 4^e max_j |c_jj|.
Nor is the rounding in evaluating delta itself (relative, below (2 kd + 1)
u), nor phi's use of the computed d_i for the exact ones (relative u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import breadth_first_order, reverse_cuthill_mckee

from .assembly import SparseSymmetric, jacobi_scale

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
# ARPACK iteration (restart) cap of each iterative solve; None leaves
# ARPACK's default.
MAXITER = None
# The lambda_max start's submatrix: the rows whose Gershgorin disc reaches
# max_i a_ii, or a Ritz value when those are too many, grown by LOCAL_LAYERS
# layers of A's graph, and taken only while they are at most LOCAL_SHARE of
# A's rows.
LOCAL_LAYERS = 6
LOCAL_SHARE = 0.5
# The mirror start drops the entries of A at most MIRROR_NEGLIGIBLE max |a_ij|,
# on the diagonal's spread and off it, before it tests the structure.
MIRROR_NEGLIGIBLE = 1e-12
# Every shifted band is factored scaled by the power of 4 that puts a bound
# on its entries just below 2^BAND_TARGET, leaving 2^124 of headroom to the
# largest double for the scaled right-hand sides and their solves.
BAND_TARGET = 900


class EigenSolveError(RuntimeError):
    """Factorization failure or an internally inconsistent solve."""


@dataclass(frozen=True)
class SpectralResult:
    """Extreme eigenvalues of an SPD matrix with certificates.

    lambda_min and lambda_max are the Rayleigh quotients of v_min and v_max
    on A, on either path.  residual is the larger of the two achieved
    relative residuals.  [lambda_min_lower, lambda_min] and [lambda_max,
    lambda_max_upper] enclose the extreme eigenvalues; certified is True
    when both outer ends are proven by their shifted factorizations, on
    either path.  converged is False when the iteration cap was reached
    first, a residual misses the tolerance or a certificate fails (the
    values are then best estimates).  factor_nnz is the size |K| (kd + 1)
    of A's band, which every factor of A fills: its Schur complement on the
    kept rows K, about half of A's rows when A's pattern 2-colours and all
    of them when it does not; start names lambda_max's start (module
    docstring): "dense" on the dense path, else "mirror", "local" or
    "gershgorin"; local_rows is the order |S| of the submatrix that the
    local start came from, 0 for any other start.  factorizations counts
    the band Cholesky factorizations (3 on the dense path and after a mirror
    or local start that is the answer: at zero and the two certificates;
    the Gershgorin start adds its own and a shift's) and solves the
    applications of a factor's inverse in the shift-invert solves (0 on the
    dense path), both on A's band, to which the local start adds its
    submatrix's (its start's and a shift's factors, no certificate).  Each
    factorization is counted once, on the result it was built for: S A S
    solved with A counts no factor at zero, whose solves on A's factor are
    its own, so its factorizations and A's add up to those of the instance.
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
    local_rows: int = 0
    start: str = "dense"  # "dense", "mirror", "local" or "gershgorin"
    v_min: np.ndarray | None = None
    v_max: np.ndarray | None = None


def _check_tol(tol: float) -> None:
    if not (0 < tol <= 1e-3):
        raise ValueError(f"tol must be in (0, 1e-3], got {tol}")


def _arpack_tol(tol: float) -> float:
    # Ask ARPACK for extra accuracy; the explicit residual check on A is what
    # decides convergence against the caller's tolerance.
    return max(tol * 1e-2, 1e-14)


def _rayleigh(a: SparseSymmetric, v: np.ndarray) -> tuple[float, float]:
    """(lam, ||A v - lam v|| / ||lam v||) from one product with A, lam the
    Rayleigh quotient of v on A."""
    av = a.matrix @ v
    lam = float(v @ av / (v @ v))
    return lam, float(np.linalg.norm(av - lam * v) / (abs(lam) * np.linalg.norm(v)))


class _Pattern:
    """The elimination of one colour class E from A in one reverse
    Cuthill-McKee order q (see the module docstring), from A's stored
    pattern and colouring alone, so that every matrix on A's index arrays
    reads it: the kept rows K in the order q restricted to K, the positions
    among A's stored entries of M_KK's entries below the diagonal, of B =
    A[E][:, K] (by E's row, columns by band position) and of the couplings
    inside E, which C leaves out; each pair of B's entries in one row, the
    entry of C that its product enters, and C's half-bandwidth kd.  signs,
    the colouring of A's pattern, picks E, the class without row 0; without
    it E is empty and C is A[q][:, q]."""

    def __init__(self, matrix, signs: np.ndarray | None):
        n = matrix.shape[0]
        self.q = reverse_cuthill_mckee(matrix, symmetric_mode=True)
        elim = np.zeros(n, dtype=bool) if signs is None else signs < 0
        self.n, self.kept, self.elim = n, self.q[~elim[self.q]], np.flatnonzero(elim)
        n_kept = len(self.kept)
        pos = np.empty(n, dtype=np.intp)  # band position of each kept row
        pos[self.kept] = np.arange(n_kept)
        stored = np.diff(matrix.indptr)
        row, col = np.repeat(np.arange(n), stored), matrix.indices.astype(np.intp)
        row_e, col_e, off_diagonal = np.repeat(elim, stored), elim[col], row != col
        self.kk_pos = np.flatnonzero(~row_e & ~col_e & off_diagonal)
        self.kk_rows, kk_cols = pos[row[self.kk_pos]], pos[col[self.kk_pos]]
        lower = np.flatnonzero(self.kk_rows > kk_cols)
        self.off_pos, off_row, off_col = self.kk_pos[lower], self.kk_rows[lower], kk_cols[lower]
        self.b_pos = np.flatnonzero(row_e & ~col_e)
        self.b_col = pos[col[self.b_pos]]
        per_row = np.bincount(row[self.b_pos], minlength=n)[self.elim]
        self.b_indptr = np.concatenate(([0], np.cumsum(per_row)))
        self.b_rows = np.repeat(np.arange(len(self.elim)), per_row)
        self.e_pos = np.flatnonzero(row_e & col_e & off_diagonal)
        self.e_rows = row[self.e_pos]
        # B's entries p and p + k share a row for k below the longest row
        firsts = [np.flatnonzero(self.b_rows[k:] == self.b_rows[:-k])
                  for k in range(1, int(per_row.max(initial=0)))]
        self.pair_a = np.concatenate([np.zeros(0, dtype=np.intp), *firsts])
        self.pair_b = np.concatenate([np.zeros(0, dtype=np.intp),
                                      *(p + k for k, p in enumerate(firsts, 1))])
        self.pair_rows = self.b_rows[self.pair_a]
        pair_j = np.maximum(self.b_col[self.pair_a], self.b_col[self.pair_b])
        pair_l = np.minimum(self.b_col[self.pair_a], self.b_col[self.pair_b])
        self.kd = int(max((off_row - off_col).max(initial=0), (pair_j - pair_l).max(initial=0)))
        w = self.kd + 1
        # Fortran-order positions in the (kd + 1) x |K| band, in the order
        # in which _Band.form sums its terms: M_KK's entries first
        self.targets = np.concatenate((off_col * w + off_row - off_col, np.arange(n_kept) * w,
                                       pair_l * w + pair_j - pair_l))
        # the kept rows with a neighbour in E, and the most terms that any
        # entry of C subtracts
        touched = np.bincount(self.b_col, minlength=n_kept)
        self.touched, self.terms = touched > 0, int(touched.max(initial=0))


class _Band:
    """The matrix A on a _Pattern: C = M_KK - B^T D_E^-1 B for M = sigma I -
    A or A - sigma I (see the module docstring), with the products b_ij b_il
    that C's entries subtract precomputed, and amax = max |a_ij|.  signs is
    the colouring of A's pattern, or None.  Every factorization of the
    matrix is built here, by factor (a shift-invert operator) or certify (a
    certified end of the spectrum); counts them and the solves applied with
    them.  Given like, the band of a matrix on the same index arrays (A's,
    for S A S from jacobi_scale), it reads its own values through like's
    pattern: the band that its own ordering and colouring would give."""

    def __init__(self, matrix, signs: np.ndarray | None = None, like: _Band | None = None):
        p = self.pattern = _Pattern(matrix, signs) if like is None else like.pattern
        self.n, self.kd, self.kept = p.n, p.kd, p.kept
        data = matrix.data
        self.full_diagonal = matrix.diagonal()
        self.diagonal = self.full_diagonal[p.kept]
        self.elim_diagonal = self.full_diagonal[p.elim]
        self.amax = float(np.abs(data).max(initial=0.0))
        self.off, self.kk = data[p.off_pos], data[p.kk_pos]
        b = data[p.b_pos]
        self.b = sp.csr_matrix((b, p.b_col, p.b_indptr), shape=(len(p.elim), len(p.kept)))
        self.bt = self.b.T.tocsr()
        self.squares, self.products = b * b, b[p.pair_a] * b[p.pair_b]
        # ||G||_inf of the couplings G inside E
        self.dropped = float(np.bincount(p.e_rows, np.abs(data[p.e_pos]), minlength=1).max())
        self.factorizations = self.solves = 0

    def form(self, sigma: float, upper: bool):
        """(4^e C, e, d_E) for M as in _shifted: C in lower band storage, in
        Fortran order so that dpbtrf factors it in place, scaled exactly by
        4^e (see the module docstring), and d_E the diagonal of M on E; None
        when an entry of d_E is not positive, so that M is not positive
        definite."""
        p = self.pattern
        d = _shifted(self.elim_diagonal, sigma, upper)
        if not np.all(d > 0):
            return None
        s_diag = np.bincount(p.b_col, self.squares / d[p.b_rows], minlength=len(p.kept))
        # 4^e (|sigma| + amax + max_j s_jj), a bound on every entry of C, in
        # [2^(BAND_TARGET - 2), 2^BAND_TARGET)
        bound = abs(sigma) + self.amax + float(s_diag.max(initial=0.0))
        e = (BAND_TARGET - math.frexp(bound)[1]) // 2
        terms = np.concatenate((-self.off if upper else self.off,
                                _shifted(self.diagonal, sigma, upper) - s_diag,
                                -self.products / d[p.pair_rows]))
        np.ldexp(terms, 2 * e, out=terms)
        ab = np.bincount(p.targets, terms, minlength=len(p.kept) * (p.kd + 1))
        return ab.reshape(len(p.kept), p.kd + 1).T, e, d

    def factor(self, sigma: float, upper: bool) -> _Inverse | None:
        """The operator _Inverse, 2^s (A - sigma I)^-1, on the lower band
        Cholesky factor of 4^e C from form, i.e. 2^e times that of C without
        its subnormal fill; None when d_E or the factorization fails, i.e. M
        is not positive definite to working precision."""
        self.factorizations += 1
        formed = self.form(sigma, upper)
        if formed is None:
            return None
        ab, e, d = formed
        c_diagonal = np.ldexp(ab[0], -2 * e)
        factor, info = dpbtrf(ab, lower=1, overwrite_ab=1)
        return _Inverse(self, factor, sigma, upper, e, d, c_diagonal) if info == 0 else None

    def formation(self, inverse: _Inverse) -> float:
        """phi >= ||C_computed - C||_2 of inverse's factorization, C from M
        and d_E in exact arithmetic (see the module docstring); 0 when no
        row of C subtracts a product."""
        p, u = self.pattern, np.finfo(float).eps / 2
        if not p.touched.any():
            return 0.0
        gamma = (p.terms + 3) * u / (1 - (p.terms + 3) * u)
        abs_b = np.abs(self.b.data)
        b_sums = np.bincount(p.b_rows, abs_b, minlength=len(p.elim)) / inverse.d
        rows = (u * np.abs(_shifted(self.diagonal, inverse.sigma, inverse.upper))
                + gamma * np.bincount(p.kk_rows, np.abs(self.kk), minlength=len(p.kept))
                + gamma * np.bincount(p.b_col, abs_b * b_sums[p.b_rows], minlength=len(p.kept)))
        return float(rows[p.touched].max())

    def margin(self, inverse: _Inverse) -> float:
        """delta of a completed factorization (see the module docstring):
        C's rounding margin, its formation term and ||G||_inf of the
        couplings G inside E."""
        return (_rounding_margin(self.kd, inverse.c_diagonal) + self.formation(inverse)
                + self.dropped)

    def certify(self, theta: float, tol: float, upper: bool) -> float | None:
        """Certified end of the spectrum from one shifted factorization (see
        the module docstring): the lambda_max certificate sigma + delta >=
        lambda_max at sigma = theta (1 + tol 1e-2) when upper, the lambda_min
        certificate sigma - delta <= lambda_min at sigma = theta (1 - tol
        1e-2) when not; None when the factorization fails.  The factor is
        released on return."""
        sigma = theta * (1 + tol * 1e-2 if upper else 1 - tol * 1e-2)
        inverse = self.factor(sigma, upper)
        if inverse is None:
            return None
        delta = self.margin(inverse)
        return sigma + delta if upper else sigma - delta


def _shifted(diagonal: np.ndarray, sigma: float, upper: bool) -> np.ndarray:
    """The diagonal of M = sigma I - A when upper and of M = A - sigma I when
    not, from A's diagonal."""
    return sigma - diagonal if upper else diagonal - sigma


def _rounding_margin(kd: int, m_diag: np.ndarray) -> float:
    """delta = g max_i sum_{|j - i| <= kd} m_jj + u max_j |m_jj| of a
    completed band Cholesky factorization of M with diagonal m_diag (see the
    module docstring)."""
    u = np.finfo(float).eps / 2
    w = kd + 2
    gamma = w * u / (1 - w * u)
    # Every window sum, and partial sums of the end windows, which are no
    # larger: a completed factorization has a positive diagonal.
    windows = np.convolve(m_diag, np.ones(2 * kd + 1))
    return gamma / (1 - gamma) * float(windows.max()) + u * float(np.abs(m_diag).max())


class _Inverse(spla.LinearOperator):
    """x -> 2^s (A - sigma I)^-1 x, with 2^(s - 1) <= amax < 2^s, from
    band.factor's factor of 4^e C, C the Schur complement of M on the kept
    rows (M = sigma I - A when upper, whose solve is negated, and M = A -
    sigma I when not), with d_E the diagonal of M on E: y_K = C^-1 (x_K -
    B^T D_E^-1 x_E), y_E = D_E^-1 (x_E - B y_K), with one band solve; counts
    its solves on counter, band by default.  One exact scaling of the band
    solve's right-hand side by 2^(2 e + s) applies both powers (see the
    module docstring).  c_diagonal is C's diagonal, for the margin;
    congruent gives S A S's inverse on the same factor, with scale =
    diag(A)^(1/2)."""

    def __init__(self, band: _Band, factor: np.ndarray, sigma: float, upper: bool, e: int,
                 d: np.ndarray, c_diagonal: np.ndarray | None = None,
                 counter: _Band | None = None, scale: np.ndarray | None = None):
        super().__init__(dtype=np.float64, shape=(band.n, band.n))
        self.band, self.factor, self.sigma, self.upper = band, factor, sigma, upper
        self.e, self.d, self.c_diagonal, self.scale = e, d, c_diagonal, scale
        self.pivots = -d if upper else d
        self.counter = counter or band
        self.s = math.frexp(self.counter.amax)[1]
        self.rhs_exponent = 2 * e + self.s

    def congruent(self, band: _Band) -> _Inverse:
        """x -> 2^s (S A S)^-1 x = 2^s S^-1 A^-1 S^-1 x, S = diag(A)^(-1/2),
        from this factor of A at zero, with s from band, S A S's band,
        which counts its solves.  Every step scales exactly with A, so the
        operator is the same for 4^k A as for A."""
        return _Inverse(self.band, self.factor, 0.0, False, self.e, self.d, counter=band,
                        scale=np.sqrt(self.band.full_diagonal))

    def _matvec(self, x):
        # (A - sigma I) y = x with A[E][:, E] - sigma I = diag(pivots) and
        # A[E][:, K] = B: its Schur complement on K is C, negated when
        # upper, so C y_K = -+(x_K - B^T x_E / pivots) and y_E = (x_E - B
        # y_K) / pivots.
        self.counter.solves += 1
        band, p = self.band, self.band.pattern
        x = x.ravel() if self.scale is None else self.scale * x.ravel()
        r = x[p.kept]
        if len(p.elim):
            x_e = x[p.elim]
            r = r - band.bt @ (x_e / self.pivots)
        z, _ = dpbtrs(self.factor, np.ldexp(-r if self.upper else r, self.rhs_exponent),
                      lower=1, overwrite_b=1)
        y = np.empty_like(x)
        y[p.kept] = z
        if len(p.elim):
            y[p.elim] = (np.ldexp(x_e, self.s) - band.b @ z) / self.pivots
        return y if self.scale is None else self.scale * y


def _inverse_above(band: _Band, sigma: float, gershgorin: float) -> _Inverse | None:
    """band.factor(sigma, upper=True), whose failure shows lambda_max >=
    sigma; a failure above the Gershgorin bound gershgorin >= lambda_max
    raises."""
    inverse = band.factor(sigma, upper=True)
    if inverse is None and sigma > gershgorin:
        raise EigenSolveError(
            f"the Cholesky factorization of sigma I - A fails at sigma = "
            f"{sigma:.6g}, above the Gershgorin bound {gershgorin:.6g} of lambda_max"
        )
    return inverse


def _shift_above_lambda_max(band: _Band, theta0: float, gap: float, gershgorin: float):
    """2^s (A - sigma I)^-1 from the first band Cholesky factorization of
    sigma I - A that completes (see the module docstring), sigma = theta0 (1
    + gap) and, after each failed one, sigma (1 + eta) with eta doubled from
    gap.  theta0 <= lambda_max is the Rayleigh quotient of the start, gap
    the first relative gap of the shift above it and gershgorin = max_i
    sum_j |a_ij|, above which a failure raises."""
    if not theta0 > 0:
        raise EigenSolveError(f"matrix is not SPD (Rayleigh quotient {theta0:.6g})")
    sigma, eta = theta0 * (1 + gap), gap
    while (inverse := _inverse_above(band, sigma, gershgorin)) is None:
        # sigma I - A is not positive definite: lambda_max >= sigma
        eta *= 2
        sigma *= 1 + eta
    return inverse


def _arpack(a: SparseSymmetric, inverse: _Inverse | None, arp_tol: float, v0):
    """An eigenpair of A by ARPACK at tolerance arp_tol from v0, capped at
    MAXITER iterations: the top one by plain Lanczos (which="LA") when
    inverse is None, else the one nearest the shift sigma of inverse = 2^s
    (A - sigma I)^-1 by its shift-invert mode.  Only ARPACK's vector is
    used, so the positive factor 2^s changes nothing but its convergence
    test.  Returns (Rayleigh quotient on A, its relative residual, vector,
    converged); a run that stops unconverged returns ARPACK's partial
    vector, or v0 when it has none, with converged False, and one that fails
    raises (see the module docstring)."""
    sigma, which = (None, "LA") if inverse is None else (inverse.sigma, "LM")
    try:
        v = spla.eigsh(a.matrix, k=1, sigma=sigma, which=which, OPinv=inverse, tol=arp_tol,
                       maxiter=MAXITER, v0=v0, ncv=KRYLOV_VECTORS)[1][:, 0]
        ok = True
    except spla.ArpackNoConvergence as exc:
        v, ok = (exc.eigenvectors[:, 0] if len(exc.eigenvalues) else v0), False
    except RuntimeError as exc:
        raise EigenSolveError(f"sparse eigensolve failed: {exc}") from exc
    return (*_rayleigh(a, v), v, ok)


def _gershgorin_start(a: SparseSymmetric, band: _Band, gershgorin: float, v0: np.ndarray):
    """The lambda_max start on A itself: one solve at ARPACK tolerance
    START_TOL from v0 at the shift gershgorin (1 + SHIFT_GAP), gershgorin =
    max_i sum_j |a_ij|, as (Rayleigh quotient on A, its residual, vector,
    converged)."""
    inverse = _inverse_above(band, gershgorin * (1 + SHIFT_GAP), gershgorin)
    return _arpack(a, inverse, START_TOL, v0)


def _solve_above(a: SparseSymmetric, band: _Band, start, gershgorin: float, arp_tol: float):
    """Steps 2 and 3 of lambda_max (see the module docstring): the solve at
    ARPACK tolerance arp_tol, from the vector of start = (Rayleigh quotient
    on A, its residual, vector, converged), at a shift shown above
    lambda_max.  Returns (Rayleigh quotient, residual, vector, converged)."""
    lam, res, v, _ = start
    inverse = _shift_above_lambda_max(band, lam, max(SHIFT_GAP, res / 4), gershgorin)
    return _arpack(a, inverse, arp_tol, v)


def _lambda_max(a: SparseSymmetric, band: _Band, gershgorin: float, tol: float,
                arp_tol: float, start):
    """Certified top eigenpair of A by shift-invert from above (see the
    module docstring), on band, with gershgorin = max_i sum_j |a_ij|: the
    start (Rayleigh quotient on A, its residual, vector, converged) when its
    residual meets tol and its lambda_max certificate completes, otherwise
    _solve_above from it, certified.  Returns (Rayleigh quotient, residual,
    vector, converged, certified upper end or None)."""
    upper = band.certify(start[0], tol, upper=True) if start[1] <= tol else None
    if upper is not None:
        return (*start, upper)
    top = _solve_above(a, band, start, gershgorin, arp_tol)
    return (*top, band.certify(top[0], tol, upper=True))


def _colouring(a: SparseSymmetric) -> np.ndarray | None:
    """The instance's one colouring (see the module docstring): s_i = +-1,
    the parity of each row's depth in one breadth-first search of A's
    off-diagonal pattern from row 0, once entries at most MIRROR_NEGLIGIBLE
    max |a_ij| are dropped; None unless the pattern is connected and
    2-coloured by s.  The search runs on the pattern, never on A's signed
    values; the pattern is symmetric, so a directed search finds its
    undirected tree."""
    m = a.matrix
    negligible = MIRROR_NEGLIGIBLE * float(np.abs(m.data).max(initial=0.0))
    rows = np.repeat(np.arange(a.order), np.diff(m.indptr))
    edges = (rows != m.indices) & (np.abs(m.data) > negligible)
    pattern = sp.csr_matrix((edges.astype(float), m.indices, m.indptr), shape=m.shape,
                            copy=True)
    pattern.eliminate_zeros()  # in place, on the copy of A's index arrays
    reached, parent = breadth_first_order(pattern, 0, return_predecessors=True)
    if len(reached) < a.order:
        return None
    # Depth parity by pointer jumping: odd[i] is the parity of the tree path
    # from i up to parent[i], and each pass doubles that path, until every
    # path ends at the root.
    parent[0] = 0
    odd = parent != np.arange(a.order)
    while parent.any():
        odd ^= odd.take(parent)
        parent = parent.take(parent)
    signs = np.where(odd, -1.0, 1.0)
    # 2-coloured when every neighbour of every row has the other sign
    if np.any(signs * (pattern @ signs) != -np.diff(pattern.indptr)):
        return None
    return signs


def _mirror_start(a: SparseSymmetric, signs: np.ndarray | None, minimum, tol: float):
    """The lambda_max start s v_min (see the module docstring) as (Rayleigh
    quotient on A, its residual, vector, converged), from the colouring
    signs of A's pattern and minimum, the same of lambda_min's solve; None
    without a colouring, when A's diagonal spreads by more than
    MIRROR_NEGLIGIBLE max |a_ij|, or when the Rayleigh quotient misses the
    mirrored 2 c - lambda_min (c the middle of the diagonal) or the residual
    misses tol."""
    diag = a.diagonal
    if signs is None or diag.max() - diag.min() > MIRROR_NEGLIGIBLE * float(
            np.abs(a.matrix.data).max(initial=0.0)):
        return None
    c = 0.5 * (diag.max() + diag.min())
    lam_min, _, v_min, ok = minimum
    v = signs * v_min
    lam, res = _rayleigh(a, v)
    mirrored = 2 * c - lam_min
    if not (res <= tol and abs(lam - mirrored) <= tol * mirrored):
        return None
    return lam, res, v, ok


def _local_rows(a: SparseSymmetric, abs_a, row_sums: np.ndarray,
                theta: float) -> np.ndarray | None:
    """The rows S of the lambda_max start's submatrix (see the module
    docstring), from abs_a = |A|, its row sums and a lower bound theta on
    lambda_max: those whose Gershgorin disc reaches max(max_i a_ii, theta),
    grown by LOCAL_LAYERS layers of A's graph; None as soon as they exceed
    LOCAL_SHARE of A's rows."""
    limit = LOCAL_SHARE * a.order
    rows = row_sums >= max(a.diagonal.max(), theta)
    for _ in range(LOCAL_LAYERS):
        if np.count_nonzero(rows) > limit:
            return None
        rows = abs_a @ rows > 0
    return np.flatnonzero(rows) if np.count_nonzero(rows) <= limit else None


def _dense(order: int, dense_cutoff: int) -> bool:
    return order <= dense_cutoff or order < 2  # ARPACK needs k = 1 < order


def _local_start(a: SparseSymmetric, band: _Band, rows: np.ndarray, tol: float,
                 dense_cutoff: int, v0: np.ndarray):
    """(Rayleigh quotient on A, its residual, vector, converged) of the top
    eigenvector of A[rows][:, rows] padded with zeros, from the dense
    eigensolver or from the uncertified lambda_max solve on the submatrix's
    own band, whose factorizations and solves are added to band, A's."""
    sub = SparseSymmetric(a.matrix[rows][:, rows])
    ok = True
    if _dense(sub.order, dense_cutoff):
        v_sub = np.linalg.eigh(sub.toarray())[1][:, -1]
    else:
        sub_band = _Band(sub.matrix)
        gershgorin = float(abs(sub.matrix).sum(axis=1).max())
        start = _gershgorin_start(sub, sub_band, gershgorin, v0[rows])
        if start[1] > tol:
            start = _solve_above(sub, sub_band, start, gershgorin, tol)
        _, _, v_sub, ok = start
        band.factorizations += sub_band.factorizations
        band.solves += sub_band.solves
    v = np.zeros(a.order)
    v[rows] = v_sub
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
    eigensolver.  Above it, shift-invert solves run (see the module
    docstring): lambda_min at zero, the lambda_max start (v_min with its
    signs flipped on one colour when A's spectrum mirrors about its constant
    diagonal, on the submatrix where lambda_max's eigenvector lives, which
    takes the same dense or shift-invert path by its own order, or on A at
    the Gershgorin shift) and, unless the start is already certified to tol
    on A, lambda_max at a shift shown above it.  MAXITER caps the ARPACK
    iterations (restarts) of each, and of the Lanczos run that seeds the
    local start.  A start that is not the answer only supplies a shift and a
    vector, so its own convergence is then not required.  A reported solve
    that stops unconverged returns ARPACK's partial vector, or its start
    vector when ARPACK has none, and is flagged converged=False; an ARPACK
    error raises EigenSolveError.  On either path, and
    converged or not, each eigenvalue is the Rayleigh quotient of its
    returned vector on A, so lambda_max never exceeds the true lambda_max
    and lambda_min never falls below the true lambda_min.
    """
    return _solve([a], tol, dense_cutoff, seed)[0]


def _spectra(a: SparseSymmetric, tol: float = DEFAULT_TOL, *, dense_cutoff: int = DENSE_CUTOFF,
             seed: int = 0) -> tuple[SpectralResult, SpectralResult]:
    """(extreme_eigenvalues of A, of S A S = jacobi_scale(A)) on one band
    order and one factor at zero, A's (see the module docstring).  S A S's
    result is extreme_eigenvalues' on it but for its lambda_min solve, which
    runs on A's factor, and its factorizations, one fewer."""
    return tuple(_solve([a, jacobi_scale(a)], tol, dense_cutoff, seed))


def _solve(matrices: list[SparseSymmetric], tol: float, dense_cutoff: int,
           seed: int) -> list[SpectralResult]:
    """The results of matrices = [A] or [A, S A S], S A S on A's index
    arrays: A's colouring, A's factor at zero, the SPD test of both by
    congruence, and on the iterative path the lambda_min solves of both on
    it, then the rest of each in turn."""
    _check_tol(tol)
    # One factor at a time: each is released before the next is built.  The
    # factor at zero chooses the band order, and the colouring the rows,
    # that every other factor shares.
    signs = _colouring(matrices[0])
    band = _Band(matrices[0].matrix, signs)
    inverse = band.factor(0.0, upper=False)
    if inverse is None:
        raise EigenSolveError("matrix is not SPD (its Cholesky factorization failed)")
    bands = [band, *(_Band(m.matrix, like=band) for m in matrices[1:])]
    minima, v0 = [None] * len(matrices), None
    if not _dense(band.n, dense_cutoff):
        v0 = np.random.default_rng(seed).standard_normal(band.n)
        minima = [_arpack(m, inv, _arpack_tol(tol), v0) for m, inv in
                  zip(matrices, [inverse, *(inverse.congruent(b) for b in bands[1:])])]
    del inverse  # release the factor at zero before the next is built
    return [_complete(m, band, minimum, tol, dense_cutoff, v0, signs)
            for m, band, minimum in zip(matrices, bands, minima)]


def _complete(a: SparseSymmetric, band: _Band, minimum, tol: float, dense_cutoff: int,
              v0: np.ndarray | None, signs: np.ndarray | None) -> SpectralResult:
    """A's result from its band and its lambda_min solve minimum =
    (Rayleigh quotient, residual, vector, converged) on the iterative path,
    or both eigenpairs from the dense eigensolver when minimum is None."""
    local_rows = 0
    if minimum is None:
        method, start, ok = "dense", "dense", True
        vecs = np.linalg.eigh(a.toarray())[1]
        v_min, v_max = vecs[:, 0].copy(), vecs[:, -1].copy()
        lam_min, res_min = _rayleigh(a, v_min)
        lam_max, res_max = _rayleigh(a, v_max)
        upper = band.certify(lam_max, tol, upper=True)
    else:
        method = "lanczos_shift_invert"
        lam_min, res_min, v_min, ok_min = minimum
        abs_a = abs(a.matrix)
        row_sums = np.asarray(abs_a.sum(axis=1)).ravel()
        gershgorin = float(row_sums.max())
        start, pair = "mirror", _mirror_start(a, signs, minimum, tol)
        if pair is None:
            # seeds at max a_ii, then at a Ritz value unless the diagonal is
            # constant (see the module docstring)
            rows = _local_rows(a, abs_a, row_sums, -math.inf)
            if rows is None and a.diagonal.min() < a.diagonal.max():
                rows = _local_rows(a, abs_a, row_sums, _arpack(a, None, START_TOL, v0)[0])
            if rows is not None:
                start, local_rows = "local", len(rows)
                pair = _local_start(a, band, rows, tol, dense_cutoff, v0)
            else:
                start, pair = "gershgorin", _gershgorin_start(a, band, gershgorin, v0)
        del abs_a
        lam_max, res_max, v_max, ok_max, upper = _lambda_max(
            a, band, gershgorin, tol, _arpack_tol(tol), pair)
        ok = ok_min and ok_max
    if lam_min <= 0:  # the factor at zero completed, so it is numerically singular
        raise EigenSolveError(f"matrix is numerically singular (lambda_min = {lam_min:.6g})")
    lower = band.certify(lam_min, tol, upper=False)
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
        factor_nnz=len(band.kept) * (band.kd + 1),
        solves=band.solves,
        factorizations=band.factorizations,
        local_rows=local_rows,
        start=start,
        v_min=v_min,
        v_max=v_max,
    )
