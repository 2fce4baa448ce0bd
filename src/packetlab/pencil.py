"""The squeezed-state condition as a matrix pencil.

Minimum-uncertainty (squeezed) states of a pair (A, B) with [A, B] = iC
solve (A - alpha)|psi> = i S (B - beta)|psi> with alpha = <A>, beta = <B>.
In a truncated basis that is the generalized eigenproblem

    (A - alpha) v = lambda (B - beta) v,

and the physical solutions are the eigenpairs whose eigenvalue is purely
imaginary, lambda = i S with S > 0: for such eigenvalues the Hermitian
quadratic forms force <A> = alpha and <B> = beta automatically.  The solver
therefore looks on the imaginary axis only, and works on the structure of
every pencil here, a diagonal A against a tridiagonal B (the cos/sin
stencils):

* The kernel.  The smallest singular pair (sigma, v) of the tridiagonal
  T(iS) = (A - alpha) - iS (B - beta) comes from inverse iteration on
  (T^H T)^{-1} with an LU factorization of T (LAPACK ?gttrf, then ?gttrs
  with T^H and with T); sigma = ||T v|| is a banded product.  The kernel
  runs on the imaginary axis only, and all the S values of one call
  iterate together: their tridiagonals are stacked into one
  block-diagonal tridiagonal with zero couplings, so one ?gttrf call
  factors every S and two ?gttrs calls per step serve every S, and each
  block gets the same LU, steps and result as a separate iteration would.
  The S values that converge leave the stack, which is factored again
  without them.  The arithmetic is a property of the pencil, not of S:
  when every band of B - beta is imaginary, T(iS) = (A - alpha) +
  S Im(B - beta) is real and runs in real arithmetic (dgttrf/dgttrs, real
  vectors).  That is the sine pencils at beta = 0, where T(iS) has -+S/2
  off the diagonal and A - alpha on it.  Every other pencil (beta != 0,
  the cosine pencils) runs in complex arithmetic (zgttrf/zgttrs).  Nothing
  on this path is d x d: the operators are stored as their bands, a real
  T(iS) is formed in ?gttrf's flat layout straight from S and Im(B - beta),
  and a step runs in place (?gttrs overwrites its right-hand side) with no
  gathers.  The local scale local = ||(A - alpha)v|| + S ||(B - beta)v||
  comes from the step's own T v, since S ||(B - beta)v|| =
  ||(A - alpha)v - T v||, and each pair carries the local of its returned
  vector next to its sigma.
* The imaginary-axis sweep.  For a grid of S values the kernel certifies
  (iS, v) as an eigenpair whenever its residual is at working precision,
  sigma <= SWEEP_RTOL * local, with the kernel's own local: the stopping
  rule and the certificate read one scale.  The scale is local to v and
  does not depend on the truncation M; a global scale such as
  max|diag(A - alpha)| = M - alpha for the number operator would let the
  certificate loosen as M grows.
* The axis roots.  Where T(iS) is real, det T(iS) is a real function of S,
  and its sign comes free with each grid point's LU:
  prod sign(U_ii) * (-1)^(row interchanges).  Two adjacent grid points that
  the sweep does not certify and whose signs differ bracket an isolated
  eigenvalue (Wilkinson, The Algebraic Eigenvalue Problem, ch. 5).  Illinois
  steps on sign * sigma / local, one single-shift inverse iteration each,
  refine it until sigma is at roundoff, and it is kept under the sweep's
  own certificate.  A certified point never ends a bracket: its determinant
  is at roundoff, so its sign is too.  A bracket that does not certify is a
  SingularPencilError, never a silent drop.  A complex pencil has no sign,
  and there the sweep runs alone.
* The absence bound.  A sweep shift at which no vector can certify is not
  iterated.  ?gttrs on the comparison factors of T(iS)'s LU bounds
  ||T^{-1}||_1 and ||T^{-1}||_inf (Higham, Accuracy and Stability of
  Numerical Algorithms, 2nd ed., ch. 8), which gives lb <= sigma_min, real
  for a complex T too.  Since local <= sigma + 2S ||B - beta||, nothing
  certifies once sigma_min > 2 SWEEP_RTOL S ||B - beta|| / (1 - SWEEP_RTOL),
  and a shift whose lb beats that by a stated roundoff margin is excluded.
  The first shift is bounded on its own LU of one block, and only when it
  is excluded is the stack factored to bound the others, so the integer
  points of the circle, where nothing is excluded, pay for one small LU.
  The shifts at a sign change of det T still iterate, so the sweep returns
  the same bits as when every shift iterates.

When alpha sits in the point spectrum of A, the truncated pencil has a
whole segment of nearly exact imaginary eigenvalues (the squeezing can be
dialed continuously), and the sweep certifies each grid value on it
directly and deterministically.  Away from the spectrum of A the smallest
singular value stays orders of magnitude above the tolerance, and on the
circle det T(iS) keeps its sign, so nothing certifies; that asymmetry is
the quantization of the mean value demonstrated by
:func:`quantization_scan`.

The bounded-below number/phase family differs.  Its exact squeezed states are
isolated Bessel packets c_m ~ I_{m-alpha}(S) at the roots of I_{-1-alpha}(S),
one branch in every interval (2k, 2k+1) of <N> and none at an integer, and the
determinant roots find them.  At integer <N> = n the full-line packet cut at
N = 0 leaves a boundary defect sigma that is independent of M and falls
super-exponentially with n: 2.7e-13 at n = 3 and S = 0.1, which the sweep
resolves and rejects (1.9 times the threshold), but 3.5e-17 at n = 4, below
double precision.  So n = 3 is the last integer whose defect can be resolved,
and integer <N> >= 4 still certify small-S families: no floating-point
certificate can tell them from exact states.

Every returned eigenvalue is exactly iS, so no test of the distance to the
imaginary axis is left: a pair is physical when S lies in S_WINDOW and its
eigenvector's tail mass is below TAIL_TOL.  Eigenvalue classification is
reported, never silently applied: every returned pair carries its residual,
the tail mass of its eigenvector and whether its inverse iteration converged.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    IncompatibleFamilyError,
    OutOfRangeError,
    SingularPencilError,
    WindowMismatchError,
)
from .operators import DIAGONAL_IDS, TRIDIAGONAL_IDS, OperatorId, OperatorMatrix, build
from .states import TAIL_TOL, AngularState, ModeWindow, tail_mass

# The physicality policy (how each value is used: solve_pencil).  It is fixed
# here rather than settable per call, so no flag can be reached by tuning a
# tolerance, and no artifact repeats it.  Its tail-mass bound TAIL_TOL lives
# in states, next to the tail-mass rule, and f_table shares it.
S_WINDOW = (0.1, 8.0)
SWEEP_RTOL = 1e-12
SWEEP_POINTS = 80

# Inverse iteration on T(iS) (sweep, eigenvector_at) and the refinement of
# an axis root both stop once ||T v|| is this many units of roundoff of the
# local scale ||(A - alpha)v|| + S ||(B - beta)v||, or after _MAX_STEPS
# steps.
_REFINE_ROUNDOFF = 32.0 * np.finfo(float).eps
_MAX_STEPS = 30
_START_SEED = 12345

# The sweep skips a shift whose lower bound on sigma_min beats the least
# sigma that can certify by this factor, plus this many units of ||T|| for
# the LU's backward error (:func:`_absence_limits`).
_ABSENCE_MARGIN = 100.0
_FACTOR_ROUNDOFF = 256.0 * np.finfo(float).eps

Bands = tuple[np.ndarray, np.ndarray, np.ndarray]  # (sub, main, super) diagonals


def _check_spectrum(A: OperatorMatrix, alpha: float) -> None:
    """OutOfRangeError unless alpha lies in [min a, max a] (to 1e-12) for
    the diagonal A: no state has <A> outside its truncated spectrum."""
    spec = A.data[0]
    if not (spec.min() - 1e-12 <= alpha <= spec.max() + 1e-12):
        raise OutOfRangeError(
            f"alpha={alpha} outside the truncated spectrum "
            f"[{spec.min()}, {spec.max()}]"
        )


@dataclass(frozen=True)
class PencilProblem:
    """(A - alpha) v = lambda (B - beta) v with diagonal A and tridiagonal B."""

    A: OperatorMatrix
    B: OperatorMatrix
    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        if self.A.window != self.B.window:
            raise WindowMismatchError("A and B live on different windows")
        if OperatorId(self.A.id) not in DIAGONAL_IDS:
            raise IncompatibleFamilyError(
                f"A must be a discrete-spectrum operator, got {self.A.id}"
            )
        if OperatorId(self.B.id) not in TRIDIAGONAL_IDS:
            raise IncompatibleFamilyError(
                f"B must be a bounded coordinate operator, got {self.B.id}"
            )
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError(f"alpha and beta must be finite, got {self.alpha}, {self.beta}")
        _check_spectrum(self.A, self.alpha)
        if abs(self.beta) >= 1.0:
            raise ValueError(
                f"|beta| must be < 1 (the coordinate spectrum is [-1, 1]), got {self.beta}"
            )

    @property
    def window(self) -> ModeWindow:
        return self.A.window

    def bands(self) -> tuple[np.ndarray, Bands]:
        """The real diagonal of A - alpha and the bands of B - beta."""
        sub, main, sup = self.B.data
        return self.A.data[0] - self.alpha, (sub, main - self.beta, sup)


def circle_problem(alpha: float, beta: float = 0.0, M: int = 64) -> PencilProblem:
    """A = angular momentum, B = sin(phi) on a symmetric window."""
    w = ModeWindow.symmetric(M)
    return PencilProblem(build(OperatorId.ANGULAR_MOMENTUM, w), build(OperatorId.SIN_PHI, w), alpha, beta)


def oscillator_problem(alpha: float, beta: float = 0.0, M: int = 64) -> PencilProblem:
    """A = number operator, B = one-sided phase sine on a bounded-below window."""
    w = ModeWindow.bounded_below(M)
    return PencilProblem(build(OperatorId.NUMBER, w), build(OperatorId.PHASE_SIN, w), alpha, beta)


def _check_scan(family: str, alphas, M: int) -> None:
    """Reject a scan grid: OutOfRangeError unless every |alpha| <= M/2, then
    the checks of :func:`_check_family`."""
    if np.any(np.abs(alphas) > M / 2):
        raise OutOfRangeError(f"scan grid must satisfy |alpha| <= M/2 = {M / 2}")
    _check_family(family, alphas)


def _check_family(family: str, alphas) -> None:
    if family not in ("circle", "oscillator"):
        raise ValueError(f"unknown family {family!r}; use 'circle' or 'oscillator'")
    if family == "oscillator" and np.any(np.asarray(alphas) < 0):
        raise OutOfRangeError("the number operator has no negative expectations")


def _family_problem(family: str, alpha: float, beta: float, M: int) -> PencilProblem:
    """The pencil of ``family`` ('circle' or 'oscillator') at <A> = alpha.

    Raises ValueError for an unknown family and OutOfRangeError for a
    negative number-operator expectation.
    """
    _check_family(family, alpha)
    make = circle_problem if family == "circle" else oscillator_problem
    return make(alpha, beta, M)


@dataclass(frozen=True)
class PencilSolution:
    """Certified eigenpairs on the imaginary axis, sorted by S = Im lambda."""

    problem: PencilProblem
    eigenvalues: np.ndarray        # i S, sorted by S
    vectors: np.ndarray            # unit columns matching eigenvalues
    residuals: np.ndarray          # ||(A-a)v - lambda (B-b)v||_2
    tail_masses: np.ndarray
    swept: np.ndarray              # True for a sweep grid certificate, False for a refined root
    physical: np.ndarray           # bool: Im lambda in S_WINDOW, tail mass below TAIL_TOL
    converged: np.ndarray          # bool: the pair's inverse iteration converged

    @property
    def n(self) -> int:
        return int(self.eigenvalues.size)

    def state(self, i: int) -> AngularState:
        v = self.vectors[:, i]
        return AngularState(self.problem.window, v / np.linalg.norm(v))

    def physical_indices(self) -> np.ndarray:
        return np.where(self.physical)[0]


class SingularPair(NamedTuple):
    """Smallest singular value of a tridiagonal T, its right singular vector,
    how the inverse iteration that found them went, and the sign of det T."""

    sigma: float          # ||T v||, exactly the returned vector's residual
    vector: np.ndarray    # unit
    steps: int            # iterations run, nudges included
    nudges: int           # diagonal shifts of an LU whose solve failed
    converged: bool       # a stopping rule was met before the step cap
    sign: float = 0.0     # sign of det T off its first LU; 0 if T is complex or U singular
    local: float = math.nan  # ||(A - alpha)v|| + |lambda| ||(B - beta)v|| of a pencil's T(lambda)


def _norms(x: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of x, as np.linalg.norm computes it for one
    vector (a dot product of the real part, plus one of the imaginary part
    when x is complex), so that a block's result does not depend on the
    batch it is in.  A row whose norm comes out below 2^-450, where its
    squares may have underflowed (to a false 0 below about 1e-154), is
    measured again divided by its largest real or imaginary part (a real
    division: a complex one overflows for a subnormal divisor); every other
    row keeps its bits."""
    re = x.real[:, None, :]
    sq = re @ re.transpose(0, 2, 1)
    if np.iscomplexobj(x):
        im = x.imag[:, None, :]
        sq += im @ im.transpose(0, 2, 1)
    norm = np.sqrt(sq[:, 0, 0])
    tiny = np.flatnonzero(norm < 2.0**-450)
    if tiny.size:
        parts = x[tiny].view(np.float64)  # (re, im) pairs of a complex row
        peak = np.abs(parts).max(axis=1)
        hit = peak > 0.0
        norm[tiny[hit]] = peak[hit] * np.linalg.norm(parts[hit] / peak[hit, None], axis=1)
    return norm


def _unit_rows(y: np.ndarray, mag: np.ndarray) -> np.ndarray:
    """Scale each row of y to unit norm in place, by its largest entry first
    so no square overflows; ``mag`` is a real work array of y's shape.
    Returns ``ok``, False for a row that is zero or not finite, which is
    left as it is."""
    peak = np.abs(y, out=mag).max(axis=1)
    ok = np.isfinite(peak) & (peak > 0.0)
    if ok.all():
        y /= peak[:, None]
        y /= _norms(y)[:, None]
    else:
        u = y[ok] / peak[ok, None]
        y[ok] = u / _norms(u)[:, None]
    return ok


# A stack of k tridiagonal blocks of order d is one tridiagonal system of
# n = k d + 2 rows, kept as ?gttrf's flat bands (dl, d, du): the blocks on
# the diagonal with zero couplings, then two decoupled rows of the identity
# (scipy's ?gttrf and ?gttrs take no system of fewer than three rows, and
# the factor's du2, of n - 2 entries, then has a row of d for every block).
# Its LU adds du2 and the 1-based pivots ipiv.


def _system(k: int, d: int, dtype) -> list[np.ndarray]:
    """The bands (dl, d, du) of the identity as a stack of k blocks of order d."""
    n = k * d + 2
    return [np.zeros(n - 1, dtype=dtype), np.ones(n, dtype=dtype), np.zeros(n - 1, dtype=dtype)]


def _blocks(x: np.ndarray, d: int) -> np.ndarray:
    """The view of a flat system array with one block per row; dl and du
    rows end in the zero that couples the block to the next."""
    return x[: x.size - x.size % d].reshape(-1, d)


def _stack(sub: np.ndarray, main: np.ndarray, sup: np.ndarray) -> list[np.ndarray]:
    """The system of the blocks, one per row of the (k, d-1), (k, d),
    (k, d-1) bands."""
    k, d = main.shape
    S = _system(k, d, main.dtype)
    for x, band in zip(S, (sub, main, sup)):
        _blocks(x, d)[:k, : band.shape[1]] = band
    return S


def _select(S: list[np.ndarray], keep: np.ndarray, d: int) -> list[np.ndarray]:
    """The system of the blocks ``keep`` (indices) of the system S."""
    out = _system(keep.size, d, S[1].dtype)
    for x, y in zip(out, S):
        _blocks(x, d)[: keep.size] = _blocks(y, d)[keep]
    return out


def _matvec(S: list[np.ndarray], v: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """T v into ``out`` for the system S and the flat v of its first
    v.size rows (whole blocks); ``work`` is a scratch array of v's size.  A
    zero coupling adds a zero term, which can only change the sign of a
    zero entry."""
    dl, dd, du = S
    m = v.size
    y = np.multiply(dd[:m], v, out=out)
    y[:-1] += np.multiply(du[: m - 1], v[1:], out=work[: m - 1])
    y[1:] += np.multiply(dl[: m - 1], v[:-1], out=work[: m - 1])
    return y


def _factor(S: list[np.ndarray]) -> list[np.ndarray]:
    """Partial-pivoting LU (?gttrf) of the system S, in its arithmetic:
    dgttrf for float64 bands, zgttrf for complex128.  S is left as it is.

    Where a coupling is zero ?gttrf neither pivots across it nor carries a
    nonzero multiplier over it, so each block gets the LU a separate call
    would give it.  Returns the flat (dl, d, du, du2, ipiv).
    """
    from scipy.linalg import get_lapack_funcs

    gttrf = get_lapack_funcs("gttrf", (S[1],))
    return list(gttrf(*S)[:5])


def _solve(lu: list[np.ndarray], y: np.ndarray, mag: np.ndarray) -> np.ndarray:
    """y <- (T^H T)^{-1} y in place, for the flat right-hand side y of the
    LU ``lu`` (:func:`_factor`) and one block per row of the real work
    array ``mag``.  y must be contiguous and of the LU's dtype, or ?gttrs
    would solve into a copy; ValueError otherwise.

    ?gttrs runs with T^H, then with T, in the factors' arithmetic (for a
    real T, dgttrs reads trans="C" as T^T, which is T^H), and each block is
    scaled to unit norm after each solve, so a T singular to working
    precision cannot overflow.  Returns ``ok``, False for a block whose
    solve overflowed or vanished, which includes every block with an exact
    zero on its U diagonal (?gttrs divides by it).
    """
    from scipy.linalg import get_lapack_funcs

    gttrs = get_lapack_funcs("gttrs", (lu[1],))
    k, d = mag.shape
    for trans in ("C", "N"):
        if gttrs(*lu, y, trans=trans, overwrite_b=1)[0] is not y:
            raise ValueError(f"?gttrs needs a contiguous {lu[1].dtype} right-hand side to solve in place")
        ok = _unit_rows(y[: k * d].reshape(k, d), mag)
        if not ok.all():
            break
    return ok


def _signs(lu: list[np.ndarray], k: int, d: int) -> np.ndarray:
    """sign(det T) of each of the first k blocks, of order d, of the LU
    ``lu`` (:func:`_factor`): prod sign(U_ii) * (-1)^(row interchanges), and
    0 for a block with a zero on its U diagonal.  A complex T has no sign,
    so every block of a complex LU gets 0."""
    if np.iscomplexobj(lu[1]):
        return np.zeros(k)
    dd, piv = _blocks(lu[1], d)[:k], _blocks(lu[4], d)[:k]
    # ?gttrf's ipiv(i) is i or i + 1, so a block's row interchanges are
    # the sum of ipiv(i) - i over its rows
    swaps = piv.sum(axis=1) - (d * d * np.arange(k) + d * (d + 1) // 2)
    flips = np.count_nonzero(dd < 0, axis=1) + swaps
    return np.where(np.all(dd != 0, axis=1), 1.0 - 2.0 * (flips % 2), 0.0)


def _iterate(S: list[np.ndarray], v: np.ndarray, a: np.ndarray | None = None) -> list[SingularPair]:
    """Inverse iteration v <- (T^H T)^{-1} v from unit v on every block of
    the system S (:func:`_stack`), in its arithmetic: dgttrf/dgttrs and real
    vectors for a float64 system, which starts from the real part of v,
    normalized, and zgttrf/zgttrs for a complex one.

    Each step solves T^H z = v and then T y = z for every block of the
    system at once, in place (:func:`_solve`), and forms T v.  A block has
    converged when sigma = ||T v|| changes by at most 1e-6 relative after
    the fourth step or, given ``a`` (the real diagonal of A - alpha that
    every block T = (A - alpha) - lambda (B - beta) was formed from, with
    lambda = iS in :func:`_axis_pairs`), when sigma is at roundoff of
    local = ||(A - alpha)v|| + |lambda| ||(B - beta)v||, read off the step's
    own T v as ||a v|| + ||a v - T v||.  Each pair carries the sigma and,
    given ``a``, the local of its returned vector (NaN otherwise), the step
    cap's rows included.  The blocks that converge leave the system: it
    shrinks to the others, in a V of their own, and is factored again
    (:func:`_factor`), which gives each block the LU a call with that block
    alone gives it.  So a block's pair does not depend on the other blocks
    of the call.  A converged row of V is never written again, and the
    returned vectors are those rows.

    A failed solve (a block's solve overflows or vanishes, as it always
    does when its U has an exact zero on the diagonal) can spoil the blocks
    next to it, because a zero coupling times a non-finite entry is NaN, so
    V is restored and the step is taken again block by block.  A block
    whose solve failed on its own has its diagonal shifted by roundoff and
    the system is factored again: an LU nudge, which uses up a step of that
    block alone.

    A real block's pair also carries the sign of its determinant, read off
    its first LU (:func:`_signs`).

    When the largest entry of the system and ``a`` lies outside
    [2^-500, 2^500], the system is iterated scaled by a power of two 2^-e
    to a largest entry in [1/2, 1) (by at most 2^1000, so that the padding
    rows stay finite), and sigma and local are scaled back.  The squares
    that :func:`_norms` sums would otherwise overflow (for unit v they are
    at most (4 max|entry|)^2) or underflow (which :func:`_norms` then
    repairs row by row); the scaling is exact, so the pair is 2^e times the
    scaled system's.
    """
    d = v.size
    k = (S[1].size - 2) // d
    blocks = [_blocks(x, d)[:k] for x in S] + ([] if a is None else [a])  # no padding rows
    peak = max(float(np.abs(x).max()) for x in blocks)
    e = max(math.frexp(peak)[1], -1000) if 0 < peak < math.inf and not 2.0**-500 <= peak <= 2.0**500 else 0
    if e:
        S = [x * 2.0**-e for x in S]
        a = None if a is None else a * 2.0**-e
    lu = _factor(S)
    sign = _signs(lu, k, d)
    if not np.iscomplexobj(S[1]):
        v = v.real / np.linalg.norm(v.real)
    F = S  # the system factored: S, with its diagonal nudged where a solve failed
    rows = np.arange(k)  # the shift of each block of S: those still iterating
    flat = np.zeros_like(S[1])  # V as a right-hand side of the system
    V = flat[: k * d].reshape(k, d)
    V[:] = v
    TV, W = np.empty_like(V), np.empty_like(V)
    vectors = [None] * k
    sigma = np.full(k, math.inf)
    local = np.full(k, math.nan)
    steps = np.full(k, _MAX_STEPS)
    nudges = np.zeros(k, dtype=int)
    converged = np.zeros(k, dtype=bool)
    for it in range(_MAX_STEPS):
        if lu is None:
            lu = _factor(F)
        TV[:] = V
        ok = _solve(lu, flat, W.real)
        if not ok.all():  # restore V and solve block by block
            flat[:] = 0.0
            V[:] = TV
            for j in range(rows.size):
                f = _select(F, np.array([j]), d)
                y = np.zeros_like(f[1])
                y[:d] = V[j]
                ok[j] = _solve(_factor(f), y, W.real[:1])[0]
                if ok[j]:
                    V[j] = y[:d]
            bad = np.flatnonzero(~ok)
            if bad.size:  # the solve failed: nudge the diagonal by roundoff
                F = [S[0], S[1].copy(), S[2]] if F is S else F
                m = _blocks(F[1], d)[bad]
                _blocks(F[1], d)[bad] = m + (1e-300 + 1e-16 * np.max(np.abs(m), axis=1))[:, None]
                nudges[rows[bad]] += 1
                lu = None
        _matvec(S, V.ravel(), TV.ravel(), W.ravel())
        new = _norms(TV)
        done = ok & (it > 2) & (np.abs(new - sigma[rows]) <= 1e-6 * np.maximum(new, 1e-300))
        if a is not None:
            av = np.multiply(a, V, out=W)
            scale = _norms(av)
            av -= TV  # lambda (B - beta) v
            scale += _norms(av)
            done |= ok & (new <= _REFINE_ROUNDOFF * scale)
            local[rows] = scale  # every row's V, restored or not, as T v is
        sigma[rows[ok]] = new[ok]
        if not done.any():
            continue
        steps[rows[done]] = it + 1
        converged[rows[done]] = True
        for j in np.flatnonzero(done):
            vectors[rows[j]] = V[j]
        # drop the converged blocks: the system shrinks to the others
        keep = np.flatnonzero(~done)
        rows, r = rows[keep], keep.size
        if r == 0:
            break
        nudged = F is not S
        S = _select(S, keep, d)
        F = _select(F, keep, d) if nudged else S
        flat = np.zeros_like(S[1])
        flat[: r * d] = V[keep].ravel()
        V, TV, W = flat[: r * d].reshape(r, d), TV[:r], W[:r]
        lu = None
    if rows.size:
        _matvec(S, V.ravel(), TV.ravel(), W.ravel())
        sigma[rows] = _norms(TV)
        for j, i in enumerate(rows):
            vectors[i] = V[j]
    sigma, local = np.ldexp(sigma, e), np.ldexp(local, e)
    return [
        SingularPair(*p)
        for p in zip(sigma.tolist(), vectors, *(x.tolist() for x in (steps, nudges, converged, sign, local)))
    ]


def _start_vector(d: int) -> np.ndarray:
    rng = np.random.default_rng(_START_SEED)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def smallest_singular_pair(T: Bands) -> SingularPair:
    """Smallest singular value of the tridiagonal T = (sub, main, super) and
    its right singular vector.

    Banded inverse iteration from a seeded random start, O(n) per step and
    one LU factorization in all, in real arithmetic when no band is
    complex.  The returned pair always satisfies
    ||T v|| = sigma exactly, so sigma is a certified eigenpair residual;
    ``converged`` is False when the step cap ran out first.  Bands whose
    sizes are not n - 1, n and n - 1 with n >= 1 raise a ValueError.
    """
    dtype = complex if any(np.iscomplexobj(x) for x in T) else float
    sub, main, sup = (np.atleast_2d(np.asarray(x, dtype=dtype)) for x in T)
    n = main.shape[1]
    if n == 0 or sub.shape[1] != n - 1 or sup.shape[1] != n - 1:
        raise ValueError(
            "a tridiagonal of order n >= 1 has bands of n - 1, n and n - 1 entries; "
            f"got sub {np.shape(T[0])}, main {np.shape(T[1])}, super {np.shape(T[2])}"
        )
    return _iterate(_stack(sub, main, sup), _start_vector(n))[0]


def _axis_system(a: np.ndarray, b: Bands, s) -> list[np.ndarray]:
    """The stack of T(iS) = (A - alpha) - iS (B - beta), one block for every
    S in ``s``, from the real diagonal a of A - alpha and the bands b of
    B - beta.

    T(iS) = (A - alpha) + S m with m = -i (B - beta) is formed in place, in
    ?gttrf's flat layout (:func:`_system`).  The arithmetic is the
    pencil's: when every band of m is real (every band of B - beta is
    imaginary, as on the sine pencils at beta = 0), T(iS) is real;
    otherwise every S is complex.
    """
    s, d = np.asarray(s, dtype=float)[:, None], a.size
    m = [-1j * x for x in b]
    if not any(np.any(x.imag) for x in m):
        m = [x.real for x in m]
    S = _system(s.size, d, m[1].dtype)
    for x, band in zip(S, m):
        np.multiply(s, band, out=_blocks(x, d)[: s.size, : band.size])
    _blocks(S[1], d)[: s.size] += a
    return S


def _axis_pairs(a: np.ndarray, b: Bands, s, v: np.ndarray) -> list[SingularPair]:
    """Smallest singular pair of T(iS) (:func:`_axis_system`) for every S in
    ``s``, by one batched inverse iteration from unit v (:func:`_iterate`)
    that stops each S as soon as its residual reaches roundoff of the local
    scale."""
    return _iterate(_axis_system(a, b, s), v, a)


def eigenvector_at(problem: PencilProblem, s: float) -> tuple[AngularState, float]:
    """Eigenvector of the pencil at the fixed eigenvalue lambda = i s.

    Returns the unit vector minimizing ||(A - alpha)v - i s (B - beta)v|| and
    that residual; a residual at working precision certifies that i s is an
    eigenvalue and the vector is its eigenvector.  A non-finite s raises a
    ValueError.
    """
    if not math.isfinite(s):
        raise ValueError(f"the eigenvalue i s needs a finite s, got {s}")
    a, b = problem.bands()
    (pair,) = _axis_pairs(a, b, [s], _start_vector(a.size))
    return AngularState(problem.window, pair.vector), pair.sigma


def _refine_root(a: np.ndarray, b: Bands, v: np.ndarray, lo: float, hi: float,
                 flo: float, fhi: float) -> tuple[float, SingularPair]:
    """The axis eigenvalue iS in the bracket lo < S < hi, where
    f = sign(det T(iS)) sigma / local has the opposite signs flo and fhi.

    Illinois (regula falsi) steps on f, each one single-shift inverse
    iteration, until sigma is at roundoff of local or the bracket is a few
    ulps wide, at most _MAX_STEPS of them.  Returns the step with the least
    sigma / local if it meets the sweep's certificate, and raises
    SingularPencilError naming the bracket otherwise.
    """
    bracket, best, side = (lo, hi), (math.inf, lo, None), 0
    for _ in range(_MAX_STEPS):
        x = hi - fhi * (hi - lo) / (fhi - flo)
        (p,) = _axis_pairs(a, b, [x], v)
        rel = p.sigma / p.local
        best = min(best, (rel, x, p), key=lambda t: t[0])
        if rel <= _REFINE_ROUNDOFF:
            break
        if p.sign * fhi > 0:  # x replaces hi; halve flo if hi was replaced last too
            hi, fhi, flo, side = x, p.sign * rel, flo / 2 if side > 0 else flo, 1
        else:
            lo, flo, fhi, side = x, p.sign * rel, fhi / 2 if side < 0 else fhi, -1
        if hi - lo <= 4 * np.spacing(hi):
            break
    if not best[0] <= SWEEP_RTOL:
        raise SingularPencilError(
            f"the sign change of det T(iS) in S = [{bracket[0]:.17g}, {bracket[1]:.17g}] "
            f"did not certify: sigma/local = {best[0]:.2e} > SWEEP_RTOL = {SWEEP_RTOL}"
        )
    return best[1], best[2]


def _sigma_lower_bounds(lu: list[np.ndarray], k: int, d: int) -> np.ndarray:
    """A lower bound lb <= sigma_min(T) for each of the first k blocks, of
    order d, of the LU ``lu`` (:func:`_factor`) of T.

    dgttrs runs on the comparison factors (-|dl|, |d|, -|du|, -|du2|, the
    same pivots) with a right-hand side of ones, once with trans="N" and
    once with "T".  Every term it adds is then nonnegative, and it applies
    |L_i^{-1}| = M(L_i)^{-1} for each elementary factor of L and
    M(U)^{-1} >= |U^{-1}| for the comparison matrix M(U) of U (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 8), so the
    two solutions bound |T^{-1}| e and |T^{-1}|^T e entrywise from above.
    Their largest entries in a block bound ||T^{-1}||_inf and ||T^{-1}||_1,
    and lb = 1 / sqrt(||T^{-1}||_1 ||T^{-1}||_inf) <= 1 / ||T^{-1}||_2 =
    sigma_min.  The comparison factors are real, for a complex LU too.  A
    block whose solve overflows or meets a zero pivot gets lb = 0, which
    excludes nothing.
    """
    from scipy.linalg import get_lapack_funcs

    comparison = [-np.abs(lu[0]), np.abs(lu[1]), -np.abs(lu[2]), -np.abs(lu[3])]
    gttrs = get_lapack_funcs("gttrs", (comparison[1],))
    ones = np.ones(comparison[1].size)
    n_inf, n_1 = (_blocks(gttrs(*comparison, lu[4], ones, trans=t)[0], d)[:k].max(axis=1) for t in "NT")
    with np.errstate(divide="ignore"):
        lb = 1.0 / np.sqrt(n_inf) / np.sqrt(n_1)
    return np.where(np.isfinite(lb), lb, 0.0)


def _absence_limits(a: np.ndarray, b: Bands, s: np.ndarray) -> np.ndarray:
    """For each S in s, the least lower bound lb <= sigma_min(T(iS))
    (:func:`_sigma_lower_bounds`) that proves that the sweep's inverse
    iteration cannot certify at S.

    Since T v = (A - alpha)v - iS (B - beta)v, the local scale of a unit v
    is local <= sigma + 2 S ||B - beta||, so sigma <= SWEEP_RTOL * local
    needs sigma <= tau = 2 SWEEP_RTOL S ||B - beta|| / (1 - SWEEP_RTOL),
    and no unit v certifies once sigma_min > tau.  ||B - beta||_2 is taken
    as sqrt(||B - beta||_1 ||B - beta||_inf) from the bands, and
    t = max|a| + S ||B - beta|| bounds ||T||_2 and || |T| ||_2.

    The limit is _ABSENCE_MARGIN tau + _FACTOR_ROUNDOFF t, which covers the
    roundoff between lb and the computed certificate (u = 2^-53):
    - The LU is exact for T + dT (Higham, ch. 9).  Under partial pivoting a
      tridiagonal has multipliers |l| <= 1 and growth at most 2, so each
      row and column of dT has at most four entries (with the fill of
      du2), each at most 2u (|l| |u_kj| + |t_ij|) <= 6u max|t_ij|:
      ||dT||_2 <= 24u t, and sigma_min(T) >= sigma_min(T + dT) - 24u t.
    - The comparison solve adds and multiplies only nonnegative numbers, so
      lb is exact to a relative 7du.
    - The computed sigma = ||fl(T v)|| is within a relative du and an
      absolute 3u t of ||T v||, and the computed local within a relative
      (d + 3)u and an absolute 4u t, which the certificate multiplies by
      SWEEP_RTOL.  A computed certificate then needs
      sigma <= tau (1 + 3 (d + 3)u) + 4u t.
    So lb > limit gives sigma_min(T) > tau by a factor of nearly 100 against
    the relative errors (while d < 10^12), and by 256 eps t = 512u t >
    (24 + 4)u t against the absolute ones, with an order of magnitude to
    spare.
    """
    sub, main, sup = (np.abs(x) for x in b)
    rows, cols = main.copy(), main.copy()
    rows[1:] += sub
    rows[:-1] += sup
    cols[:-1] += sub
    cols[1:] += sup
    norm = math.sqrt(rows.max() * cols.max())
    tau = 2.0 * SWEEP_RTOL * s * norm / (1.0 - SWEEP_RTOL)
    return _ABSENCE_MARGIN * tau + _FACTOR_ROUNDOFF * (np.abs(a).max() + s * norm)


def _sweep_pairs(a: np.ndarray, b: Bands) -> tuple[np.ndarray, list, np.ndarray]:
    """The eigenpairs (iS, v) on the imaginary axis, and a mask that is True
    for the grid certificates and False for the refined roots.

    The grid certificates are those of SWEEP_POINTS values S across S_WINDOW
    whose smallest singular pair (sigma, v) of T(iS) satisfies
    sigma <= SWEEP_RTOL * local, local = ||(A-alpha)v|| + S ||(B-beta)v||.
    Two adjacent uncertified points at which sign(det T(iS)) sigma / local
    has opposite signs (only a real T(iS) has a sign) bracket a root for
    :func:`_refine_root`.

    A shift is excluded, and not iterated, when its lb <= sigma_min
    (:func:`_sigma_lower_bounds`) exceeds its limit
    (:func:`_absence_limits`).  The first shift is bounded on its own LU
    of one block.  Where it is not excluded (the circle's integers, say)
    every shift iterates; where it is, the stack is factored once, the
    sign of det T(iS) and lb of every shift are read off it, and the
    shifts within their limit and both ends of every sign change of det T
    iterate.  An excluded shift is uncertified and never ends a bracket
    (its neighbors' determinants have its sign or none), and a shift that
    iterates gets the pair it gets when every shift iterates, since a
    block's pair does not depend on the other blocks of the call.  So the
    result has the same bits as without the bound.
    """
    s = np.linspace(S_WINDOW[0], S_WINDOW[1], SWEEP_POINTS)
    k, d = s.size, a.size
    v = _start_vector(d)
    S = _axis_system(a, b, s)
    limit = _absence_limits(a, b, s)
    sign, out = np.zeros(k), np.zeros(k, dtype=bool)
    if _sigma_lower_bounds(_factor(_select(S, np.arange(1), d)), 1, d)[0] > limit[0]:
        lu = _factor(S)
        sign = _signs(lu, k, d)
        out = _sigma_lower_bounds(lu, k, d) > limit
        change = sign[:-1] * sign[1:] < 0
        out[:-1] &= ~change
        out[1:] &= ~change
    run = np.flatnonzero(~out)
    ran = _iterate(_select(S, run, d) if out.any() else S, v, a) if run.size else []
    pairs = dict(zip(run.tolist(), ran))
    sigma = np.array([pairs[j].sigma for j in run])
    local = np.array([pairs[j].local for j in run])
    certified = np.zeros(k, dtype=bool)
    certified[run] = sigma <= SWEEP_RTOL * local
    f = sign.copy()  # an excluded shift's f has the sign of its determinant
    f[run] = np.array([pairs[j].sign for j in run]) * sigma / local
    ends = np.flatnonzero(~certified[:-1] & ~certified[1:] & (f[:-1] * f[1:] < 0))
    roots = [_refine_root(a, b, v, s[j], s[j + 1], f[j], f[j + 1]) for j in ends]
    grid = np.flatnonzero(certified)
    lams = 1j * np.concatenate([s[grid], [r[0] for r in roots]])
    return lams, [pairs[j] for j in grid] + [r[1] for r in roots], np.arange(lams.size) < grid.size


def solve_pencil(problem: PencilProblem, *, axis_sweep: bool = True) -> PencilSolution:
    """The certified eigenpairs of the truncated pencil, all on the
    imaginary axis and sorted by S.

    These are the imaginary-axis sweep's grid certificates (``swept``) and,
    where T(iS) is real, the determinant roots refined between its grid
    points; with ``axis_sweep`` False only the roots.  Every pair obeys
    sigma <= SWEEP_RTOL * (||(A-alpha)v|| + S ||(B-beta)v||), a scale
    independent of the truncation M.  Integer <N> >= 4 of the number/phase
    family still certify, because their boundary defect is below double
    precision.  Every eigenvalue is exactly iS, so ``physical`` flags the
    pairs with S inside S_WINDOW and eigenvector tail mass below TAIL_TOL.
    ``converged`` records, per pair, whether its inverse iteration met a
    stopping rule within its step cap.

    Raises
    ------
    SingularPencilError
        When a bracketed root does not meet the certificate.
    """
    a, b = problem.bands()
    w, pairs, swept = _sweep_pairs(a, b)
    order = [j for j in np.argsort(w.imag, kind="stable") if axis_sweep or not swept[j]]
    w, swept, pairs = w[order], swept[order], [pairs[j] for j in order]
    V = np.array([p.vector for p in pairs], dtype=complex).reshape(w.size, problem.window.dimension).T
    tails = tail_mass(V, problem.window)
    return PencilSolution(
        problem=problem,
        eigenvalues=w,
        vectors=V,
        residuals=np.array([p.sigma for p in pairs], dtype=float),
        tail_masses=tails,
        swept=swept,
        physical=(w.imag >= S_WINDOW[0]) & (w.imag <= S_WINDOW[1]) & (tails < TAIL_TOL),
        converged=np.array([p.converged for p in pairs], dtype=bool),
    )


# -- uncertainty floor at fixed expectation ---------------------------------


def uncertainty_floor(A: OperatorMatrix, alpha: float) -> tuple[float, AngularState]:
    """Minimal Delta A over unit states with <A> = alpha, A diagonal.

    The minimizer mixes the two spectrum neighbors a_k <= alpha <= a_{k+1}:
    the floor is sqrt((alpha - a_k)(a_{k+1} - alpha)), zero exactly on the
    spectrum.  Between consecutive integers of the angular momentum this is
    sqrt(frac (1 - frac)), with maximum 1/2 at half-integer alpha.
    """
    if OperatorId(A.id) not in DIAGONAL_IDS:
        raise IncompatibleFamilyError("uncertainty floor needs a diagonal operator")
    _check_spectrum(A, alpha)
    spec = A.data[0]
    d = spec.size
    c = np.zeros(d, dtype=complex)
    nearest = int(np.argmin(np.abs(spec - alpha)))
    if abs(spec[nearest] - alpha) <= 1e-12:
        c[nearest] = 1.0
        return 0.0, AngularState(A.window, c)
    # alpha now lies strictly between two spectrum points
    hi = int(np.searchsorted(spec, alpha))
    lo = hi - 1
    gap = spec[hi] - spec[lo]
    p = (alpha - spec[lo]) / gap
    c[lo] = math.sqrt(1.0 - p)
    c[hi] = math.sqrt(p)
    floor = math.sqrt(max((alpha - spec[lo]) * (spec[hi] - alpha), 0.0))
    return floor, AngularState(A.window, c)


# -- quantization scan -------------------------------------------------------


@dataclass(frozen=True)
class QuantizationScan:
    """Per-alpha summary of the physical-eigenvalue search and the floor.

    ``eigenvalues`` holds the certified eigenvalues each point's solve
    returned and ``physical_eigenvalues`` the flagged ones; neither is in the
    CSV rows, and only ``eigenvalues`` is in the JSON artifact.
    """

    family: str
    alphas: np.ndarray
    floor: np.ndarray
    flagged: np.ndarray             # bool: a physical squeezed state exists
    eigenvalues: list = field(repr=False, default_factory=list)
    physical_eigenvalues: list = field(repr=False, default_factory=list)
    errors: list = field(repr=False, default_factory=list)

    def flagged_alphas(self) -> np.ndarray:
        return self.alphas[self.flagged]


def quantization_scan(
    family: str,
    alphas,
    beta: float = 0.0,
    M: int = 64,
    *,
    max_workers: int | None = None,
) -> QuantizationScan:
    """Scan expectation values for the existence of physical squeezed states.

    Per alpha the pencil is solved by :func:`solve_pencil` (the sweep and
    its determinant roots, for both families) at the module's physicality
    constants, the point is flagged when the solution has a ``physical``
    pair, and the two-level uncertainty floor at <A> = alpha is attached.
    Points where the solve fails (a determinant root that does not certify)
    are flagged in ``errors`` instead of aborting the scan.

    Scan points are independent; ``max_workers`` > 1 evaluates them in a
    thread pool with output assembled in grid order.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    _check_scan(family, alphas, M)

    def one(alpha: float):
        problem = _family_problem(family, alpha, beta, M)
        floor, _ = uncertainty_floor(problem.A, alpha)
        try:
            sol = solve_pencil(problem)
        except SingularPencilError as exc:
            none = np.array([], dtype=complex)
            return floor, False, none, none, str(exc)
        physical = sol.eigenvalues[sol.physical]
        return floor, bool(physical.size), sol.eigenvalues, physical, None

    if max_workers is not None and max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            rows = list(pool.map(one, alphas))
    else:
        rows = [one(a) for a in alphas]

    return QuantizationScan(
        family=family,
        alphas=alphas,
        floor=np.array([r[0] for r in rows]),
        flagged=np.array([r[1] for r in rows], dtype=bool),
        eigenvalues=[r[2] for r in rows],
        physical_eigenvalues=[r[3] for r in rows],
        errors=[r[4] for r in rows],
    )
