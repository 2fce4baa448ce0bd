"""The squeezed-state condition as a matrix pencil.

Minimum-uncertainty (squeezed) states of a pair (A, B) with [A, B] = iC
solve (A - alpha)|psi> = i S (B - beta)|psi> with alpha = <A>, beta = <B>.
In a truncated basis that is the generalized eigenproblem

    (A - alpha) v = lambda (B - beta) v,

and the physical solutions are the eigenpairs whose eigenvalue is purely
imaginary, lambda = i S with S > 0: for such eigenvalues the Hermitian
quadratic forms force <A> = alpha and <B> = beta automatically.

Every pencil here pairs a diagonal A with a tridiagonal B (the cos/sin
stencils), and the solver works on that structure alone:

* Eigenvalues.  The exact unitary similarity D = diag(i^k) turns the sine
  operators into the real symmetric tridiagonal -C, and the cosine operators
  already are real, so real QZ on the pair (diag(A - alpha), D^H (B - beta) D)
  returns every eigenvalue without eigenvectors.
* Eigenvectors and residuals.  For each finite eigenvalue the vector is the
  smallest right singular vector of the tridiagonal
  T(lambda) = (A - alpha) - lambda (B - beta), found by inverse iteration on
  (T^H T)^{-1} with one LU factorization of T per shift (LAPACK ?gttrf, then
  ?gttrs with T^H and with T).  The residual is ||T v||, computed as a banded
  matrix-vector product.
* The imaginary-axis sweep.  For a grid of S values the same kernel extracts
  the smallest singular pair (sigma, v) of T(iS) and certifies (iS, v) as an
  eigenpair whenever that residual is at working precision,
  sigma <= SWEEP_RTOL * (||(A - alpha)v|| + S ||(B - beta)v||).  The scale is
  local to v and does not depend on the truncation M; a global scale such as
  max|diag(A - alpha)| = M - alpha for the number operator would let the
  certificate loosen as M grows.

The sweep matters because, whenever alpha sits in the point spectrum of A,
the truncated pencil inherits a whole segment of nearly exact imaginary
eigenvalues (the squeezing can be dialed continuously); QZ collapses that
segment to arbitrary rounding-determined points, while the sweep certifies
each grid value directly and deterministically.  Which rounding-determined
points QZ returns depends on the arithmetic (complex and real QZ return
different ones), so on such a segment only the sweep's certificates are
reproducible.  Away from the spectrum of A the smallest singular value stays
orders of magnitude above the tolerance, so the sweep certifies nothing;
that asymmetry is the quantization of the mean value demonstrated by
:func:`quantization_scan`.

The bounded-below number/phase family differs.  Its exact squeezed states are
isolated Bessel packets c_m ~ I_{m-alpha}(S) at the roots of I_{-1-alpha}(S),
one branch in every interval (2k, 2k+1) of <N> and none at an integer, and QZ
finds them.  At integer <N> = n the full-line packet cut at N = 0 leaves a
boundary defect sigma that is independent of M and falls super-exponentially
with n: 2.7e-13 at n = 3 and S = 0.1, which the sweep resolves and rejects
(1.9 times the threshold), but 3.5e-17 at n = 4, below double precision.  So
n = 3 is the last integer whose defect can be resolved, and integer
<N> >= 4 still certify small-S families: no floating-point certificate can
tell them from exact states.

Eigenvalue classification is reported, never silently applied: every returned
pair carries its residual, its distance |Re lambda| from the imaginary axis,
the tail mass of its eigenvector and whether its inverse iteration converged.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import zgttrf, zgttrs

from .errors import (
    IncompatibleFamilyError,
    OutOfRangeError,
    SingularPencilError,
    WindowMismatchError,
)
from .operators import OperatorId, OperatorMatrix, build
from .states import TAIL_TOL, AngularState, ModeWindow, tail_mass

# The physicality policy (how each value is used: solve_pencil).  It is fixed
# here rather than settable per call, so no flag can be reached by tuning a
# tolerance, and no artifact repeats it.  Its tail-mass bound TAIL_TOL lives
# in states, next to the tail-mass rule, and f_table shares it.
S_WINDOW = (0.1, 8.0)
IMAG_AXIS_RTOL = 1e-8
SWEEP_RTOL = 1e-12
SWEEP_POINTS = 80

_A_IDS = {OperatorId.ANGULAR_MOMENTUM, OperatorId.NUMBER}
_B_IDS = {OperatorId.SIN_PHI, OperatorId.COS_PHI, OperatorId.PHASE_SIN, OperatorId.PHASE_COS}
_SINE_IDS = {OperatorId.SIN_PHI, OperatorId.PHASE_SIN}
# i^k by table: 1j**k leaves roundoff in the real part of odd powers.
_I_POWERS = np.array([1.0, 1j, -1.0, -1j])
# Inverse iteration on T(lambda) (refinement, sweep, eigenvector_at) stops once
# ||T v|| is this many units of roundoff of the local scale
# ||(A - alpha)v|| + |lambda| ||(B - beta)v||.
_REFINE_ROUNDOFF = 32.0 * np.finfo(float).eps
_MAX_STEPS = 30
_START_SEED = 12345

Bands = tuple[np.ndarray, np.ndarray, np.ndarray]  # (sub, main, super) diagonals


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
        if OperatorId(self.A.id) not in _A_IDS:
            raise IncompatibleFamilyError(
                f"A must be a discrete-spectrum operator, got {self.A.id}"
            )
        if OperatorId(self.B.id) not in _B_IDS:
            raise IncompatibleFamilyError(
                f"B must be a bounded coordinate operator, got {self.B.id}"
            )
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError(f"alpha and beta must be finite, got {self.alpha}, {self.beta}")
        if abs(self.beta) >= 1.0:
            raise ValueError(
                f"|beta| must be < 1 (the coordinate spectrum is [-1, 1]), got {self.beta}"
            )

    @property
    def window(self) -> ModeWindow:
        return self.A.window

    def bands(self) -> tuple[np.ndarray, Bands]:
        """The real diagonal of A - alpha and the bands of B - beta."""
        a = np.real(np.diagonal(self.A.entries)) - self.alpha
        B = self.B.entries
        return a, (np.diagonal(B, -1), np.diagonal(B) - self.beta, np.diagonal(B, 1))

    def b_norm(self) -> float:
        """||B - beta||_2 in closed form.

        B is unitarily similar to the Toeplitz tridiagonal with 1/2 off the
        diagonal, whose eigenvalues are cos(k pi / (d + 1)), k = 1..d.
        """
        d = self.window.dimension
        k = np.arange(1, d + 1)
        return float(np.max(np.abs(np.cos(k * np.pi / (d + 1)) - self.beta)))


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
    """Eigenpairs sorted by distance from the imaginary axis."""

    problem: PencilProblem
    eigenvalues: np.ndarray        # complex, sorted by |Re|
    vectors: np.ndarray            # unit columns matching eigenvalues
    residuals: np.ndarray          # ||(A-a)v - lambda (B-b)v||_2
    tail_masses: np.ndarray
    swept: np.ndarray              # True where the pair came from the axis sweep
    candidate: np.ndarray          # bool: Im lambda in S_WINDOW, tail mass below TAIL_TOL
    physical: np.ndarray           # bool: a candidate on the imaginary axis
    converged: np.ndarray          # bool: the pair's inverse iteration converged

    @property
    def n(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def axis_distances(self) -> np.ndarray:
        return np.abs(self.eigenvalues.real)

    def state(self, i: int) -> AngularState:
        v = self.vectors[:, i]
        return AngularState(self.problem.window, v / np.linalg.norm(v))

    def physical_indices(self) -> np.ndarray:
        return np.where(self.physical)[0]


class SingularPair(NamedTuple):
    """Smallest singular value of a tridiagonal T, its right singular vector,
    and how the inverse iteration that found them went."""

    sigma: float          # ||T v||, exactly the returned vector's residual
    vector: np.ndarray    # unit
    steps: int            # iterations run, nudges included
    nudges: int           # diagonal shifts of a singular or overflowing LU
    converged: bool       # a stopping rule was met before the step cap


def _tri_matvec(bands: Bands, v: np.ndarray) -> np.ndarray:
    sub, main, sup = bands
    y = main * v
    y[:-1] += sup * v[1:]
    y[1:] += sub * v[:-1]
    return y


def _unit(y: np.ndarray) -> np.ndarray | None:
    """y / ||y||, scaled by its largest entry first so no square overflows;
    None when y is zero or not finite."""
    peak = float(np.max(np.abs(y)))
    if not np.isfinite(peak) or peak == 0.0:
        return None
    y = y / peak
    return y / np.linalg.norm(y)


def _inverse_iteration(T: Bands, v: np.ndarray, local=None) -> SingularPair:
    """Inverse iteration v <- (T^H T)^{-1} v on the tridiagonal T from unit v.

    T is factored once (partial-pivoting LU, ?gttrf) and each step solves
    T^H z = v and then T y = z with that factor (?gttrs); z is rescaled
    between the two solves, so a T singular to working precision cannot
    overflow.  An exactly singular factor, or a solve that overflows anyway,
    shifts the diagonal by roundoff and refactors: an LU nudge, which uses up
    a step.  The iteration has converged when sigma = ||T v|| changes by at
    most 1e-6 relative after the fourth step or, given ``local`` (a function
    of v bounding the size of the terms of T v), when sigma is at roundoff of
    local(v).
    """
    sub, main, sup = T
    lu = None
    nudges = 0
    sigma = math.inf
    for it in range(_MAX_STEPS):
        if lu is None:
            *lu, info = zgttrf(sub, main, sup)
        z = _unit(zgttrs(*lu, v, trans="C")[0]) if info == 0 else None
        y = _unit(zgttrs(*lu, z)[0]) if z is not None else None
        if y is None:  # singular or overflowing LU: nudge the diagonal by roundoff
            main = main + (1e-300 + 1e-16 * np.max(np.abs(main)))
            lu = None
            nudges += 1
            continue
        v = y
        new = float(np.linalg.norm(_tri_matvec(T, v)))
        if (it > 2 and abs(new - sigma) <= 1e-6 * max(new, 1e-300)) or (
            local is not None and new <= _REFINE_ROUNDOFF * local(v)
        ):
            return SingularPair(new, v, it + 1, nudges, True)
        sigma = new
    return SingularPair(float(np.linalg.norm(_tri_matvec(T, v))), v, _MAX_STEPS, nudges, False)


def _start_vector(d: int) -> np.ndarray:
    rng = np.random.default_rng(_START_SEED)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def smallest_singular_pair(T: Bands) -> SingularPair:
    """Smallest singular value of the tridiagonal T = (sub, main, super) and
    its right singular vector.

    Banded inverse iteration from a seeded random start, O(n) per step and
    one LU factorization in all.  The returned pair always satisfies
    ||T v|| = sigma exactly, so sigma is a certified eigenpair residual;
    ``converged`` is False when the step cap ran out first.
    """
    return _inverse_iteration(T, _start_vector(T[1].size))


def _pencil_bands(a: np.ndarray, b: Bands, lam: complex) -> Bands:
    """Bands of T(lambda) = (A - alpha) - lambda (B - beta)."""
    return -lam * b[0], a - lam * b[1], -lam * b[2]


def _local_scale(a: np.ndarray, b: Bands, lam: complex, v: np.ndarray) -> float:
    """||(A - alpha)v|| + |lambda| ||(B - beta)v||."""
    return float(np.linalg.norm(a * v) + abs(lam) * np.linalg.norm(_tri_matvec(b, v)))


def _pencil_pair(a: np.ndarray, b: Bands, lam: complex, v: np.ndarray) -> SingularPair:
    """Smallest singular pair of T(lambda) by inverse iteration from unit v,
    stopping as soon as the residual reaches roundoff of the local scale."""
    return _inverse_iteration(_pencil_bands(a, b, lam), v, lambda u: _local_scale(a, b, lam, u))


def _eigenvalues(problem: PencilProblem, a: np.ndarray, b: Bands) -> np.ndarray:
    """Finite eigenvalues of the pencil by real QZ, without eigenvectors."""
    sub, main, sup = b
    if OperatorId(problem.B.id) in _SINE_IDS:
        # D^H (B - beta) D with D = diag(i^k): (-1/2) off the diagonal, exactly
        D = _I_POWERS[np.arange(a.size) % 4]
        sub = D[1:].conj() * sub * D[:-1]
        sup = D[:-1].conj() * sup * D[1:]
    B_real = np.diag(main.real) + np.diag(sub.real, -1) + np.diag(sup.real, 1)
    try:
        w = sla.eig(np.diag(a), B_real, right=False)
    except (sla.LinAlgError, ValueError) as exc:
        raise SingularPencilError(
            f"QZ failed for alpha={problem.alpha}, beta={problem.beta}: {exc}; "
            "try perturbing beta"
        ) from exc
    w = w[np.isfinite(w)]
    if w.size == 0:
        raise SingularPencilError(
            f"pencil has no finite eigenvalues at alpha={problem.alpha}, "
            f"beta={problem.beta}; try perturbing beta"
        )
    return w


def eigenvector_at(problem: PencilProblem, s: float) -> tuple[AngularState, float]:
    """Eigenvector of the pencil at the fixed eigenvalue lambda = i s.

    Returns the unit vector minimizing ||(A - alpha)v - i s (B - beta)v|| and
    that residual; a residual at working precision certifies that i s is an
    eigenvalue and the vector is its eigenvector.
    """
    a, b = problem.bands()
    pair = _pencil_pair(a, b, 1j * s, _start_vector(a.size))
    return AngularState(problem.window, pair.vector), pair.sigma


def solve_pencil(problem: PencilProblem, *, axis_sweep: bool = True) -> PencilSolution:
    """All eigenpairs of the truncated pencil, real QZ plus axis-sweep certificates.

    The eigenvalues come from eigenvalue-only real QZ on the pair
    (A - alpha, D^H (B - beta) D), D = diag(i^k); each finite eigenvalue's
    unit vector from banded inverse iteration on (A-alpha) - lambda(B-beta),
    which stops once the residual is at roundoff.  Every returned pair obeys
    the residual bound
    ||(A-alpha)v - lambda(B-beta)v|| <= 1e-9 (||A-alpha|| + |lambda| ||B-beta||);
    pairs are sorted by |Re lambda|.  With ``axis_sweep`` (the default) the
    sweep adds (iS, v) for each of SWEEP_POINTS values S across S_WINDOW
    whose smallest singular pair (sigma, v) of (A-alpha) - iS(B-beta),
    found by the same roundoff-stopped inverse iteration, satisfies
    sigma <= SWEEP_RTOL * (||(A-alpha)v|| + S ||(B-beta)v||).  That local
    scale is independent of the truncation M.  Integer <N> >= 4 of the
    number/phase family still certify, because their boundary defect is
    below double precision.  ``candidate`` flags the pairs with Im lambda
    inside S_WINDOW and eigenvector tail mass below TAIL_TOL, ``physical``
    the candidates with |Re lambda| <= IMAG_AXIS_RTOL * (1 + |lambda|).
    ``converged`` records, per pair, whether its inverse iteration met a
    stopping rule within its step cap.

    Raises
    ------
    SingularPencilError
        When the QZ iteration fails or produces no finite eigenvalue;
        perturbing beta resolves generic failures.
    """
    a, b = problem.bands()
    w = _eigenvalues(problem, a, b)
    v0 = _start_vector(a.size)
    pairs = [_pencil_pair(a, b, lam, v0) for lam in w]
    swept = [False] * len(pairs)

    if axis_sweep:
        norm_a = float(np.max(np.abs(a)))
        norm_b = problem.b_norm()
        certified = []
        for s in np.linspace(S_WINDOW[0], S_WINDOW[1], SWEEP_POINTS):
            pair = _pencil_pair(a, b, 1j * s, v0)
            # The global scale bounds the local one, so it screens out points
            # that cannot certify before the local norm is computed.
            if pair.sigma > SWEEP_RTOL * (norm_a + s * norm_b):
                continue
            if pair.sigma <= SWEEP_RTOL * _local_scale(a, b, 1j * s, pair.vector):
                certified.append(1j * s)
                pairs.append(pair)
        w = np.concatenate([w, np.array(certified, dtype=complex)])
        swept += [True] * len(certified)

    V = np.column_stack([p.vector for p in pairs])
    residuals = np.array([p.sigma for p in pairs])
    converged = np.array([p.converged for p in pairs], dtype=bool)
    swept = np.array(swept, dtype=bool)
    tails = tail_mass(V, problem.window)
    order = np.argsort(np.abs(w.real), kind="stable")
    w, V = w[order], V[:, order]
    residuals, tails, swept, converged = residuals[order], tails[order], swept[order], converged[order]

    candidate = (w.imag >= S_WINDOW[0]) & (w.imag <= S_WINDOW[1]) & (tails < TAIL_TOL)
    physical = candidate & (np.abs(w.real) <= IMAG_AXIS_RTOL * (1.0 + np.abs(w)))
    return PencilSolution(
        problem=problem,
        eigenvalues=w,
        vectors=V,
        residuals=residuals,
        tail_masses=tails,
        swept=swept,
        candidate=candidate,
        physical=physical,
        converged=converged,
    )


# -- uncertainty floor at fixed expectation ---------------------------------


def uncertainty_floor(A: OperatorMatrix, alpha: float) -> tuple[float, AngularState]:
    """Minimal Delta A over unit states with <A> = alpha, A diagonal.

    The minimizer mixes the two spectrum neighbors a_k <= alpha <= a_{k+1}:
    the floor is sqrt((alpha - a_k)(a_{k+1} - alpha)), zero exactly on the
    spectrum.  Between consecutive integers of the angular momentum this is
    sqrt(frac (1 - frac)), with maximum 1/2 at half-integer alpha.
    """
    if OperatorId(A.id) not in _A_IDS:
        raise IncompatibleFamilyError("uncertainty floor needs a diagonal operator")
    spec = np.real(np.diagonal(A.entries))
    if not (spec.min() - 1e-12 <= alpha <= spec.max() + 1e-12):
        raise OutOfRangeError(
            f"alpha={alpha} outside the truncated spectrum "
            f"[{spec.min()}, {spec.max()}]"
        )
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

    ``eigenvalues`` holds every eigenvalue of each point and
    ``physical_eigenvalues`` the flagged ones; neither is in the CSV rows, and
    only ``eigenvalues`` is in the JSON artifact.
    """

    family: str
    alphas: np.ndarray
    min_axis_distance: np.ndarray   # inf where no candidate in the S window
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

    Per alpha the pencil is solved by :func:`solve_pencil` at the module's
    physicality constants, the minimal |Re lambda| over the solution's
    ``candidate`` pairs recorded, and the two-level uncertainty floor at
    <A> = alpha attached.  Points where the solve fails are flagged in
    ``errors`` instead of aborting the scan.

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
            return math.inf, floor, False, none, none, str(exc)
        cand = sol.candidate
        dist = float(np.min(sol.axis_distances[cand])) if np.any(cand) else math.inf
        physical = sol.eigenvalues[sol.physical]
        return dist, floor, bool(physical.size), sol.eigenvalues, physical, None

    if max_workers is not None and max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            rows = list(pool.map(one, alphas))
    else:
        rows = [one(a) for a in alphas]

    return QuantizationScan(
        family=family,
        alphas=alphas,
        min_axis_distance=np.array([r[0] for r in rows]),
        floor=np.array([r[1] for r in rows]),
        flagged=np.array([r[2] for r in rows], dtype=bool),
        eigenvalues=[r[3] for r in rows],
        physical_eigenvalues=[r[4] for r in rows],
        errors=[r[5] for r in rows],
    )


def scan_to_csv_rows(scan: QuantizationScan) -> list[str]:
    rows = ["alpha,minImagDistance,floor,flag"]
    for a, d, f, fl in zip(scan.alphas, scan.min_axis_distance, scan.floor, scan.flagged):
        rows.append(f"{a:.17g},{d:.17g},{f:.17g},{int(fl)}")
    return rows


def scan_to_dict(scan: QuantizationScan) -> dict:
    return {
        "family": scan.family,
        "points": [
            {
                "alpha": float(a),
                "minImagDistance": float(d),
                "floor": float(f),
                "flag": bool(fl),
                "eigenvalues": [[float(z.real), float(z.imag)] for z in np.asarray(ev)],
                "error": err,
            }
            for a, d, f, fl, ev, err in zip(
                scan.alphas,
                scan.min_axis_distance,
                scan.floor,
                scan.flagged,
                scan.eigenvalues,
                scan.errors,
            )
        ],
    }
