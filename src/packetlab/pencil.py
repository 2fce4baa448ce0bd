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
from scipy.optimize import linprog

from .errors import (
    IncompatibleFamilyError,
    OutOfRangeError,
    SingularPencilError,
    WindowMismatchError,
)
from .operators import OperatorId, OperatorMatrix, build
from .states import AngularState, ModeWindow

# Physicality defaults; all overridable per call and reported in the output.
S_WINDOW = (0.1, 8.0)
IMAG_AXIS_RTOL = 1e-8
TAIL_TOL = 1e-8
SWEEP_RTOL = 1e-12
SWEEP_POINTS = 80

_A_IDS = {OperatorId.ANGULAR_MOMENTUM, OperatorId.NUMBER}
_B_IDS = {OperatorId.SIN_PHI, OperatorId.COS_PHI, OperatorId.PHASE_SIN, OperatorId.PHASE_COS}
_SINE_IDS = {OperatorId.SIN_PHI, OperatorId.PHASE_SIN}
# i^k by table: 1j**k leaves roundoff in the real part of odd powers.
_I_POWERS = np.array([1.0, 1j, -1.0, -1j])
# Refinement at an eigenvalue stops once ||T v|| is this many units of
# roundoff of the local scale ||(A - alpha)v|| + |lambda| ||(B - beta)v||.
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
        if abs(self.beta) >= 1.0:
            raise ValueError(
                f"|beta| must be < 1 (the coordinate spectrum is [-1, 1]), got {self.beta}"
            )

    @property
    def window(self) -> ModeWindow:
        return self.A.window

    def shifted(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense A - alpha and B - beta."""
        d = self.window.dimension
        eye = np.eye(d)
        return self.A.entries - self.alpha * eye, self.B.entries - self.beta * eye

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
    physical: np.ndarray           # bool flags per the reported tolerances
    converged: np.ndarray          # bool: the pair's inverse iteration converged
    s_window: tuple[float, float]
    imag_axis_rtol: float
    tail_tol: float

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


def _inverse_iteration(T: Bands, v: np.ndarray, iters: int, local=None) -> SingularPair:
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
    for it in range(iters):
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
    return SingularPair(float(np.linalg.norm(_tri_matvec(T, v))), v, iters, nudges, False)


def _start_vector(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def smallest_singular_pair(
    T: Bands, *, iters: int = _MAX_STEPS, seed: int = _START_SEED
) -> SingularPair:
    """Smallest singular value of the tridiagonal T = (sub, main, super) and
    its right singular vector.

    Banded inverse iteration from a seeded random start, O(n) per step and
    one LU factorization in all.  The returned pair always satisfies
    ||T v|| = sigma exactly, so sigma is a certified eigenpair residual;
    ``converged`` is False when ``iters`` steps ran out first.
    """
    return _inverse_iteration(T, _start_vector(T[1].size, seed), iters)


def _pencil_bands(a: np.ndarray, b: Bands, lam: complex) -> Bands:
    """Bands of T(lambda) = (A - alpha) - lambda (B - beta)."""
    return -lam * b[0], a - lam * b[1], -lam * b[2]


def _local_scale(a: np.ndarray, b: Bands, lam: complex, v: np.ndarray) -> float:
    """||(A - alpha)v|| + |lambda| ||(B - beta)v||."""
    return float(np.linalg.norm(a * v) + abs(lam) * np.linalg.norm(_tri_matvec(b, v)))


def _refine(a: np.ndarray, b: Bands, lam: complex, v: np.ndarray) -> SingularPair:
    """Eigenvector at a computed eigenvalue: the sweep kernel, stopping as
    soon as the residual reaches roundoff of the local scale."""
    return _inverse_iteration(
        _pencil_bands(a, b, lam), v, _MAX_STEPS, lambda u: _local_scale(a, b, lam, u)
    )


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
    pair = smallest_singular_pair(_pencil_bands(a, b, 1j * s))
    return AngularState(problem.window, pair.vector), pair.sigma


def _tail_masses(V: np.ndarray, window: ModeWindow, fraction: float = 0.1) -> np.ndarray:
    m = window.modes
    cut = (1.0 - fraction) * window.M
    sel = np.abs(m) > cut if window.is_symmetric else m > cut
    return np.sum(np.abs(V[sel, :]) ** 2, axis=0)


def solve_pencil(
    problem: PencilProblem,
    *,
    s_window: tuple[float, float] = S_WINDOW,
    imag_axis_rtol: float = IMAG_AXIS_RTOL,
    tail_tol: float = TAIL_TOL,
    axis_sweep: bool = True,
    sweep_points: int = SWEEP_POINTS,
    sweep_rtol: float = SWEEP_RTOL,
) -> PencilSolution:
    """All eigenpairs of the truncated pencil, real QZ plus axis-sweep certificates.

    The eigenvalues come from eigenvalue-only real QZ on the pair
    (A - alpha, D^H (B - beta) D), D = diag(i^k); each finite eigenvalue's
    unit vector from banded inverse iteration on (A-alpha) - lambda(B-beta),
    which stops once the residual is at roundoff.  Every returned pair obeys
    the residual bound
    ||(A-alpha)v - lambda(B-beta)v|| <= 1e-9 (||A-alpha|| + |lambda| ||B-beta||);
    pairs are sorted by |Re lambda|.  The axis sweep adds (iS, v) for each of
    ``sweep_points`` values S across ``s_window`` whose smallest singular pair
    (sigma, v) of (A-alpha) - iS(B-beta) satisfies
    sigma <= sweep_rtol * (||(A-alpha)v|| + S ||(B-beta)v||).  That local
    scale is independent of the truncation M.  Integer <N> >= 4 of the
    number/phase family still certify, because their boundary defect is
    below double precision.  A pair is flagged physical when
    |Re lambda| <= imag_axis_rtol * (1 + |lambda|), Im lambda lies inside
    ``s_window`` and the eigenvector tail mass is below ``tail_tol``.
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
    v0 = _start_vector(a.size, _START_SEED)
    pairs = [_refine(a, b, lam, v0) for lam in w]
    swept = [False] * len(pairs)

    if axis_sweep:
        norm_a = float(np.max(np.abs(a)))
        norm_b = problem.b_norm()
        certified = []
        for s in np.linspace(s_window[0], s_window[1], sweep_points):
            pair = smallest_singular_pair(_pencil_bands(a, b, 1j * s))
            # The global scale bounds the local one, so it screens out points
            # that cannot certify before the local norm is computed.
            if pair.sigma > sweep_rtol * (norm_a + s * norm_b):
                continue
            if pair.sigma <= sweep_rtol * _local_scale(a, b, 1j * s, pair.vector):
                certified.append(1j * s)
                pairs.append(pair)
        w = np.concatenate([w, np.array(certified, dtype=complex)])
        swept += [True] * len(certified)

    V = np.column_stack([p.vector for p in pairs])
    residuals = np.array([p.sigma for p in pairs])
    converged = np.array([p.converged for p in pairs], dtype=bool)
    swept = np.array(swept, dtype=bool)
    tails = _tail_masses(V, problem.window)
    order = np.argsort(np.abs(w.real), kind="stable")
    w, V = w[order], V[:, order]
    residuals, tails, swept, converged = residuals[order], tails[order], swept[order], converged[order]

    physical = (
        (np.abs(w.real) <= imag_axis_rtol * (1.0 + np.abs(w)))
        & (w.imag >= s_window[0])
        & (w.imag <= s_window[1])
        & (tails < tail_tol)
    )
    return PencilSolution(
        problem=problem,
        eigenvalues=w,
        vectors=V,
        residuals=residuals,
        tail_masses=tails,
        swept=swept,
        physical=physical,
        converged=converged,
        s_window=s_window,
        imag_axis_rtol=imag_axis_rtol,
        tail_tol=tail_tol,
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
    if alpha < spec.min() - 1e-12 or alpha > spec.max() + 1e-12:
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


def uncertainty_floor_bruteforce(A: OperatorMatrix, alpha: float) -> float:
    """Independent check: direct minimization over the probability simplex.

    min sum_k p_k (a_k - alpha)^2 subject to sum p = 1, sum p a = alpha,
    p >= 0 is a linear program in p; the dual-simplex solution is a vertex
    and therefore exact to roundoff.
    """
    spec = np.real(np.diagonal(A.entries))
    cost = (spec - alpha) ** 2
    res = linprog(
        cost,
        A_eq=np.vstack([np.ones_like(spec), spec]),
        b_eq=np.array([1.0, alpha]),
        bounds=[(0.0, None)] * spec.size,
        method="highs-ds",
    )
    if not res.success:
        raise OutOfRangeError(f"constrained minimization infeasible at alpha={alpha}")
    return math.sqrt(max(res.fun, 0.0))


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
    **solve_kwargs,
) -> QuantizationScan:
    """Scan expectation values for the existence of physical squeezed states.

    Per alpha the pencil is solved, the minimal |Re lambda| over candidates
    (eigenvalues inside the S window with small eigenvector tails) recorded,
    and the two-level uncertainty floor at <A> = alpha attached.  Points where
    the solve fails are flagged in ``errors`` instead of aborting the scan.

    Scan points are independent; ``max_workers`` > 1 evaluates them in a
    thread pool with output assembled in grid order.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    if np.any(np.abs(alphas) > M / 2):
        raise OutOfRangeError(f"scan grid must satisfy |alpha| <= M/2 = {M / 2}")
    _check_family(family, alphas)

    s_window = solve_kwargs.get("s_window", S_WINDOW)
    tail_tol = solve_kwargs.get("tail_tol", TAIL_TOL)

    def one(alpha: float):
        problem = _family_problem(family, alpha, beta, M)
        floor, _ = uncertainty_floor(problem.A, alpha)
        try:
            sol = solve_pencil(problem, **solve_kwargs)
        except SingularPencilError as exc:
            none = np.array([], dtype=complex)
            return math.inf, floor, False, none, none, str(exc)
        cand = (
            (sol.eigenvalues.imag >= s_window[0])
            & (sol.eigenvalues.imag <= s_window[1])
            & (sol.tail_masses < tail_tol)
        )
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
