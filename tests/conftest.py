"""Shared quadrature oracles, independent of the library's production paths.

Matrix elements and moments are checked against Gauss-Legendre quadrature on
(-pi, pi): the integrands are smooth on the open interval (including the
discontinuous angle phi_p, which Gauss nodes never place at the seam), so a
4096-point rule is exact to machine precision for every bandwidth used here.
The band storage of the diagonal and tridiagonal operators is checked
against the dense stencils it replaced.
The number/phase squeezed states are checked against their closed-form
Bessel branches, found by root bracketing without any pencil, the Newton
gamma minimization against a derivative-free golden-section search, the banded
pencil kernels against dense LAPACK (SVD and complex QZ), the batched
inverse iteration against the serial one it replaced, the scan (the axis
sweep and its determinant roots) against the real-QZ-plus-sweep
classification it replaced, the two-level
uncertainty floor against a linear program over the probability simplex, and
the ground-state f table against the same ground states reported through
the gamma-searching moment engine, its even-parity sector against the full
mode window and a 40-digit mpmath solve, and the f table and the
closed-form phase minimizer against the same problems solved by L-BFGS-B
(with the Euler-Lagrange first-integral check).  The minimizer's Delta L is
also checked against the floor ||(D - i w) psi|| of the linear phase,
computed with this module's own FFT derivative.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import brentq, linprog, minimize
from scipy.special import iv

import packetlab as pl
from packetlab.moments import GAMMA_SCAN_POINTS
from packetlab.operators import OperatorId
from packetlab.pencil import (
    _MAX_STEPS,
    _REFINE_ROUNDOFF,
    S_WINDOW,
    SWEEP_POINTS,
    SWEEP_RTOL,
    QuantizationScan,
    SingularPair,
    _axis_pairs,
    _family_problem,
    _iterate,
    _norms,
    _stack,
    _start_vector,
)
from packetlab.states import TAIL_TOL, tail_mass

GL_POINTS = 4096
# The QZ oracles' eigenvalues are not exactly on the imaginary axis: one
# counts as on it when |Re lambda| <= IMAG_AXIS_RTOL * (1 + |lambda|).
IMAG_AXIS_RTOL = 1e-8


@pytest.fixture(scope="session")
def gl_rule():
    x, w = np.polynomial.legendre.leggauss(GL_POINTS)
    return np.pi * x, np.pi * w  # nodes/weights for integral over (-pi, pi)


def eval_state(state: pl.AngularState, phis: np.ndarray) -> np.ndarray:
    m = state.window.modes
    return np.exp(1j * np.outer(phis, m)) @ state.coeffs / np.sqrt(2 * np.pi)


def gl_matrix_element(gl_rule, fun, m: int, n: int) -> complex:
    """integral of e^{-im phi} fun(phi) e^{in phi} dphi / (2 pi)."""
    phis, w = gl_rule
    return np.sum(w * fun(phis) * np.exp(1j * (n - m) * phis)) / (2 * np.pi)


def oracle_moments(gl_rule, state: pl.AngularState) -> dict:
    """Every moment from pointwise quadrature; L-moments via the analytic
    derivative of the mode expansion."""
    phis, w = gl_rule
    psi = eval_state(state, phis)
    m = state.window.modes
    dpsi = np.exp(1j * np.outer(phis, m)) @ (1j * m * state.coeffs) / np.sqrt(2 * np.pi)
    rho = np.abs(psi) ** 2
    mean_l = float(np.sum(w * np.imag(np.conj(psi) * dpsi)))
    mean_l2 = float(np.sum(w * np.abs(dpsi) ** 2))
    mean_cos = float(np.sum(w * rho * np.cos(phis)))
    mean_sin = float(np.sum(w * rho * np.sin(phis)))
    cos2 = float(np.sum(w * rho * np.cos(phis) ** 2))
    sin2 = float(np.sum(w * rho * np.sin(phis) ** 2))
    return {
        "mean_l": mean_l,
        "var_l": mean_l2 - mean_l**2,
        "mean_cos": mean_cos,
        "var_cos": cos2 - mean_cos**2,
        "mean_sin": mean_sin,
        "var_sin": sin2 - mean_sin**2,
    }


def oracle_delta_phi_p(gl_rule, state: pl.AngularState, refine: int = 400) -> tuple[float, float]:
    """Independent gamma minimization: quadrature of phi^2 |psi(phi+gamma)|^2
    on Gauss nodes, coarse scan plus parabolic-free golden refinement."""
    phis, w = gl_rule

    def V(gamma):
        psi = eval_state(state, phis + gamma)
        return float(np.sum(w * phis**2 * np.abs(psi) ** 2))

    grid = np.linspace(-np.pi, np.pi, 257)[1:]
    vals = np.array([V(g) for g in grid])
    if vals.max() - vals.min() <= 1e-12 * max(1.0, vals.max()):
        return np.sqrt(max(V(0.0), 0.0)), 0.0
    g0 = grid[int(np.argmin(vals))]
    a, b = g0 - 2 * np.pi / 256, g0 + 2 * np.pi / 256
    inv_phi = (np.sqrt(5) - 1) / 2
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = V(c), V(d)
    while b - a > 1e-11:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = V(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = V(d)
    g = 0.5 * (a + b)
    return np.sqrt(max(V(g), 0.0)), g


def minimized_second_moment_golden(bk: np.ndarray) -> tuple[float, float]:
    """Global minimum of V(gamma) = pi^2/3 + Re sum_k c_k e^{ik gamma} over
    (-pi, pi] without derivatives: the same coarse scan (by direct sums), candidate
    rule and smallest-|gamma| tie-break as the library, each candidate cell
    refined by golden section to a width of 1e-10 (so gamma_star is resolved
    only to ~sqrt(eps))."""
    ks = np.arange(1, bk.size)
    coef = 4.0 * (-1.0) ** ks / ks.astype(float) ** 2 * bk[1:]

    def V(gamma):
        g = np.atleast_1d(np.asarray(gamma, dtype=float))
        out = math.pi**2 / 3.0 + (np.exp(1j * np.outer(g, ks)) @ coef).real
        return out if out.size > 1 else float(out[0])

    n = GAMMA_SCAN_POINTS
    grid = -math.pi + 2.0 * math.pi * (np.arange(n) + 1.0) / n
    vals = V(grid)
    vmin, vmax = float(np.min(vals)), float(np.max(vals))
    if vmax - vmin <= 1e-13 * max(1.0, abs(vmax)):
        return float(V(0.0)), 0.0

    step = 2.0 * math.pi / n
    candidates = np.where(vals <= vmin + (math.pi / n) ** 2 + 1e-9 * max(1.0, abs(vmin)))[0]
    best = (math.inf, 0.0)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    for idx in candidates:
        a = grid[idx] - step
        b = grid[idx] + step
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
        fc, fd = V(c), V(d)
        while b - a > 1e-10:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                fc = V(c)
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                fd = V(d)
        g = 0.5 * (a + b)
        if g <= -math.pi:
            g += 2.0 * math.pi
        elif g > math.pi:
            g -= 2.0 * math.pi
        v = V(g)
        if v < best[0] - 1e-12 or (abs(v - best[0]) <= 1e-12 and abs(g) < abs(best[1])):
            best = (v, g)
    return best


def align_phase(v: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Multiply v by the unit phase that best matches ref."""
    k = int(np.argmax(np.abs(ref)))
    ph = ref[k] / v[k]
    return v * (ph / abs(ph))


def oscillator_branches(alpha: float) -> list[float]:
    """Every S in the default S window with an exact number/phase squeezed
    state at <N> = alpha.

    On m = 0, 1, ... the condition (N - alpha)c = iS (one-sided sin)c is the
    Bessel recurrence, solved by c_m = I_{m - alpha}(S) with the m = -1 term
    cut off, so a normalizable solution exists exactly where
    I_{-1-alpha}(S) = 0 (Jackiw, J. Math. Phys. 9, 339 (1968)).  At integer
    alpha, I_{-1-n} = I_{n+1} > 0 and there is none; otherwise the sign
    changes of I_{-1-alpha} on a fine grid are refined by Brent's method.
    """
    if alpha == round(alpha):
        return []

    def f(s):
        return iv(-1.0 - alpha, s)

    grid = np.linspace(S_WINDOW[0], S_WINDOW[1], 4001)
    sign = np.sign(f(grid))
    changes = np.nonzero(sign[1:] != sign[:-1])[0]
    return [brentq(f, grid[k], grid[k + 1], xtol=1e-15) for k in changes]


def dense_stencil(op_id: OperatorId, window: pl.ModeWindow) -> np.ndarray:
    """The dense matrix of a diagonal or tridiagonal operator, built entry by
    entry as the library built it before it stored these operators as
    bands: the modes on the diagonal of L and N, and 1/2 (cos) or +i/2 above
    and -i/2 below the diagonal (sin) for the stencils."""
    if op_id in (OperatorId.ANGULAR_MOMENTUM, OperatorId.NUMBER):
        return np.diag(window.modes.astype(complex))
    d = window.dimension
    half = 0.5j if op_id in (OperatorId.SIN_PHI, OperatorId.PHASE_SIN) else 0.5
    entries = np.zeros((d, d), dtype=complex)
    idx = np.arange(d - 1)
    entries[idx, idx + 1] = half
    entries[idx + 1, idx] = np.conj(half)
    return entries


def tridiagonal(bands) -> np.ndarray:
    """Dense matrix of the (sub, main, super) bands."""
    sub, main, sup = bands
    return np.diag(main) + np.diag(sub, -1) + np.diag(sup, 1)


def dense_smallest_singular_pair(T: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest singular value of T and its right singular vector, by dense SVD."""
    _, s, Vh = np.linalg.svd(T)
    return float(s[-1]), Vh[-1].conj()


def shifted(problem: pl.PencilProblem) -> tuple[np.ndarray, np.ndarray]:
    """Dense A - alpha and B - beta."""
    eye = np.eye(problem.window.dimension)
    return problem.A.entries - problem.alpha * eye, problem.B.entries - problem.beta * eye


def serial_inverse_iteration(T, v: np.ndarray, local=None) -> SingularPair:
    """Inverse iteration v <- (T^H T)^{-1} v on one tridiagonal T from unit v.

    The kernel the batched one replaced, kept as its oracle: T is factored
    once (?gttrf) and each step solves T^H z = v and then T y = z (?gttrs),
    rescaling z in between, in T's arithmetic (dgttrf/dgttrs for real T,
    zgttrf/zgttrs for complex T); an exactly singular factor, or a solve that
    overflows anyway, shifts the diagonal by roundoff and refactors (an LU
    nudge, which uses up a step).  It stops when sigma = ||T v|| changes by
    at most 1e-6 relative after the fourth step or, given ``local`` (a
    function of v), when sigma <= _REFINE_ROUNDOFF * local(v).  sigma is
    measured as the kernel measures it (:func:`packetlab.pencil._norms`,
    np.linalg.norm but for a norm below 2^-450, which is not let underflow).
    """

    def unit(y):
        peak = float(np.max(np.abs(y)))
        if not np.isfinite(peak) or peak == 0.0:
            return None
        y = y / peak
        return y / np.linalg.norm(y)

    def matvec(v):
        y = T[1] * v
        y[:-1] += T[2] * v[1:]
        y[1:] += T[0] * v[:-1]
        return y

    sub, main, sup = T
    gttrf, gttrs = sla.get_lapack_funcs(("gttrf", "gttrs"), (main,))
    lu = None
    nudges = 0
    sigma = math.inf
    for it in range(_MAX_STEPS):
        if lu is None:
            *lu, info = gttrf(sub, main, sup)
        z = unit(gttrs(*lu, v, trans="C")[0]) if info == 0 else None
        y = unit(gttrs(*lu, z)[0]) if z is not None else None
        if y is None:
            main = main + (1e-300 + 1e-16 * np.max(np.abs(main)))
            lu = None
            nudges += 1
            continue
        v = y
        new = float(_norms(matvec(v)[None])[0])
        if (it > 2 and abs(new - sigma) <= 1e-6 * max(new, 1e-300)) or (
            local is not None and new <= _REFINE_ROUNDOFF * local(v)
        ):
            return SingularPair(new, v, it + 1, nudges, True)
        sigma = new
    return SingularPair(float(_norms(matvec(v)[None])[0]), v, _MAX_STEPS, nudges, False)


def serial_pencil_pair(
    a: np.ndarray, b, lam: complex, v: np.ndarray, *, in_complex: bool = False
) -> SingularPair:
    """:func:`serial_inverse_iteration` on T(lambda) = (A - alpha) - lambda (B - beta),
    stopped at roundoff of ||(A - alpha)v|| + |lambda| ||(B - beta)v||.

    A T(lambda) with no imaginary part (lambda = iS on a sine pencil at
    beta = 0) is iterated in real arithmetic from the real part of v,
    normalized, as the batched kernel does; ``in_complex`` iterates every
    T(lambda) in complex arithmetic from v, the reference the real path is
    checked against."""
    T = (-lam * b[0], a - lam * b[1], -lam * b[2])
    if not in_complex and not any(np.any(x.imag) for x in T):
        T = tuple(x.real for x in T)
        v = v.real / np.linalg.norm(v.real)

    return serial_inverse_iteration(T, v, lambda u: float(local_scale(a, b, lam, u[None])[0]))


def complex_pencil_pairs(a: np.ndarray, b, lams, v: np.ndarray) -> list[SingularPair]:
    """The kernel's pairs of T(lambda) = (A - alpha) - lambda (B - beta) at
    any complex shifts, such as the QZ eigenvalues off the imaginary axis,
    in complex arithmetic from unit v and stopped at roundoff of the local
    scale: the library itself iterates on the imaginary axis only
    (:func:`packetlab.pencil._axis_pairs`)."""
    lam = np.asarray(lams, dtype=complex)[:, None]
    if lam.size == 0:
        return []
    return _iterate(_stack(-lam * b[0], a - lam * b[1], -lam * b[2]), v, a)


def local_scale(a: np.ndarray, b, lam, V: np.ndarray) -> np.ndarray:
    """||(A - alpha)v|| + |lambda| ||(B - beta)v|| for each row v of V, by
    the direct formula: the products with the diagonal a and the bands b of
    B - beta, not the kernel's identity |lambda| ||(B - beta)v|| =
    ||(A - alpha)v - T v||."""
    bv = b[1] * V
    bv[:, :-1] += b[2] * V[:, 1:]
    bv[:, 1:] += b[0] * V[:, :-1]
    norms = np.array([[np.linalg.norm(a * v), np.linalg.norm(x)] for v, x in zip(V, bv)])
    return norms[:, 0] + np.abs(lam) * norms[:, 1]


_SINE_IDS = {OperatorId.SIN_PHI, OperatorId.PHASE_SIN}
# i^k by table: 1j**k leaves roundoff in the real part of odd powers.
_I_POWERS = np.array([1.0, 1j, -1.0, -1j])


def qz_eigenvalues(problem: pl.PencilProblem, a: np.ndarray, b) -> np.ndarray:
    """Finite eigenvalues of the pencil by real QZ, without eigenvectors.

    The solver the library ran before its axis roots came from the sweep:
    the exact unitary similarity D = diag(i^k) makes the sine operators the
    real symmetric tridiagonal -C (the cosine ones already are real), so
    real QZ on (diag(A - alpha), D^H (B - beta) D) returns every eigenvalue.
    """
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
        raise pl.SingularPencilError(
            f"QZ failed for alpha={problem.alpha}, beta={problem.beta}: {exc}; "
            "try perturbing beta"
        ) from exc
    w = w[np.isfinite(w)]
    if w.size == 0:
        raise pl.SingularPencilError(
            f"pencil has no finite eigenvalues at alpha={problem.alpha}, "
            f"beta={problem.beta}; try perturbing beta"
        )
    return w


def quantization_scan_qz(family: str, alphas, M: int, beta: float = 0.0) -> QuantizationScan:
    """Quantization scan whose every point is classified the way the library
    did while it ran QZ: the real QZ eigenvalues (:func:`qz_eigenvalues`)
    and the certified axis-sweep grid values, each with its inverse-iteration
    pair, classified by the candidate and physical rules, with no
    determinant roots.

    Only QZ eigenvalues with Im lambda inside S_WINDOW get a pair, in
    complex arithmetic (:func:`complex_pencil_pairs`): no other can be a
    candidate, and a shift's pair does not depend on the other shifts of
    its batch.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    s = np.linspace(S_WINDOW[0], S_WINDOW[1], SWEEP_POINTS)
    floor, flagged = [], []
    for alpha in alphas:
        problem = _family_problem(family, alpha, beta, M)
        a, b = problem.bands()
        qz = qz_eigenvalues(problem, a, b)
        qz = qz[(qz.imag >= S_WINDOW[0]) & (qz.imag <= S_WINDOW[1])]
        lams = np.concatenate([qz, 1j * s])
        v = _start_vector(a.size)
        pairs = complex_pencil_pairs(a, b, qz, v) + _axis_pairs(a, b, s, v)
        V = np.array([p.vector for p in pairs], dtype=complex)
        sigma = np.array([p.sigma for p in pairs])
        certified = sigma[qz.size:] <= SWEEP_RTOL * local_scale(a, b, 1j * s, V[qz.size:])
        keep = np.concatenate([np.ones(qz.size, dtype=bool), certified])
        w = lams[keep]
        tails = tail_mass(V[keep].T, problem.window)
        cand = (w.imag >= S_WINDOW[0]) & (w.imag <= S_WINDOW[1]) & (tails < TAIL_TOL)
        physical = cand & (np.abs(w.real) <= IMAG_AXIS_RTOL * (1.0 + np.abs(w)))
        floor.append(pl.uncertainty_floor(problem.A, alpha)[0])
        flagged.append(bool(np.any(physical)))
    return QuantizationScan(family, alphas, np.array(floor), np.array(flagged, dtype=bool))


def dense_pencil_eigenvalues(problem: pl.PencilProblem) -> np.ndarray:
    """Finite eigenvalues of the pencil by dense complex QZ."""
    Aef, Bef = shifted(problem)
    w = sla.eigvals(Aef, Bef)
    return w[np.isfinite(w)]


def uncertainty_floor_bruteforce(A: pl.OperatorMatrix, alpha: float) -> float:
    """Minimal Delta A at <A> = alpha by direct minimization over the
    probability simplex.

    min sum_k p_k (a_k - alpha)^2 subject to sum p = 1, sum p a = alpha,
    p >= 0 is a linear program in p; the dual-simplex solution is a vertex
    and therefore exact to roundoff.
    """
    spec = np.real(np.diagonal(A.entries))
    res = linprog(
        (spec - alpha) ** 2,
        A_eq=np.vstack([np.ones_like(spec), spec]),
        b_eq=np.array([1.0, alpha]),
        bounds=[(0.0, None)] * spec.size,
        method="highs-ds",
    )
    assert res.success, f"constrained minimization infeasible at alpha={alpha}"
    return math.sqrt(max(res.fun, 0.0))


def f_table_via_moments(targets, m: int = 0) -> pl.FTable:
    """f table from the same ground states, reported through ``moments``.

    The Newton loop of :func:`packetlab.f_table` finds the ground state of
    L^2 + mu Phi_p^2 for each target on the even-parity sector; here the
    sector matrix is folded afresh from the window's Phi_p^2, and the
    expanded ground state is shifted by m modes (phase slope m) and handed
    to the moment engine, whose Delta L is taken about the shifted mean and
    whose Delta phi_p comes from its coarse scan and Newton search over
    gamma.  A point counts as converged when it is within F_CONSTRAINT_TOL
    of its target and the ground state's tail mass is below
    ``states.TAIL_TOL``.
    """
    from packetlab.variational import F_MAX_OUTER, F_MODES, F_NEWTON_TOL

    F_CONSTRAINT_TOL = 1e-6
    targets = np.sort(np.atleast_1d(np.asarray(targets, dtype=float)))
    window = pl.ModeWindow.symmetric(F_MODES)
    P = pl.build(pl.OperatorId.PHI_P_SQUARED, window).entries.real
    # fold onto |0>, (|k> + |-k>)/sqrt(2): rows and columns k and -k add
    fold = np.zeros((F_MODES + 1, window.dimension))
    fold[0, F_MODES] = 1.0
    for k in range(1, F_MODES + 1):
        fold[k, F_MODES + k] = fold[k, F_MODES - k] = math.sqrt(0.5)
    L2 = np.diag(np.arange(F_MODES + 1.0) ** 2)
    P2 = fold @ P @ fold.T
    shifted_window = pl.ModeWindow.symmetric(F_MODES + abs(m))

    out_t, out_f, out_ok = [], [], []
    for t in targets:
        mu = 0.25 / t**4
        for _ in range(F_MAX_OUTER):
            E, V = np.linalg.eigh(L2 + mu * P2)
            p = V.T @ (P2 @ V[:, 0])
            dp = math.sqrt(p[0])
            if abs(dp - t) <= F_NEWTON_TOL:
                break
            d2 = -2.0 * float(np.sum(p[1:] ** 2 / (E[1:] - E[0])))
            mu *= math.exp(min(max((t - dp) / (mu * d2 / (2.0 * dp)), -3.0), 3.0))
        v = fold.T @ V[:, 0]
        c = np.zeros(shifted_window.dimension)
        c[abs(m) + m : abs(m) + m + window.dimension] = v
        rep = pl.moments(pl.normalize(c, shifted_window))
        dp = rep.delta_phi_p
        flin = 2.0 * rep.delta_l * dp / (1.0 - 3.0 * dp**2 / math.pi**2)
        out_t.append(dp)
        out_f.append(flin**2)
        out_ok.append(abs(dp - t) <= F_CONSTRAINT_TOL and tail_mass(v, window) < TAIL_TOL)
    order = np.argsort(out_t)
    return pl.FTable(
        np.asarray(out_t)[order], np.asarray(out_f)[order], np.asarray(out_ok)[order]
    )


def full_window_ground_state(mu: float, M: int) -> np.ndarray:
    """Ground state of L^2 + mu Phi_p^2 on all modes -M..M: the 129 x 129
    solve (at M = 64) that f_table ran before it moved to the even sector."""
    window = pl.ModeWindow.symmetric(M)
    P = pl.build(pl.OperatorId.PHI_P_SQUARED, window).entries.real
    return np.linalg.eigh(np.diag(window.modes.astype(float) ** 2) + mu * P)[1][:, 0]


def sector_ground_state_mp(L2: np.ndarray, P2: np.ndarray, mu: float, dps: int = 40):
    """(Delta L)^2 and Delta phi_p of the ground state of the sector matrix
    L2 + mu P2 (diagonal L2, entries taken as exact), carried at ``dps``
    digits.

    The vector is one step of inverse iteration, shifted by the double
    ground energy, from the double ground state; the step shrinks its error
    by about (E0 - shift) / (E1 - E0) ~ 1e-17, to ~1e-30.  Its Rayleigh
    quotient must equal the least eigenvalue from ``mpmath.eigsy``, so the
    vector is the ground state and not a neighbour.  (Taking the vector
    from ``eigsy`` as well costs three times as long and moves the results
    by 3e-31 relative at mu = 1e-3.)
    """
    import mpmath

    with mpmath.workdps(dps):
        n = L2.shape[0]
        E, V = np.linalg.eigh(L2 + mu * P2)
        H = mpmath.matrix((L2 + mu * P2).tolist())
        shifted = H - mpmath.mpf(float(E[0])) * mpmath.eye(n)
        u = mpmath.lu_solve(shifted, mpmath.matrix(V[:, 0].tolist()))
        u /= mpmath.norm(u)
        e0 = mpmath.eigsy(H, eigvals_only=True)[0]
        # eigsy itself agrees to ~1e-30; the gap to the next level is O(1)
        assert abs((u.T * H * u)[0] - e0) <= mpmath.mpf(10) ** (15 - dps) * (1 + abs(e0))
        var_l = mpmath.fsum(mpmath.mpf(L2[k, k]) * u[k] ** 2 for k in range(n))
        p2 = (u.T * mpmath.matrix(P2.tolist()) * u)[0]
        return var_l, mpmath.sqrt(p2)


# f_table_lbfgsb: cosine harmonics of the modulus square root g
F_MODULUS_HARMONICS = 32


def _density_bk(rho: np.ndarray, kmax: int) -> np.ndarray:
    """b_k = integral rho e^{-i k phi} dphi on the grid starting at -pi."""
    F = np.fft.fft(rho) * (2.0 * np.pi / rho.size)
    ks = np.arange(kmax + 1)
    return F[ks] * (-1.0) ** ks


def f_table_lbfgsb(targets, m: int = 0, *, grid: int = 512) -> pl.FTable:
    """f table by direct minimization over modulus profiles on an angle grid.

    The same problem as :func:`packetlab.f_table`, solved without its
    ground-state duality: the modulus is r = g^2 with g in
    F_MODULUS_HARMONICS cosine harmonics on ``grid`` angles, each target is
    met by an augmented penalty loop (von Mises start, multiplier and
    penalty updates), every penalty round is minimized by L-BFGS-B on the
    gradient alone, and each point is reported through the assembled state.
    """
    from packetlab.moments import minimized_second_moment
    from packetlab.variational import F_MAX_OUTER

    F_CONSTRAINT_TOL = 1e-6  # accepted |Delta phi_p - t| of a penalty loop

    targets = np.sort(np.atleast_1d(np.asarray(targets, dtype=float)))
    G = grid
    h = 2.0 * np.pi / G
    phi = pl.grid_angles(G)
    ns = np.arange(F_MODULUS_HARMONICS)
    COS = np.cos(np.outer(phi, ns))
    DCOS = -np.sin(np.outer(phi, ns)) * ns
    kmax = min(4 * F_MODULUS_HARMONICS + 8, G // 2 - 1)
    ks = np.arange(1, kmax + 1)
    w2 = np.pi**2 / 3.0 + (4.0 * (-1.0) ** ks / ks.astype(float) ** 2) @ np.cos(
        np.outer(ks, phi)
    )

    def pieces(q, want_grad=True):
        g = COS @ q
        gp = DCOS @ q
        g2 = g * g
        g3 = g2 * g
        g4 = g2 * g2
        Z = h * np.sum(g4)
        dl2 = 4.0 * h * np.sum(g2 * gp * gp) / Z
        V0 = h * np.sum(g4 * w2) / Z
        if not want_grad:
            return dl2, V0
        dZ = 4.0 * h * (g3 @ COS)
        ddl2 = 8.0 * h * ((g * gp * gp) @ COS + (g2 * gp) @ DCOS) / Z - dl2 / Z * dZ
        dV0 = 4.0 * h * ((g3 * w2) @ COS) / Z - V0 / Z * dZ
        return dl2, V0, ddl2, dV0

    def solve_target(t, q0):
        y, mu = 0.0, 100.0
        q = q0.copy()
        viol_prev = None
        for _ in range(F_MAX_OUTER):
            def penalized(qv):
                dl2, V0, ddl2, dV0 = pieces(qv)
                dp = math.sqrt(V0)
                c = dp - t
                dc = dV0 / (2.0 * dp)
                return dl2 + y * c + 0.5 * mu * c * c, ddl2 + (y + mu * c) * dc

            res = minimize(
                penalized,
                q,
                jac=True,
                method="L-BFGS-B",
                options=dict(maxiter=800, ftol=1e-16, gtol=1e-12),
            )
            q = res.x
            dl2, V0 = pieces(q, want_grad=False)
            c = math.sqrt(V0) - t
            if abs(c) <= F_CONSTRAINT_TOL:
                return q, True
            y += mu * c
            if viol_prev is not None and abs(c) > 0.25 * abs(viol_prev):
                mu *= 10.0
            viol_prev = c
        return q, False

    kappa = max(0.05, 1.0 / targets[0] ** 2)
    q = np.linalg.lstsq(COS, np.exp(0.25 * kappa * (np.cos(phi) - 1.0)), rcond=None)[0]

    out_t, out_f, out_ok = [], [], []
    for t in targets:
        q, ok = solve_target(t, q)
        g = COS @ q
        r = pl.modulus_profile(g * g)
        dl = pl.delta_l_of(r, pl.linear_phase(G, m))
        rho = r.values**2
        vmin, _ = minimized_second_moment(_density_bk(rho, kmax))
        dp = math.sqrt(max(vmin, 0.0))
        flin = 2.0 * dl * dp / (1.0 - 3.0 * dp**2 / math.pi**2)
        out_t.append(dp)
        out_f.append(flin**2)
        out_ok.append(ok)
    order = np.argsort(out_t)
    return pl.FTable(
        np.asarray(out_t)[order], np.asarray(out_f)[order], np.asarray(out_ok)[order]
    )


#: largest variation of the first integral r^2 (theta' - <L>) accepted from
#: a converged minimization by minimize_phase_lbfgsb
FIRST_INTEGRAL_TOL = 1e-6


def phase_profile(theta: np.ndarray, slope: float) -> pl.PhaseProfile:
    """Wrap phase samples, fitting the offset at the given (topological) slope."""
    phi = pl.grid_angles(theta.size)
    offset = float(np.mean(theta - slope * phi))
    resid = float(np.max(np.abs(theta - slope * phi - offset)))
    return pl.PhaseProfile(theta, float(slope), offset, resid)


def first_integral(r: pl.ModulusProfile, theta: pl.PhaseProfile) -> np.ndarray:
    """Pointwise r^2 (theta' - <L>): constant for a variational minimizer (the
    Euler-Lagrange first integral), theta' by the FFT of theta's periodic part."""
    from packetlab.variational import _spectral_derivative

    phi = pl.grid_angles(r.grid)
    dtheta = np.real(_spectral_derivative(theta.theta - theta.slope * phi + 0j)) + theta.slope
    return r.values**2 * (dtheta - pl.mean_l_of(r, theta))


def minimize_phase_lbfgsb(r: pl.ModulusProfile, winding: float):
    """Phase minimization by L-BFGS-B on the continuum gradient, then a
    two-step Newton polish on the continuum Hessian, keeping the better of
    the two, from the zero correction.

    The problem and parametrization of :func:`packetlab.minimize_phase`
    (winding * phi plus PHASE_HARMONICS cosine and sine harmonics, the
    spectral derivative of the assembled psi), minimized by search instead
    of taken in closed form, and checked against the Euler-Lagrange first
    integral r^2 (theta' - <L>) = const where the modulus vanishes nowhere
    and the winding is an integer.  The gradient is that of the continuum
    functional rather than of the grid objective being minimized.
    """
    from packetlab.variational import PHASE_HARMONICS, _check_winding, _l_moments

    winding = _check_winding(winding)
    G = r.grid
    phi = pl.grid_angles(G)
    rv = r.values
    h = 2.0 * np.pi / G

    has_zero = r.vanishes
    if has_zero:
        warnings.warn(
            "modulus vanishes on the grid; skipping the linear-phase assertion",
            pl.ModulusZeroWarning,
        )
    admissible = (not has_zero) and abs(winding - round(winding)) < 1e-12

    ns = np.arange(1, PHASE_HARMONICS + 1)
    basis = np.hstack([np.cos(np.outer(phi, ns)), np.sin(np.outer(phi, ns))])
    dbasis = np.hstack(
        [-np.sin(np.outer(phi, ns)) * ns, np.cos(np.outer(phi, ns)) * ns]
    )
    r2 = rv**2

    def objective(x):
        theta = winding * phi + basis @ x
        mean_l, mean_l2, psi, dpsi = _l_moments(rv, theta)
        val = mean_l2 - mean_l**2
        # gradient of the continuum variance wrt the correction coefficients
        u1 = np.imag(np.conj(psi) * dpsi) - mean_l * r2
        grad = 2.0 * h * (u1 @ dbasis)
        return val, grad

    res = minimize(
        objective,
        np.zeros(2 * PHASE_HARMONICS),
        jac=True,
        method="L-BFGS-B",
        options=dict(maxiter=2000, ftol=1e-18, gtol=1e-12, maxcor=60, maxls=60),
    )
    x = res.x
    # Newton polish with the continuum Hessian, kept only if it improves
    wts = h * r2
    A = dbasis.T @ (wts[:, None] * dbasis)
    bvec = dbasis.T @ wts
    hessian = 2.0 * (A - np.outer(bvec, bvec))
    for _ in range(2):
        _, grad = objective(x)
        try:
            x = x - np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            break
    if objective(x)[0] > objective(res.x)[0]:
        x = res.x
    theta = winding * phi + basis @ x
    profile = phase_profile(theta, winding)
    mean_l, mean_l2, _, _ = _l_moments(rv, theta)
    delta_l = math.sqrt(max(mean_l2 - mean_l**2, 0.0))

    if admissible:
        fi = first_integral(r, profile)
        spread = float(np.max(np.abs(fi - np.mean(fi))))
        if spread > FIRST_INTEGRAL_TOL:
            raise pl.ConvergenceError(
                f"first integral varies by {spread:.2e} > {FIRST_INTEGRAL_TOL}; "
                "the phase minimization did not converge"
            )
    return profile, delta_l


def antiperiodic_modulus(G: int, seed: int) -> pl.ModulusProfile:
    """``random_smooth_modulus(G, seed)`` times cos(phi/2), normalized: a
    modulus that flips sign around the circle, so half-integer windings are
    admissible on it (its seam sample r(-pi) is ~6e-17 of the peak)."""
    phi = pl.grid_angles(G)
    return pl.modulus_profile(pl.random_smooth_modulus(G, seed).values * np.cos(0.5 * phi))


def linear_phase_floor(r: np.ndarray, winding: float) -> float:
    """||(D - i w) psi||_2 of psi = r e^{i w phi} on the grid phi_j = -pi +
    2 pi j / G, w the winding: (D - i w) psi = r' e^{i w phi}, so this is
    ||r'||, the Delta L of the linear phase, which is the least Delta L over
    phases of that winding for an admissible modulus (periodic at integer w,
    sign-flipping around the circle at half-integer w).

    D is this oracle's own FFT derivative of the assembled (periodic) psi,
    with the Nyquist term of an even G dropped.
    """
    G = r.size
    phi = -np.pi + 2.0 * np.pi * np.arange(G) / G
    psi = r * np.exp(1j * winding * phi)
    k = np.fft.fftfreq(G, 1.0 / G)
    if G % 2 == 0:
        k[G // 2] = 0.0
    u = np.fft.ifft(1j * k * np.fft.fft(psi)) - 1j * winding * psi
    return math.sqrt(2.0 * np.pi / G * float(np.sum(np.abs(u) ** 2)))
