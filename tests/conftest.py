"""Shared quadrature oracles, independent of the library's production paths.

Matrix elements and moments are checked against Gauss-Legendre quadrature on
(-pi, pi): the integrands are smooth on the open interval (including the
discontinuous angle phi_p, which Gauss nodes never place at the seam), so a
4096-point rule is exact to machine precision for every bandwidth used here.
The number/phase squeezed states are checked against their closed-form
Bessel branches, found by root bracketing without any pencil, the banded
pencil kernels against dense LAPACK (SVD and complex QZ), the two-level
uncertainty floor against a linear program over the probability simplex, and
the ground-state f table against the same ground states reported through
the gamma-searching moment engine, and the f table and the Newton phase
minimizer against the same problems solved by L-BFGS-B.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import brentq, linprog, minimize
from scipy.special import iv

import packetlab as pl
from packetlab.pencil import S_WINDOW

GL_POINTS = 4096


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
    L^2 + mu Phi_p^2 for each target; here that state is shifted by m modes
    (phase slope m) and handed to the moment engine, whose Delta L is taken
    about the shifted mean and whose Delta phi_p comes from its coarse scan
    and golden-section search over gamma.  A point counts as converged when
    it is within F_CONSTRAINT_TOL of its target and the ground state's tail
    mass is below ``states.TAIL_TOL``.
    """
    from packetlab.states import TAIL_TOL, tail_mass
    from packetlab.variational import F_MAX_OUTER, F_MODES, F_NEWTON_TOL

    F_CONSTRAINT_TOL = 1e-6
    targets = np.sort(np.atleast_1d(np.asarray(targets, dtype=float)))
    window = pl.ModeWindow.symmetric(F_MODES)
    L2 = np.diag(window.modes.astype(float) ** 2)
    P2 = pl.build(pl.OperatorId.PHI_P_SQUARED, window).entries.real
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
        c = np.zeros(shifted_window.dimension)
        c[abs(m) + m : abs(m) + m + window.dimension] = V[:, 0]
        rep = pl.moments(pl.normalize(c, shifted_window))
        dp = rep.delta_phi_p
        flin = 2.0 * rep.delta_l * dp / (1.0 - 3.0 * dp**2 / math.pi**2)
        out_t.append(dp)
        out_f.append(flin**2)
        out_ok.append(abs(dp - t) <= F_CONSTRAINT_TOL and tail_mass(V[:, 0], window) < TAIL_TOL)
    order = np.argsort(out_t)
    return pl.FTable(
        np.asarray(out_t)[order], np.asarray(out_f)[order], np.asarray(out_ok)[order]
    )


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


def minimize_phase_lbfgsb(r: pl.ModulusProfile, winding: float, *, initial_coeffs=None):
    """Phase minimization by L-BFGS-B on the continuum gradient, then a
    two-step Newton polish on the continuum Hessian, keeping the better of
    the two.

    The same problem and parametrization as :func:`packetlab.minimize_phase`
    (winding * phi plus PHASE_HARMONICS cosine and sine harmonics, the
    spectral derivative of the assembled psi, the first-integral check), but
    the gradient is that of the continuum functional rather than of the grid
    objective being minimized.
    """
    from packetlab.variational import (
        FIRST_INTEGRAL_TOL,
        PHASE_HARMONICS,
        ZERO_LEVEL,
        _check_winding,
        _l_moments,
        phase_profile,
    )

    winding = _check_winding(winding)
    G = r.grid
    phi = pl.grid_angles(G)
    rv = r.values
    h = 2.0 * np.pi / G

    has_zero = r.min_abs <= ZERO_LEVEL * float(np.max(np.abs(rv)))
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

    x0 = np.zeros(2 * PHASE_HARMONICS) if initial_coeffs is None else np.asarray(initial_coeffs, float)
    res = minimize(
        objective,
        x0,
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
    profile = replace(
        phase_profile(theta, winding),
        optimizer_success=bool(res.success),
        optimizer_message=str(res.message),
    )
    mean_l, mean_l2, _, _ = _l_moments(rv, theta)
    delta_l = math.sqrt(max(mean_l2 - mean_l**2, 0.0))

    if admissible:
        fi = pl.first_integral(r, profile)
        spread = float(np.max(np.abs(fi - np.mean(fi))))
        if spread > FIRST_INTEGRAL_TOL:
            raise pl.ConvergenceError(
                f"first integral varies by {spread:.2e} > {FIRST_INTEGRAL_TOL}; "
                "the phase minimization did not converge"
            )
    return profile, delta_l
