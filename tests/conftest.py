"""Shared quadrature oracles, independent of the library's production paths.

Matrix elements and moments are checked against Gauss-Legendre quadrature on
(-pi, pi): the integrands are smooth on the open interval (including the
discontinuous angle phi_p, which Gauss nodes never place at the seam), so a
4096-point rule is exact to machine precision for every bandwidth used here.
The number/phase squeezed states are checked against their closed-form
Bessel branches, found by root bracketing without any pencil, the banded
pencil kernels against dense LAPACK (SVD and complex QZ), and the two-level
uncertainty floor against a linear program over the probability simplex.
"""

import math

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import brentq, linprog
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
