"""Variational analysis of psi = r e^{i theta} on the periodic grid.

Writing a circle wave function as a real modulus r(phi) times a phase
e^{i theta(phi)} splits the angular-momentum uncertainty into

    (Delta L)^2 = integral (r'^2 + r^2 theta'^2) dphi
                  - (integral r^2 theta' dphi)^2,

with the normalization integral r^2 dphi = 1.  At fixed modulus the minimum
over theta is attained by a linear phase, and periodicity of psi quantizes
the admissible slopes: integer winding for a periodic modulus, half-integer
winding when the modulus flips sign around the circle (the antiperiodic
class).  The minimum then satisfies <L> = winding, and half-integer windings
cannot reach below Delta L = 1/2 (two neighboring integer modes mixed
equally).

Derivatives never touch theta directly: the assembled psi is differentiated
spectrally, which avoids the seam artifacts of the discontinuous angle, and
the phase is minimized by Newton trust-region steps on the exact gradient
and Hessian of that grid objective.

The module also computes the numeric right-hand-side factor f of the
modified (Judge-type) uncertainty relation by constrained minimization of
Delta L over even positive modulus profiles at fixed gamma-minimized angle
spread: an augmented penalty loop whose rounds are each solved by Newton
trust-region steps on the closed-form gradient and Hessian (Moré & Sorensen,
SIAM J. Sci. Stat. Comput. 4 (1983)).  The table stores

    f = [2 Delta L Delta phi_p / (1 - 3 Delta phi_p^2 / pi^2)]^2,

normalized so that f -> 1 in the narrow-packet (Gaussian) limit and
f -> 35/8 = 4.375 at the flat-density endpoint Delta phi_p = pi/sqrt(3); the
35/8 follows from perturbing the uniform density and is reproduced
numerically to a few parts in a thousand.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, IntegerWindingError, ModulusZeroWarning
from .moments import PHI_P_MAX, minimized_second_moment
from .states import TWO_PI, grid_angles

#: profiles whose smallest |r| is below this (relative) level are treated as
#: vanishing somewhere; linear-phase optimality is then not asserted
ZERO_LEVEL = 1e-9

#: cosine and sine harmonics of the periodic phase correction in minimize_phase
PHASE_HARMONICS = 40
#: largest variation of the first integral accepted from a converged minimizer
FIRST_INTEGRAL_TOL = 1e-6

#: f_table: cosine harmonics of the modulus square root g, the accepted
#: |Delta phi_p - target|, and the cap on augmented-penalty rounds per target
F_MODULUS_HARMONICS = 32
F_CONSTRAINT_TOL = 1e-6
F_MAX_OUTER = 20

#: random_smooth_modulus: harmonics of log r, and the ripple amplitude of the
#: first harmonic (harmonic n is scaled by ripple / n)
RANDOM_HARMONICS = 6
RANDOM_RIPPLE = 0.35


@dataclass(frozen=True)
class ModulusProfile:
    """Real modulus samples on the uniform grid, normalized to unit power."""

    values: np.ndarray
    periodicity: str = "periodic"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 8:
            raise ValueError("need a 1-d modulus vector of length >= 8")
        if self.periodicity not in ("periodic", "antiperiodic"):
            raise ValueError(f"unknown periodicity class {self.periodicity!r}")
        power = TWO_PI / v.size * float(np.sum(v**2))
        if abs(power - 1.0) > 1e-10:
            raise ValueError(
                f"modulus is not normalized (integral r^2 = {power!r}); "
                "use modulus_profile()"
            )
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def grid(self) -> int:
        return int(self.values.size)

    @property
    def angles(self) -> np.ndarray:
        return grid_angles(self.grid)

    @property
    def min_abs(self) -> float:
        return float(np.min(np.abs(self.values)))


def modulus_profile(values, periodicity: str = "periodic") -> ModulusProfile:
    """Normalize samples so that integral r^2 dphi = 1."""
    v = np.asarray(values, dtype=float)
    power = TWO_PI / v.size * float(np.sum(v**2))
    if power <= 0.0 or not np.isfinite(power):
        raise ValueError("modulus has no power")
    return ModulusProfile(v / math.sqrt(power), periodicity)


@dataclass(frozen=True)
class PhaseProfile:
    """Phase samples with their linear fit theta ~ slope * phi + offset.

    A profile returned by :func:`minimize_phase` also carries the result of
    its trust-exact solve: ``optimizer_success`` and ``optimizer_message``
    (None and "" for profiles built directly).
    """

    theta: np.ndarray
    slope: float
    offset: float
    fit_residual: float
    optimizer_success: bool | None = None
    optimizer_message: str = ""

    def __post_init__(self):
        t = np.asarray(self.theta, dtype=float).copy()
        t.flags.writeable = False
        object.__setattr__(self, "theta", t)


def phase_profile(theta: np.ndarray, slope: float) -> PhaseProfile:
    """Wrap samples, fitting the offset at the given (topological) slope."""
    theta = np.asarray(theta, dtype=float)
    phi = grid_angles(theta.size)
    offset = float(np.mean(theta - slope * phi))
    resid = float(np.max(np.abs(theta - slope * phi - offset)))
    return PhaseProfile(theta, float(slope), offset, resid)


def linear_phase(G: int, winding: float, offset: float = 0.0) -> PhaseProfile:
    phi = grid_angles(G)
    return PhaseProfile(winding * phi + offset, float(winding), float(offset), 0.0)


def _spectral_derivative(u: np.ndarray) -> np.ndarray:
    """Derivative of the grid samples along axis 0 (one column per function)."""
    G = u.shape[0]
    k = np.fft.fftfreq(G, d=1.0 / G).reshape((G,) + (1,) * (u.ndim - 1))
    return np.fft.ifft(1j * k * np.fft.fft(u, axis=0), axis=0)


def _l_moments(r: np.ndarray, theta: np.ndarray):
    # psi = r e^{i theta} is differentiated as a whole: for admissible pairs
    # (integer winding with a periodic modulus, half-integer winding with an
    # antiperiodic one) the assembled function is smooth on the circle even
    # where theta itself jumps, so the spectral derivative is exact.
    psi = r * np.exp(1j * theta)
    dpsi = _spectral_derivative(psi)
    h = TWO_PI / r.size
    mean_l = h * float(np.sum(np.imag(np.conj(psi) * dpsi)))
    mean_l2 = h * float(np.sum(np.abs(dpsi) ** 2))
    return mean_l, mean_l2, psi, dpsi


def delta_l_of(r: ModulusProfile, theta: PhaseProfile) -> float:
    """Delta L of the state r e^{i theta} assembled on the grid."""
    if theta.theta.size != r.grid:
        raise ValueError("modulus and phase live on different grids")
    mean_l, mean_l2, _, _ = _l_moments(r.values, theta.theta)
    return math.sqrt(max(mean_l2 - mean_l**2, 0.0))


def mean_l_of(r: ModulusProfile, theta: PhaseProfile) -> float:
    """<L> of the assembled state."""
    if theta.theta.size != r.grid:
        raise ValueError("modulus and phase live on different grids")
    return _l_moments(r.values, theta.theta)[0]


def first_integral(r: ModulusProfile, theta: PhaseProfile) -> np.ndarray:
    """Pointwise r^2 (theta' - <L>): constant for a variational minimizer."""
    phi = grid_angles(r.grid)
    remainder = theta.theta - theta.slope * phi  # periodic part
    dtheta = np.real(_spectral_derivative(remainder + 0j)) + theta.slope
    mean_l = mean_l_of(r, theta)
    return r.values**2 * (dtheta - mean_l)


def _check_winding(winding: float) -> float:
    if not math.isfinite(winding) or abs(2.0 * winding - round(2.0 * winding)) > 1e-9:
        raise IntegerWindingError(
            f"winding must be an integer or half-integer, got {winding}: "
            "periodicity of psi admits no other linear-phase slopes"
        )
    return round(2.0 * winding) / 2.0


def _phase_objective(x, rv, theta0, basis, hessian=False):
    """(Delta L)^2 = h |(D - i<L>) psi|^2 of psi = r e^{i(theta0 + basis x)}
    and its exact gradient and (if ``hessian``) Hessian in x, D being the
    spectral derivative.  With A = D - i<L>, J = i psi basis, u = A psi and
    w = A u: grad = 2h Im(conj(w) psi) basis and hess = 2h Re((AJ)^H AJ)
    + 2h basis^T diag(Re(conj(w) psi)) basis - 2 gL gL^T, where
    gL = -2h Re(conj(D psi) psi) basis is the gradient of <L>.
    """
    h = TWO_PI / rv.size
    mean_l, mean_l2, psi, dpsi = _l_moments(rv, theta0 + basis @ x)
    u = dpsi - 1j * mean_l * psi
    w = _spectral_derivative(u) - 1j * mean_l * u
    value = mean_l2 - mean_l**2
    grad = 2.0 * h * (np.imag(np.conj(w) * psi) @ basis)
    if not hessian:
        return value, grad
    J = 1j * psi[:, None] * basis
    AJ = _spectral_derivative(J) - 1j * mean_l * J
    grad_l = -2.0 * h * (np.real(np.conj(dpsi) * psi) @ basis)
    curvature = basis.T @ (np.real(np.conj(w) * psi)[:, None] * basis)
    return value, grad, (
        2.0 * h * (np.real(AJ.conj().T @ AJ) + curvature) - 2.0 * np.outer(grad_l, grad_l)
    )


def minimize_phase(
    r: ModulusProfile,
    winding: float,
    *,
    initial_coeffs: np.ndarray | None = None,
) -> tuple[PhaseProfile, float]:
    """Minimize Delta L over phases with the given total winding.

    The phase is parametrized as theta = winding * phi plus a periodic
    correction expanded in PHASE_HARMONICS cosine and sine harmonics, so the
    winding class is enforced exactly rather than fitted.  The default start
    is the zero correction (``initial_coeffs`` overrides it: the cosine then
    the sine coefficients).  One Newton trust-region solve (``trust-exact``)
    runs on the exact gradient and Hessian of the grid objective (see
    ``_phase_objective``); for a nowhere-vanishing modulus the minimizer is
    then checked against the Euler-Lagrange first integral
    r^2 (theta' - <L>) = const and against linearity of the phase.

    Returns
    -------
    (PhaseProfile, delta_l)
        The minimizing phase (slope = requested winding, offset and fit
        residual attached, and trust-exact's ``optimizer_success`` and
        ``optimizer_message``) and its Delta L.  An unsuccessful exit is
        reported there, not raised; the first-integral check decides whether
        the minimum is accepted.

    Warns
    -----
    ModulusZeroWarning
        When the modulus (numerically) vanishes somewhere; the minimizer may
        then concentrate theta' at the zeros and is returned with diagnostics
        but without the linearity assertion.
    """
    from scipy.optimize import minimize

    winding = _check_winding(winding)
    phi = grid_angles(r.grid)
    rv = r.values

    has_zero = r.min_abs <= ZERO_LEVEL * float(np.max(np.abs(rv)))
    if has_zero:
        warnings.warn(
            "modulus vanishes on the grid; skipping the linear-phase assertion",
            ModulusZeroWarning,
        )
    # A half-integer winding over a nowhere-vanishing periodic modulus does
    # not assemble into a single-valued state; the optimizer still reports
    # the grid-regularized minimum, but the Euler-Lagrange identity only
    # characterizes admissible pairings.
    admissible = (not has_zero) and abs(winding - round(winding)) < 1e-12

    ns = np.arange(1, PHASE_HARMONICS + 1)
    basis = np.hstack([np.cos(np.outer(phi, ns)), np.sin(np.outer(phi, ns))])
    x0 = np.zeros(2 * PHASE_HARMONICS) if initial_coeffs is None else np.asarray(initial_coeffs, float)
    res = minimize(
        _phase_objective,
        x0,
        args=(rv, winding * phi, basis),
        jac=True,
        hess=lambda x, *args: _phase_objective(x, *args, hessian=True)[2],
        method="trust-exact",
        options=dict(gtol=1e-8),
    )
    theta = winding * phi + basis @ res.x
    profile = replace(
        phase_profile(theta, winding),
        optimizer_success=bool(res.success),
        optimizer_message=str(res.message),
    )
    delta_l = math.sqrt(max(res.fun, 0.0))

    if admissible:
        fi = first_integral(r, profile)
        spread = float(np.max(np.abs(fi - np.mean(fi))))
        if spread > FIRST_INTEGRAL_TOL:
            raise ConvergenceError(
                f"first integral varies by {spread:.2e} > {FIRST_INTEGRAL_TOL}; "
                "the phase minimization did not converge"
            )
    return profile, delta_l


# -- numeric f table for the modified uncertainty relation -------------------


@dataclass(frozen=True)
class FTable:
    """Sampled f(Delta phi_p), squared normalization (1 at 0, 35/8 at max).

    ``rounds`` is the number of penalty rounds each point took and
    ``violation`` its final |Delta phi_p - target|; a table read back from
    CSV did not record them and carries rounds 0 and violation NaN.
    """

    delta_phi_p: np.ndarray
    f: np.ndarray
    converged: np.ndarray
    rounds: np.ndarray | None = None
    violation: np.ndarray | None = None

    def __post_init__(self):
        n = np.asarray(self.f).size
        if self.rounds is None:
            object.__setattr__(self, "rounds", np.zeros(n, dtype=int))
        if self.violation is None:
            object.__setattr__(self, "violation", np.full(n, np.nan))
        for name in ("delta_phi_p", "f", "converged", "rounds", "violation"):
            a = np.asarray(getattr(self, name))
            if a.shape != (n,):
                raise ValueError(f"FTable.{name} must hold one entry per point")
            a = a.copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def interpolate(self, x: float) -> float:
        """Linear interpolation, clamped to the tabulated range."""
        return float(np.interp(x, self.delta_phi_p, self.f))

    @property
    def is_monotone(self) -> bool:
        return bool(np.all(np.diff(self.f) >= -1e-9))

    def to_csv_rows(self) -> list[str]:
        rows = ["deltaPhiP,f,converged"]
        for t, f, c in zip(self.delta_phi_p, self.f, self.converged):
            rows.append(f"{t:.17g},{f:.17g},{int(c)}")
        return rows


def read_f_table(lines) -> FTable:
    body = [ln for ln in lines if ln.strip() and not ln.startswith("deltaPhiP")]
    data = np.array([[float(x) for x in ln.split(",")] for ln in body])
    return FTable(data[:, 0], data[:, 1], data[:, 2].astype(bool))


def _density_bk(rho: np.ndarray, kmax: int) -> np.ndarray:
    """b_k = integral rho e^{-i k phi} dphi on the grid starting at -pi."""
    G = rho.size
    F = np.fft.fft(rho) * (TWO_PI / G)
    ks = np.arange(kmax + 1)
    return F[ks] * (-1.0) ** ks


def _f_basis(G: int):
    """Grid step, cosine basis of g and its derivative, the Fourier series of
    phi_p^2 on the grid, and the harmonic cutoff kmax of that series."""
    h = TWO_PI / G
    phi = grid_angles(G)
    ns = np.arange(F_MODULUS_HARMONICS)
    COS = np.cos(np.outer(phi, ns))
    DCOS = -np.sin(np.outer(phi, ns)) * ns
    # Fourier series of phi_p^2 truncated far beyond the density bandwidth,
    # hence exact for these profiles.
    kmax = min(4 * F_MODULUS_HARMONICS + 8, G // 2 - 1)
    ks = np.arange(1, kmax + 1)
    w2 = np.pi**2 / 3.0 + (4.0 * (-1.0) ** ks / ks.astype(float) ** 2) @ np.cos(
        np.outer(ks, phi)
    )
    return h, COS, DCOS, w2, kmax


def _f_pieces(q, basis, hessian=False):
    """Z = h sum g^4, dl2 = P/Z = (Delta L)^2 and V0 = W/Z = <phi_p^2> of
    r = g^2 with g = COS q, then their gradients, then (if ``hessian``) their
    Hessians.

    Each Hessian is a sum of weighted Gram matrices of the two bases plus the
    quotient-rule outer products:
    d2(N/Z) = (d2N - (N/Z) d2Z - d(N/Z) dZ^T - dZ d(N/Z)^T) / Z.
    """
    h, COS, DCOS, w2, _ = basis
    g = COS @ q
    gp = DCOS @ q
    g2 = g * g
    g3 = g2 * g
    g4 = g2 * g2
    Z = h * np.sum(g4)
    dl2 = 4.0 * h * np.sum(g2 * gp * gp) / Z
    V0 = h * np.sum(g4 * w2) / Z
    dZ = 4.0 * h * (g3 @ COS)
    ddl2 = (8.0 * h * ((g * gp * gp) @ COS + (g2 * gp) @ DCOS) - dl2 * dZ) / Z
    dV0 = (4.0 * h * ((g3 * w2) @ COS) - V0 * dZ) / Z
    if not hessian:
        return (Z, dl2, V0), (dZ, ddl2, dV0)

    def gram(a, w, b):
        return a.T @ (w[:, None] * b)

    def quotient(d2N, F, dF):
        outer = np.outer(dF, dZ)
        return (d2N - F * HZ - outer - outer.T) / Z

    HZ = 12.0 * h * gram(COS, g2, COS)
    cross = gram(COS, g * gp, DCOS)
    Hdl2 = quotient(
        8.0 * h * (gram(COS, gp * gp, COS) + 2.0 * (cross + cross.T) + gram(DCOS, g2, DCOS)),
        dl2,
        ddl2,
    )
    HV0 = quotient(12.0 * h * gram(COS, g2 * w2, COS), V0, dV0)
    return (Z, dl2, V0), (dZ, ddl2, dV0), (HZ, Hdl2, HV0)


def _f_penalized(q, basis, t, y, mu, hessian=False):
    """Value and gradient, plus the Hessian if asked, of the penalty
    subproblem dl2 + y c + mu c^2 / 2 + (Z - 1)^2 / 2 with c = sqrt(V0) - t.

    dl2 and c are homogeneous of degree 0 in q, so without the last term the
    Hessian is singular along q; the gauge term fixes the scale at Z = 1 and
    leaves every minimizing shape unchanged.
    """
    (Z, dl2, V0), (dZ, ddl2, dV0), *second = _f_pieces(q, basis, hessian)
    dp = math.sqrt(V0)
    c = dp - t
    dc = dV0 / (2.0 * dp)
    lam = y + mu * c
    value = dl2 + y * c + 0.5 * mu * c * c + 0.5 * (Z - 1.0) ** 2
    grad = ddl2 + lam * dc + (Z - 1.0) * dZ
    if not hessian:
        return value, grad
    HZ, Hdl2, HV0 = second[0]
    Hc = HV0 / (2.0 * dp) - np.outer(dV0, dV0) / (4.0 * dp**3)
    return value, grad, (
        Hdl2 + lam * Hc + mu * np.outer(dc, dc) + np.outer(dZ, dZ) + (Z - 1.0) * HZ
    )


def _f_penalized_hessian(q, basis, t, y, mu):
    return _f_penalized(q, basis, t, y, mu, hessian=True)[2]


def f_table(targets, m: int = 0, *, grid: int = 512) -> FTable:
    """Tabulate f by constrained minimization of Delta L at fixed Delta phi_p.

    The modulus is an even, nonnegative profile r = g^2 with g expanded in
    F_MODULUS_HARMONICS cosine harmonics on a ``grid``-point angle grid; the
    phase is the linear theta = m phi, so (Delta L)^2 reduces to
    integral r'^2 dphi and the slope m only enters through the assembled
    state used for the reported value.  Each target is met by an augmented
    penalty loop with multiplier updates, at most F_MAX_OUTER rounds, until
    |Delta phi_p - target| <= F_CONSTRAINT_TOL.  Every round is a smooth
    unconstrained problem in the F_MODULUS_HARMONICS coefficients of g, solved
    by Newton trust-region steps (``trust-exact``) on its closed-form
    gradient and Hessian, with a scale gauge that pins h sum g^4 = 1 (see
    ``_f_penalized``).  The inner solver's own success flag is not used:
    ``converged`` means the constraint tolerance was met.  Points that fail
    to meet it are reported with ``converged`` False rather than dropped, and
    every point carries its penalty ``rounds`` and final ``violation``.

    Targets must be a nonempty list strictly inside (0, pi/sqrt(3)); the
    returned table is sorted by Delta phi_p.
    """
    from scipy.optimize import minimize

    if not math.isfinite(m) or abs(m - round(m)) > 1e-9:
        raise IntegerWindingError(f"phase slope must be an integer, got {m}")
    m = int(round(m))
    targets = np.sort(np.atleast_1d(np.asarray(targets, dtype=float)))
    if targets.size == 0:
        raise ValueError("no Delta phi_p targets given")
    if np.any(targets <= 0.0) or np.any(targets >= PHI_P_MAX):
        raise ValueError(f"targets must lie strictly inside (0, {PHI_P_MAX})")

    G = grid
    basis = _f_basis(G)
    _, COS, _, _, kmax = basis
    phi = grid_angles(G)

    def solve_target(t, q0):
        y, mu = 0.0, 100.0
        q = q0.copy()
        viol_prev = None
        for rounds in range(1, F_MAX_OUTER + 1):
            res = minimize(
                _f_penalized,
                q,
                args=(basis, t, y, mu),
                jac=True,
                hess=_f_penalized_hessian,
                method="trust-exact",
                options=dict(gtol=1e-12),
            )
            q = res.x
            (_, _, V0), _ = _f_pieces(q, basis)
            c = math.sqrt(V0) - t
            if abs(c) <= F_CONSTRAINT_TOL:
                break
            y += mu * c
            if viol_prev is not None and abs(c) > 0.25 * abs(viol_prev):
                mu *= 10.0
            viol_prev = c
        return q, rounds, abs(c)

    # first start: von Mises bump whose width roughly matches the first
    # target, scaled to the gauge h sum g^4 = 1
    kappa = max(0.05, 1.0 / targets[0] ** 2)
    q = np.linalg.lstsq(COS, np.exp(0.25 * kappa * (np.cos(phi) - 1.0)), rcond=None)[0]
    (Z, _, _), _ = _f_pieces(q, basis)
    q /= Z**0.25

    out_t, out_f, out_rounds, out_viol = [], [], [], []
    for t in targets:
        q, rounds, viol = solve_target(t, q)
        g = COS @ q
        r = modulus_profile(g * g)
        # report through the assembled-state path so the slope m is exercised
        dl = delta_l_of(r, linear_phase(G, m))
        rho = r.values**2
        vmin, _ = minimized_second_moment(_density_bk(rho, kmax))
        dp = math.sqrt(max(vmin, 0.0))
        flin = 2.0 * dl * dp / (1.0 - 3.0 * dp**2 / math.pi**2)
        out_t.append(dp)
        out_f.append(flin**2)
        out_rounds.append(rounds)
        out_viol.append(viol)
    order = np.argsort(out_t)
    out_viol = np.asarray(out_viol)[order]
    return FTable(
        np.asarray(out_t)[order],
        np.asarray(out_f)[order],
        out_viol <= F_CONSTRAINT_TOL,
        rounds=np.asarray(out_rounds)[order],
        violation=out_viol,
    )


def extrapolate_to_zero(table: FTable, n_points: int = 3) -> float:
    """Limit of f as Delta phi_p -> 0, fitting f = f0 + c t^2."""
    t = table.delta_phi_p[:n_points]
    f = table.f[:n_points]
    A = np.column_stack([np.ones_like(t), t**2])
    coef, *_ = np.linalg.lstsq(A, f, rcond=None)
    return float(coef[0])


def extrapolate_to_flat(table: FTable, n_points: int = 3) -> float:
    """Limit of f as Delta phi_p -> pi/sqrt(3), fitting linearly in the gap."""
    t = table.delta_phi_p[-n_points:]
    f = table.f[-n_points:]
    A = np.column_stack([np.ones_like(t), PHI_P_MAX - t])
    coef, *_ = np.linalg.lstsq(A, f, rcond=None)
    return float(coef[0])


# -- example modulus profiles -------------------------------------------------


def uniform_modulus(G: int) -> ModulusProfile:
    return modulus_profile(np.ones(G))


def vonmises_modulus(G: int, kappa: float) -> ModulusProfile:
    phi = grid_angles(G)
    return modulus_profile(np.exp(0.5 * kappa * (np.cos(phi) - 1.0)))


def half_winding_modulus(G: int) -> ModulusProfile:
    """cos(phi/2): the antiperiodic modulus whose half-integer packet
    attains Delta L = 1/2."""
    phi = grid_angles(G)
    return modulus_profile(np.cos(0.5 * phi), periodicity="antiperiodic")


def random_smooth_modulus(G: int, seed: int) -> ModulusProfile:
    """Seeded strictly positive analytic profile, exp of a random trig poly
    with RANDOM_HARMONICS harmonics."""
    rng = np.random.default_rng(seed)
    phi = grid_angles(G)
    logr = np.zeros(G)
    for n in range(1, RANDOM_HARMONICS + 1):
        a, b = rng.standard_normal(2) * RANDOM_RIPPLE / n
        logr += a * np.cos(n * phi) + b * np.sin(n * phi)
    return modulus_profile(np.exp(logr))
