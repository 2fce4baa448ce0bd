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
modified (Judge-type) uncertainty relation, the least Delta L at fixed
angle spread Delta phi_p, as the ground state of L^2 + mu Phi_p^2 (the
classical route to the Judge bound, Carruthers & Nieto, Rev. Mod. Phys. 40,
411 (1968)), each point read straight off that state (see ``f_table``).
The table stores

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
from .moments import PHI_P_MAX
from .operators import OperatorId, build
from .states import TAIL_TOL, TWO_PI, ModeWindow, grid_angles, tail_mass

#: profiles whose smallest |r| is below this (relative) level are treated as
#: vanishing somewhere; linear-phase optimality is then not asserted
ZERO_LEVEL = 1e-9

#: cosine and sine harmonics of the periodic phase correction in minimize_phase
PHASE_HARMONICS = 40
#: largest variation of the first integral accepted from a converged minimizer
FIRST_INTEGRAL_TOL = 1e-6

#: f_table: the mode window -F_MODES..F_MODES of the ground state and the
#: cap on Newton steps per target
F_MODES = 64
F_MAX_OUTER = 20
#: f_table's Newton steps stop below this |Delta phi_p - target|, which is
#: also what ``converged`` requires; roundoff in the ground state (about
#: eps F_MODES^2 over the spectral gap) is ~1e-12
F_NEWTON_TOL = 1e-10

#: random_smooth_modulus: harmonics of log r, and the ripple amplitude of the
#: first harmonic (harmonic n is scaled by ripple / n)
RANDOM_HARMONICS = 6
RANDOM_RIPPLE = 0.35


@dataclass(frozen=True)
class ModulusProfile:
    """Real modulus samples on the uniform grid, normalized to unit power."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 8:
            raise ValueError("need a 1-d modulus vector of length >= 8")
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


def modulus_profile(values) -> ModulusProfile:
    """Normalize samples so that integral r^2 dphi = 1."""
    v = np.asarray(values, dtype=float)
    power = TWO_PI / v.size * float(np.sum(v**2))
    if power <= 0.0 or not np.isfinite(power):
        raise ValueError("modulus has no power")
    return ModulusProfile(v / math.sqrt(power))


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
    """Derivative of the grid samples along axis 0 (one column per function).

    For even G the Nyquist coefficient is dropped: its mode e^{-i G phi / 2}
    equals e^{+i G phi / 2} on the grid, so it has no one-signed derivative,
    and keeping -G/2 would favor one sense of winding over the other.
    """
    G = u.shape[0]
    k = np.fft.fftfreq(G, d=1.0 / G)
    if G % 2 == 0:
        k[G // 2] = 0.0
    k = k.reshape((G,) + (1,) * (u.ndim - 1))
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

    ``rounds`` is the number of Newton steps (eigendecompositions) each
    point took and ``violation`` its final |Delta phi_p - target| (at most
    F_NEWTON_TOL where converged); a table read back from CSV did not record
    them and carries rounds 0 and violation NaN.
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


def f_table(targets) -> FTable:
    """Tabulate f by minimizing Delta L at fixed Delta phi_p.

    For an even real modulus with the linear phase theta = m phi,
    (Delta L)^2 = <(L - m)^2>, which is <L^2> of the modulus (a shift by m
    modes leaves |psi|^2 alone, so f does not depend on m).  Each point thus
    minimizes one quadratic form at a fixed value <phi_p^2> = t^2 of
    another.  By strong duality for two quadratic forms (Polik & Terlaky,
    SIAM Rev. 49 (2007)) the minimizer is the ground state |0> of
    H(mu) = L^2 + mu Phi_p^2 on the F_MODES window, at the mu > 0 where
    sqrt(<0|Phi_p^2|0>) = t.  That mu is found by Newton steps in log mu,
    at most F_MAX_OUTER per target and each clipped to +-3, from the
    narrow-packet (oscillator) value mu = 1 / (4 t^4), so a target the
    window cannot meet leaves the others untouched.  One ``eigh`` of H(mu)
    gives both derivatives of the ground energy E0: <phi_p^2> = E0'(mu) and
    E0'' = -2 sum_n |<n|Phi_p^2|0>|^2 / (E_n - E0).

    Each point is read off the last ``eigh``: Delta phi_p =
    sqrt(<0|Phi_p^2|0>) and (Delta L)^2 = <0|L^2|0> - <0|L|0>^2.  No gamma
    search is needed: a rotation of |0> keeps <L^2>, so |0> already has the
    least <phi_p^2> of its rotations (gamma* = 0).  A point is
    ``converged`` when |Delta phi_p - target| <= F_NEWTON_TOL and the
    ground state's tail mass is below ``states.TAIL_TOL``; points that fail
    either are reported, not dropped.  Every point carries its Newton
    ``rounds`` (eigendecompositions) and final ``violation``.

    Targets must be a nonempty list strictly inside (0, pi/sqrt(3)); the
    returned table is sorted by Delta phi_p.
    """
    targets = np.sort(np.atleast_1d(np.asarray(targets, dtype=float)))
    if targets.size == 0:
        raise ValueError("no Delta phi_p targets given")
    if not np.all((targets > 0.0) & (targets < PHI_P_MAX)):
        raise ValueError(f"targets must lie strictly inside (0, {PHI_P_MAX})")

    window = ModeWindow.symmetric(F_MODES)
    modes = window.modes.astype(float)
    L2 = np.diag(modes**2)
    P2 = build(OperatorId.PHI_P_SQUARED, window).entries.real

    out_t, out_f, out_rounds, out_viol, out_ok = [], [], [], [], []
    for t in targets:
        mu = 0.25 / t**4
        for rounds in range(1, F_MAX_OUTER + 1):
            E, V = np.linalg.eigh(L2 + mu * P2)
            p = V.T @ (P2 @ V[:, 0])  # <n|Phi_p^2|0>
            dp = math.sqrt(p[0])
            if abs(dp - t) <= F_NEWTON_TOL:
                break
            d2 = -2.0 * float(np.sum(p[1:] ** 2 / (E[1:] - E[0])))  # E0''
            slope = mu * d2 / (2.0 * dp)  # d sqrt(E0') / d log mu
            mu *= math.exp(min(max((t - dp) / slope, -3.0), 3.0))
        c2 = V[:, 0] ** 2
        var_l = max(float(modes**2 @ c2 - (modes @ c2) ** 2), 0.0)
        flin = 2.0 * math.sqrt(var_l) * dp / (1.0 - 3.0 * dp**2 / math.pi**2)
        out_t.append(dp)
        out_f.append(flin**2)
        out_rounds.append(rounds)
        out_viol.append(abs(dp - t))
        out_ok.append(abs(dp - t) <= F_NEWTON_TOL and tail_mass(V[:, 0], window) < TAIL_TOL)
    order = np.argsort(out_t)
    return FTable(
        np.asarray(out_t)[order],
        np.asarray(out_f)[order],
        np.asarray(out_ok)[order],
        rounds=np.asarray(out_rounds)[order],
        violation=np.asarray(out_viol)[order],
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
    if not math.isfinite(kappa):
        raise ValueError(f"von Mises concentration must be finite, got {kappa}")
    phi = grid_angles(G)
    return modulus_profile(np.exp(0.5 * kappa * (np.cos(phi) - 1.0)))


def half_winding_modulus(G: int) -> ModulusProfile:
    """cos(phi/2): the antiperiodic modulus whose half-integer packet
    attains Delta L = 1/2."""
    phi = grid_angles(G)
    return modulus_profile(np.cos(0.5 * phi))


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
