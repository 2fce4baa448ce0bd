"""Circular squeezed states in closed form.

The minimum-uncertainty condition on the circle, (L - l)|psi> = i S sin(phi)
|psi> with <sin> = 0, integrates to the von Mises shaped packet

    psi(phi) = exp(S cos phi + i l phi) / sqrt(2 pi I_0(2S)),

whose mode coefficients follow from the generating function of the modified
Bessel functions: c_{l+k} = I_k(S) / sqrt(I_0(2S)).  The identity
sum_k I_k(S)^2 = I_0(2S) makes that vector exactly unit norm, so the
coefficients are produced by normalizing the output of the stable downward
recurrence in :mod:`packetlab.bessel`.

The phase factor e^{i l phi} must close around the circle, so l has to be an
integer: that is the quantization of the mean angular momentum, enforced here
at the constructor.  At S = 0 the packet degenerates to the eigenstate
e^{i l phi}/sqrt(2 pi).

Closed-form moments (packet centered at gamma_0 = 0, r_k = I_k(2S)/I_0(2S)):

    <L> = l              var L   = (S/2) r_1
    <cos> = r_1          var sin = (1 - r_2)/2  = var L / S^2
    <sin> = 0            var cos = (1 + r_2)/2 - r_1^2

and the product Delta L * Delta sin = r_1 / 2 = <cos>/2 exactly: the state
saturates the sine uncertainty relation at every squeezing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_i_ratios
from .errors import IncompatibleFamilyError, IntegerWindingError, TailMassError
from .moments import MomentReport, combined_spread, delta_phi_p
from .states import AngularState, ModeWindow

# Relative coefficient mass allowed outside the window at construction.
OUTSIDE_MASS_TOL = 1e-10


@dataclass(frozen=True)
class CssParams:
    """Squeezing S >= 0, target mean angular momentum, packet center angle."""

    squeezing: float
    ell: float
    center: float = 0.0

    def __post_init__(self):
        if not (self.squeezing >= 0.0 and math.isfinite(self.squeezing)):
            raise ValueError(f"squeezing must be finite and >= 0, got {self.squeezing}")
        if not math.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")


def _integer_ell(ell: float) -> int:
    if not math.isfinite(ell) or abs(ell - round(ell)) > 1e-9:
        raise IntegerWindingError(
            f"mean angular momentum must be an integer, got {ell}: "
            "e^{i l phi} is single-valued on the circle only for integer l, so "
            "minimum-uncertainty packets exist only at quantized <L>"
        )
    return int(round(ell))


def css_state(params: CssParams, window: ModeWindow) -> AngularState:
    """Construct the squeezed packet on a symmetric window.

    Raises
    ------
    IntegerWindingError
        For non-integer ``ell``; such a function would not be periodic.
    TailMassError
        When the Bessel tail outside the window reaches OUTSIDE_MASS_TOL
        (1e-10); enlarge M or reduce the squeezing.
    """
    if not window.is_symmetric:
        raise IncompatibleFamilyError("circular squeezed states need a symmetric window")
    ell = _integer_ell(params.ell)
    S = params.squeezing
    M = window.M

    kmax = M + abs(ell)
    # The recursion below costs O(S).  r_k = I_k(S)/I_0(S) falls with |k|
    # and I_j/I_{j-1} >= S/(j + sqrt(j^2 + S^2)) (Amos, Math. Comp. 28,
    # 1974), so with n = 2 kmax + 1 the orders kmax < |k| <= n hold at least
    # a fraction rho^(2n)/2 of the mass: a squeezing that this bound already
    # puts outside the window is rejected before the recursion.
    n = 2 * kmax + 1
    if (S / (n + math.hypot(n, S))) ** (2 * n) / 2.0 >= OUTSIDE_MASS_TOL:
        raise TailMassError(
            f"squeezing S={S} with l={ell} leaves relative mass above "
            f"{OUTSIDE_MASS_TOL:.0e} outside the window M={M}"
        )
    ratios = bessel_i_ratios(kmax + 80, S)
    squares = ratios**2
    # sum over all orders of I_k^2 equals I_0(2S); everything beyond the
    # computed range is below the underflow floor.
    total = squares[0] + 2.0 * np.sum(squares[1:])
    m = window.modes
    k = np.abs(m - ell)
    inside = np.sum(squares[k])
    tail = max(0.0, 1.0 - inside / total)
    if tail >= OUTSIDE_MASS_TOL:
        raise TailMassError(
            f"squeezing S={S} with l={ell} leaves relative mass {tail:.3e} "
            f"outside the window M={M}"
        )
    c = ratios[k].astype(complex)
    c /= np.linalg.norm(c)
    if params.center != 0.0:
        c = c * np.exp(-1j * m * params.center)
    return AngularState(window, c)


def css_moments(params: CssParams, window: ModeWindow) -> MomentReport:
    """Moment report of the squeezed packet on ``window``, closed forms
    where they exist.

    The trigonometric moments, <L> and var L come from Bessel ratios; the
    gamma-minimized angle spread has no closed form and is evaluated
    numerically on the constructed state, as is the tail diagnostic.
    """
    ell = _integer_ell(params.ell)
    state = css_state(params, window)
    S, g0 = params.squeezing, params.center
    r = bessel_i_ratios(2, 2.0 * S)
    r1, r2 = float(r[1]), float(r[2])

    var_l = 0.5 * S * r1
    var_sin0 = 0.5 * (1.0 - r2)
    var_cos0 = 0.5 * (1.0 + r2) - r1**2
    cg, sg = math.cos(g0), math.sin(g0)
    mean_cos = r1 * cg
    mean_sin = r1 * sg
    # rotating the packet mixes the two variances; the cross covariance of an
    # even density is zero
    var_cos = cg**2 * var_cos0 + sg**2 * var_sin0
    var_sin = sg**2 * var_cos0 + cg**2 * var_sin0

    dphi, gamma = delta_phi_p(state)
    return MomentReport(
        mean_l=float(ell),
        var_l=var_l,
        mean_cos=mean_cos,
        var_cos=var_cos,
        mean_sin=mean_sin,
        var_sin=var_sin,
        delta_phi_p=dphi,
        gamma_star=gamma,
        delta_phi_combined=combined_spread(var_cos0 + var_sin0, r1**2),
        tail_mass=state.tail_mass(),
    )
