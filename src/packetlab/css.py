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
from .moments import MomentReport, minimized_second_moment, circular_coefficients
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


def css_moments(params: CssParams, window: ModeWindow | None = None) -> MomentReport:
    """Moment report of the squeezed packet, closed forms where they exist.

    The trigonometric moments, <L> and var L come from Bessel ratios; the
    gamma-minimized angle spread has no closed form and is evaluated
    numerically on the constructed state (a window is only needed for that
    part and for the tail diagnostic).
    """
    ell = _integer_ell(params.ell)
    S = params.squeezing
    g0 = params.center

    if S == 0.0:
        r1, r2 = 0.0, 0.0
    else:
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

    if window is None:
        window = ModeWindow.symmetric(max(64, abs(ell) + 8 * (1 + int(math.ceil(S)))))
    state = css_state(params, window)
    vmin, gamma = minimized_second_moment(circular_coefficients(state))

    r_sq = r1**2
    combined = math.inf if r_sq < 1e-15 else math.sqrt((var_cos0 + var_sin0) / r_sq)
    return MomentReport(
        mean_l=float(ell),
        var_l=var_l,
        mean_cos=mean_cos,
        var_cos=var_cos,
        mean_sin=mean_sin,
        var_sin=var_sin,
        delta_phi_p=math.sqrt(max(vmin, 0.0)),
        gamma_star=gamma,
        delta_phi_combined=combined,
        tail_mass=state.tail_mass(),
    )
