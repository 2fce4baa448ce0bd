"""Dense operator matrices in the mode basis.

Circle family (symmetric window):

* ``AngularMomentum``  L = -i d/dphi, diagonal with integer entries.
* ``CosPhi``/``SinPhi``  multiplication by cos(phi), sin(phi); bounded,
  periodic coordinates obeying [L, cos] = i sin and [L, sin] = -i cos.
* ``PhiP``/``PhiPSquared``  the discontinuous angle phi_p in (-pi, pi] and its
  square, from the closed-form integrals
  <m|phi_p|n> = i (-1)^{n-m} / (m-n) and
  <m|phi_p^2|n> = pi^2/3 (diagonal), 2 (-1)^{n-m} / (n-m)^2 (off-diagonal).

Number/phase family (bounded-below window):

* ``Number``  N = diag(0..M).
* ``PhaseCos``/``PhaseSin``  one-sided shift combinations
  C = (E+ + E-)/2 and S = (E+ - E-)/(2i), where E- is the lowering shift
  <m|E-|m+1> = 1.  These are the same tridiagonal stencils as CosPhi/SinPhi
  restricted to m >= 0, which is exactly what the commutation relations
  [N, C] = i S and [N, S] = -i C require; the truncated lower corner at m = 0
  is what makes [C, S] != 0 for this family.

Matrix elements follow the convention entries[m, n] = <m|O|n> with
<m| = e^{-i m phi}/sqrt(2 pi) integrated over the circle, so quadrature of
e^{-i m phi} O e^{i n phi} / (2 pi) reproduces every entry.

Dimensions stay in the hundreds, so everything is dense; no sparse machinery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import IO

import numpy as np

from .errors import IncompatibleFamilyError, WindowMismatchError
from .states import AngularState, ModeWindow, _freeze


class OperatorId(str, Enum):
    ANGULAR_MOMENTUM = "AngularMomentum"
    COS_PHI = "CosPhi"
    SIN_PHI = "SinPhi"
    PHI_P = "PhiP"
    PHI_P_SQUARED = "PhiPSquared"
    NUMBER = "Number"
    PHASE_COS = "PhaseCos"
    PHASE_SIN = "PhaseSin"


CIRCLE_IDS = frozenset(
    {
        OperatorId.ANGULAR_MOMENTUM,
        OperatorId.COS_PHI,
        OperatorId.SIN_PHI,
        OperatorId.PHI_P,
        OperatorId.PHI_P_SQUARED,
    }
)
OSCILLATOR_IDS = frozenset(
    {OperatorId.NUMBER, OperatorId.PHASE_COS, OperatorId.PHASE_SIN}
)


@dataclass(frozen=True)
class OperatorMatrix:
    """Hermitian matrix tagged with the operator it represents."""

    id: OperatorId
    window: ModeWindow
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        d = self.window.dimension
        if e.shape != (d, d):
            raise ValueError(f"entries shape {e.shape} != ({d}, {d})")
        object.__setattr__(self, "entries", _freeze(e))


def _shift_pair(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowering shift E- (ones on the superdiagonal) and its adjoint E+."""
    lower = np.zeros((d, d), dtype=complex)
    idx = np.arange(d - 1)
    lower[idx, idx + 1] = 1.0
    return lower, lower.conj().T


def build(op_id: OperatorId, window: ModeWindow) -> OperatorMatrix:
    """Construct the matrix of ``op_id`` on ``window``.

    Raises
    ------
    IncompatibleFamilyError
        Circle operators need a symmetric window; number/phase operators a
        bounded-below window.
    """
    op_id = OperatorId(op_id)
    if op_id in CIRCLE_IDS and not window.is_symmetric:
        raise IncompatibleFamilyError(f"{op_id.value} needs a symmetric window")
    if op_id in OSCILLATOR_IDS and window.is_symmetric:
        raise IncompatibleFamilyError(f"{op_id.value} needs a bounded-below window")

    d = window.dimension
    m = window.modes
    if op_id is OperatorId.ANGULAR_MOMENTUM or op_id is OperatorId.NUMBER:
        entries = np.diag(m.astype(complex))
    elif op_id in (OperatorId.COS_PHI, OperatorId.PHASE_COS):
        lower, upper = _shift_pair(d)
        entries = 0.5 * (lower + upper)
    elif op_id in (OperatorId.SIN_PHI, OperatorId.PHASE_SIN):
        lower, upper = _shift_pair(d)
        entries = (upper - lower) / 2j  # (m, m+1) = +i/2, (m, m-1) = -i/2
    elif op_id is OperatorId.PHI_P:
        k = m[None, :] - m[:, None]  # n - m
        with np.errstate(divide="ignore", invalid="ignore"):
            entries = 1j * (-1.0) ** k / (-k)
        np.fill_diagonal(entries, 0.0)
    elif op_id is OperatorId.PHI_P_SQUARED:
        k = m[None, :] - m[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            entries = 2.0 * (-1.0) ** k / k.astype(float) ** 2 + 0j
        np.fill_diagonal(entries, np.pi**2 / 3.0)
    else:  # pragma: no cover
        raise IncompatibleFamilyError(f"unknown operator {op_id}")
    return OperatorMatrix(op_id, window, entries)


def commutator(X: OperatorMatrix, Y: OperatorMatrix) -> np.ndarray:
    """XY - YX.  Exact only away from the truncation boundary rows."""
    if X.window != Y.window:
        raise WindowMismatchError("operators live on different windows")
    return X.entries @ Y.entries - Y.entries @ X.entries


def apply(X: OperatorMatrix, s: AngularState) -> np.ndarray:
    """Matrix-vector product X|s>; the result is not renormalized."""
    if X.window != s.window:
        raise WindowMismatchError("operator and state live on different windows")
    return X.entries @ s.coeffs


def expectation(X: OperatorMatrix, s: AngularState) -> float:
    """<s|X|s> for Hermitian X (the imaginary part is discarded)."""
    return float(np.real(np.vdot(s.coeffs, apply(X, s))))


def write_matrix_csv(op: OperatorMatrix, fh: IO[str]) -> None:
    """Dump nonzero entries as ``i,j,re,im`` rows after a JSON header line.

    Indices are physical mode numbers, not array offsets.
    """
    header = {"id": op.id.value, "kind": op.window.kind.value, "M": op.window.M}
    fh.write(json.dumps(header) + "\n")
    fh.write("i,j,re,im\n")
    modes = op.window.modes
    for i in range(op.entries.shape[0]):
        for j in range(op.entries.shape[1]):
            z = op.entries[i, j]
            if z != 0:
                fh.write(f"{modes[i]},{modes[j]},{z.real:.17g},{z.imag:.17g}\n")
