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

Each kind is stored the way it is shaped (band storage, Golub & Van Loan,
Matrix Computations, 4th ed., section 4.3): L and N as their real diagonal,
the four cos/sin stencils as their sub-, main and super-diagonals, and only
phi_p and phi_p^2, which are full, as dense matrices.  So a pencil of a
diagonal and a tridiagonal operator costs O(d) memory at any truncation, and
``entries`` builds the dense matrix on request (``f_table`` folds phi_p^2's
even sector from it).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import IncompatibleFamilyError
from .states import ModeWindow, _freeze


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
# The shape each kind is stored in; phi_p and phi_p^2 are dense.
DIAGONAL_IDS = frozenset({OperatorId.ANGULAR_MOMENTUM, OperatorId.NUMBER})
TRIDIAGONAL_IDS = frozenset(
    {OperatorId.COS_PHI, OperatorId.SIN_PHI, OperatorId.PHASE_COS, OperatorId.PHASE_SIN}
)


@dataclass(frozen=True)
class OperatorMatrix:
    """Hermitian matrix tagged with the operator it represents.

    ``data`` holds the matrix in the one shape its kind is stored in:
    ``(diagonal,)`` (real) for DIAGONAL_IDS, ``(sub, main, super)`` (complex
    diagonals) for TRIDIAGONAL_IDS, and ``(entries,)`` (complex, d x d) for
    phi_p and phi_p^2.
    """

    id: OperatorId
    window: ModeWindow
    data: tuple[np.ndarray, ...]

    def __post_init__(self):
        d = self.window.dimension
        if self.id in DIAGONAL_IDS:
            shapes, dtype = [(d,)], float
        elif self.id in TRIDIAGONAL_IDS:
            shapes, dtype = [(d - 1,), (d,), (d - 1,)], complex
        else:
            shapes, dtype = [(d, d)], complex
        got = [np.shape(x) for x in self.data]
        if got != shapes:
            raise ValueError(f"{OperatorId(self.id).value} data shapes {got} != {shapes}")
        object.__setattr__(self, "data", tuple(_freeze(np.asarray(x, dtype=dtype)) for x in self.data))

    @property
    def entries(self) -> np.ndarray:
        """The dense d x d matrix; a new one on each call for a banded kind."""
        if self.data[0].ndim == 2:
            return self.data[0]
        e = np.zeros((self.window.dimension,) * 2, dtype=complex)
        if self.id in DIAGONAL_IDS:
            np.fill_diagonal(e, self.data[0])
        else:
            sub, main, sup = self.data
            np.fill_diagonal(e, main)
            np.fill_diagonal(e[1:], sub)
            np.fill_diagonal(e[:, 1:], sup)
        e.flags.writeable = False
        return e


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
    if op_id in DIAGONAL_IDS:
        data = (m,)
    elif op_id in TRIDIAGONAL_IDS:
        # cos has 1/2 on both off-diagonals, sin (m, m+1) = +i/2 and
        # (m+1, m) = -i/2
        half = 0.5j if op_id in (OperatorId.SIN_PHI, OperatorId.PHASE_SIN) else 0.5
        off = np.ones(d - 1)
        data = (np.conj(half) * off, np.zeros(d), half * off)
    elif op_id is OperatorId.PHI_P:
        k = m[None, :] - m[:, None]  # n - m
        with np.errstate(divide="ignore", invalid="ignore"):
            entries = 1j * (-1.0) ** k / (-k)
        np.fill_diagonal(entries, 0.0)
        data = (entries,)
    elif op_id is OperatorId.PHI_P_SQUARED:
        k = m[None, :] - m[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            entries = 2.0 * (-1.0) ** k / k.astype(float) ** 2 + 0j
        np.fill_diagonal(entries, np.pi**2 / 3.0)
        data = (entries,)
    else:  # pragma: no cover
        raise IncompatibleFamilyError(f"unknown operator {op_id}")
    return OperatorMatrix(op_id, window, data)

