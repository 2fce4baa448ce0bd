"""Modified Bessel functions of the first kind by downward recurrence.

The circular-squeezed-state coefficients are ratios I_k(x)/I_0(x), and the
identity sum_k I_k(x)^2 = I_0(2x) turns the physical normalization of the
state into the normalization of the recurrence output.  Miller's downward
recurrence is stable for every order needed here and keeps the production
path free of special-function libraries; scipy's ``ive`` serves as the test
oracle.
"""

from __future__ import annotations

import math

import numpy as np

# Rescale threshold while recursing downward; values grow toward order zero.
_BIG = 1e250
_SMALL = 1e-250


def bessel_i_ratios(nmax: int, x: float) -> np.ndarray:
    """Return [I_0/I_0, I_1/I_0, ..., I_nmax/I_0] at argument x >= 0.

    Orders whose ratio underflows 1e-250 during rescaling come out as 0.0,
    which is far below anything the truncation windows here can resolve.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if x < 0:
        raise ValueError("argument must be >= 0 (use I_k(-x) = (-1)^k I_k(x))")
    if x == 0.0:
        out = np.zeros(nmax + 1)
        out[0] = 1.0
        return out

    # Start far enough above nmax that the contaminating (growing) solution
    # has died out by the time the recursion reaches order nmax.
    start = nmax + max(24, int(math.ceil(2.0 * math.sqrt(40.0 * (nmax + 1)))), int(x))
    # Only orders k + 1 and k are kept while recursing, plus the returned
    # orders 0..nmax, so the cost of a rescale does not grow with x.
    out = np.zeros(nmax + 1)
    above, cur = 0.0, _SMALL
    for k in range(start, 0, -1):
        above, cur = cur, above + (2.0 * k / x) * cur
        if k <= nmax + 1:
            out[k - 1] = cur
        if abs(cur) > _BIG:
            above *= _SMALL
            cur *= _SMALL
            out[k - 1 :] *= _SMALL
    return out / out[0]
