"""States on the circle in a truncated angular-momentum basis.

A wave function is represented by complex coefficients over the modes
e^{i m phi}/sqrt(2 pi).  Two truncation windows are supported: a symmetric
window m = -M..M (circle states, where the angular momentum L = -i d/dphi is
diagonal with integer entries) and a bounded-below window m = 0..M (number
eigenstates of a harmonic oscillator).  Conversions to and from a uniform
angular grid phi_j = -pi + 2 pi j / G are exact for band-limited states.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import UndersampledError, WindowMismatchError, ZeroNormError

TWO_PI = 2.0 * np.pi

# Fraction of the mode range counted as the truncation boundary when
# reporting tail mass, and the tail mass below which a state counts as
# resolved by its truncation.
TAIL_FRACTION = 0.1
TAIL_TOL = 1e-8


class WindowKind(str, Enum):
    SYMMETRIC = "symmetric"
    BOUNDED_BELOW = "boundedBelow"


@dataclass(frozen=True)
class ModeWindow:
    """Truncation window of angular-momentum (or number) modes."""

    kind: WindowKind
    M: int

    def __post_init__(self):
        if self.M < 1:
            raise ValueError(f"window order must be >= 1, got M={self.M}")
        object.__setattr__(self, "kind", WindowKind(self.kind))

    @classmethod
    def symmetric(cls, M: int) -> "ModeWindow":
        """Modes m = -M..M."""
        return cls(WindowKind.SYMMETRIC, M)

    @classmethod
    def bounded_below(cls, M: int) -> "ModeWindow":
        """Modes m = 0..M."""
        return cls(WindowKind.BOUNDED_BELOW, M)

    @property
    def is_symmetric(self) -> bool:
        return self.kind is WindowKind.SYMMETRIC

    @property
    def dimension(self) -> int:
        return 2 * self.M + 1 if self.is_symmetric else self.M + 1

    @property
    def modes(self) -> np.ndarray:
        """Mode numbers, lowest to highest."""
        lo = -self.M if self.is_symmetric else 0
        return np.arange(lo, self.M + 1)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class AngularState:
    """Unit-norm coefficient vector over a mode window.

    Construct through :func:`normalize`, :func:`from_grid` or the factories in
    :mod:`packetlab.css`; the constructor checks that the vector is already
    normalized.
    """

    window: ModeWindow
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.window.dimension,):
            raise ValueError(
                f"coefficient vector has length {c.shape}, window needs "
                f"{self.window.dimension}"
            )
        nrm = np.linalg.norm(c)
        if not abs(nrm - 1.0) <= 1e-8:
            raise ValueError(
                f"coefficients are not normalized (norm={nrm!r}); "
                "use packetlab.normalize()"
            )
        object.__setattr__(self, "coeffs", _freeze(c))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def tail_mass(self) -> float:
        """The state's :func:`tail_mass`."""
        return float(tail_mass(self.coeffs, self.window))

    def rotated(self, angle: float) -> "AngularState":
        """Rigid rotation: move the packet from phi to phi + angle."""
        c = self.coeffs * np.exp(-1j * self.window.modes * angle)
        return AngularState(self.window, c / np.linalg.norm(c))


@dataclass(frozen=True)
class GridFunction:
    """Complex samples at phi_j = -pi + 2 pi j / G, j = 0..G-1."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 1 or s.size < 4:
            raise ValueError("need a 1-d sample vector of length >= 4")
        object.__setattr__(self, "samples", _freeze(s))

    @property
    def size(self) -> int:
        return int(self.samples.size)

    @property
    def angles(self) -> np.ndarray:
        return grid_angles(self.size)


def tail_mass(coeffs: np.ndarray, window: ModeWindow):
    """Probability in the outermost TAIL_FRACTION of the mode range, per
    column of ``coeffs`` (one value for a single coefficient vector).

    This is the numerical proxy for how faithfully the truncation
    represents an infinite-basis state.
    """
    m = window.modes
    cut = (1.0 - TAIL_FRACTION) * window.M
    sel = np.abs(m) > cut if window.is_symmetric else m > cut
    return np.sum(np.abs(coeffs[sel]) ** 2, axis=0)


def grid_angles(G: int) -> np.ndarray:
    """The uniform grid phi_j = -pi + 2 pi j / G."""
    return -np.pi + TWO_PI * np.arange(G) / G


def default_grid_size(window: ModeWindow) -> int:
    """Power-of-two grid size, at least 512 and large enough for exactness."""
    G = 512
    while G < 2 * window.dimension:
        G *= 2
    return G


def normalize(coeffs: np.ndarray, window: ModeWindow) -> AngularState:
    """Scale a coefficient vector to unit norm.

    Raises
    ------
    ZeroNormError
        If the vector is (numerically) zero.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != (window.dimension,):
        raise ValueError(
            f"coefficient vector has length {c.shape}, window needs "
            f"{window.dimension}"
        )
    nrm = np.linalg.norm(c)
    if not np.isfinite(nrm) or nrm < 1e-150:
        raise ZeroNormError("cannot normalize a zero coefficient vector")
    return AngularState(window, c / nrm)


def random_state(window: ModeWindow, seed: int | np.random.Generator = 0) -> AngularState:
    """Haar-random state: isotropic complex Gaussian coefficients, normalized."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    d = window.dimension
    c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return normalize(c, window)


def to_grid(state: AngularState, G: int | None = None) -> GridFunction:
    """Evaluate psi(phi_j) = sum_m c_m e^{i m phi_j} / sqrt(2 pi).

    ``G`` must be at least twice the window dimension so that |psi|^2 is
    integrated exactly by the trapezoid rule on the grid.
    """
    if G is None:
        G = default_grid_size(state.window)
    dim = state.window.dimension
    if G < 2 * dim:
        raise UndersampledError(f"grid size {G} < 2 * dimension = {2 * dim}")
    m = state.window.modes
    spec = np.zeros(G, dtype=complex)
    # e^{i m phi_j} = (-1)^m e^{2 pi i m j / G} on the grid starting at -pi
    spec[np.mod(m, G)] = state.coeffs * (-1.0) ** m
    samples = np.fft.ifft(spec) * G / np.sqrt(TWO_PI)
    return GridFunction(samples)


def from_grid(grid: GridFunction, window: ModeWindow) -> AngularState:
    """Project grid samples onto the window and normalize.

    Content outside the window is silently projected away; use
    :func:`projection_tail_mass` to quantify what was dropped.
    """
    G = grid.size
    dim = window.dimension
    if G < 2 * dim:
        raise UndersampledError(f"grid size {G} < 2 * dimension = {2 * dim}")
    m = window.modes
    F = np.fft.fft(grid.samples)
    c = (-1.0) ** m * np.sqrt(TWO_PI) * F[np.mod(m, G)] / G
    return normalize(c, window)


def projection_tail_mass(grid: GridFunction, window: ModeWindow) -> float:
    """Fraction of the grid function's power outside the mode window."""
    G = grid.size
    F = np.fft.fft(grid.samples)
    total = float(np.sum(np.abs(F) ** 2))
    if total <= 0.0:
        raise ZeroNormError("grid function has zero power")
    kept = float(np.sum(np.abs(F[np.mod(window.modes, G)]) ** 2))
    return max(0.0, 1.0 - kept / total)


def state_to_json(state: AngularState) -> str:
    """Serialize as {"window": {...}, "coeffs": [[re, im], ...]}, low mode first."""
    payload = {
        "window": {"kind": state.window.kind.value, "M": state.window.M},
        "coeffs": [[float(z.real), float(z.imag)] for z in state.coeffs],
    }
    return json.dumps(payload)


def state_from_json(text: str) -> AngularState:
    payload = json.loads(text)
    window = ModeWindow(WindowKind(payload["window"]["kind"]), int(payload["window"]["M"]))
    pairs = payload["coeffs"]
    c = np.array([complex(re, im) for re, im in pairs])
    return normalize(c, window)
