"""Exception types shared across the package."""


class PacketLabError(Exception):
    """Base class for all packetlab errors."""


class ZeroNormError(PacketLabError):
    """A coefficient vector or grid function has vanishing norm."""


class UndersampledError(PacketLabError):
    """Grid too coarse to represent a band-limited state exactly."""


class IncompatibleFamilyError(PacketLabError):
    """Operator requested on a window of the wrong kind."""


class WindowMismatchError(PacketLabError):
    """Two objects live on different mode windows."""


class IntegerWindingError(PacketLabError):
    """A mean angular momentum or winding that periodicity of the state does
    not admit (a non-integer one for a periodic state)."""


class TailMassError(PacketLabError):
    """Coefficient mass outside the truncation window exceeds tolerance."""


class SingularPencilError(PacketLabError):
    """An eigenvalue that a sign change of det T(iS) brackets on the
    imaginary axis did not meet the sweep's residual certificate."""


class OutOfRangeError(PacketLabError):
    """Target expectation value lies outside the truncated spectrum."""


class ConvergenceError(PacketLabError):
    """An iterative minimization failed to reach its tolerance."""


class ModulusZeroWarning(UserWarning):
    """Modulus profile vanishes somewhere on the grid: the phase is free at the
    zeros, and a linear phase that does not certify is returned, not raised."""
