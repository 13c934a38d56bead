"""Exception types shared across the workbench."""


class WorkbenchError(Exception):
    """Base class for every error raised by this package."""


class ZeroWaveVector(WorkbenchError):
    """A wave vector or shell radius has omega = |k| zero, NaN or infinite.

    omega must be positive and finite, and a wave vector's |k|^2 a normal float.
    """


class DuplicateMode(WorkbenchError):
    """A wave vector (or its negation) appears more than once in a mode list."""


class NegativeLmax(WorkbenchError):
    """Orbital generators were requested for a negative angular-momentum cutoff."""


class DimensionCapExceeded(WorkbenchError):
    """The requested occupation basis is larger than the configured dimension cap."""


class UnknownChannel(WorkbenchError):
    """A ladder operator was requested for a channel absent from the space."""


class DimensionMismatch(WorkbenchError):
    """Operands live on different spaces or have inconsistent dimensions."""


class ChannelMismatch(WorkbenchError):
    """The Fock space does not carry the channels an operator constructor needs."""


class ZeroNormState(WorkbenchError):
    """The indefinite norm of a state vanishes; expectation values are undefined.

    This signals a pure gauge excitation, not a numerical failure.
    """


class AsymmetricGrid(WorkbenchError):
    """A grid operation requiring closure under k -> -k was given an open grid."""


class IncommensurateGrid(WorkbenchError):
    """A mode does not sit on the reciprocal lattice of the given periodic box."""


class NoKernel(WorkbenchError):
    """The constraint stack has an empty numerical kernel (over-truncation)."""


class ToleranceAmbiguous(WorkbenchError):
    """No clear singular-value gap separates kernel from non-kernel directions."""


class BandLimitViolation(WorkbenchError):
    """The spatial grid is too coarse for exact quadrature of the given modes."""


class OffLatticeMode(WorkbenchError):
    """An amplitude refers to a wave vector off the box's reciprocal lattice."""


class UnknownSuite(WorkbenchError):
    """The requested verification suite name is not registered."""


class InvalidConfig(WorkbenchError):
    """A suite configuration value is missing, malformed, or out of range."""


class UnknownFormat(WorkbenchError):
    """An unsupported report output format was requested."""
