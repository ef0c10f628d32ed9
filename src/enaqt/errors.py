"""Exception types shared across the package.

Every numerical precondition failure raises one of these instead of a bare
ValueError so that callers (and the CLI exit-code mapping) can tell a bad
configuration apart from a genuine numerical-invariant violation.
"""


class EnaqtError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(EnaqtError):
    """Operands have incompatible shapes or dimensions."""


class NotHermitianError(EnaqtError):
    """A matrix required to be hermitian is not, beyond tolerance."""


class ProbabilityOutOfRangeError(EnaqtError):
    """A jump probability lies outside [0, 1]."""


class SurvivalUnderflowError(EnaqtError):
    """Total jump probability out of some state exceeds 1 (time step too large)."""


class StateInvalidError(EnaqtError):
    """The evolving state broke hermiticity/positivity beyond the working tolerance."""


class SpecInvalidError(EnaqtError):
    """A model specification (site energies / couplings / bath) is inconsistent."""


class IndexOutOfRangeError(EnaqtError):
    """A site or exciton index is outside the model range."""


class LayoutMismatchError(EnaqtError):
    """A state or gate does not fit the qubit layout it is applied to."""


class TimeOutOfRangeError(EnaqtError):
    """A requested time lies outside the recorded trajectory."""


class ConfigError(EnaqtError):
    """Bad run configuration (CLI arguments or their combination)."""


class ModelFileError(EnaqtError):
    """The model JSON file is missing, malformed, or fails validation."""


class StepTooLargeWarning(UserWarning):
    """Fixed-step integrator driven with a step too coarse for its accuracy."""
