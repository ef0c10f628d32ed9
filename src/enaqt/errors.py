"""Exception types shared across the package.

Model, state and run checks raise one of these, so that callers can tell a bad
configuration apart from a genuine numerical-invariant violation: the CLI exits
2 on a NumericalError and 1 on any other EnaqtError. The library's own argument
checks in `kernel` and `lindblad` raise a bare ValueError; the CLI checks its
options before it calls them.
"""


class EnaqtError(Exception):
    """Base class for all package errors."""


class NumericalError(EnaqtError):
    """A numerical invariant was violated (CLI exit code 2)."""


class DimensionMismatchError(EnaqtError):
    """Operands have incompatible shapes or dimensions."""


class NotHermitianError(NumericalError):
    """A matrix required to be hermitian is not, beyond tolerance."""


class ProbabilityOutOfRangeError(NumericalError):
    """A jump probability lies outside [0, 1]."""


class SurvivalUnderflowError(NumericalError):
    """Total jump probability out of some state exceeds 1 (time step too large)."""


class StateInvalidError(NumericalError):
    """The evolving state broke hermiticity/positivity beyond the working tolerance."""


class SpecInvalidError(EnaqtError):
    """A model specification (site energies / couplings / bath) is inconsistent."""


class IndexOutOfRangeError(EnaqtError):
    """A site or exciton index is outside the model range."""


class LayoutMismatchError(EnaqtError):
    """A state or gate does not fit the qubit layout it is applied to."""


class ConfigError(EnaqtError):
    """Bad run configuration (CLI arguments or their combination)."""


class ModelFileError(EnaqtError):
    """The model JSON file is missing, malformed, or fails validation."""


class StepTooLargeWarning(UserWarning):
    """Fixed-step integrator driven with a step too coarse for its accuracy."""
