"""Exception types shared across the package."""


class RescompError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(RescompError, ValueError):
    """A vector or matrix does not fit the space it was used with."""


class ContractionConditionError(RescompError, ValueError):
    """An operator-norm gate (||L|| <= 1, or the weighted-sum variant) failed."""


class CapabilityError(RescompError, ValueError):
    """A requested evaluation needs an oracle the object does not carry."""


class ValidationError(RescompError, ValueError):
    """Constructor-time validation of user-supplied data failed."""


class ScaleRestrictionError(ValidationError):
    """A resolvent was requested at a scale the family does not support."""


class ConvergenceError(RescompError, RuntimeError):
    """An inner iterative computation did not reach its tolerance in time."""
