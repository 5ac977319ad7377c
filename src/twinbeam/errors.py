"""Exception hierarchy shared by all twinbeam modules."""

__all__ = [
    "TwinbeamError",
    "ParameterError",
    "PhysicalityError",
    "OrderLimitError",
    "TruncationError",
    "EvaluationError",
    "ConfigError",
]


class TwinbeamError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(TwinbeamError, ValueError):
    """A parameter is out of its physical or syntactic domain."""


class PhysicalityError(ParameterError):
    """A state parameter set violates the quantum uncertainty relation."""


class OrderLimitError(TwinbeamError, ValueError):
    """A requested derivative order exceeds the configured maximum."""


class TruncationError(TwinbeamError, RuntimeError):
    """An adaptive truncation could not reach the requested tail tolerance."""


class EvaluationError(TwinbeamError, ArithmeticError):
    """A generating-function evaluation left its domain of validity."""


class ConfigError(TwinbeamError, ValueError):
    """A scan specification or CLI configuration is invalid."""
