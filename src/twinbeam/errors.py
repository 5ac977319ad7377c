"""Exceptions of all twinbeam modules: rejected input raises ParameterError,
a numerical failure EvaluationError or TruncationError."""

__all__ = [
    "TwinbeamError",
    "ParameterError",
    "PhysicalityError",
    "TruncationError",
    "EvaluationError",
]


class TwinbeamError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(TwinbeamError, ValueError):
    """An argument, flag, scan spec or input file is invalid."""


class PhysicalityError(ParameterError):
    """A state parameter set violates the quantum uncertainty relation."""


class TruncationError(TwinbeamError, RuntimeError):
    """An adaptive truncation could not reach the requested tail tolerance."""


class EvaluationError(TwinbeamError, ArithmeticError):
    """A generating-function evaluation left its domain of validity."""
