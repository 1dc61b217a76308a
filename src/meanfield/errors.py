"""Exception types shared across the package."""


class MeanfieldError(Exception):
    """Base class for all package errors."""


class DomainError(MeanfieldError, ValueError):
    """A parameter or a draw lies outside the mathematical domain of an
    operation (log of a nonpositive number, a density parameter out of
    range, a constrained value on or outside its support boundary, ...).
    It concerns parameters and draws, not data: the engine drops or
    redraws a draw that raises it."""


class ShapeError(MeanfieldError, ValueError):
    """Data or an array argument is malformed: the wrong length, a ragged
    layout, or a data value outside a likelihood's support (a negative or
    fractional Poisson count, a Bernoulli outcome other than 0 or 1)."""


class ConfigurationError(MeanfieldError, ValueError):
    """A run was requested with inconsistent or unknown settings
    (unknown model name, missing dimension, invalid minibatch size, ...)."""


class EvaluationFailure(MeanfieldError, RuntimeError):
    """Model evaluations produced non-finite values persistently enough
    that the caller cannot proceed."""
