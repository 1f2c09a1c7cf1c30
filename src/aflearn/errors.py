"""Exception types shared across the library, and the field checks that raise them."""

import math
import numbers

__all__ = ["ConfigError", "NumericError", "MetricUndefinedError",
           "require", "is_int", "is_finite_real", "check_number"]


class ConfigError(ValueError):
    """A configuration value failed validation.  Carries the offending field name."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message

    def __reduce__(self):  # rebuilt from both fields, so it crosses process boundaries
        return type(self), (self.field, self.message)


class NumericError(ArithmeticError):
    """Non-finite values showed up during filtering or training."""

    def __init__(self, message, frame=None):
        if frame is not None:
            message = f"{message} (frame {frame})"
        super().__init__(message)
        self.frame = frame


class MetricUndefinedError(ValueError):
    """The requested metric has no defined value on this input."""


def require(condition, field, message):
    """Raise ``ConfigError(field, message)`` unless ``condition`` holds."""
    if not condition:
        raise ConfigError(field, message)


def is_int(value):
    """Whether ``value`` is an integer other than a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_real(value):
    """Whether ``value`` is a real number other than a bool, NaN or an infinity."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or math.isfinite(value)))


def check_number(value, field, kind=float, minimum=None):
    """``value`` as a ``kind`` (an integer, or any finite real) >= ``minimum``, if given."""
    if kind is int:
        require(is_int(value), field, f"expected an integer, got {value!r}")
    else:
        require(is_finite_real(value), field, f"expected a finite number, got {value!r}")
    if minimum is not None:
        require(value >= minimum, field, f"must be >= {minimum}, got {value}")
    return kind(value)
