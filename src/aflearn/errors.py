"""Exception types shared across the library."""

__all__ = ["ConfigError", "NumericError", "MetricUndefinedError"]


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
