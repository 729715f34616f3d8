"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A run/solver configuration is invalid or inconsistent."""


class FormatError(ValueError):
    """A data file is malformed; carries the file and the offending line
    number, which the message names when they are given."""

    def __init__(self, message, line=None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line
        self.path = path


class NumericsError(RuntimeError):
    """A numeric routine failed (non-finite iterates, eigh breakdown, ...)."""


class ConvergenceError(RuntimeError):
    """An iterative reference solve did not reach its tolerance in budget."""


class RunAborted(RuntimeError):
    """A solver run stopped early; carries the partial trace collected so far."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace
