"""Error types shared across the package.

Plain ValueError is used for invalid parameters and domain violations; the
classes below cover the remaining failure modes that callers may want to
catch separately.
"""


class NumericFailure(RuntimeError):
    """A numeric routine did not reach its tolerance.

    Carries the (best) residual seen so the caller can judge how close the
    routine got.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ResourceLimitError(RuntimeError):
    """An enumeration or allocation would exceed a configured cap."""


class FormatError(ValueError):
    """Malformed external input: CSV rows, transcript files, class files."""


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold."""
