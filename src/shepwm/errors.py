"""Exception types raised across the package.

Every refusal raises ShePwmError; its message names the fault. Its two
subclasses exist because callers catch them: ZeroFundamental marks a THD
that is undefined, not an input that is wrong.
"""


class ShePwmError(Exception):
    """Base class for all errors raised by this package."""


class ZeroFundamental(ShePwmError):
    """THD is undefined because the fundamental magnitude is (numerically) zero."""


class GridPositionError(ShePwmError):
    """The value at index ``position`` breaks a lookup grid's rule."""

    def __init__(self, position: int, message: str):
        super().__init__(message)
        self.position = position
