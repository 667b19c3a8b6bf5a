"""Exception types raised across the package, and the count and real rules.

Every refusal raises ShePwmError; its message names the fault. Its two
subclasses exist because callers catch them: ZeroFundamental marks a THD
that is undefined, not an input that is wrong.
"""

import numbers
import operator


class ShePwmError(Exception):
    """Base class for all errors raised by this package."""


class ZeroFundamental(ShePwmError):
    """THD is undefined because the fundamental magnitude is (numerically) zero."""


class GridPositionError(ShePwmError):
    """The value at index ``position`` breaks a lookup grid's rule."""

    def __init__(self, position: int, message: str):
        super().__init__(message)
        self.position = position


def check_count(n, name: str) -> int:
    """n as an int >= 1; integer types such as numpy's pass, floats do not."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ShePwmError(f"{name} must be an integer, got {n!r}") from None
    if n < 1:
        raise ShePwmError(f"{name} must be >= 1, got {n}")
    return n


def check_real(x, name: str) -> float:
    """x as a float; real types such as numpy's pass, a str, None or complex not."""
    if type(x) is float or isinstance(x, numbers.Real):
        return float(x)
    raise ShePwmError(f"{name} must be a real number, got {x!r}")
