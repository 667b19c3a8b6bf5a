"""Exception types raised across the package, and the rules the modules share.

Every refusal raises ShePwmError; its message names the fault. Its two
subclasses exist because callers catch them: ZeroFundamental marks a THD
that is undefined, not an input that is wrong. A rule takes (value, name) and
returns the value as stored; each type's (field, rule) table goes to apply_rules.
"""

import math
import numbers
import operator
import re
from collections.abc import Mapping

import numpy as np

# The bytes one planned peak may take: a swarm, a spectrum, a waveform, an analysis.
COUNT_BUDGET_BYTES = 1 << 30


class ShePwmError(Exception):
    """Base class for all errors raised by this package. Its message is one
    line: each line break, as in a numpy array's repr, becomes one space."""

    def __init__(self, message: str):
        super().__init__(re.sub(r"\s*\n\s*", " ", message))


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


def check_reals(values, name: str) -> np.ndarray:
    """values as a float64 array, refused unless every entry is real: a bool,
    integer or float array passes, an object array entry by check_real, and a
    str, complex or ragged input not."""
    try:
        arr = np.asarray(values)
    except ValueError:
        raise ShePwmError(f"{name} must be real numbers in rows of one length") from None
    if arr.dtype.kind == "O":
        return np.array([check_real(v, name) for v in arr.flat]).reshape(arr.shape)
    if arr.dtype.kind not in "biuf":
        raise ShePwmError(f"{name} must be real numbers, got {arr.dtype} values")
    return arr.astype(np.float64, copy=False)


def check_nonnegative(x, name: str) -> float:
    """x by check_real, refused unless finite and >= 0 (NaN fails too)."""
    x = check_real(x, name)
    if not 0.0 <= x < math.inf:
        raise ShePwmError(f"{name} must be finite and >= 0, got {x!r}")
    return x


def check_sequence(values, name: str, rule) -> tuple:
    """A tuple of rule(v, name) for v in values; a str, bytes, mapping or
    non-iterable (None, a number, a 0-d array) is refused."""
    if type(values) not in (tuple, list):
        try:
            iter(values)
            iterable = not isinstance(values, (str, bytes, Mapping))
        except TypeError:
            iterable = False
        if not iterable:
            raise ShePwmError(f"{name} must be a sequence, got {values!r}")
    return tuple([rule(v, name) for v in values])


def apply_rules(obj, rules) -> None:
    """Store rule(value, field) on the frozen obj for each (field, rule), in order."""
    for field, rule in rules:
        object.__setattr__(obj, field, rule(getattr(obj, field), field))


def check_plan(planned: int, what: str, **counts) -> None:
    """Refuse `what` when its planned peak of `planned` bytes passes
    COUNT_BUDGET_BYTES, naming each of the counts it was planned from."""
    if planned > COUNT_BUDGET_BYTES:
        named = ", ".join(f"{name} {n}" for name, n in counts.items())
        raise ShePwmError(f"{what} plans {planned} bytes, over the budget of "
                          f"{COUNT_BUDGET_BYTES}: {named}")
