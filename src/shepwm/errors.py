"""Exception types raised across the package.

Every refusal raises ShePwmError; its message names the fault. The one
subclass, ZeroFundamental, exists because callers catch it: it marks a THD
that is undefined, not an input that is wrong.
"""


class ShePwmError(Exception):
    """Base class for all errors raised by this package."""


class ZeroFundamental(ShePwmError):
    """THD is undefined because the fundamental magnitude is (numerically) zero."""
