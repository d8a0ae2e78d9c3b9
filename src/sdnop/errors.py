"""Exception types shared across the package, and the checks the public
entry points run on scalar arguments (sizes, penalties, tolerances,
seeds): each rejects bools, non-numbers, NaN and infinities with an
InvalidInput whose message starts with the argument's name."""

import numbers
import sys

_FLOAT_MAX = sys.float_info.max


class SDNOPError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(SDNOPError):
    """An argument fails a structural precondition (shape, symmetry, range)."""


class NotASubgradient(SDNOPError):
    """A matrix fails the nuclear-norm subdifferential membership test."""


class DomainError(SDNOPError):
    """A conjugate-function argument lies outside the effective domain.

    Parameters
    ----------
    condition : str
        Which domain condition failed.
    violation : float
        Size of the violation that tripped the check.
    """

    def __init__(self, condition, violation=0.0):
        super().__init__(f"outside effective domain: {condition} (violation {violation:.3e})")
        self.condition = condition
        self.violation = violation


class NotAKKTPoint(SDNOPError):
    """A reference point fails the stationarity system beyond tolerance."""


class InnerSolveError(SDNOPError):
    """The inner smooth minimization stalled before reaching its tolerance.

    Carries the best iterate found so callers can salvage partial progress.
    """

    def __init__(self, message, best_x=None, stats=None, trace=None):
        super().__init__(message)
        self.best_x = best_x
        self.stats = stats
        self.trace = trace


class MaxIterations(SDNOPError):
    """The outer loop hit its iteration cap before the residual tolerance.

    Carries the last iterate and the accumulated trace.
    """

    def __init__(self, message, point=None, trace=None):
        super().__init__(message)
        self.point = point
        self.trace = trace


def require_int(name, value, low=0):
    """``value`` as an int, if it is an integer (numpy's too, not a bool)
    of at least ``low``."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) \
            and value >= low:
        return int(value)
    what = "a nonnegative integer" if low == 0 else f"an integer of at least {low}"
    raise InvalidInput(f"{name} must be {what}, got {value!r}")


# A plain float skips the type tests: the solver checks a penalty at every
# point.  Finite is at most the largest float, so a huge int fails too.
def require_positive(name, value):
    """``value`` as a float, if it is a finite real number (not a bool)
    above zero."""
    if (type(value) is float or isinstance(value, numbers.Real)
            and not isinstance(value, bool)) and 0.0 < value <= _FLOAT_MAX:
        return float(value)
    raise InvalidInput(
        f"{name} must be a positive finite number, got {value!r}")


def require_nonnegative(name, value):
    """``value`` as a float, if it is a finite real number (not a bool)
    of at least zero."""
    if (type(value) is float or isinstance(value, numbers.Real)
            and not isinstance(value, bool)) and 0.0 <= value <= _FLOAT_MAX:
        return float(value)
    raise InvalidInput(
        f"{name} must be a nonnegative finite number, got {value!r}")


def require_seed(seed):
    """``seed``, if it is an integer (not a bool) in [0, 2**32), as numpy's
    RandomState takes it; None, which it would replace by entropy, fails."""
    if isinstance(seed, numbers.Integral) and not isinstance(seed, bool) \
            and 0 <= seed < 2 ** 32:
        return seed
    raise InvalidInput(f"seed must be an integer in [0, 2**32), got {seed!r}")
