"""Exception types shared across the package."""


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
