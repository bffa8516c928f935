"""Exception types shared across the package."""


class XorsatLabError(Exception):
    """Base class for domain errors raised by xorsatlab."""


class RejectionBudgetError(XorsatLabError):
    """Rejection sampler exhausted its retry budget."""


class BudgetExceededError(XorsatLabError):
    """An exact/brute-force routine was asked to exceed its size guard."""


class InstanceFormatError(XorsatLabError, ValueError):
    """An instance file or JSON object is truncated, malformed or invalid."""
