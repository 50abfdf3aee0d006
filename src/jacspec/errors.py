"""Exception types shared across the package."""


class ConvergenceError(RuntimeError):
    """A certified series truncation could not be reached within the term
    budget; ``terms`` is the budget or term count reached (may be None)."""

    def __init__(self, message, terms=None):
        super().__init__(message)
        self.terms = terms


class AssumptionViolation(RuntimeError):
    """A configuration assertion (positive definiteness, determinacy, ...) was
    detected to be false during a computation."""
