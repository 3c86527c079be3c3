"""Shared exception types."""

from fractions import Fraction


class InvalidInput(ValueError):
    """An input outside the domain of a computation.

    A ValueError to library callers; the CLI maps it to exit code 2 with a
    one-line message.
    """


class PropertyViolation(Exception):
    """A certified mathematical property failed to hold on a concrete instance.

    Distinct from usage errors: the CLI maps this to exit code 3 so that CI can
    tell a regression in the math apart from a bad invocation.
    """


class InfeasibleBudget(Exception):
    """No block split meets the error target; carries the best error per split."""

    def __init__(self, message: str, best_errors: dict[int, Fraction]):
        super().__init__(message)
        self.best_errors = best_errors
