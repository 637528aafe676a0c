"""Exception types shared across the package."""

from __future__ import annotations


class WeakfError(Exception):
    """Base class for engine errors."""


class _Degenerate(WeakfError):
    """A matrix at ``point`` is not positive-definite."""

    def __init__(self, point, min_eigenvalue):
        self.point = tuple(float(c) for c in point)
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(f"{self.what} at {self.point}: smallest eigenvalue "
                         f"{self.min_eigenvalue:.3e}")


class DegenerateMetricError(_Degenerate):
    """Metric is singular or indefinite at the evaluation point."""

    what = "degenerate metric"


class DegenerateOperatorError(_Degenerate):
    """Q is singular or indefinite: the pack leaves the weak-structure class."""

    what = "Q singular/indefinite"


class HypothesisNotMet(WeakfError):
    """A gated theorem check was invoked on an object failing its hypotheses.

    ``row`` is the first row of a stacked check's chunk at which the gate
    fails (0 for a check of one point).
    """

    def __init__(self, check, gate, residual, row=0):
        self.check = check
        self.gate = gate
        self.residual = float(residual)
        self.row = row
        super().__init__(
            f"{check}: hypothesis not satisfied: {gate} "
            f"(residual {self.residual:.3e})"
        )


class InvalidExample(WeakfError):
    """Unknown catalog example, invalid parameters, or an embedding whose
    normal frame fails the report's frame entries."""
