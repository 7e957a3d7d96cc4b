"""Exception types shared across the package."""

__all__ = [
    "PllabError",
    "DomainError",
    "SupportError",
    "NonIntegrable",
    "ToleranceNotMet",
    "RootFindFailed",
    "SolverDiverged",
    "ScheduleExhausted",
    "GridError",
]


class PllabError(Exception):
    """Base class for package-specific failures."""


class DomainError(PllabError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class SupportError(PllabError, ValueError):
    """The distribution's support does not satisfy the operation's hypothesis."""


class NonIntegrable(PllabError, ValueError):
    """Tail too heavy for the requested integral to exist."""


class ToleranceNotMet(PllabError, RuntimeError):
    """Adaptive quadrature exhausted its refinement budget.

    The achieved absolute-error estimate is stored in ``achieved``.
    """

    def __init__(self, achieved, requested):
        self.achieved = achieved
        self.requested = requested
        super().__init__(
            f"quadrature error {achieved:.3e} exceeds requested tolerance {requested:.3e}"
        )


class RootFindFailed(PllabError, RuntimeError):
    """Root-finding did not reach the required residual."""

    def __init__(self, residual, message="root-finding failed"):
        self.residual = residual
        super().__init__(f"{message} (residual {residual:.3e})")


class SolverDiverged(PllabError, RuntimeError):
    """The Tsallis simplex solver met a non-finite defect, exceeded its iteration
    budget or left a normalization residual above 1e-10."""


class ScheduleExhausted(PllabError, IndexError):
    """A fixed loss schedule was queried beyond its horizon."""


class GridError(PllabError, ValueError):
    """Invalid discretization grid (e.g. FFT length not a power of two)."""
