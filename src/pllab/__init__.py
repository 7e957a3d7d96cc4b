"""Numerical laboratory for follow-the-perturbed-leader bandit policies."""

from . import distributions, duality, environments, harness, policies, selection
from .errors import (
    DomainError,
    GridError,
    NonIntegrable,
    PllabError,
    RootFindFailed,
    ScheduleExhausted,
    SolverDiverged,
    SupportError,
    ToleranceNotMet,
)

__version__ = "0.1.0"

__all__ = [
    "distributions",
    "selection",
    "policies",
    "environments",
    "duality",
    "harness",
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
