"""Exception hierarchy for domstab.

Every error raised by the library derives from DomstabError so callers can
catch one base class at pipeline boundaries.  Input-shaped problems (parsing,
sample-id rules) are distinct from analysis-shaped problems (a subject's
empty roster, degenerate fits, non-convergence) because the CLI maps them to
different exit codes.
"""

from __future__ import annotations


class DomstabError(Exception):
    """Base class for all domstab errors."""


# ---------------------------------------------------------------- ingest


class ParseError(DomstabError):
    """Malformed input table (ragged row, missing header, ...)."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class DuplicateIdError(DomstabError):
    """Duplicate species or sample identifier in the input table."""


class IdRuleError(DomstabError):
    """Sample identifier does not match the configured id rule."""


class ArgumentError(DomstabError):
    """A run argument is outside its domain, such as a negative step count."""


class EmptyRosterError(DomstabError):
    """No species left for a subject after filtering."""


# ---------------------------------------------------------------- metrics


class ZeroCommunityError(DomstabError):
    """All abundances are zero, so crowding and dominance are undefined."""


class PreconditionError(DomstabError):
    """Not enough data for the requested computation."""


class DegenerateRegressionError(DomstabError):
    """Regression input is non-finite or has zero variance on the predictor axis."""


# ---------------------------------------------------------------- stability


class SentinelError(DomstabError):
    """No finite species dominance value exists to use as the sentinel."""


# ---------------------------------------------------------------- models


class EvalError(DomstabError):
    """Model evaluation produced a non-finite value."""


class KindError(DomstabError):
    """Operation is not defined for this model kind."""


# ---------------------------------------------------------------- fitting


class DegenerateFitError(DomstabError):
    """Fit input is degenerate (for example, zero variance in the predictor)."""


class NonConvergenceError(DomstabError):
    """No optimizer start converged.  ``best`` holds the best attempt."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class InsufficientSupportError(DomstabError):
    """No candidate breakpoint has enough distinct points on both sides."""


class SingularInformationError(DomstabError):
    """Normal-equations matrix is singular; standard errors are undefined."""


# ---------------------------------------------------------------- selection


class SelectionError(DomstabError):
    """Model selection cannot proceed (no fits supplied)."""


# ---------------------------------------------------------------- report


class SubjectAnalysisError(DomstabError):
    """Some subjects stopped with an analysis error; the outputs of every
    other subject were written."""


# ---------------------------------------------------------------- dynamics


class EmptyDomainError(DomstabError):
    """Fixed-point scan domain is empty (its upper end is not above its lower)."""


class DivergenceError(DomstabError):
    """Iterated map produced a non-finite value at ``step``."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step
