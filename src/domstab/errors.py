"""Exception classes for domstab.

Every error raised by the library is a DomstabError, so callers can catch
one base class at pipeline boundaries; only the array checks of FitInput,
AbundanceTable, the metrics kernels and regress_dominance_vs_index raise
ValueError.  A class exists only where code tells it apart or reads its
attribute; every other problem is an InputError or a DomstabError whose
message says what went wrong.  A fit that did not converge is no error but a
ModelFit with ``converged`` false, and a fit without standard errors is one
whose ``std_errors`` are +inf.

- InputError: a problem with the input or the run's arguments, a subject,
  species or model kind that is not there included.  The CLI exits with
  code 1 for it and with 2 for any other DomstabError.
- DivergenceError: the trajectory reads its ``step``.
"""

from __future__ import annotations

__all__ = [
    "DivergenceError",
    "DomstabError",
    "InputError",
]


class DomstabError(Exception):
    """Base class for all domstab errors."""


class InputError(DomstabError):
    """A problem with the input or the run's arguments."""


class DivergenceError(DomstabError):
    """Iterated map produced a non-finite value at ``step``."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step
