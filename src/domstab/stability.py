"""Dominance-stability series: relative change of dominance between samples.

Stability at step t is the relative change

    S(t) = (D(t+1) - D(t)) / D(t)

computed on consecutive samples in time order (sampling gaps are ignored;
the index is the sample order, not calendar time).  Steps with a non-finite
D(t) or D(t+1), or whose denominator is within ``EPS_DENOMINATOR`` of zero,
are left out of the series and kept, each with its reason, on
``StabilitySeries.excluded``; no report file lists them.

Species dominance can be -inf (absent species).  Before a species stability
series is formed those values are replaced by the sentinel: the minimum
finite species dominance over all species and all samples of the subject.
A replaced cell is one whose distance is +inf; reports mark it from that.

A subject's dominance is held column-wise in one :class:`SubjectDominance`:
samples along the columns, roster species along the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomstabError, InputError
from .ingest import SubjectSeries
# community_stats is not called here; bench/spans.py wraps this name.
from .metrics import community_stats, species_dominances

__all__ = [
    "SubjectDominance",
    "ExcludedPoint",
    "StabilitySeries",
    "EPS_DENOMINATOR",
    "dominance_records",
    "sentinel_value",
    "apply_sentinel",
    "community_stability",
    "species_stability",
]

EPS_DENOMINATOR = 1e-9


@dataclass(frozen=True, eq=False)
class SubjectDominance:
    """Community and species dominance for every sample of one subject.

    ``community`` has one entry per sample (time order); ``distance`` and
    ``dominance`` have one row per roster species and one column per
    sample.  An absent species has distance +inf and dominance -inf until
    :func:`apply_sentinel` floors the dominance; the distance stays +inf and
    marks the floored cell.
    """

    sample_ids: tuple[str, ...]
    species_ids: tuple[str, ...]
    community: np.ndarray
    distance: np.ndarray
    dominance: np.ndarray


def dominance_records(series: SubjectSeries) -> SubjectDominance:
    """Dominance of every species and sample of a subject, in time order."""
    community, distance, dominance = species_dominances(series.counts)
    return SubjectDominance(series.sample_ids, series.species_ids, community, distance, dominance)


def sentinel_value(records: SubjectDominance) -> float:
    """Minimum finite species dominance across all species and samples."""
    finite = records.dominance[np.isfinite(records.dominance)]
    if finite.size == 0:
        raise DomstabError("no finite species dominance value in any sample")
    return float(finite.min())


def apply_sentinel(records: SubjectDominance) -> SubjectDominance:
    """Replace -inf species dominance with the subject-wide finite minimum.

    Distances stay +inf; only the dominance values are floored.  Idempotent:
    applying twice changes nothing further.
    """
    floor = sentinel_value(records)
    absent = records.dominance == -np.inf
    return replace(records, dominance=np.where(absent, floor, records.dominance))


@dataclass(frozen=True)
class ExcludedPoint:
    t: int
    dominance: float
    reason: str


@dataclass(frozen=True, eq=False)
class StabilitySeries:
    """Stability series of a subject's community or of one species."""

    points: np.ndarray        # kept step starts t: ascending int sample indices
    dominance: np.ndarray     # D(t) at each kept t
    change_rate: np.ndarray   # S(t) at each kept t
    excluded: tuple[ExcludedPoint, ...]  # the steps left out, each with its reason


def _stability_series(values: np.ndarray) -> StabilitySeries:
    """S(t) on every step of ``values`` with a finite D(t), D(t+1) and
    |D(t)| of at least ``EPS_DENOMINATOR``; the rest are excluded, a
    non-finite step as such even when |D(t)| is also small."""
    now, after = values[:-1], values[1:]
    finite = np.isfinite(now) & np.isfinite(after)
    kept = finite & (np.abs(now) >= EPS_DENOMINATOR)
    dropped = np.flatnonzero(~kept)
    reasons = np.where(finite[dropped], "dominance below eps", "non-finite dominance")
    excluded = tuple(map(ExcludedPoint, dropped.tolist(), now[dropped].tolist(), reasons.tolist()))
    points = np.flatnonzero(kept)
    dominance = now[points]
    with np.errstate(over="ignore"):  # as float arithmetic: S overflows to +-inf
        change_rate = (after[points] - dominance) / dominance
    return StabilitySeries(points, dominance, change_rate, excluded)


def community_stability(records: SubjectDominance) -> StabilitySeries:
    """Community stability series from consecutive samples' dominance."""
    return _stability_series(records.community)


def species_stability(records: SubjectDominance, species_id: str) -> StabilitySeries:
    """Species stability series; records must be sentinel-replaced first."""
    try:
        row = records.species_ids.index(species_id)
    except ValueError:
        raise InputError(f"species {species_id!r} not in records") from None
    values = records.dominance[row]
    if np.any(values == -np.inf):
        raise DomstabError(
            f"species {species_id!r} has -inf dominance; apply_sentinel first"
        )
    return _stability_series(values)
