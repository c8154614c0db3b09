"""Dominance-stability series: relative change of dominance between samples.

Stability at step t is the relative change

    S(t) = (D(t+1) - D(t)) / D(t)

computed on consecutive samples in time order (sampling gaps are ignored;
the index is the sample order, not calendar time).  Steps whose denominator
is within ``EPS_DENOMINATOR`` of zero are excluded and surfaced with a reason rather
than silently dropped.

Species dominance can be -inf (absent species).  Before a species stability
series is formed those values are replaced by the sentinel: the minimum
finite species dominance over all species and all samples of the subject.
Replaced entries keep a flag so reports can mark them.

A subject's dominance is held column-wise in one :class:`SubjectDominance`:
samples along the columns, roster species along the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import SentinelError, UnknownNameError
from .ingest import SubjectSeries
# community_stats is not called here; bench/spans.py wraps this name.
from .metrics import community_stats, species_dominances

__all__ = [
    "SubjectDominance",
    "StabilityPoint",
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

COMMUNITY_SCOPE = "community"


@dataclass(frozen=True, eq=False)
class SubjectDominance:
    """Community and species dominance for every sample of one subject.

    ``community`` has one entry per sample (time order); ``distance``,
    ``dominance`` and ``sentinel_replaced`` have one row per roster species
    and one column per sample.  An absent species has distance +inf and
    dominance -inf until :func:`apply_sentinel` floors the dominance and
    sets ``sentinel_replaced``.
    """

    sample_ids: tuple[str, ...]
    species_ids: tuple[str, ...]
    community: np.ndarray
    distance: np.ndarray
    dominance: np.ndarray
    sentinel_replaced: np.ndarray


def dominance_records(series: SubjectSeries) -> SubjectDominance:
    """Dominance of every species and sample of a subject, in time order."""
    community, distance, dominance = species_dominances(series.counts)
    return SubjectDominance(
        series.sample_ids, series.species_ids, community, distance, dominance,
        sentinel_replaced=np.zeros(dominance.shape, dtype=bool),
    )


def sentinel_value(records: SubjectDominance) -> float:
    """Minimum finite species dominance across all species and samples."""
    finite = records.dominance[np.isfinite(records.dominance)]
    if finite.size == 0:
        raise SentinelError("no finite species dominance value in any sample")
    return float(finite.min())


def apply_sentinel(records: SubjectDominance) -> SubjectDominance:
    """Replace -inf species dominance with the subject-wide finite minimum.

    Distances stay +inf; only the dominance values are floored.  Idempotent:
    applying twice changes nothing further.
    """
    floor = sentinel_value(records)
    absent = records.dominance == -np.inf
    return replace(
        records,
        dominance=np.where(absent, floor, records.dominance),
        sentinel_replaced=records.sentinel_replaced | absent,
    )


@dataclass(frozen=True)
class StabilityPoint:
    t: int                 # sample index of the step start
    dominance: float       # D(t)
    change_rate: float     # S(t)


@dataclass(frozen=True)
class ExcludedPoint:
    t: int
    dominance: float
    reason: str


@dataclass(frozen=True)
class StabilitySeries:
    """Stability points for one subject and one scope (community or species)."""

    subject_id: str
    scope: str             # COMMUNITY_SCOPE or a species id
    points: tuple[StabilityPoint, ...]
    excluded: tuple[ExcludedPoint, ...] = ()

    @property
    def dominance(self) -> list[float]:
        return [p.dominance for p in self.points]

    @property
    def change_rate(self) -> list[float]:
        return [p.change_rate for p in self.points]


def _stability_points(
    values: Sequence[float],
) -> tuple[tuple[StabilityPoint, ...], tuple[ExcludedPoint, ...]]:
    points, excluded = [], []
    for t in range(len(values) - 1):
        d_now, d_next = values[t], values[t + 1]
        if not (math.isfinite(d_now) and math.isfinite(d_next)):
            excluded.append(ExcludedPoint(t, d_now, "non-finite dominance"))
            continue
        if abs(d_now) < EPS_DENOMINATOR:
            excluded.append(ExcludedPoint(t, d_now, "dominance below eps"))
            continue
        points.append(StabilityPoint(t, d_now, (d_next - d_now) / d_now))
    return tuple(points), tuple(excluded)


def community_stability(records: SubjectDominance, subject_id: str = "") -> StabilitySeries:
    """Community stability series from consecutive samples' dominance."""
    points, excluded = _stability_points(records.community.tolist())
    return StabilitySeries(subject_id, COMMUNITY_SCOPE, points, excluded)


def species_stability(
    records: SubjectDominance,
    species_id: str,
    subject_id: str = "",
) -> StabilitySeries:
    """Species stability series; records must be sentinel-replaced first."""
    try:
        row = records.species_ids.index(species_id)
    except ValueError:
        raise UnknownNameError(f"species {species_id!r} not in records") from None
    values = records.dominance[row]
    if np.any(values == -np.inf):
        raise SentinelError(
            f"species {species_id!r} has -inf dominance; apply_sentinel first"
        )
    points, excluded = _stability_points(values.tolist())
    return StabilitySeries(subject_id, species_id, points, excluded)
