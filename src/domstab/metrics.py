"""Mean-crowding dominance metrics and classical diversity indices.

For one sample the community is a vector of species abundances m_1..m_n
(zeros allowed, sum must be positive).  With mean abundance ``m`` and
population variance ``V`` (divisor n, not n - 1):

    mean crowding          m_star = m + V / m - 1
    community dominance    D_com  = m_star / m
    dominance distance     D_dist(i) = m_star / m_i        (+inf when m_i = 0)
    species dominance      D_sp(i)   = D_com - D_dist(i)   (-inf when m_i = 0)

Community dominance is linear in the Simpson index:

    D_com = n * simpson - n / total

which ties the crowding view of dominance to the classical indices computed
by :func:`diversity_indices`.  The identity only holds with the population
variance; that is why the divisor is n throughout.

:func:`species_dominances` is the one place these formulas are applied: it
takes a species x samples block and returns every sample's community
dominance and every species' distance and dominance as arrays.
:func:`community_stats` is the scalar reference for one sample.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateRegressionError, PreconditionError, ZeroCommunityError

__all__ = [
    "CommunityStats",
    "IndexKind",
    "DiversityIndices",
    "IndexRegression",
    "community_stats",
    "mean_crowding",
    "community_dominance",
    "species_dominance_distance",
    "species_dominance",
    "species_dominances",
    "diversity_indices",
    "diversity_block",
    "simpson_identity_residual",
    "regress_dominance_vs_index",
]


def _as_abundances(values, ndim: int = 1) -> np.ndarray:
    """Checked float array of one sample (ndim 1) or species x samples (ndim 2)."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim or arr.size == 0:
        raise ValueError(f"abundances must be a non-empty {ndim}-d array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("abundances must be finite")
    if np.any(arr < 0):
        raise ValueError("abundances must be non-negative")
    if not arr.any(axis=0).all():
        raise ZeroCommunityError("all abundances are zero")
    return arr


@dataclass(frozen=True)
class CommunityStats:
    """Per-sample aggregates every dominance quantity derives from."""

    n: int
    total: float
    mean: float
    variance: float          # population variance, divisor n
    mean_crowding: float
    dominance: float         # mean_crowding / mean


def community_stats(values: Sequence[float]) -> CommunityStats:
    """Compute mean, variance, mean crowding, and dominance for one sample."""
    arr = _as_abundances(values)
    n = arr.size
    total = float(arr.sum())
    mean = total / n
    variance = float(np.mean((arr - mean) ** 2))
    crowding = mean + variance / mean - 1.0
    return CommunityStats(
        n=n,
        total=total,
        mean=mean,
        variance=variance,
        mean_crowding=crowding,
        dominance=crowding / mean,
    )


def mean_crowding(values: Sequence[float]) -> float:
    """Mean number of neighbours an individual shares its unit with."""
    return community_stats(values).mean_crowding


def community_dominance(values: Sequence[float]) -> float:
    """Community dominance: mean crowding scaled by mean abundance."""
    return community_stats(values).dominance


def species_dominance_distance(values: Sequence[float], index: int) -> float:
    """Distance of species ``index`` from community crowding (+inf if absent)."""
    _, distance, _ = species_dominances(_as_abundances(values)[:, np.newaxis])
    return float(distance[index, 0])


def species_dominance(values: Sequence[float], index: int) -> float:
    """Species dominance: community dominance minus the species distance."""
    _, _, dominance = species_dominances(_as_abundances(values)[:, np.newaxis])
    return float(dominance[index, 0])


def species_dominances(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dominance of every sample and species in a species x samples block.

    Returns ``(community, distance, dominance)``: community dominance per
    sample (shape T) and species distance and dominance (shape S x T).  An
    absent species has distance +inf and dominance -inf.  The block must be
    two-dimensional, non-empty, finite and non-negative, and every sample
    must hold some abundance (ZeroCommunityError otherwise).
    """
    block = _as_abundances(counts, ndim=2)
    # Reduce each sample as one contiguous row so the sums are the same
    # pairwise sums community_stats takes, bit for bit.
    samples = np.ascontiguousarray(block.T)
    mean = samples.sum(axis=1) / samples.shape[1]
    variance = np.mean((samples - mean[:, np.newaxis]) ** 2, axis=1)
    crowding = mean + variance / mean - 1.0
    community = crowding / mean
    present = block > 0.0
    distance = np.where(present, crowding / np.where(present, block, 1.0), np.inf)
    dominance = np.where(present, community - distance, -np.inf)
    return community, distance, dominance


# ---------------------------------------------------------------- indices


class IndexKind(enum.Enum):
    SIMPSON = "simpson"
    SHANNON = "shannon"
    SHANNON_EVENNESS = "shannon-evenness"
    BERGER_PARKER = "berger-parker"
    SIMPSON_EVENNESS = "simpson-evenness"


@dataclass(frozen=True)
class DiversityIndices:
    """Classical indices for one sample.

    ``simpson`` is the probability-of-conspecific-encounter form sum(p_i^2),
    so larger means more dominated.  ``simpson_evenness`` is simpson / n,
    which is deliberately the literal ratio (not 1/(simpson * n)); it pairs
    with the linearity identity and is what the regressions below expect.
    ``shannon_evenness`` is NaN for a single-species roster (0/0).
    """

    simpson: float
    shannon: float
    shannon_evenness: float
    berger_parker: float
    simpson_evenness: float

    def value(self, which: IndexKind) -> float:
        return {
            IndexKind.SIMPSON: self.simpson,
            IndexKind.SHANNON: self.shannon,
            IndexKind.SHANNON_EVENNESS: self.shannon_evenness,
            IndexKind.BERGER_PARKER: self.berger_parker,
            IndexKind.SIMPSON_EVENNESS: self.simpson_evenness,
        }[which]


def diversity_indices(values: Sequence[float]) -> DiversityIndices:
    arr = _as_abundances(values)
    n = arr.size
    p = arr / arr.sum()
    simpson = float(np.sum(p * p))
    positive = p[p > 0]
    shannon = float(-np.sum(positive * np.log(positive)))
    shannon_evenness = shannon / math.log(n) if n > 1 else math.nan
    return DiversityIndices(
        simpson=simpson,
        shannon=shannon,
        shannon_evenness=shannon_evenness,
        berger_parker=float(p.max()),
        simpson_evenness=simpson / n,
    )


def diversity_block(counts: np.ndarray) -> dict[IndexKind, np.ndarray]:
    """Diversity indices of every sample in a species x samples block, one
    array (shape T) per index, each entry bit for bit what
    :func:`diversity_indices` gives for that sample."""
    block = _as_abundances(counts, ndim=2)
    # one contiguous row per sample, reduced as diversity_indices reduces it
    samples = np.ascontiguousarray(block.T)
    n = samples.shape[1]
    p = samples / samples.sum(axis=1)[:, np.newaxis]
    simpson = np.sum(p * p, axis=1)
    positive = p > 0
    terms = p[positive] * np.log(p[positive])
    # each sample's positive terms are summed on their own: zeros left in a
    # row would change the blocks of the pairwise sum
    rows = np.split(terms, np.cumsum(positive.sum(axis=1))[:-1])
    shannon = -np.array([np.sum(row) for row in rows])
    evenness = shannon / math.log(n) if n > 1 else np.full(len(p), math.nan)
    return {
        IndexKind.SIMPSON: simpson,
        IndexKind.SHANNON: shannon,
        IndexKind.SHANNON_EVENNESS: evenness,
        IndexKind.BERGER_PARKER: p.max(axis=1),
        IndexKind.SIMPSON_EVENNESS: simpson / n,
    }


def simpson_identity_residual(values: Sequence[float]) -> float:
    """Residual of D_com = n * simpson - n / total (zero up to roundoff)."""
    arr = _as_abundances(values)
    stats = community_stats(arr)
    simpson = diversity_indices(arr).simpson
    n = arr.size
    return stats.dominance - (n * simpson - n / stats.total)


# ---------------------------------------------------------------- regression


@dataclass(frozen=True)
class IndexRegression:
    """OLS of community dominance on a diversity index across samples."""

    index: IndexKind
    slope: float
    intercept: float
    correlation: float
    n: int


def regress_dominance_vs_index(
    dominance: Sequence[float], index_values: Sequence[float], which: IndexKind
) -> IndexRegression:
    """Least-squares line dominance = intercept + slope * index.

    Requires at least three samples and non-zero variance in the index.
    Pearson correlation is reported alongside the coefficients because the
    linearity identity makes simpson regressions come out exactly R = 1.
    """
    y = np.asarray(dominance, dtype=float)
    x = np.asarray(index_values, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("dominance and index series must be 1-d and equal length")
    if x.size < 3:
        raise PreconditionError("index regression needs at least 3 samples")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("index regression input must be finite")
    sxx = float(np.sum((x - x.mean()) ** 2))
    # relative guard: a constant column is rarely an exact float zero
    if sxx <= np.finfo(float).eps * float(np.sum(x * x)):
        raise DegenerateRegressionError(f"index {which.value} has zero variance")
    sxy = float(np.sum((x - x.mean()) * (y - y.mean())))
    syy = float(np.sum((y - y.mean()) ** 2))
    slope = sxy / sxx
    intercept = float(y.mean() - slope * x.mean())
    correlation = sxy / math.sqrt(sxx * syy) if syy > 0.0 else math.nan
    return IndexRegression(
        index=which,
        slope=slope,
        intercept=intercept,
        correlation=correlation,
        n=int(x.size),
    )
