import math

import numpy as np
import pytest

from domstab.errors import DomstabError
from domstab.metrics import (
    IndexKind,
    community_dominance,
    community_stats,
    diversity_indices,
    mean_crowding,
    regress_dominance_vs_index,
    simpson_identity_residual,
    species_dominance,
    species_dominance_distance,
    species_dominances,
)

# two-species community worked out by hand: m=2.5, V=2.25, m*=2.4
HAND = [4.0, 1.0]


def test_hand_community_stats():
    stats = community_stats(HAND)
    assert stats.n == 2
    assert stats.total == 5.0
    assert stats.mean == 2.5
    assert stats.variance == pytest.approx(2.25)
    assert stats.mean_crowding == pytest.approx(2.4)
    assert stats.dominance == pytest.approx(0.96)


def test_hand_mean_crowding_matches_stats():
    assert mean_crowding(HAND) == pytest.approx(2.4)
    assert community_dominance(HAND) == pytest.approx(0.96)


def test_hand_species_values():
    # distances: m*/m_s; dominances: D_c - distance
    assert species_dominance_distance(HAND, 0) == pytest.approx(0.6)
    assert species_dominance_distance(HAND, 1) == pytest.approx(2.4)
    assert species_dominance(HAND, 0) == pytest.approx(0.36)
    assert species_dominance(HAND, 1) == pytest.approx(-1.44)


def test_absent_species_sentinels():
    values = [4.0, 1.0, 0.0]
    assert species_dominance_distance(values, 2) == math.inf
    assert species_dominance(values, 2) == -math.inf


def test_species_dominances_bundles_all():
    # columns are samples.  [4, 1, 0]: m = 5/3, m* = 2.4, D_c = 1.44.
    # [0, 0.5, 0]: m = 1/6, m* = -0.5, D_c = -3, so m*/0 would be -inf.
    community, distance, dominance = species_dominances(
        [[4.0, 0.0], [1.0, 0.5], [0.0, 0.0]]
    )
    assert community.shape == (2,)
    assert distance.shape == dominance.shape == (3, 2)
    assert community.tolist() == pytest.approx([1.44, -3.0])
    assert distance[:2, 0].tolist() == pytest.approx([0.6, 2.4])
    assert dominance[:2, 0].tolist() == pytest.approx([0.84, -0.96])
    assert distance[1, 1] == pytest.approx(-1.0)
    assert dominance[1, 1] == pytest.approx(-2.0)
    # absent species: +inf distance and -inf dominance whatever the sign of m*
    assert distance[[2, 0, 2], [0, 1, 1]].tolist() == [math.inf] * 3
    assert dominance[[2, 0, 2], [0, 1, 1]].tolist() == [-math.inf] * 3


def test_identity_on_hand_vector():
    assert abs(simpson_identity_residual(HAND)) < 1e-12


def test_identity_randomized():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 51))
        values = rng.integers(0, 10_000, size=n).astype(float)
        if values.sum() == 0:
            values[0] = 1.0
        d = community_dominance(values)
        scale = max(1.0, abs(d))
        assert abs(simpson_identity_residual(values)) <= 1e-9 * scale


def test_species_identity_where_finite():
    rng = np.random.default_rng(7)
    values = rng.integers(0, 50, size=12).astype(float)
    values[3] = 0.0
    d_c = community_dominance(values)
    for i, v in enumerate(values):
        dsd = species_dominance_distance(values, i)
        ds = species_dominance(values, i)
        if v > 0:
            assert d_c - dsd - ds == pytest.approx(0.0, abs=1e-12)
        else:
            assert math.isinf(dsd) and math.isinf(ds)


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    values = rng.integers(1, 100, size=9).astype(float)
    d = community_dominance(values)
    for _ in range(5):
        rng.shuffle(values)
        assert community_dominance(values) == pytest.approx(d, rel=1e-14)


def test_even_community_dominance():
    # equal abundances: V=0, so m* = m-1 and D_c = 1 - 1/m
    for m in (1.0, 2.0, 10.0, 250.0):
        values = [m] * 6
        assert community_dominance(values) == pytest.approx(1.0 - 1.0 / m)


def test_singleton_community():
    stats = community_stats([8.0])
    assert stats.variance == 0.0
    assert stats.dominance == pytest.approx(1.0 - 1.0 / 8.0)


def test_rejects_bad_vectors():
    with pytest.raises(ValueError):
        community_stats([])
    with pytest.raises(ValueError):
        community_stats([1.0, -2.0])
    with pytest.raises(ValueError):
        community_stats([1.0, math.nan])
    with pytest.raises(DomstabError, match="^all abundances are zero$"):
        community_stats([0.0, 0.0])


def test_diversity_indices_hand_values():
    idx = diversity_indices(HAND)
    assert list(idx) == list(IndexKind)
    assert idx[IndexKind.SIMPSON] == pytest.approx(0.68)
    assert idx[IndexKind.BERGER_PARKER] == pytest.approx(0.8)
    assert idx[IndexKind.SHANNON] == pytest.approx(0.5004024235381879)
    assert idx[IndexKind.SHANNON_EVENNESS] == pytest.approx(idx[IndexKind.SHANNON] / math.log(2))
    assert idx[IndexKind.SIMPSON_EVENNESS] == pytest.approx(0.34)


def test_diversity_zero_abundances_ignored_in_shannon():
    with_zero = diversity_indices([4.0, 1.0, 0.0])
    assert with_zero[IndexKind.SHANNON] == pytest.approx(0.5004024235381879)
    # simpson evenness uses the community size including zeros
    assert with_zero[IndexKind.SIMPSON_EVENNESS] == pytest.approx(0.68 / 3)


def test_shannon_evenness_single_species_is_nan():
    idx = diversity_indices([5.0])
    assert math.isnan(idx[IndexKind.SHANNON_EVENNESS])
    assert idx[IndexKind.SHANNON] == 0.0


def test_regression_recovers_exact_line():
    rng = np.random.default_rng(11)
    x = rng.uniform(0.1, 0.9, size=20)
    y = 3.5 * x - 0.25
    reg = regress_dominance_vs_index(y, x, IndexKind.SIMPSON)
    assert reg.slope == pytest.approx(3.5, abs=1e-12)
    assert reg.intercept == pytest.approx(-0.25, abs=1e-12)
    assert reg.correlation == pytest.approx(1.0, abs=1e-12)
    assert reg.n == 20


def test_regression_needs_three_samples():
    with pytest.raises(DomstabError, match="^index regression needs at least 3 samples$"):
        regress_dominance_vs_index([1.0, 2.0], [0.1, 0.2], IndexKind.SIMPSON)


def test_regression_rejects_unpaired_or_non_finite_input():
    with pytest.raises(ValueError, match="^dominance and index series must be 1-d and equal length$"):
        regress_dominance_vs_index([1.0, 2.0, 3.0], [0.1, 0.2], IndexKind.SIMPSON)
    with pytest.raises(DomstabError, match="^index regression input must be finite$"):
        regress_dominance_vs_index([1.0, math.nan, 3.0], [0.1, 0.2, 0.3], IndexKind.SIMPSON)


def test_regression_degenerate_x():
    with pytest.raises(DomstabError, match="^index simpson has zero variance$"):
        regress_dominance_vs_index([1.0, 2.0, 3.0], [0.4, 0.4, 0.4], IndexKind.SIMPSON)


def test_regression_constant_y_has_nan_correlation():
    reg = regress_dominance_vs_index([2.0, 2.0, 2.0], [0.1, 0.2, 0.3], IndexKind.SHANNON)
    assert reg.slope == 0.0
    assert math.isnan(reg.correlation)
