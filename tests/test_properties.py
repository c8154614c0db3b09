"""Property tests for the dominance kernel and the sentinel policy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from domstab.errors import ZeroCommunityError
from domstab.ingest import SubjectSeries
from domstab.metrics import community_stats, species_dominances
from domstab.stability import apply_sentinel, dominance_records, sentinel_value

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

# Integer-valued and fractional counts, with zeros for absent species.
COUNTS = st.one_of(
    st.just(0.0),
    st.integers(1, 100_000).map(float),
    st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def count_blocks(draw, max_species=300):
    """Species x samples blocks, up to ``max_species`` rows (more than 128, so
    the pairwise sums run in more than one block), every sample non-empty."""
    shape = (draw(st.integers(1, max_species)), draw(st.integers(1, 6)))
    block = draw(arrays(np.float64, shape, elements=COUNTS, fill=COUNTS))
    block[0, ~block.any(axis=0)] = 1.0
    return block


def subject(block: np.ndarray) -> SubjectSeries:
    n_species, n_samples = block.shape
    return SubjectSeries(
        subject_id="p",
        species_ids=tuple(f"s{i}" for i in range(n_species)),
        sample_ids=tuple(f"p_{t:03d}" for t in range(n_samples)),
        counts=block,
    )


@PROPERTY
@given(count_blocks())
def test_kernel_community_matches_scalar_reference(block):
    community, _, _ = species_dominances(block)
    expected = [community_stats(block[:, t]).dominance for t in range(block.shape[1])]
    assert community.tolist() == expected


@PROPERTY
@given(count_blocks())
def test_kernel_species_identity_and_absent_infinities(block):
    community, distance, dominance = species_dominances(block)
    present = block > 0
    com = np.broadcast_to(community, block.shape)[present]
    residual = com - distance[present] - dominance[present]
    scale = np.maximum(1.0, np.maximum(np.abs(com), np.abs(distance[present])))
    assert np.all(np.abs(residual) <= 1e-12 * scale)
    assert np.all(distance[~present] == math.inf)
    assert np.all(dominance[~present] == -math.inf)


@PROPERTY
@given(count_blocks(max_species=40))
def test_sentinel_floor_is_finite_minimum_and_idempotent(block):
    records = dominance_records(subject(block))
    floor = sentinel_value(records)
    assert floor == min(d for d in records.dominance.ravel().tolist() if math.isfinite(d))
    once = apply_sentinel(records)
    twice = apply_sentinel(once)
    assert sentinel_value(once) == floor
    assert np.array_equal(once.dominance, twice.dominance)
    assert np.array_equal(once.sentinel_replaced, twice.sentinel_replaced)
    assert np.array_equal(once.sentinel_replaced, block == 0)


@PROPERTY
@given(count_blocks(max_species=40), st.data())
def test_all_zero_sample_raises(block, data):
    column = data.draw(st.integers(0, block.shape[1] - 1))
    block[:, column] = 0.0
    with pytest.raises(ZeroCommunityError):
        species_dominances(block)
