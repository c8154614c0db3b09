import dataclasses
import math

import numpy as np
import pytest

from domstab.errors import DomstabError, InputError
from domstab.ingest import parse_table, split_subjects
from domstab.stability import (
    EPS_DENOMINATOR,
    apply_sentinel,
    community_stability,
    dominance_records,
    sentinel_value,
    species_stability,
)


def subject_records(text: str):
    (series,) = split_subjects(parse_table(text))
    return series, dominance_records(series)


THREE_SAMPLES = """species_id,400_a,400_b,400_c
OTU1,4,9,2
OTU2,1,3,2
OTU3,0,3,1
"""


def test_records_carry_community_and_species_values():
    series, records = subject_records(THREE_SAMPLES)
    assert records.sample_ids == series.sample_ids
    assert records.species_ids == ("OTU1", "OTU2", "OTU3")
    assert records.community.shape == (3,)
    assert records.distance.shape == records.dominance.shape == (3, 3)
    # an absent species is marked by its infinite distance, and only it
    assert np.array_equal(records.distance == math.inf, records.dominance == -math.inf)
    # absent species in the first sample
    assert records.distance[2, 0] == math.inf
    assert records.dominance[2, 0] == -math.inf


def test_sentinel_is_least_finite_species_dominance():
    _, records = subject_records(THREE_SAMPLES)
    finite = [d for d in records.dominance.ravel().tolist() if math.isfinite(d)]
    assert sentinel_value(records) == min(finite)


def test_apply_sentinel_replaces_only_negative_infinities():
    _, records = subject_records(THREE_SAMPLES)
    floor = sentinel_value(records)
    patched = apply_sentinel(records)
    absent = records.dominance == -math.inf
    assert absent.any()
    assert (patched.dominance[absent] == floor).all()
    # the distance stays infinite where, and only where, the dominance is floored
    assert np.array_equal(patched.distance == math.inf, absent)
    assert np.array_equal(patched.distance, records.distance)
    assert np.array_equal(patched.dominance[~absent], records.dominance[~absent])
    # the unpatched record is left as it was
    assert (records.dominance[absent] == -math.inf).all()


def test_apply_sentinel_is_idempotent():
    _, records = subject_records(THREE_SAMPLES)
    once = apply_sentinel(records)
    twice = apply_sentinel(once)
    assert np.array_equal(once.dominance, twice.dominance)
    assert np.array_equal(once.distance, twice.distance)


def test_sentinel_without_finite_values_raises():
    # any present species gives D_s = D_c - m*/m_s finite, so force the
    # degenerate case through an empty roster stand-in instead
    series, records = subject_records(THREE_SAMPLES)
    stripped = dataclasses.replace(
        records,
        species_ids=(),
        distance=records.distance[:0],
        dominance=records.dominance[:0],
    )
    with pytest.raises(DomstabError, match="^no finite species dominance value in any sample$"):
        sentinel_value(stripped)
    with pytest.raises(DomstabError, match="^no finite species dominance value in any sample$"):
        apply_sentinel(stripped)


def test_community_stability_change_rates():
    _, records = subject_records(THREE_SAMPLES)
    series = community_stability(records)
    dom = records.community.tolist()
    assert len(series.points) == 2
    for t, d_now, rate in zip(series.points, series.dominance, series.change_rate):
        expected = (dom[t + 1] - dom[t]) / dom[t]
        assert rate == pytest.approx(expected, rel=1e-14)
        assert d_now == dom[t]


def test_stability_reconstruction_identity():
    _, records = subject_records(THREE_SAMPLES)
    series = community_stability(records)
    dom = records.community.tolist()
    for t, d_now, rate in zip(series.points, series.dominance, series.change_rate):
        reconstructed = d_now * (1.0 + rate)
        assert reconstructed == pytest.approx(dom[t + 1], rel=1e-14)


def test_stability_excludes_near_zero_denominators():
    # middle sample engineered to a perfectly even community: D_c = 1 - 1/m
    # with m=1 gives exactly zero dominance
    text = "species_id,400_a,400_b,400_c\nOTU1,4,1,2\nOTU2,1,1,2\n"
    _, records = subject_records(text)
    assert records.community[1] == pytest.approx(0.0, abs=1e-15)
    series = community_stability(records)
    assert series.points.tolist() == [0]
    assert [e.t for e in series.excluded] == [1]
    assert series.excluded[0].reason == "dominance below eps"
    assert EPS_DENOMINATOR == 1e-9


def test_species_stability_uses_sentineled_values():
    _, records = subject_records(THREE_SAMPLES)
    patched = apply_sentinel(records)
    series = species_stability(patched, "OTU3")
    floor = sentinel_value(records)
    assert series.dominance[0] == floor


def test_species_stability_rejects_unsentineled_infinities():
    _, records = subject_records(THREE_SAMPLES)
    with pytest.raises(
        DomstabError, match="^species 'OTU3' has -inf dominance; apply_sentinel first$"
    ):
        species_stability(records, "OTU3")


def test_species_stability_unknown_id():
    _, records = subject_records(THREE_SAMPLES)
    with pytest.raises(InputError, match="^species 'OTU99' not in records$"):
        species_stability(apply_sentinel(records), "OTU99")

