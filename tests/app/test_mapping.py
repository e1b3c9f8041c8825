"""Tests for the initial task-mapping policies."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.app.workloads import mapping_policy
from repro.app.workloads.policies import census
from repro.noc.topology import MeshTopology

WEIGHTS = {1: 1, 2: 3, 3: 1}


def line(n):
    """An ``n``-node 1-D mesh (the node-count-only policies ignore shape)."""
    return MeshTopology(n, 1)


def random_policy(n, weights, seed):
    return mapping_policy("random")(line(n), weights, random.Random(seed))


def balanced_policy(n, weights, seed):
    return mapping_policy("balanced")(line(n), weights, random.Random(seed))


def test_random_mapping_assigns_every_node():
    mapping = random_policy(128, WEIGHTS, 1)
    assert len(mapping) == 128
    assert set(mapping.values()) <= {1, 2, 3}


def test_random_mapping_respects_weights_statistically():
    mapping = random_policy(5000, WEIGHTS, 1)
    counts = census(mapping)
    assert 0.5 < counts[1] / 1000 < 1.5
    assert 0.8 < counts[2] / 3000 < 1.2


def test_random_mapping_deterministic_per_seed():
    assert random_policy(128, WEIGHTS, 7) == random_policy(128, WEIGHTS, 7)


def test_balanced_mapping_exact_census():
    mapping = balanced_policy(130, WEIGHTS, 1)
    counts = census(mapping)
    assert counts == {1: 26, 2: 78, 3: 26}


def test_balanced_mapping_handles_remainders():
    mapping = balanced_policy(128, WEIGHTS, 1)
    counts = census(mapping)
    assert sum(counts.values()) == 128
    # Ideal is 25.6 / 76.8 / 25.6; integers must round to +-1 of those.
    assert counts[1] in (25, 26)
    assert counts[2] in (76, 77)
    assert counts[3] in (25, 26)


def test_clustered_mapping_bands_by_column():
    topology = MeshTopology(10, 4)
    mapping = mapping_policy("clustered")(topology, WEIGHTS, None)
    # Sources on the west edge, sinks on the east.
    assert mapping[topology.node_id(0, 0)] == 1
    assert mapping[topology.node_id(9, 0)] == 3
    assert mapping[topology.node_id(5, 2)] == 2
    assert len(mapping) == 40


def test_census_helper():
    assert census({0: 1, 1: 2, 2: 2}) == {1: 1, 2: 2}


def test_empty_weights_rejected():
    with pytest.raises(ValueError):
        random_policy(4, {}, 1)


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        random_policy(4, {1: -1, 2: 2}, 1)


@settings(max_examples=25)
@given(
    n=st.integers(min_value=5, max_value=300),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_balanced_mapping_census_proportions_hold(n, seed):
    mapping = balanced_policy(n, WEIGHTS, seed)
    counts = census(mapping)
    assert sum(counts.values()) == n
    for task, weight in WEIGHTS.items():
        ideal = n * weight / 5
        assert abs(counts.get(task, 0) - ideal) < 1.0
