"""Property tests for the mapping policies."""

import random

from hypothesis import given, settings, strategies as st

from repro.app.workloads import mapping_policy
from repro.app.workloads.policies import census
from repro.noc.topology import MeshTopology

weight_sets = st.dictionaries(
    keys=st.integers(min_value=1, max_value=5),
    values=st.integers(min_value=1, max_value=9),
    min_size=1,
    max_size=4,
)


@settings(max_examples=40)
@given(
    width=st.integers(min_value=4, max_value=20),
    height=st.integers(min_value=1, max_value=10),
    weights=weight_sets,
)
def test_clustered_mapping_total_and_membership(width, height, weights):
    topology = MeshTopology(width, height)
    mapping = mapping_policy("clustered")(topology, weights, None)
    assert len(mapping) == topology.num_nodes
    assert set(mapping.values()) <= set(weights)
    # Bands are contiguous in x: once the task changes along a row it never
    # returns to an earlier task.
    tasks_in_order = sorted(weights)
    for y in range(height):
        row = [mapping[topology.node_id(x, y)] for x in range(width)]
        indices = [tasks_in_order.index(t) for t in row]
        assert indices == sorted(indices)


@settings(max_examples=40)
@given(
    n=st.integers(min_value=1, max_value=400),
    weights=weight_sets,
    seed=st.integers(min_value=0, max_value=9999),
)
def test_random_mapping_assigns_all_with_known_tasks(n, weights, seed):
    mapping = mapping_policy("random")(
        MeshTopology(n, 1), weights, random.Random(seed)
    )
    assert len(mapping) == n
    assert set(mapping.values()) <= set(weights)
    assert sum(census(mapping).values()) == n
