"""Tests for routing policies and the provider directory."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.noc.routing import (
    ProviderDirectory,
    RoutingPolicy,
    UnroutableError,
    XYRouting,
)
from repro.noc.topology import EAST, NORTH, SOUTH, WEST, MeshTopology


@pytest.fixture
def mesh():
    return MeshTopology(8, 8)


@pytest.fixture
def directory(mesh):
    return ProviderDirectory(mesh)


class TestProviderDirectory:
    def test_set_task_registers_provider(self, directory):
        directory.set_task(5, 2)
        assert directory.providers(2) == [5]
        assert directory.task_of(5) == 2

    def test_reassignment_moves_provider(self, directory):
        directory.set_task(5, 2)
        directory.set_task(5, 3)
        assert directory.providers(2) == []
        assert directory.providers(3) == [5]

    def test_set_same_task_drops_no_ranking(self, directory):
        directory.set_task(5, 2)
        ranked = directory.ranked_providers(0, 2)
        directory.set_task(5, 2)
        assert directory.ranked_providers(0, 2) is ranked

    def test_task_switch_keeps_other_tasks_rankings(self, directory):
        """Switching a node between A and B leaves C's ranking cached."""
        directory.set_task(0, 1)
        directory.set_task(9, 3)
        other = directory.ranked_providers(5, 3)
        assert directory.ranked_providers(5, 1) == [0]
        directory.set_task(0, 2)
        assert directory.ranked_providers(5, 3) is other
        assert directory.ranked_providers(5, 1) == []
        assert directory.ranked_providers(5, 2) == [0]
        directory.set_task(0, 1)
        assert directory.ranked_providers(5, 3) is other
        assert directory.ranked_providers(5, 1) == [0]
        assert directory.ranked_providers(5, 2) == []

    def test_clearing_a_task_removes_from_providers(self, directory):
        directory.set_task(5, 2)
        directory.set_task(5, None)
        assert directory.providers(2) == []
        assert directory.task_of(5) is None

    def test_census(self, directory):
        for node, task in ((0, 1), (1, 2), (2, 2), (3, 3)):
            directory.set_task(node, task)
        assert directory.task_census() == {1: 1, 2: 2, 3: 1}

    def test_nearest_provider_minimises_manhattan(self, directory, mesh):
        directory.set_task(mesh.node_id(0, 0), 2)
        directory.set_task(mesh.node_id(4, 4), 2)
        origin = mesh.node_id(5, 5)
        assert directory.nearest_provider(origin, 2) == mesh.node_id(4, 4)

    def test_nearest_provider_tie_breaks_lowest_id(self, directory, mesh):
        left = mesh.node_id(2, 4)
        right = mesh.node_id(6, 4)
        directory.set_task(left, 2)
        directory.set_task(right, 2)
        origin = mesh.node_id(4, 4)
        assert directory.nearest_provider(origin, 2) == min(left, right)

    def test_nearest_provider_honours_exclude(self, directory, mesh):
        near = mesh.node_id(4, 4)
        far = mesh.node_id(0, 0)
        directory.set_task(near, 2)
        directory.set_task(far, 2)
        origin = mesh.node_id(5, 5)
        assert directory.nearest_provider(origin, 2, exclude={near}) == far

    def test_nearest_provider_none_when_absent(self, directory):
        assert directory.nearest_provider(0, 9) is None

    def test_ranked_cache_invalidated_by_updates(self, directory, mesh):
        directory.set_task(mesh.node_id(0, 0), 2)
        origin = mesh.node_id(5, 5)
        assert directory.nearest_provider(origin, 2) == mesh.node_id(0, 0)
        # A nearer provider appears; the cached ranking must refresh.
        directory.set_task(mesh.node_id(5, 4), 2)
        assert directory.nearest_provider(origin, 2) == mesh.node_id(5, 4)

    def test_ranked_cache_invalidated_by_failure(self, directory, mesh):
        near = mesh.node_id(5, 4)
        far = mesh.node_id(0, 0)
        directory.set_task(near, 2)
        directory.set_task(far, 2)
        origin = mesh.node_id(5, 5)
        assert directory.nearest_provider(origin, 2) == near
        directory.set_task(near, None)  # what Network.fail_node does
        assert directory.nearest_provider(origin, 2) == far


class TestXYRouting:
    def test_x_resolved_first(self, mesh):
        xy = XYRouting(mesh)
        src = mesh.node_id(1, 1)
        dst = mesh.node_id(4, 5)
        assert xy.next_direction(src, dst) == EAST

    def test_then_y(self, mesh):
        xy = XYRouting(mesh)
        src = mesh.node_id(4, 1)
        dst = mesh.node_id(4, 5)
        assert xy.next_direction(src, dst) == SOUTH

    def test_north_and_west(self, mesh):
        xy = XYRouting(mesh)
        assert xy.next_direction(mesh.node_id(4, 4), mesh.node_id(2, 4)) == WEST
        assert xy.next_direction(mesh.node_id(4, 4), mesh.node_id(4, 2)) == NORTH

    def test_arrival_returns_none(self, mesh):
        xy = XYRouting(mesh)
        assert xy.next_direction(9, 9) is None


class TestRoutingPolicy:
    def test_healthy_mesh_uses_xy(self, mesh):
        policy = RoutingPolicy(mesh)
        src = mesh.node_id(0, 0)
        dst = mesh.node_id(3, 3)
        path = policy.path(src, dst)
        assert len(path) == mesh.manhattan(src, dst) + 1
        # XY: all east moves before south moves.
        xs = [mesh.coords(n)[0] for n in path]
        assert xs == sorted(xs)

    def test_detour_around_failed_router(self, mesh):
        policy = RoutingPolicy(mesh)
        src = mesh.node_id(0, 0)
        dst = mesh.node_id(4, 0)
        blocker = mesh.node_id(2, 0)
        policy.set_failed({blocker})
        path = policy.path(src, dst)
        assert blocker not in path
        assert path[0] == src and path[-1] == dst

    def test_failed_destination_unroutable(self, mesh):
        policy = RoutingPolicy(mesh)
        dead = mesh.node_id(3, 3)
        policy.set_failed({dead})
        with pytest.raises(UnroutableError):
            policy.next_direction(mesh.node_id(0, 0), dead)

    def test_disconnected_region_unroutable(self):
        mesh = MeshTopology(3, 1)  # a line: 0 - 1 - 2
        policy = RoutingPolicy(mesh)
        policy.set_failed({1})
        with pytest.raises(UnroutableError):
            policy.next_direction(0, 2)

    def test_clearing_faults_restores_xy(self, mesh):
        policy = RoutingPolicy(mesh)
        blocker = mesh.node_id(2, 0)
        policy.set_failed({blocker})
        policy.set_failed(set())
        path = policy.path(mesh.node_id(0, 0), mesh.node_id(4, 0))
        assert blocker in path  # straight line again

    def test_arrived_returns_none(self, mesh):
        policy = RoutingPolicy(mesh)
        assert policy.next_direction(5, 5) is None


class TestFailedLinks:
    def test_detour_around_failed_link(self, mesh):
        policy = RoutingPolicy(mesh)
        a, b = mesh.node_id(0, 0), mesh.node_id(1, 0)
        policy.set_failed_links({(a, b)})
        path = policy.path(a, mesh.node_id(4, 0))
        assert path[1] != b  # forced off the direct edge
        assert path[-1] == mesh.node_id(4, 0)

    def test_edge_normalisation_both_orders(self, mesh):
        policy = RoutingPolicy(mesh)
        a, b = mesh.node_id(1, 0), mesh.node_id(0, 0)
        policy.set_failed_links({(a, b)})  # high-low order
        assert not policy._edge_ok(b, a)
        assert not policy._edge_ok(a, b)

    def test_link_recovery_restores_xy(self, mesh):
        policy = RoutingPolicy(mesh)
        a, b = mesh.node_id(0, 0), mesh.node_id(1, 0)
        policy.set_failed_links({(a, b)})
        policy.set_failed_links(set())
        assert policy.path(a, mesh.node_id(4, 0))[1] == b

    def test_fully_cut_node_unroutable(self):
        mesh = MeshTopology(3, 1)  # a line: 0 - 1 - 2
        policy = RoutingPolicy(mesh)
        policy.set_failed_links({(0, 1)})
        with pytest.raises(UnroutableError):
            policy.next_direction(0, 2)

    def test_minimal_directions_avoid_failed_links(self, mesh):
        policy = RoutingPolicy(mesh)
        src = mesh.node_id(1, 1)
        dest = mesh.node_id(3, 3)
        east = mesh.node_id(2, 1)
        assert policy.minimal_directions(src, dest) == [EAST, SOUTH]
        policy.set_failed_links({(src, east)})
        assert policy.minimal_directions(src, dest) == [SOUTH]


@settings(max_examples=30)
@given(
    src=st.integers(min_value=0, max_value=63),
    dst=st.integers(min_value=0, max_value=63),
    faults=st.sets(st.integers(min_value=0, max_value=63), max_size=6),
)
def test_policy_paths_avoid_failed_nodes(src, dst, faults):
    """Whenever a path exists it must not cross failed routers."""
    mesh = MeshTopology(8, 8)
    faults = faults - {src, dst}
    policy = RoutingPolicy(mesh)
    policy.set_failed(faults)
    try:
        path = policy.path(src, dst)
    except UnroutableError:
        return  # disconnected is an acceptable outcome
    assert not (set(path) & faults)
    assert path[0] == src
    assert path[-1] == dst
    assert len(path) >= mesh.manhattan(src, dst) + 1


@settings(max_examples=30)
@given(
    src=st.integers(min_value=0, max_value=63),
    dst=st.integers(min_value=0, max_value=63),
    cuts=st.sets(st.integers(min_value=0, max_value=63), max_size=6),
)
def test_policy_paths_avoid_failed_links(src, dst, cuts):
    """Whenever a path exists it must not cross failed edges."""
    mesh = MeshTopology(8, 8)
    edges = set()
    for node in cuts:
        neighbor = mesh.neighbor(node, EAST) or mesh.neighbor(node, WEST)
        edges.add((min(node, neighbor), max(node, neighbor)))
    policy = RoutingPolicy(mesh)
    policy.set_failed_links(edges)
    try:
        path = policy.path(src, dst)
    except UnroutableError:
        return  # disconnected is an acceptable outcome
    hops = {
        (min(a, b), max(a, b)) for a, b in zip(path, path[1:])
    }
    assert not (hops & edges)
    assert path[0] == src
    assert path[-1] == dst


_DIRECTORY_STEPS = st.lists(
    st.tuples(
        st.sampled_from(("set", "fail", "recover")),
        st.integers(min_value=0, max_value=11),
        st.sampled_from((None, 1, 2, 3)),
        st.sets(st.integers(min_value=0, max_value=11), max_size=4),
    ),
    max_size=25,
)


@settings(max_examples=40, deadline=None)
@given(steps=_DIRECTORY_STEPS)
def test_rankings_match_brute_force(steps):
    """After every update, cached lookups equal a fresh (distance, id) sort
    of the live providers, with exclusions given as a set or a tuple."""
    mesh = MeshTopology(4, 3)
    directory = ProviderDirectory(mesh)
    tasks, failed = {}, set()
    for op, node, task, exclude in steps:
        if op == "set":
            if node in failed:
                continue  # a failed node runs nothing: its PE is halted
            directory.set_task(node, task)
            tasks[node] = task
        elif op == "fail":
            directory.set_task(node, None)  # what Network.fail_node does
            failed.add(node)
            tasks[node] = None
        else:
            failed.discard(node)  # Network.recover_node tells no directory
        for task_id in (1, 2, 3):
            live = [n for n, t in tasks.items() if t == task_id]
            for origin in range(mesh.num_nodes):
                expected = sorted(
                    live, key=lambda n: (mesh.manhattan(origin, n), n)
                )
                allowed = [n for n in expected if n not in exclude]
                nearest = allowed[0] if allowed else None
                assert directory.nearest_provider(
                    origin, task_id, exclude) == nearest
                assert directory.ranked_providers(origin, task_id) == expected
                assert directory.nearest_provider(
                    origin, task_id, tuple(exclude)) == nearest
                assert directory.nearest_provider(origin, task_id) == (
                    expected[0] if expected else None
                )
