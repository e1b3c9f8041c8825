"""System-level property tests (hypothesis).

These check invariants that must hold for *any* traffic pattern, provider
layout or fault set — the kind of guarantees a downstream user relies on
without reading the implementation.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.noc.network import Network
from repro.noc.packet import Packet, PacketStatus
from repro.noc.topology import MeshTopology
from repro.sim.engine import Simulator

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(
    provider_nodes=st.sets(
        st.integers(min_value=0, max_value=15), min_size=1, max_size=8
    ),
    sends=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),  # source node
            st.integers(min_value=1, max_value=3),   # task
        ),
        min_size=1,
        max_size=30,
    ),
    faults=st.sets(
        st.integers(min_value=0, max_value=15), max_size=4
    ),
)
def test_every_packet_reaches_a_terminal_state(provider_nodes, sends,
                                               faults):
    """After the queue drains, no packet is still 'in flight'."""
    sim = Simulator(seed=1)
    net = Network(sim, topology=MeshTopology(4, 4))
    sink_log = []
    net.set_deliver_handler(lambda pkt, node: sink_log.append((pkt, node)))
    for node in provider_nodes:
        net.directory.set_task(node, (node % 3) + 1)
    for node in faults:
        net.fail_node(node)
    packets = []
    for source, task in sends:
        packet = Packet(source, dest_task=task, created_at=sim.now)
        packets.append(packet)
        net.send(packet, source)
    sim.run_until(10**9)
    for packet in packets:
        assert packet.status != PacketStatus.IN_FLIGHT
    # Deliveries only ever land on live providers of the packet's task.
    for packet, node in sink_log:
        assert node not in faults
        assert net.directory.task_of(node) == packet.dest_task


@SETTINGS
@given(
    sink_events=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # instance seq
            st.integers(min_value=0, max_value=2),  # branch
        ),
        max_size=40,
    )
)
def test_join_bookkeeping_invariants(sink_events):
    """Joins never exceed the number of fully-branched instances."""
    from repro.app.workloads import (
        GraphWorkload,
        compile_workload,
        fork_join_spec,
    )

    sim = Simulator(seed=1)
    workload = GraphWorkload(sim, compile_workload(fork_join_spec()))
    sink_task = 3

    class FakePE:
        node_id = 9
        task_id = sink_task

    pe = FakePE()
    seen = {}
    for seq, branch in sink_events:
        seen.setdefault(seq, set()).add(branch)
        packet = Packet(3, sink_task, instance=(7, seq), branch=branch)
        workload.packets_after_execution(pe, packet)
    complete = sum(1 for branches in seen.values() if len(branches) == 3)
    assert workload.joins == complete
    assert workload.pending_join_count == sum(
        1 for branches in seen.values() if 0 < len(branches) < 3
    )


@SETTINGS
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_run_is_a_pure_function_of_seed(seed):
    """Identical seeds give identical runs, across separate builds."""
    from repro.platform.centurion import CenturionPlatform
    from repro.platform.config import PlatformConfig

    def signature():
        platform = CenturionPlatform(
            PlatformConfig.small(horizon_us=40_000),
            model_name="ffw",
            seed=seed,
        )
        platform.run()
        return (
            platform.workload.stats()["generated"],
            platform.workload.joins,
            dict(platform.network.stats),
        )

    assert signature() == signature()


@SETTINGS
@given(
    faults=st.sets(st.integers(min_value=0, max_value=15), max_size=10),
    seed=st.integers(min_value=0, max_value=100),
)
def test_census_never_counts_dead_nodes(faults, seed):
    from repro.platform.centurion import CenturionPlatform
    from repro.platform.config import PlatformConfig

    platform = CenturionPlatform(
        PlatformConfig.small(horizon_us=30_000, fault_time_us=10_000),
        model_name="none",
        seed=seed,
    )
    platform.inject_faults(len(faults), victims=sorted(faults))
    platform.run()
    census_total = sum(platform.task_census().values())
    assert census_total == 16 - len(faults)
