"""Tests for the Experiment Controller."""

import pytest

from repro.noc.packet import Packet, PacketStatus
from repro.platform.centurion import CenturionPlatform
from repro.platform.config import PlatformConfig


@pytest.fixture
def platform():
    return CenturionPlatform(PlatformConfig.small(), model_name="none",
                             seed=11)


def test_four_attach_points_on_top_row(platform):
    controller = platform.controller
    topology = platform.network.topology
    assert len(controller.attach_points) == 4
    assert all(topology.coords(n)[1] == 0 for n in controller.attach_points)


def test_full_centurion_attach_points_spread():
    platform = CenturionPlatform(model_name="none", seed=1)
    xs = [
        platform.network.topology.coords(n)[0]
        for n in platform.controller.attach_points
    ]
    assert len(set(xs)) == 4
    assert max(xs) - min(xs) >= 8  # spread across the top row


def test_inject_packet_enters_network(platform):
    packet = Packet(src_node=-1, dest_task=2)
    assert platform.controller.inject_packet(packet)
    platform.sim.run_until(50_000)
    assert packet.status == PacketStatus.DELIVERED
    assert platform.controller.injected == 1


def test_debug_read_snapshot(platform):
    info = platform.controller.debug_read(5)
    assert info["node"] == 5
    assert info["task"] in (1, 2, 3)
    assert not info["halted"]
    assert "temperature_c" in info


def test_debug_set_task(platform):
    platform.controller.debug_set_task(5, 3)
    assert platform.pes[5].task_id == 3
    assert platform.network.directory.task_of(5) == 3


def test_inject_fault_kills_everything(platform):
    platform.controller.inject_fault(5)
    assert platform.pes[5].halted
    assert platform.network.router(5).failed
    assert 5 in platform.network.failed_nodes
    assert platform.network.directory.task_of(5) is None
    assert platform.controller.debug_read(5)["halted"]


def test_inject_fault_idempotent(platform):
    platform.controller.inject_fault(5)
    platform.controller.inject_fault(5)
    assert len(platform.controller.faults_injected) == 1


def test_alive_nodes_shrink(platform):
    assert len(platform.controller.alive_nodes()) == 16
    platform.controller.inject_fault(5)
    alive = platform.controller.alive_nodes()
    assert len(alive) == 15
    assert 5 not in alive


def test_upload_model_params_broadcast():
    platform = CenturionPlatform(
        PlatformConfig.small(), model_name="ni", seed=11
    )
    platform.controller.upload_model_params({"threshold": 99})
    assert all(
        aim.model.threshold == 99 for aim in platform.aims.values()
    )


def test_rcap_write_reaches_router(platform):
    platform.controller.rcap_write(5, {"router_latency": 9})
    assert platform.network.router(5).config.router_latency == 9


def test_rcap_write_rejects_a_bad_setting_at_write_time():
    """A negative latency fails the write, not a hop later in the run."""
    platform = CenturionPlatform(
        PlatformConfig.small(), model_name="ffw", seed=11
    )
    router = platform.network.router(5)
    before = router.rcap_read()
    with pytest.raises(ValueError):
        platform.controller.rcap_write(5, {"router_latency": -10})
    assert router.rcap_read() == before
    platform.run()
    assert router.packets_forwarded > 0
