"""Tests for packets."""

import pytest

from repro.noc.packet import Packet, PacketStatus


def test_defaults():
    packet = Packet(src_node=3, dest_task=2)
    assert packet.status == PacketStatus.IN_FLIGHT
    assert packet.dest_node is None
    assert packet.hops == 0
    assert packet.latency() is None


def test_ids_are_unique():
    a = Packet(0, 1)
    b = Packet(0, 1)
    assert a.packet_id != b.packet_id


def test_zero_flits_rejected():
    with pytest.raises(ValueError):
        Packet(0, 1, size_flits=0)


def test_latency_after_delivery():
    packet = Packet(0, 1, created_at=100)
    packet.status = PacketStatus.DELIVERED
    packet.delivered_at = 350
    assert packet.latency() == 250


def test_age():
    packet = Packet(0, 1, created_at=100)
    assert packet.age(400) == 300


def test_is_late_without_deadline_is_false():
    packet = Packet(0, 1)
    assert not packet.is_late(10**9)


def test_is_late_with_deadline():
    packet = Packet(0, 1, created_at=0, deadline=500)
    assert not packet.is_late(500)
    assert packet.is_late(501)


def test_tried_empty_initially():
    packet = Packet(0, 1)
    assert packet.tried is None
    assert packet.reroutes == 0


def test_instance_and_branch_carried():
    packet = Packet(0, 2, instance=(4, 17), branch=1)
    assert packet.instance == (4, 17)
    assert packet.branch == 1
