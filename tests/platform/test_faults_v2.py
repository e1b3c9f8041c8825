"""Behavioural tests for the v2 fault kinds.

Fault taxonomy v2 adds partial failure modes on top of PR 3's binary
outages: degraded links (slower, not dead), corrupting links (delivered,
not usable), controller attach-point failures (dark, not gone) and
hazard-rate storms (drawn, not scheduled).  These tests pin each kind's
mechanics on a small platform; the determinism pins live in
``tests/integration/test_fault_v2_determinism.py``.
"""

import pytest

from repro.noc.topology import normalize_edge
from repro.platform.centurion import CenturionPlatform
from repro.platform.config import PlatformConfig
from repro.platform.controller import ControllerDetachedError
from repro.platform.faults import HAZARD_STREAM
from repro.platform.scenario import FaultEvent, FaultScenario
from repro.sim.engine import Simulator

CONFIG = PlatformConfig.small(horizon_us=100_000, fault_time_us=50_000)


def small_platform(seed=5, model="none"):
    return CenturionPlatform(CONFIG, model_name=model, seed=seed)


def first_edge(platform):
    return sorted(
        normalize_edge(a, b) for a, b in platform.network.links
    )[0]


# -- degraded links ---------------------------------------------------------


class TestLinkDegrade:
    def test_degrade_stretches_both_directions_and_recovers(self):
        platform = small_platform()
        a, b = first_edge(platform)
        scenario = FaultScenario(
            name="slow-edge",
            events=(
                {"at_us": 10_000, "kind": "link_degrade",
                 "victims": [[a, b]], "factor": 5, "duration_us": 20_000},
            ),
        )
        platform.inject_scenario(scenario)
        fwd = platform.network.link(a, b)
        rev = platform.network.link(b, a)
        nominal = fwd.flit_time
        seen = {}
        sim = platform.sim
        sim.schedule_at(
            15_000, lambda: seen.update(during=(fwd.flit_time, rev.flit_time))
        )
        platform.run()
        assert seen["during"] == (nominal * 5, nominal * 5)
        assert fwd.flit_time == nominal and rev.flit_time == nominal
        assert not fwd.degraded
        assert platform.faults.degraded_victims == [(a, b)]
        assert (10_000, "link_degrade", (a, b)) not in platform.faults.recovered
        assert (30_000, "link_degrade", (a, b)) in platform.faults.recovered
        assert platform.trace.count("link_degraded") == 1
        assert platform.trace.count("link_degrade_recovered") == 1

    def test_degraded_edge_stays_routable(self):
        platform = small_platform(model="none")
        a, b = first_edge(platform)
        platform.inject_scenario(
            {"name": "slow", "events": [
                {"at_us": 0, "kind": "link_degrade", "victims": [[a, b]],
                 "factor": 16},
            ]}
        )
        series = platform.run()
        # Traffic still flows: a degraded mesh delivers packets (an
        # outage of the same edge would instead force detours/drops).
        assert platform.network.stats["delivered"] > 0
        assert len(series) > 0
        assert platform.network.link_degraded(a, b)

    def test_permanent_degrade_outlives_transient_overlap(self):
        platform = small_platform()
        a, b = first_edge(platform)
        platform.inject_scenario(
            {"name": "overlap", "events": [
                {"at_us": 10_000, "kind": "link_degrade",
                 "victims": [[a, b]], "factor": 2, "duration_us": 20_000},
                {"at_us": 15_000, "kind": "link_degrade",
                 "victims": [[a, b]], "factor": 4},
            ]}
        )
        platform.run()
        # The permanent declaration claimed the edge: the transient's
        # recovery at 30ms must not restore the timing.
        assert platform.network.link_degraded(a, b)
        assert platform.network.link(a, b).flit_time == 4 * CONFIG.flit_time_us

    def test_transient_over_permanent_reverts_to_permanent_factor(self):
        platform = small_platform()
        a, b = first_edge(platform)
        platform.inject_scenario(
            {"name": "worst-wins", "events": [
                {"at_us": 1_000, "kind": "link_degrade",
                 "victims": [[a, b]], "factor": 2},
                {"at_us": 2_000, "kind": "link_degrade",
                 "victims": [[a, b]], "factor": 8, "duration_us": 1_000},
            ]}
        )
        seen = {}
        link = platform.network.link(a, b)
        nominal = CONFIG.flit_time_us
        platform.sim.schedule_at(
            2_500, lambda: seen.update(during=link.flit_time)
        )
        platform.run()
        # During the overlap the worst active claim (8) governs; when
        # the transient lapses the edge must *revert to the permanent
        # claim's factor 2*, not stay at 8 forever.
        assert seen["during"] == 8 * nominal
        assert link.flit_time == 2 * nominal
        assert platform.network.degraded_links == {(a, b): 2}

    def test_degrade_skips_an_edge_that_is_down(self):
        platform = small_platform()
        a, b = first_edge(platform)
        platform.inject_scenario(
            {"name": "dead-then-slow", "events": [
                {"at_us": 1_000, "kind": "link", "victims": [[a, b]],
                 "duration_us": 20_000},
                {"at_us": 2_000, "kind": "link_degrade",
                 "victims": [[a, b]], "factor": 4},
            ]}
        )
        platform.run()
        # A dead edge has no timing to degrade, so the permanent degrade
        # claims nothing and the edge comes back at nominal timing.
        assert platform.faults.degraded_victims == []
        assert not platform.network.link_degraded(a, b)
        assert platform.network.link(a, b).flit_time == CONFIG.flit_time_us

    def test_nested_transients_revert_to_outer_factor_then_restore(self):
        platform = small_platform()
        a, b = first_edge(platform)
        platform.inject_scenario(
            {"name": "nested", "events": [
                {"at_us": 1_000, "kind": "link_degrade",
                 "victims": [[a, b]], "factor": 2, "duration_us": 40_000},
                {"at_us": 5_000, "kind": "link_degrade",
                 "victims": [[a, b]], "factor": 8, "duration_us": 5_000},
            ]}
        )
        seen = {}
        link = platform.network.link(a, b)
        nominal = CONFIG.flit_time_us
        platform.sim.schedule_at(
            7_000, lambda: seen.update(inner=link.flit_time)
        )
        platform.sim.schedule_at(
            20_000, lambda: seen.update(outer=link.flit_time)
        )
        platform.run()
        assert seen == {"inner": 8 * nominal, "outer": 2 * nominal}
        assert link.flit_time == nominal
        assert not platform.network.degraded_links
        assert (41_000, "link_degrade", (a, b)) in platform.faults.recovered

    def test_degrade_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            FaultEvent(at_us=0, kind="link_degrade", count=1, factor=1)
        with pytest.raises(ValueError):
            FaultEvent(at_us=0, kind="link_degrade", count=1)
        with pytest.raises(ValueError):
            FaultEvent(at_us=0, kind="node", count=1, factor=2)


# -- corrupting links -------------------------------------------------------


class TestCorrupt:
    def test_corrupted_deliveries_counted_not_executed(self):
        platform = small_platform(seed=11, model="none")
        scenario = FaultScenario(
            name="garble", events=(
                {"at_us": 20_000, "kind": "corrupt", "count": 6,
                 "duration_us": 40_000},
            ),
        )
        platform.inject_scenario(scenario)
        series = platform.run()
        stats = platform.network.stats
        corrupted = stats.get("delivered_corrupted", 0)
        assert corrupted > 0
        # Corrupted packets are *delivered* (NoC-level success) ...
        assert stats["delivered"] >= corrupted
        # ... surfaced in the metrics series and the trace ...
        assert sum(series.corrupted_deliveries) == corrupted
        assert platform.trace.count("packet_corrupted") == corrupted
        assert "corrupted_deliveries" in series.as_dict()
        # ... and the edges recovered at the window end.
        assert not platform.network.corrupting_links
        assert platform.faults.corrupted_victims
        routers = platform.network.routers.values()
        assert sum(r.corrupted_sunk for r in routers) == corrupted

    def test_clean_run_reports_no_corruption_surface(self):
        platform = small_platform(seed=11, model="none")
        platform.inject_faults(2)
        series = platform.run()
        # Corruption-free runs keep the v1 surface exactly: no stats
        # key, no exported series column, no trace category.
        assert "delivered_corrupted" not in platform.network.stats
        assert "corrupted_deliveries" not in series.as_dict()
        assert platform.trace.count("packet_corrupted") == 0

    def test_corrupting_flag_clears_with_recovery(self):
        platform = small_platform()
        a, b = first_edge(platform)
        platform.inject_scenario(
            {"name": "c", "events": [
                {"at_us": 1_000, "kind": "corrupt", "victims": [[a, b]],
                 "duration_us": 2_000},
            ]}
        )
        flags = {}
        platform.sim.schedule_at(
            2_000,
            lambda: flags.update(during=platform.network.link_corrupting(a, b)),
        )
        platform.run()
        assert flags["during"] is True
        assert platform.network.link_corrupting(a, b) is False
        assert platform.trace.count("link_corrupting") == 1
        assert platform.trace.count("link_corrupt_recovered") == 1


# -- controller attach-point failures --------------------------------------


class TestControllerFaults:
    def test_sever_darkens_covered_nodes_until_recovery(self):
        platform = small_platform()
        controller = platform.controller
        victim = 1
        dark_nodes = [
            n for n in platform.network.topology.node_ids()
            if controller.attach_index_of(n) == victim
        ]
        assert dark_nodes  # every attach point covers someone
        platform.inject_scenario(
            {"name": "sever", "events": [
                {"at_us": 10_000, "kind": "controller", "victims": [victim],
                 "duration_us": 20_000},
            ]}
        )
        probes = {}

        def probe(tag):
            try:
                controller.debug_read(dark_nodes[0])
                probes[tag] = "light"
            except ControllerDetachedError:
                probes[tag] = "dark"

        platform.sim.schedule_at(15_000, lambda: probe("during"))
        platform.sim.schedule_at(35_000, lambda: probe("after"))
        platform.run()
        assert probes == {"during": "dark", "after": "light"}
        assert platform.faults.controller_victims == [victim]
        assert (30_000, "controller", victim) in platform.faults.recovered
        assert platform.trace.count("controller_severed") == 1
        assert platform.trace.count("controller_restored") == 1

    def test_dark_knobs_raise_and_broadcast_skips(self):
        platform = small_platform()
        controller = platform.controller
        controller.sever_attach(0)
        dark = next(
            n for n in platform.network.topology.node_ids()
            if controller.is_dark(n)
        )
        light = next(
            n for n in platform.network.topology.node_ids()
            if not controller.is_dark(n)
        )
        with pytest.raises(ControllerDetachedError):
            controller.debug_set_task(dark, 1)
        with pytest.raises(ControllerDetachedError):
            controller.rcap_write(dark, {"routing_mode": "adaptive"})
        with pytest.raises(ControllerDetachedError):
            controller.upload_model_params({}, node_ids=[dark])
        # Broadcast skips dark nodes silently and reports the rest.
        written = controller.upload_model_params({})
        assert dark not in written and light in written
        assert controller.dark_skips >= 2
        controller.restore_attach(0)
        assert controller.debug_read(dark)["node"] == dark

    def test_inject_packet_fails_over_and_full_detach_raises(self):
        platform = small_platform()
        controller = platform.controller
        from repro.noc.packet import Packet

        controller.sever_attach(0)
        assert controller.inject_packet(
            Packet(src_node=0, dest_task=2), attach_index=0
        ) in (True, False)  # failed over to a healthy attach point
        for index in controller.healthy_attach_indices():
            controller.sever_attach(index)
        with pytest.raises(ControllerDetachedError):
            controller.inject_packet(Packet(src_node=0, dest_task=2))

    def test_sever_rejects_bad_index(self):
        platform = small_platform()
        with pytest.raises(ValueError):
            platform.controller.sever_attach(99)
        with pytest.raises(ValueError):
            platform.inject_scenario(
                {"name": "bad", "events": [
                    {"at_us": 0, "kind": "controller", "victims": [99]},
                ]}
            )


# -- hazard-rate storms -----------------------------------------------------


class TestHazardStorms:
    def test_storm_times_come_from_dedicated_stream(self):
        event = FaultEvent(
            at_us=10_000, count=1, hazard_per_us=0.0005, horizon_us=80_000,
            duration_us=5_000,
        )
        rng_a = Simulator(seed=9).rng.stream(HAZARD_STREAM)
        rng_b = Simulator(seed=9).rng.stream(HAZARD_STREAM)
        times = event.occurrence_times(rng_a)
        assert times == event.occurrence_times(rng_b)
        assert times == sorted(times)
        assert all(10_000 < t <= 80_000 for t in times)
        assert times  # rate*window = 35 expected occurrences

    def test_storm_requires_rng(self):
        event = FaultEvent(
            at_us=0, count=1, hazard_per_us=0.001, horizon_us=10_000
        )
        with pytest.raises(ValueError):
            event.occurrence_times()

    def test_storm_composes_with_kind_and_duration(self):
        platform = small_platform(seed=13)
        platform.inject_scenario(
            {"name": "storm", "events": [
                {"at_us": 5_000, "kind": "link", "count": 1,
                 "hazard_per_us": 0.0002, "horizon_us": 80_000,
                 "duration_us": 4_000},
            ]}
        )
        platform.run()
        faults = platform.faults
        assert faults.link_victims  # occurrences struck
        # Transient composition: the struck edges recovered again.
        assert any(kind == "link" for _t, kind, _v in faults.recovered)
        assert not platform.network.failed_links

    def test_storm_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(at_us=0, count=1, hazard_per_us=0)
        with pytest.raises(ValueError):
            FaultEvent(at_us=0, count=1, hazard_per_us=0.1)
        with pytest.raises(ValueError):
            FaultEvent(at_us=5_000, count=1, hazard_per_us=0.1,
                       horizon_us=5_000)
        with pytest.raises(ValueError):
            FaultEvent(at_us=0, count=1, hazard_per_us=0.1,
                       horizon_us=10_000, repeats=3, period_us=100)
        with pytest.raises(ValueError):
            FaultEvent(at_us=0, count=1, horizon_us=10_000)
