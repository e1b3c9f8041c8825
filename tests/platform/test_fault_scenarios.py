"""Scenario interpretation: the FaultInjector executing declarative faults."""

from repro.platform.centurion import CenturionPlatform
from repro.platform.config import PlatformConfig
from repro.platform.scenario import FaultEvent, FaultScenario


def make_platform(seed=21, model="none", **config_kwargs):
    return CenturionPlatform(
        PlatformConfig.small(**config_kwargs), model_name=model, seed=seed
    )


class TestTransientFaults:
    def test_node_recovers_after_duration(self):
        platform = make_platform()
        platform.inject_scenario(
            FaultScenario(
                name="blip",
                events=(
                    FaultEvent(
                        at_us=10_000, victims=(5,), duration_us=20_000
                    ),
                ),
            )
        )
        platform.sim.run_until(15_000)
        assert platform.pes[5].halted
        assert platform.network.router(5).failed
        platform.sim.run_until(40_000)
        assert not platform.pes[5].halted
        assert not platform.network.router(5).failed
        assert 5 not in platform.network.failed_nodes
        assert platform.faults.recovered == [(30_000, "node", 5)]

    def test_recovered_node_rejoins_blank(self):
        platform = make_platform()
        task_before = platform.pes[5].task_id
        platform.inject_scenario(
            FaultScenario(
                name="blip",
                events=(
                    FaultEvent(
                        at_us=10_000, victims=(5,), duration_us=5_000
                    ),
                ),
            )
        )
        platform.sim.run_until(16_000)
        pe = platform.pes[5]
        assert not pe.halted
        assert pe.task_id is None
        assert platform.network.directory.task_of(5) is None
        assert 5 not in platform.network.failed_nodes
        del task_before

    def test_recovered_node_routes_traffic_again(self):
        platform = make_platform()
        victim = 5
        platform.inject_scenario(
            FaultScenario(
                name="blip",
                events=(
                    FaultEvent(
                        at_us=10_000, victims=(victim,),
                        duration_us=10_000,
                    ),
                ),
            )
        )
        platform.sim.run_until(30_000)
        policy = platform.network.policy
        # With the mesh whole again, XY routes pass through the victim.
        assert victim in policy.path(4, 6)

    def test_recovered_node_accepts_work_again(self):
        platform = make_platform(model="foraging_for_work", seed=7)
        platform.inject_scenario(
            FaultScenario(
                name="blip",
                events=(
                    FaultEvent(
                        at_us=50_000, count=4, duration_us=30_000
                    ),
                ),
            )
        )
        platform.sim.run_until(90_000)
        recovered = [v for _t, kind, v in platform.faults.recovered
                     if kind == "node"]
        assert len(recovered) == 4
        # The re-allocation path is open again: the task-select knob
        # sticks (it is refused on halted nodes) and the directory lists
        # the node as a provider once more.
        node = recovered[0]
        platform.controller.debug_set_task(node, 2)
        assert platform.pes[node].task_id == 2
        assert node in platform.network.directory.providers(2)

    def test_permanent_kill_outranks_pending_transient_recovery(self):
        platform = make_platform()
        platform.inject_scenario(
            FaultScenario(
                name="perm-vs-transient",
                events=(
                    FaultEvent(
                        at_us=10_000, victims=(5,), duration_us=20_000
                    ),
                    # Declared permanent while node 5 is down from the
                    # transient — the recovery at 30_000 must not revive.
                    FaultEvent(at_us=15_000, victims=(5,)),
                ),
            )
        )
        platform.sim.run_until(40_000)
        assert platform.pes[5].halted
        assert platform.faults.recovered == []

    def test_permanent_link_cut_outranks_transient_recovery(self):
        platform = make_platform()
        platform.inject_scenario(
            FaultScenario(
                name="perm-link",
                events=(
                    FaultEvent(
                        at_us=10_000, kind="link", victims=((1, 0),),
                        duration_us=20_000,
                    ),
                    FaultEvent(at_us=15_000, kind="link",
                               victims=((0, 1),)),
                ),
            )
        )
        platform.sim.run_until(40_000)
        assert platform.network.link_failed(0, 1)
        assert platform.faults.recovered == []

    def test_overlapping_transients_extend_the_outage(self):
        platform = make_platform()
        platform.inject_scenario(
            FaultScenario(
                name="overlap",
                events=(
                    FaultEvent(
                        at_us=10_000, victims=(5,), duration_us=20_000
                    ),
                    # Overlaps the first outage and ends later: node 5
                    # must stay down past the first recovery at 30_000.
                    FaultEvent(
                        at_us=20_000, victims=(5,), duration_us=20_000
                    ),
                ),
            )
        )
        platform.sim.run_until(35_000)
        assert platform.pes[5].halted
        platform.sim.run_until(40_000)
        assert not platform.pes[5].halted
        assert platform.faults.recovered == [(40_000, "node", 5)]

    def test_partial_lapse_leaves_a_watchdog_revival_up(self):
        platform = make_platform(
            seed=5, horizon_us=200_000, fault_time_us=100_000,
            watchdog_recovery=True, watchdog_timeout_us=20_000,
        )
        platform.inject_scenario(
            FaultScenario(
                name="revived",
                events=(
                    FaultEvent(
                        at_us=10_000, victims=(5,), duration_us=60_000
                    ),
                    FaultEvent(
                        at_us=20_000, victims=(5,), duration_us=120_000
                    ),
                ),
            )
        )
        platform.sim.run_until(50_000)
        # The watchdog revived node 5 while both outages still claim it.
        assert platform.dynamics.autonomous_recoveries == 1
        assert not platform.pes[5].halted
        # The first outage's lapse at 70 ms leaves the second claim
        # live, but it must not kill the node again.
        platform.sim.run_until(90_000)
        assert not platform.pes[5].halted
        assert platform.faults.victims == [5]

    def test_intermittent_fault_strikes_repeatedly(self):
        platform = make_platform()
        platform.inject_scenario(
            FaultScenario(
                name="flaky",
                events=(
                    FaultEvent(
                        at_us=10_000, victims=(3,), duration_us=2_000,
                        repeats=3, period_us=10_000,
                    ),
                ),
            )
        )
        platform.run()
        assert platform.faults.victims == [3, 3, 3]
        assert [entry[0] for entry in platform.faults.recovered] == [
            12_000, 22_000, 32_000
        ]


class TestWaves:
    def test_waves_kill_in_instalments(self):
        platform = make_platform()
        platform.inject_scenario(
            FaultScenario(
                name="waves",
                events=(
                    FaultEvent(
                        at_us=20_000, count=2, repeats=3, period_us=15_000
                    ),
                ),
            )
        )
        platform.sim.run_until(20_000)
        assert len(platform.faults.victims) == 2
        platform.sim.run_until(35_000)
        assert len(platform.faults.victims) == 4
        platform.sim.run_until(50_000)
        assert len(platform.faults.victims) == 6
        assert len(set(platform.faults.victims)) == 6  # fresh victims
        assert platform.faults.recovered == []  # permanent


class TestSpatialPatterns:
    def test_row_pattern_hits_only_that_row(self):
        platform = make_platform()
        platform.inject_scenario(
            FaultScenario(
                name="row-kill",
                events=(
                    FaultEvent(at_us=10_000, pattern="row", row=2),
                ),
            )
        )
        platform.sim.run_until(10_000)
        topology = platform.network.topology
        expected = [n for n in topology.node_ids()
                    if topology.coords(n)[1] == 2]
        assert sorted(platform.faults.victims) == expected

    def test_column_pattern_with_count_subsets(self):
        platform = make_platform()
        platform.inject_scenario(
            FaultScenario(
                name="col-kill",
                events=(
                    FaultEvent(
                        at_us=10_000, pattern="column", column=1, count=2
                    ),
                ),
            )
        )
        platform.sim.run_until(10_000)
        topology = platform.network.topology
        assert len(platform.faults.victims) == 2
        assert all(
            topology.coords(v)[0] == 1 for v in platform.faults.victims
        )

    def test_region_pattern(self):
        platform = make_platform()
        platform.inject_scenario(
            FaultScenario(
                name="quadrant",
                events=(
                    FaultEvent(
                        at_us=10_000, pattern="region", region=(0, 0, 1, 1)
                    ),
                ),
            )
        )
        platform.sim.run_until(10_000)
        assert sorted(platform.faults.victims) == [0, 1, 4, 5]

    def test_neighborhood_pattern(self):
        platform = make_platform()
        platform.inject_scenario(
            FaultScenario(
                name="blast",
                events=(
                    FaultEvent(
                        at_us=10_000, pattern="neighborhood", center=5,
                        radius=1,
                    ),
                ),
            )
        )
        platform.sim.run_until(10_000)
        # Manhattan ball of radius 1 around node 5 on the 4x4 mesh.
        assert sorted(platform.faults.victims) == [1, 4, 5, 6, 9]


class TestLinkFaults:
    def test_link_failure_detours_routing(self):
        platform = make_platform()
        platform.inject_scenario(
            FaultScenario(
                name="cut",
                events=(
                    FaultEvent(at_us=10_000, kind="link",
                               victims=((0, 1),)),
                ),
            )
        )
        platform.sim.run_until(10_000)
        network = platform.network
        assert network.link_failed(0, 1)
        assert not network.link(0, 1).enabled
        assert not network.link(1, 0).enabled
        path = network.policy.path(0, 1)
        assert path[:2] != [0, 1]  # forced off the direct edge
        assert path[-1] == 1

    def test_link_recovery_restores_xy(self):
        platform = make_platform()
        platform.inject_scenario(
            FaultScenario(
                name="cut-heal",
                events=(
                    FaultEvent(
                        at_us=10_000, kind="link", victims=((0, 1),),
                        duration_us=10_000,
                    ),
                ),
            )
        )
        platform.sim.run_until(30_000)
        network = platform.network
        assert not network.link_failed(0, 1)
        assert network.link(0, 1).enabled
        assert network.policy.path(0, 1) == [0, 1]
        assert platform.faults.recovered == [(20_000, "link", (0, 1))]

    def test_random_link_draw_is_deterministic(self):
        def failed_links_for(seed):
            platform = make_platform(seed=seed)
            platform.inject_scenario(
                FaultScenario(
                    name="cuts",
                    events=(
                        FaultEvent(at_us=10_000, kind="link", count=3),
                    ),
                )
            )
            platform.sim.run_until(10_000)
            return sorted(platform.network.failed_links)

        assert failed_links_for(3) == failed_links_for(3)
        assert len(failed_links_for(3)) == 3
        assert failed_links_for(3) != failed_links_for(4)

    def test_traffic_survives_link_cut(self):
        platform = make_platform(model="none", seed=11)
        platform.inject_scenario(
            FaultScenario(
                name="cuts",
                events=(
                    FaultEvent(at_us=50_000, kind="link", count=4),
                ),
            )
        )
        series = platform.run()
        assert series.joins[-1] > 0  # the colony keeps completing work


class TestEdgeCases:
    def test_count_beyond_alive_is_capped(self):
        platform = make_platform()
        platform.inject_scenario(
            FaultScenario(
                name="overkill",
                events=(FaultEvent(at_us=10_000, count=999),),
            )
        )
        platform.sim.run_until(10_000)
        assert len(platform.faults.victims) == 16

    def test_double_injection_of_dead_node_is_noop(self):
        platform = make_platform()
        platform.inject_faults(1, at_us=10_000, victims=[5])
        platform.inject_faults(1, at_us=20_000, victims=[5])
        platform.sim.run_until(30_000)
        assert platform.faults.victims == [5]  # second strike no-ops
        assert len(platform.controller.faults_injected) == 1

    def test_fault_at_exact_horizon(self):
        from repro.experiments.runner import run_single

        config = PlatformConfig.small(
            horizon_us=100_000, fault_time_us=100_000
        )
        result = run_single("none", seed=3, faults=2, config=config)
        # No post-fault window: recovery mirrors the settled state.
        assert result.recovery_time_ms == 0.0
        assert result.recovered_performance == result.settled_performance

    def test_scenario_fault_at_exact_horizon(self):
        from repro.experiments.runner import run_single

        config = PlatformConfig.small(horizon_us=100_000)
        scenario = FaultScenario.burst(2, 100_000)
        result = run_single("none", seed=3, config=config,
                            scenario=scenario)
        assert result.recovery_time_ms == 0.0
        assert result.scenario == scenario.name

    def test_scenario_fault_at_time_zero(self):
        from repro.experiments.runner import run_single

        config = PlatformConfig.small(horizon_us=100_000)
        result = run_single(
            "none", seed=3, config=config,
            scenario=FaultScenario.burst(2, 0),
        )
        # No pre-fault window: settling spans the whole faulted run.
        assert result.faults == 2
        assert result.settling_time_ms >= 0.0

    def test_inject_scenario_accepts_dict_and_path(self, tmp_path):
        import json

        payload = {
            "name": "blip",
            "events": [{"at_us": 10_000, "count": 1}],
        }
        from_dict = make_platform().inject_scenario(payload)
        assert from_dict.name == "blip"
        path = tmp_path / "blip.json"
        path.write_text(json.dumps(payload))
        from_file = make_platform().inject_scenario(str(path))
        assert from_file == from_dict

    def test_bad_pinned_victims_rejected_at_apply_time(self):
        import pytest

        platform = make_platform()
        with pytest.raises(ValueError):
            platform.inject_scenario(
                FaultScenario(
                    name="bad-node",
                    events=(FaultEvent(at_us=1000, victims=(99,)),),
                )
            )
        with pytest.raises(ValueError):
            platform.inject_scenario(
                FaultScenario(
                    name="bad-link",
                    events=(
                        FaultEvent(
                            at_us=1000, kind="link", victims=((0, 5),)
                        ),
                    ),
                )
            )
        # Rejected scenarios leave nothing scheduled.
        assert platform.faults.scenarios == []

    def test_mixed_scenario_runs_end_to_end(self):
        platform = make_platform(model="network_interaction", seed=5)
        platform.inject_scenario(
            FaultScenario(
                name="chaos",
                events=(
                    FaultEvent(at_us=30_000, count=1),
                    FaultEvent(at_us=60_000, kind="link", count=2,
                               duration_us=20_000),
                    FaultEvent(at_us=90_000, pattern="row", row=3,
                               count=2, duration_us=30_000),
                    FaultEvent(at_us=100_000, count=1, repeats=2,
                               period_us=40_000),
                ),
            )
        )
        series = platform.run()
        assert len(series.time_ms) > 0
        assert len(platform.faults.victims) >= 5
