"""Tests for the mapping-policy registry and recovery remapping."""

import random

import pytest

from repro.app.workloads import (
    MAPPING_POLICIES,
    apply_mapping,
    compile_workload,
    mapping_policy,
    remap_for_recovery,
)
from repro.app.workloads.policies import census
from repro.noc.topology import MeshTopology
from repro.platform.centurion import CenturionPlatform
from repro.platform.config import PlatformConfig

WEIGHTS = {1: 1, 2: 3, 3: 1}


@pytest.fixture
def topology():
    return MeshTopology(4, 4)


class TestRegistry:
    def test_registry_names(self):
        assert set(MAPPING_POLICIES) == {
            "random", "balanced", "clustered", "load_aware",
        }

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown mapping policy"):
            mapping_policy("spiral")

    # Row-major task lists the pre-registry mapping functions produced
    # on the 4x4 mesh with ``random.Random(42)``: the policies must draw
    # and place exactly as they did.
    @pytest.mark.parametrize("name,legacy", [
        pytest.param(
            "random", [2, 1, 2, 2, 2, 2, 3, 1, 2, 1, 2, 2, 1, 1, 2, 2],
            id="random-random_mapping",
        ),
        pytest.param(
            "balanced", [2, 2, 2, 2, 3, 2, 3, 2, 1, 1, 3, 2, 2, 2, 1, 2],
            id="balanced-balanced_mapping",
        ),
    ])
    def test_node_id_policies_match_legacy_functions(
        self, topology, name, legacy
    ):
        mapping = apply_mapping(name, topology, WEIGHTS, random.Random(42))
        assert [mapping[n] for n in topology.node_ids()] == legacy

    def test_clustered_matches_legacy_function(self, topology):
        mapping = apply_mapping(
            "clustered", topology, WEIGHTS, random.Random(42)
        )
        assert [mapping[n] for n in topology.node_ids()] == [
            1, 2, 2, 2, 1, 2, 2, 2, 1, 2, 2, 2, 1, 2, 2, 2,
        ]


class TestLoadAware:
    def test_balances_compiled_demand_not_static_weights(self, topology):
        # All static weights equal, but task 2 carries 25x the compute
        # demand — load_aware must give it most of the nodes.
        compiled = compile_workload({
            "name": "skewed",
            "tasks": [
                {"id": 1, "service_us": 100, "arrival": 1_000,
                 "downstream": [2]},
                {"id": 2, "service_us": 10_000, "downstream": [3]},
                {"id": 3, "service_us": 400},
            ],
        })
        mapping = apply_mapping(
            "load_aware", topology, {1: 1, 2: 1, 3: 1},
            random.Random(42), workload=compiled,
        )
        counts = census(mapping)
        assert counts[2] > counts.get(1, 0)
        assert counts[2] > counts.get(3, 0)
        assert counts[2] >= 12  # ~ 10/10.5 of the 16 nodes

    def test_falls_back_to_static_weights_without_workload(self, topology):
        assert apply_mapping(
            "load_aware", topology, WEIGHTS, random.Random(42)
        ) == apply_mapping("balanced", topology, WEIGHTS, random.Random(42))


class TestRecoveryRemap:
    def _platform(self, **config_overrides):
        config = PlatformConfig.small(**config_overrides)
        return CenturionPlatform(config, model_name="none", seed=7)

    def test_picks_the_task_with_the_largest_deficit(self):
        platform = self._platform()
        # Blank out every node running task 2: it now has the largest
        # deficit against its 3/5 weight share.
        for pe in platform.pes.values():
            if pe.task_id == 2:
                pe.set_task(None, reason="test")
        assert remap_for_recovery(platform, node_id=0) == 2

    def test_ties_break_to_the_smallest_task_id(self):
        platform = self._platform()
        for pe in platform.pes.values():
            pe.set_task(None, reason="test")
        # All deficits now equal their weight-proportional targets;
        # task 2's (weight 3) is largest, so a full blank-out picks it —
        # then with census rebuilt equal to targets, ties go low.
        assert remap_for_recovery(platform, node_id=0) == 2

    def test_config_validates_recovery_remap(self):
        with pytest.raises(ValueError):
            PlatformConfig.small(recovery_remap="aggressive")

    def test_recovered_node_readopts_a_task_end_to_end(self):
        config = PlatformConfig.small(
            horizon_us=120_000, fault_time_us=60_000,
            recovery_remap="fault-aware",
        )
        platform = CenturionPlatform(config, model_name="none", seed=7)
        platform.inject_scenario({
            "name": "blip",
            "events": [
                {"kind": "node", "at_us": 60_000, "victims": [5],
                 "duration_us": 20_000},
            ],
        })
        platform.run()
        assert platform.dynamics.recovery_remaps == 1
        assert platform.pes[5].task_id is not None

    def test_remap_off_by_default(self):
        config = PlatformConfig.small(
            horizon_us=120_000, fault_time_us=60_000,
        )
        platform = CenturionPlatform(config, model_name="none", seed=7)
        platform.inject_scenario({
            "name": "blip",
            "events": [
                {"kind": "node", "at_us": 60_000, "victims": [5],
                 "duration_us": 20_000},
            ],
        })
        platform.run()
        assert platform.dynamics.recovery_remaps == 0
        # The "none" model never reassigns, so the node stays blank.
        assert platform.pes[5].task_id is None
