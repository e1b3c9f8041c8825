"""Unit tests for the declarative workload schema (spec + arrivals)."""

import json

import pytest

from repro.app.workloads.arrivals import ArrivalSpec
from repro.app.workloads.spec import (
    BUILTIN_WORKLOADS,
    EdgeSpec,
    TaskSpec,
    WorkloadSpec,
    fork_join_spec,
    load_workload,
    pipeline_spec,
    shuffle_spec,
)


def _spec(**overrides):
    base = dict(
        name="w",
        tasks=(
            {"id": 1, "service_us": 500, "arrival": 4_000,
             "downstream": [2]},
            {"id": 2, "service_us": 2_000},
        ),
    )
    base.update(overrides)
    return WorkloadSpec(**base)


class TestEdgeSpec:
    def test_from_bare_int(self):
        assert EdgeSpec.from_dict(7) == EdgeSpec(task=7)

    def test_fanout_defaults_and_round_trips(self):
        edge = EdgeSpec.from_dict({"task": 2, "fanout": 4})
        assert edge.fanout == 4
        assert EdgeSpec.from_dict(edge.to_dict()) == edge

    def test_to_dict_omits_default_fanout(self):
        assert EdgeSpec(task=2).to_dict() == {"task": 2}
        assert EdgeSpec(task=2).canonical() == {"task": 2, "fanout": 1}

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2"])
    def test_bad_fanout_rejected(self, bad):
        with pytest.raises(ValueError):
            EdgeSpec(task=2, fanout=bad)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown edge field"):
            EdgeSpec.from_dict({"task": 2, "weight": 3})


class TestArrivalSpec:
    def test_bare_int_is_constant(self):
        arrival = ArrivalSpec.from_dict(4_000)
        assert arrival.shape == "constant"
        assert arrival.mean_rate() == 1.0
        assert arrival.emits(999, 123_456)

    def test_burst_gate_is_deterministic(self):
        arrival = ArrivalSpec(
            period_us=1_000, shape="burst", burst_ticks=2, idle_ticks=3
        )
        gates = [arrival.emits(tick, tick * 1_000) for tick in range(10)]
        assert gates == [True, True, False, False, False] * 2
        assert arrival.mean_rate() == pytest.approx(0.4)
        assert not arrival.needs_rng()

    def test_diurnal_rate_peaks_once_per_cycle(self):
        arrival = ArrivalSpec(
            period_us=1_000, shape="diurnal", cycle_us=100_000, floor=0.2
        )
        assert arrival.rate_at(25_000) == pytest.approx(1.0)
        assert arrival.rate_at(75_000) == pytest.approx(0.2)
        assert arrival.mean_rate() == pytest.approx(0.6)
        assert arrival.needs_rng()

    @pytest.mark.parametrize("fields", [
        {"shape": "poisson"},
        {"shape": "burst"},
        {"shape": "burst", "burst_ticks": 2},
        {"shape": "burst", "burst_ticks": 0, "idle_ticks": 1},
        {"shape": "diurnal"},
        {"shape": "diurnal", "cycle_us": 1},
        {"shape": "diurnal", "cycle_us": 100, "floor": 1.0},
        {"cycle_us": 100},  # constant takes no shape fields
        {"shape": "burst", "burst_ticks": 2, "idle_ticks": 2,
         "floor": 0.5},
    ])
    def test_malformed_arrivals_rejected(self, fields):
        with pytest.raises(ValueError):
            ArrivalSpec(period_us=1_000, **fields)

    def test_unknown_arrival_field_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival field"):
            ArrivalSpec.from_dict({"period_us": 1_000, "jitter": 3})


class TestTaskSpec:
    def test_join_and_arrival_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="both a join and"):
            TaskSpec(task_id=1, service_us=100, join=True, arrival=4_000)

    def test_uniform_dist_needs_spread(self):
        with pytest.raises(ValueError, match="service_spread"):
            TaskSpec(task_id=1, service_us=100, service_dist="uniform")

    def test_spread_without_uniform_rejected(self):
        with pytest.raises(ValueError, match="only applies"):
            TaskSpec(task_id=1, service_us=100, service_spread=0.5)

    def test_unknown_dist_rejected(self):
        with pytest.raises(ValueError, match="service_dist"):
            TaskSpec(task_id=1, service_us=100, service_dist="pareto")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            TaskSpec.from_dict({"id": 1, "service_us": 100, "prio": 2})

    def test_to_dict_omits_defaults(self):
        task = TaskSpec(task_id=1, service_us=100)
        assert task.to_dict() == {"id": 1, "service_us": 100}

    def test_service_dist_is_canonical_optional(self):
        plain = TaskSpec(task_id=1, service_us=100)
        dist = TaskSpec(
            task_id=1, service_us=100, service_dist="exponential"
        )
        assert "service_dist" not in plain.canonical()
        assert dist.canonical()["service_dist"] == "exponential"


class TestWorkloadSpec:
    def test_round_trips_through_json(self):
        spec = _spec()
        clone = WorkloadSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.key() == spec.key()

    def test_duplicate_task_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate task id"):
            _spec(tasks=(
                {"id": 1, "service_us": 100, "arrival": 4_000},
                {"id": 1, "service_us": 200},
            ))

    def test_unknown_edge_target_rejected(self):
        with pytest.raises(ValueError, match="unknown task"):
            _spec(tasks=(
                {"id": 1, "service_us": 100, "arrival": 4_000,
                 "downstream": [9]},
            ))

    def test_sourceless_graph_rejected(self):
        with pytest.raises(ValueError, match="no source"):
            _spec(tasks=({"id": 1, "service_us": 100},))

    def test_multicast_changes_the_key(self):
        assert _spec().key() != _spec(multicast=True).key()

    def test_per_task_series_is_canonical_optional(self):
        assert "per_task_series" not in _spec().canonical()
        flagged = _spec(per_task_series=True)
        assert flagged.canonical()["per_task_series"] is True
        assert flagged.key() != _spec().key()

    def test_accessors(self):
        spec = _spec()
        assert spec.task(2).service_us == 2_000
        assert spec.source_ids() == [1]
        assert spec.join_ids() == []
        with pytest.raises(KeyError):
            spec.task(9)


class TestBuiltins:
    def test_all_builtins_are_valid_zero_arg(self):
        for name, factory in BUILTIN_WORKLOADS.items():
            spec = factory()
            assert spec.name == name
            assert spec.source_ids()

    def test_fork_join_mirrors_legacy_graph(self):
        """The builtin's defaults are the config's task-graph defaults,
        so a config-only default cell runs exactly ``fork_join_spec()``."""
        from repro.platform.config import PlatformConfig

        config = PlatformConfig()
        assert fork_join_spec() == fork_join_spec(
            fork_width=config.fork_width,
            generation_period_us=config.generation_period_us,
            source_service_us=config.source_service_us,
            branch_service_us=config.branch_service_us,
            sink_service_us=config.sink_service_us,
            deadline_us=config.packet_deadline_us,
            packet_flits=config.packet_flits,
            multicast=config.multicast_fork,
        )

    def test_pipeline_has_single_chain(self):
        spec = pipeline_spec(stages=4)
        assert spec.name == "pipeline4"
        assert [t.task_id for t in spec.tasks] == [1, 2, 3, 4]
        assert spec.tasks[-1].downstream == ()

    def test_shuffle_join_fan_in_is_width_squared(self):
        from repro.app.workloads.compiler import compile_workload

        compiled = compile_workload(shuffle_spec(width=2))
        (join_id,) = compiled.spec.join_ids()
        assert compiled.in_width[join_id] == 4


class TestLoadWorkload:
    def test_spec_passes_through(self):
        spec = _spec()
        assert load_workload(spec) is spec

    def test_dict_and_builtin_and_file(self, tmp_path):
        assert load_workload(_spec().to_dict()) == _spec()
        assert load_workload("fork_join") == fork_join_spec()
        path = tmp_path / "w.json"
        path.write_text(json.dumps(_spec().to_dict()))
        assert load_workload(str(path)) == _spec()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="not a built-in"):
            load_workload("no_such_workload")
