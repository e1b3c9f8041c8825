"""Tests for campaign specs, expansion order and content-hash keys."""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.workloads import load_workload
from repro.campaign.spec import CampaignSpec, HASH_SCHEMA_VERSION, RunDescriptor
from repro.core.models.registry import resolve_model_name
from repro.platform.config import PlatformConfig

from tests.integration.test_fault_v2_determinism import (
    V1_CONFIG_FIELDS,
    V1_SCENARIO,
    _v1_config_dict,
)


@pytest.fixture
def small():
    return PlatformConfig.small()


def _spec(**overrides):
    base = dict(
        name="t",
        models=("none", "foraging_for_work"),
        seeds=(1, 2),
        fault_counts=(0, 2),
        config=PlatformConfig.small(),
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestCampaignSpec:
    def test_expansion_order_is_model_major(self):
        cells = [d.cell() for d in _spec().expand()]
        assert cells == [
            ("none", 1, 0),
            ("none", 2, 0),
            ("none", 1, 2),
            ("none", 2, 2),
            ("foraging_for_work", 1, 0),
            ("foraging_for_work", 2, 0),
            ("foraging_for_work", 1, 2),
            ("foraging_for_work", 2, 2),
        ]

    def test_size_matches_expansion(self):
        spec = _spec()
        assert spec.size() == len(spec.expand()) == 8

    def test_aliases_resolve_on_construction(self):
        spec = _spec(models=("ffw", "ni"))
        assert spec.models == ("foraging_for_work", "network_interaction")

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            _spec(models=("martian",))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            _spec(seeds=())

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError):
            _spec(seeds=(1, 1))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            _spec(kind="table9")

    def test_figure4_kind_implies_series(self):
        spec = _spec(kind="figure4", keep_series=False)
        assert spec.keep_series
        assert all(d.keep_series for d in spec.expand())

    def test_table_kind_requires_baseline_model(self):
        with pytest.raises(ValueError, match="'none' model"):
            _spec(models=("ffw",), kind="table2")

    def test_table_kind_requires_zero_faults(self):
        with pytest.raises(ValueError, match="fault count 0"):
            _spec(fault_counts=(2, 8), kind="table2")

    def test_from_dict_rejects_conflicting_fault_keys(self):
        with pytest.raises(ValueError, match="not both"):
            CampaignSpec.from_dict(
                {
                    "name": "s",
                    "models": ["none"],
                    "seeds": [1],
                    "fault_counts": [0],
                    "faults": [0, 8],
                }
            )

    def test_round_trip_via_dict(self):
        spec = _spec(kind="table2")
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert clone == spec

    def test_from_dict_runs_shorthand(self):
        spec = CampaignSpec.from_dict(
            {"name": "s", "models": ["none"], "runs": 3, "seed_base": 10}
        )
        assert spec.seeds == (10, 11, 12)
        assert spec.fault_counts == (0,)

    def test_from_dict_small_base_and_overrides(self):
        spec = CampaignSpec.from_dict(
            {
                "name": "s",
                "models": ["none"],
                "seeds": [1],
                "base": "small",
                "config": {"horizon_us": 50_000, "fault_time_us": 10_000},
            }
        )
        assert spec.config.width == 4
        assert spec.config.horizon_us == 50_000

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown campaign spec keys"):
            CampaignSpec.from_dict(
                {"name": "s", "models": ["none"], "seeds": [1], "bogus": 1}
            )

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"name": "s", "models": ["ffw"], "seeds": [5]})
        )
        spec = CampaignSpec.from_json_file(str(path))
        assert spec.models == ("foraging_for_work",)
        assert spec.seeds == (5,)


class TestRetiredConfigFields:
    """Specs written while a retired config knob existed (the AIM
    ``timer_mode``, the express hop engine's ``fast_path``) still load at
    the value whose keys the spec without it conserves.  Rows stored
    under any other value were keyed with it, so such a spec is rejected
    rather than silently re-keyed (which would orphan those rows)."""

    _BASE = {
        "name": "legacy",
        "models": ["none", "ffw"],
        "seeds": [3],
        "faults": [0, 2],
    }

    def _keys(self, **config):
        data = dict(self._BASE)
        if config:
            data["config"] = config
        return [d.key() for d in CampaignSpec.from_dict(data).expand()]

    @staticmethod
    def _historic_key(model, faults):
        """The v1 cell-key recipe, replicated by hand."""
        payload = {
            "schema": HASH_SCHEMA_VERSION,
            "model": model,
            "seed": 3,
            "faults": faults,
            "metric": "joins",
            "config": _v1_config_dict(PlatformConfig()),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @pytest.mark.parametrize("field,value", [
        ("timer_mode", "event"),
        ("fast_path", True),
    ])
    def test_conserving_value_expands_to_historic_keys(self, field, value):
        historic = [
            self._historic_key(model, faults)
            for model in ("none", "foraging_for_work")
            for faults in (0, 2)
        ]
        assert self._keys() == historic
        assert self._keys(**{field: value}) == historic

    @pytest.mark.parametrize("field,value", [
        ("timer_mode", "ticked"),
        ("timer_mode", "sometimes"),
        ("fast_path", False),
        ("fast_path", 1),
        ("fast_path", 0),
    ])
    def test_other_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            self._keys(**{field: value})

    def test_spec_json_bytes_unchanged(self):
        """``to_dict`` still writes ``"fast_path": true``: spec.json
        provenance keeps the bytes it had while the knob existed."""
        text = json.dumps(_spec().to_dict(), indent=2, sort_keys=True)
        assert '"fast_path": true' in text
        assert hashlib.sha256((text + "\n").encode()).hexdigest() == (
            "10b4dc923c77fba8a46679a3f494f3038bcb29e0055df47a22ae5a8490bea85b"
        )
        assert CampaignSpec.from_dict(json.loads(text)) == _spec()


class TestScenarioAxis:
    def _scenario(self, name="blip"):
        from repro.platform.scenario import FaultScenario

        return FaultScenario(
            name=name,
            events=({"at_us": 50_000, "count": 2, "duration_us": 10_000},),
        )

    def test_scenarios_extend_the_fault_axis(self):
        spec = _spec(scenarios=(self._scenario(),))
        cells = spec.expand()
        assert spec.size() == len(cells) == 2 * 2 * (2 + 1)
        scenario_cells = [c for c in cells if c.scenario is not None]
        assert len(scenario_cells) == 4
        assert all(c.scenario.name == "blip" for c in scenario_cells)
        assert all(c.cell()[2] == "blip" for c in scenario_cells)

    def test_scenario_only_spec_allowed(self):
        spec = _spec(fault_counts=(), scenarios=(self._scenario(),))
        assert spec.size() == 4
        assert all(c.scenario is not None for c in spec.expand())

    def test_empty_fault_axis_rejected(self):
        with pytest.raises(ValueError):
            _spec(fault_counts=(), scenarios=())

    def test_duplicate_scenario_names_rejected(self):
        with pytest.raises(ValueError):
            _spec(scenarios=(self._scenario(), self._scenario()))

    def test_scenarios_coerced_from_dicts(self):
        spec = _spec(
            scenarios=(
                {
                    "name": "cut",
                    "events": [{"at_us": 1000, "kind": "link", "count": 1}],
                },
            )
        )
        assert spec.scenarios[0].events[0].kind == "link"

    def test_round_trip_with_scenarios(self):
        spec = _spec(scenarios=(self._scenario(),))
        clone = CampaignSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert clone == spec

    def test_to_dict_omits_empty_scenarios(self):
        assert "scenarios" not in _spec().to_dict()

    def test_from_dict_scenarios_without_fault_counts(self):
        spec = CampaignSpec.from_dict(
            {
                "name": "s",
                "models": ["none"],
                "seeds": [1],
                "scenarios": [
                    {"name": "blip", "events": [{"at_us": 10, "count": 1}]}
                ],
            }
        )
        assert spec.fault_counts == ()  # no implicit zero-fault cell
        assert spec.size() == 1

    def test_scenario_changes_the_cell_key(self, small):
        base = RunDescriptor("none", 1, 0, small)
        blip = RunDescriptor(
            "none", 1, 0, small, scenario=self._scenario()
        )
        renamed = RunDescriptor(
            "none", 1, 0, small, scenario=self._scenario(name="blip2")
        )
        assert len({base.key(), blip.key(), renamed.key()}) == 3


class TestDescriptorKeys:
    def test_key_is_stable(self, small):
        a = RunDescriptor("none", 1, 0, small)
        b = RunDescriptor("none", 1, 0, small)
        assert a.key() == b.key()

    def test_key_ignores_keep_series(self, small):
        bare = RunDescriptor("none", 1, 0, small, keep_series=False)
        kept = RunDescriptor("none", 1, 0, small, keep_series=True)
        assert bare.key() == kept.key()

    def test_alias_hashes_like_canonical(self, small):
        alias = RunDescriptor("ffw", 1, 0, small)
        canonical = RunDescriptor("foraging_for_work", 1, 0, small)
        assert alias.key() == canonical.key()

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 2},
            {"faults": 1},
            {"model": "none"},
            {"metric": "executions"},
        ],
    )
    def test_key_differs_per_cell(self, small, change):
        base = dict(
            model="foraging_for_work", seed=1, faults=0, config=small
        )
        varied = dict(base)
        varied.update(change)
        assert (
            RunDescriptor(**base).key() != RunDescriptor(**varied).key()
        )

    def test_key_covers_every_config_field(self, small):
        base = RunDescriptor("none", 1, 0, small).key()
        for field in dataclasses.fields(PlatformConfig):
            value = getattr(small, field.name)
            if isinstance(value, bool):
                changed = small.replace(**{field.name: not value})
            elif isinstance(value, int):
                try:
                    changed = small.replace(**{field.name: value + 1})
                except ValueError:
                    continue  # validation-coupled field; covered elsewhere
            elif isinstance(value, float):
                changed = small.replace(**{field.name: value + 0.25})
            elif field.name == "routing_mode":
                changed = small.replace(routing_mode="adaptive")
            elif field.name == "initial_mapping":
                changed = small.replace(initial_mapping="balanced")
            else:
                continue
            assert RunDescriptor("none", 1, 0, changed).key() != base, (
                "config field {} not hashed".format(field.name)
            )

    def test_job_matches_runner_tuple(self, small):
        descriptor = RunDescriptor("none", 3, 2, small, keep_series=True)
        assert descriptor.job() == (
            "none", 3, 2, small, "joins", True, None, None
        )


def _recipe_key(descriptor):
    """The cell-key recipe spelled out: SHA-256 of the whole payload as
    compact sorted-key JSON, with every v1 config field (the retired
    ``fast_path`` as ``true``) and the post-v1 ones only when they differ
    from their defaults."""
    config = descriptor.config
    payload = {
        "schema": HASH_SCHEMA_VERSION,
        "model": resolve_model_name(descriptor.model),
        "seed": descriptor.seed,
        "faults": descriptor.faults,
        "metric": descriptor.metric,
        "config": {
            field.name: getattr(config, field.name)
            for field in dataclasses.fields(PlatformConfig)
            if field.name in V1_CONFIG_FIELDS
            or getattr(config, field.name) != field.default
        },
    }
    payload["config"]["fast_path"] = True
    if descriptor.scenario is not None:
        payload["scenario"] = descriptor.scenario.canonical()
    if descriptor.workload is not None:
        payload["workload"] = descriptor.workload.canonical()
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Config values the key property draws: int/float/bool look-alikes that
#: compare equal but encode differently, on v1 and canonical-optional
#: fields alike (``multicast_fork`` is the v1 bool), plus a governor that
#: joins the canonical dict.
_LOOKALIKES = {
    "flit_time_us": (1, 1.0, True, 2),
    "multicast_fork": (False, True, 0, 0.0),
    "service_jitter": (0.1, 0, 0.0, 1),
    "queue_capacity": (6, 6.0),
    "dvfs_governor": ("none", "hysteresis"),
    "governor_hot_c": (70.0, 70, 80.5),
    "governor_throttle_mhz": (50, 50.0),
    "watchdog_recovery": (False, True, 0, 1),
}

_configs = st.tuples(
    st.sampled_from((PlatformConfig, PlatformConfig.small)),
    st.fixed_dictionaries({}, optional={
        name: st.sampled_from(values) for name, values in _LOOKALIKES.items()
    }),
).map(lambda drawn: drawn[0](**drawn[1]))

_descriptors = st.builds(
    RunDescriptor,
    model=st.sampled_from(("none", "ni", "ffw", "foraging_for_work")),
    seed=st.integers(0, 2**31),
    faults=st.integers(0, 64),
    config=_configs,
    metric=st.sampled_from(("joins", "executions", "active_nodes")),
    scenario=st.sampled_from((None, V1_SCENARIO)),
    workload=st.sampled_from((None, "fork_join", "pipeline3")).map(
        lambda name: name and load_workload(name)
    ),
)


class TestKeyRecipe:
    """``key()`` hashes each config's memoised JSON plus a per-cell tail;
    the bytes must equal the recipe spelled out over the whole payload."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_descriptors, min_size=1, max_size=4))
    def test_key_equals_the_spelled_out_recipe(self, descriptors):
        expected = [_recipe_key(d) for d in descriptors]
        assert [d.key() for d in descriptors] == expected
        # Second pass: every config's memo is warm now.
        assert [d.key() for d in descriptors] == expected

    def test_lookalike_configs_keep_distinct_keys_once_memoised(self):
        lookalike = PlatformConfig(flit_time_us=1.0)
        default = PlatformConfig()
        assert lookalike == default and hash(lookalike) == hash(default)
        first = [RunDescriptor("none", 1, 0, c).key()
                 for c in (lookalike, default)]
        again = [RunDescriptor("none", 1, 0, c).key()
                 for c in (default, lookalike)]
        assert first[0] != first[1]
        assert again == first[::-1]
        assert first[1] == _recipe_key(RunDescriptor("none", 1, 0, default))

    def test_replace_rekeys_a_memoised_config(self, small):
        before = RunDescriptor("none", 1, 0, small).key()
        slower = small.replace(flit_time_us=2)
        cell = RunDescriptor("none", 1, 0, slower)
        assert cell.key() == _recipe_key(cell) != before
        back = slower.replace(flit_time_us=small.flit_time_us)
        assert RunDescriptor("none", 1, 0, back).key() == before

    def test_canonical_hands_out_copies(self, small):
        key = RunDescriptor("none", 1, 0, small).key()
        small.canonical()["width"] = 99
        _spec(config=small).to_dict()["config"]["fast_path"] = False
        assert small.canonical()["width"] == small.width
        assert RunDescriptor("none", 1, 0, small).key() == key
