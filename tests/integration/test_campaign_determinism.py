"""Campaign determinism: cached and resumed sweeps are bit-identical.

The campaign engine (repro.campaign) must be invisible in the results: a
sharded, store-backed, resumed campaign has to produce exactly the rows
the plain sequential seed path produces — bit-identical, not just close
(mirroring tests/integration/test_scenario_determinism.py, which pins
the same property for the scenario engine).
"""

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.paper import artifact
from repro.campaign.spec import CampaignSpec
from repro.experiments.runner import run_single
from repro.experiments.tables import table2
from repro.platform.config import PlatformConfig

#: Shortened small-platform grid: 2 models × 2 seeds × 2 fault counts.
_CONFIG = PlatformConfig.small(horizon_us=120_000, fault_time_us=60_000)
_MODELS = ("none", "foraging_for_work")
_SEEDS = (11, 12)
_FAULTS = (0, 2)


@pytest.fixture(scope="module")
def spec():
    return CampaignSpec(
        name="determinism",
        models=_MODELS,
        seeds=_SEEDS,
        fault_counts=_FAULTS,
        config=_CONFIG,
        kind="table2",
    )


@pytest.fixture(scope="module")
def sequential_rows():
    """Table II rows off plain ``run_single`` calls (no campaign
    machinery, no sweep iterator)."""
    results = {
        (model, faults): [
            run_single(
                model, seed, faults=faults, config=_CONFIG,
                keep_series=False,
            )
            for seed in _SEEDS
        ]
        for model in _MODELS
        for faults in _FAULTS
    }
    return table2(results)


def test_cold_campaign_matches_sequential_rows(spec, sequential_rows):
    report = run_campaign(spec, processes=1)
    assert artifact(report) == sequential_rows


def test_parallel_campaign_matches_sequential_rows(spec, sequential_rows):
    report = run_campaign(spec, processes=2)
    assert artifact(report) == sequential_rows


def test_cache_hit_campaign_is_bit_identical(spec, sequential_rows,
                                             tmp_path):
    store = str(tmp_path)
    cold = run_campaign(spec, store=store, processes=2)
    warm = run_campaign(spec, store=store, processes=2)
    assert warm.executed == 0  # nothing recomputed
    assert artifact(warm) == artifact(cold) == sequential_rows


def test_interrupted_campaign_resumes_bit_identical(spec, sequential_rows,
                                                    tmp_path):
    from repro.campaign.store import ResultStore

    store_dir = str(tmp_path)
    descriptors = spec.expand()
    # First half of the sweep "already happened" before the interrupt.
    with ResultStore(store_dir) as store:
        for descriptor in descriptors[: len(descriptors) // 2]:
            store.save_result(descriptor, run_single(*descriptor.job()))
    resumed = run_campaign(spec, store=store_dir, processes=2)
    assert resumed.cached == len(descriptors) // 2
    assert resumed.executed == len(descriptors) - resumed.cached
    assert artifact(resumed) == sequential_rows
