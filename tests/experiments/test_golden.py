"""Golden-file regression suite for the paper artefacts.

The determinism tests prove runs repeat bit-identically *within* one
code version; this suite pins the actual numbers *across* versions.
Table I rows, Table II rows, one Figure 4 panel, two config-only
fork-join variants (multicast fork, fork width 4) and a hop-engine cell
matrix are computed at fixed seeds on the small platform and compared,
value for value, against JSON files checked into
``tests/experiments/golden/`` — a refactor that silently drifts any
paper output fails here even if it is self-consistent.

To refresh after an *intentional* behaviour change::

    PYTHONPATH=src python -m pytest tests/experiments/test_golden.py \
        --update-golden

then review the golden-file diff like any other code change.
"""

import json
import os

import pytest

from repro.app.workloads import fork_join_spec
from repro.core.models.registry import MODEL_REGISTRY
from repro.experiments.runner import run_batch, run_single
from repro.experiments.tables import table1_from_runs, table2_from_runs
from repro.platform.config import PlatformConfig
from repro.platform.scenario import FaultScenario

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: Fixed sweep shape: small enough to run in CI, wide enough that every
#: model and the fault axis contribute to the pinned values.
CONFIG = PlatformConfig.small(horizon_us=160_000, fault_time_us=80_000)
MODELS = ("none", "network_interaction", "foraging_for_work")
SEEDS = (101, 102, 103)
TABLE2_FAULTS = (0, 4)
FIGURE4_MODEL = "foraging_for_work"
FIGURE4_FAULTS = 4
FIGURE4_SEED = 101


def _canonical(payload):
    """Round-trip through JSON so compares see exactly the stored form."""
    return json.loads(json.dumps(payload, sort_keys=True))


def check_golden(name, payload, update):
    """Compare ``payload`` against ``golden/<name>.json`` (or rewrite)."""
    payload = _canonical(payload)
    path = os.path.join(GOLDEN_DIR, name + ".json")
    if update:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        pytest.skip("golden file {} refreshed".format(name))
    if not os.path.exists(path):
        pytest.fail(
            "golden file {} missing — generate it with "
            "--update-golden".format(path)
        )
    with open(path) as handle:
        expected = json.load(handle)
    assert payload == expected, (
        "{} drifted from its golden pin; if the change is intentional, "
        "refresh with --update-golden and review the diff".format(name)
    )


def _load_golden(name):
    path = os.path.join(GOLDEN_DIR, name + ".json")
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        return json.load(handle)


def check_golden_entry(name, entry, payload, update):
    """Compare ``payload`` against entry ``entry`` of ``golden/<name>.json``.

    The per-entry form of :func:`check_golden`, for files that pin one
    cell per parametrised test: ``--update-golden`` rewrites only this
    entry and leaves the others as stored.
    """
    stored = _load_golden(name)
    if update:
        stored[entry] = payload
        check_golden(name, stored, update)  # rewrites the file and skips
    assert entry in stored, (
        "golden file {} has no entry {!r} — generate it with "
        "--update-golden".format(name, entry)
    )
    assert _canonical(payload) == stored[entry], (
        "{}[{!r}] drifted from its golden pin; if the change is "
        "intentional, refresh with --update-golden and review the "
        "diff".format(name, entry)
    )


def _table_runs(fault_counts):
    runs = []
    for model in MODELS:
        for faults in fault_counts:
            runs.extend(
                run_batch(
                    model, SEEDS, faults=faults, config=CONFIG, processes=0
                )
            )
    return runs


def test_table1_rows_match_golden(update_golden):
    rows = table1_from_runs(_table_runs((0,)))
    check_golden("table1_rows", rows, update_golden)


def test_table2_rows_match_golden(update_golden):
    rows = table2_from_runs(_table_runs(TABLE2_FAULTS))
    check_golden("table2_rows", rows, update_golden)


#: Config-only task-graph variants pinned by ``fork_join_variants.json``.
FORK_JOIN_VARIANTS = {
    "multicast_fork": {"multicast_fork": True},
    "fork_width4": {"fork_width": 4},
}


def test_fork_join_variant_rows_match_golden(update_golden):
    """Rows and app stats of the multicast and wide-fork variants of the
    config-only fork-join application, one cell per model."""
    payload = {}
    for name, overrides in FORK_JOIN_VARIANTS.items():
        for model in MODELS:
            result = run_single(
                model,
                seed=FIGURE4_SEED,
                faults=FIGURE4_FAULTS,
                config=CONFIG.replace(**overrides),
            )
            payload["{}/{}".format(name, model)] = {
                "row": result.as_row(),
                "app_stats": result.app_stats,
            }
    check_golden("fork_join_variants", payload, update_golden)


#: Shortened small platform of the hop-engine matrix: long enough to
#: settle, inject faults and recover.
HOP_CONFIG = PlatformConfig.small(horizon_us=120_000, fault_time_us=60_000)

#: Thermal storm, transient node failure and deadlock pressure under the
#: hysteresis governor and the watchdog: the dynamics cell of the matrix.
HOP_DYNAMICS = FaultScenario.from_dict({
    "name": "closed-loop",
    "events": [
        {"kind": "thermal_storm", "at_us": 30_000, "count": 4,
         "heat_c": 40.0},
        {"kind": "node", "at_us": 40_000, "count": 1,
         "duration_us": 60_000},
        {"kind": "deadlock_pressure", "at_us": 50_000, "count": 2,
         "wait_limit_us": 100, "duration_us": 30_000},
    ],
})


def _hop_engine_cells():
    """name -> ``run_single`` arguments of the hop-engine matrix."""
    cells = {}
    for model in sorted(MODEL_REGISTRY):
        for seed, faults in ((11, 0), (12, 0), (11, 5)):
            cells["{}/{}/{}".format(model, seed, faults)] = dict(
                model_name=model, seed=seed, faults=faults
            )
    cells["adaptive"] = dict(
        model_name="foraging_for_work", seed=13, faults=3,
        config=HOP_CONFIG.replace(routing_mode="adaptive"),
    )
    cells["multicast"] = dict(
        model_name="network_interaction", seed=14, faults=2,
        config=HOP_CONFIG.replace(multicast_fork=True),
    )
    cells["dynamics"] = dict(
        model_name="ffw", seed=7, scenario=HOP_DYNAMICS,
        config=HOP_CONFIG.replace(
            dvfs_governor="hysteresis",
            watchdog_recovery=True,
            watchdog_timeout_us=20_000,
        ),
    )
    cells["fork_join_spec"] = dict(
        model_name="ffw", seed=7, faults=3, workload=fork_join_spec()
    )
    return cells


@pytest.mark.parametrize("name", list(_hop_engine_cells()))
def test_hop_engine_cells_match_golden(name, update_golden):
    """Rows, NoC counters and application stats of every model with and
    without faults, plus adaptive-routing, multicast, dynamics and
    declared-workload cells: the per-hop packet engine's outputs, one
    cell per test."""
    cell = _hop_engine_cells()[name]
    cell.setdefault("config", HOP_CONFIG)
    result = run_single(keep_series=False, **cell)
    payload = {
        "row": result.as_row(),
        "noc_stats": result.noc_stats,
        "app_stats": result.app_stats,
    }
    check_golden_entry("hop_engine_cells", name, payload, update_golden)


def test_hop_engine_golden_pins_exactly_the_matrix(update_golden):
    """No stale entry outlives a cell dropped from the matrix."""
    if update_golden:
        stored = _load_golden("hop_engine_cells")
        kept = {name: stored[name] for name in _hop_engine_cells()
                if name in stored}
        check_golden("hop_engine_cells", kept, update_golden)
    assert sorted(_load_golden("hop_engine_cells")) == sorted(
        _hop_engine_cells()
    )


def test_figure4_panel_matches_golden(update_golden):
    result = run_single(
        FIGURE4_MODEL,
        seed=FIGURE4_SEED,
        faults=FIGURE4_FAULTS,
        config=CONFIG,
        keep_series=True,
    )
    panel = {
        "model": result.model,
        "faults": result.faults,
        "row": result.as_row(),
        "series": result.series.as_dict(),
    }
    check_golden("figure4_panel", panel, update_golden)
