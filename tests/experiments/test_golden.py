"""Golden-file regression suite for the paper artefacts.

The determinism tests prove runs repeat bit-identically *within* one
code version; this suite pins the actual numbers *across* versions.
Table I rows, Table II rows, one Figure 4 panel and two config-only
fork-join variants (multicast fork, fork width 4) are computed at a
fixed seed set on the small platform and compared, value for value,
against JSON files checked into ``tests/experiments/golden/`` — a
refactor that silently drifts any paper output fails here even if it is
self-consistent.

To refresh after an *intentional* behaviour change::

    PYTHONPATH=src python -m pytest tests/experiments/test_golden.py \
        --update-golden

then review the golden-file diff like any other code change.
"""

import json
import os

import pytest

from repro.experiments.runner import run_batch, run_single
from repro.experiments.tables import table1_from_runs, table2_from_runs
from repro.platform.config import PlatformConfig

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
