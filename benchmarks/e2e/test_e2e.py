"""Plumbing and contract checks of the end-to-end benchmark.

Every workload runs once untraced and once traced at its ``TINY`` size,
so the suite stays within a few seconds; the timings themselves are
meaningless here, only names, units, counters and verdicts are checked.
"""

import copy
import importlib
import os
import pkgutil
import re
import shutil
import subprocess
import sys

import pytest

import repro

from . import HERE, load_benchmark
from .compare import compare
from .layers import CENSUS_LAYERS, LAYERS, layer_of_module
from .workloads import PROFILED_CALLS, WORKLOADS, Spans

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return load_benchmark()


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("e2e"))
    results = {}
    for name, cls in WORKLOADS.items():
        # Zero seconds still runs one group or round; the serve ladder
        # splits its seconds into steps.
        seconds = 0.4 if name == "serve_sweep" else 0.0
        results[name, 0] = cls(cls.TINY, 7, seconds, workdir).run()
        results[name, 1] = cls(cls.TINY, 7, seconds, workdir).trace(Spans())
    return results


def test_benchmark_json_follows_the_contract(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(
        set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
        for w in spec["workloads"]
    )
    e2e, per_layer = spec["end_to_end"], spec["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    names = [metric["name"] for metric in e2e + per_layer]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(metric["unit"]) for metric in e2e + per_layer)
    assert all(
        set(metric) == {"name", "unit", "better", "bound"}
        and 0 < metric["bound"] <= 0.25 for metric in e2e
    )
    assert all(set(metric) == {"name", "unit", "better"}
               for metric in per_layer)
    assert all(metric["better"] in ("lower", "higher")
               for metric in e2e + per_layer)
    setup = next(metric for metric in e2e if metric["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(metric["bound"] for metric in e2e)


@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_emitted(outcomes, spec, trace):
    declared = {
        metric["name"]
        for metric in spec["per_layer" if trace else "end_to_end"]
    }
    for name in WORKLOADS:
        outcome = outcomes[name, trace]
        assert outcome.failed == 0, outcome.errors
        assert outcome.attempted >= 1
        assert set(outcome.metrics) == declared, name
        values = outcome.metrics.values()
        assert all(isinstance(value, (int, float)) for value in values)
        if not trace:
            assert all(value > 0 for value in values), name


def test_layer_table_covers_every_repro_module():
    modules = ["repro"] + [
        module.name
        for module in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    assert [m for m in modules if layer_of_module(m) is None] == []


def test_profiled_calls_exist():
    """A renamed function would silently read 0 s in the traced run."""
    for calls in PROFILED_CALLS.values():
        for module, owner, function in calls:
            source = importlib.import_module(
                "repro." + module.replace("/", "."))
            assert callable(getattr(getattr(source, owner), function))


def test_census_sums_to_dispatched_events(outcomes):
    for name in ("paper_cells", "sparse_dynamics", "serve_sweep"):
        metrics = outcomes[name, 1].metrics
        assert metrics["sim.dispatched"] > 0
        assert sum(
            metrics[layer + ".events"] for layer in CENSUS_LAYERS
        ) == metrics["sim.dispatched"], name


def test_self_shares_sum_to_one(outcomes):
    for name in WORKLOADS:
        metrics = outcomes[name, 1].metrics
        total = sum(metrics[layer + ".self_share"] for layer in LAYERS)
        assert abs(total - 1.0) < 0.01, name


def test_traced_counters_cover_their_workloads(outcomes):
    sweep = WORKLOADS["campaign_sweep"](
        WORKLOADS["campaign_sweep"].TINY, 7, 0, None)
    campaign = outcomes["campaign_sweep", 1].metrics
    assert (
        campaign["campaign.executed"], campaign["campaign.cached"],
        campaign["campaign.deduped"],
    ) == (2 * sweep.cells - sweep.shared, sweep.cells, sweep.shared)
    serve = outcomes["serve_sweep", 1].metrics
    assert serve["serve.executed"] > 0 and serve["serve.deduped"] > 0
    assert serve["serve.self_s"] > 0 and serve["serve.cell_exec_s.p50"] > 0


def _runs(spec, scale=None):
    """Five synthetic runs per workload with a 1 % spread."""
    runs = []
    for jitter in (1.00, 1.01, 0.99, 1.005, 0.995):
        metrics = {}
        for metric in spec["end_to_end"]:
            value = jitter * (scale or {}).get(metric["name"], 1.0)
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        runs.append({"correct": True, "attempted": 10, "failed": 0,
                     "metrics": metrics})
    return {"untraced": {name: copy.deepcopy(runs) for name in WORKLOADS}}


def test_compare_flags_a_slowdown_beyond_the_bound(spec):
    base = _runs(spec)
    assert {row["status"] for row in compare(spec, base, base)} == {"ok"}
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "op_s.p50")
    within = _runs(spec, {"op_s.p50": 1 + bound / 2})
    assert {row["status"] for row in compare(spec, base, within)} == {
        "ok"}
    slower = _runs(spec, {"op_s.p50": 1 + 2 * bound})
    flagged = {
        (row["workload"], row["metric"])
        for row in compare(spec, base, slower)
        if row["status"] == "regressed"
    }
    assert flagged == {(name, "op_s.p50") for name in WORKLOADS}


def test_compare_flags_failures_and_wide_spreads(spec):
    base = _runs(spec)
    failing = _runs(spec)
    failing["untraced"]["serve_sweep"][0]["failed"] = 1
    rows = compare(spec, base, failing)
    assert [(r["workload"], r["metric"]) for r in rows
            if r["status"] == "regressed"] == [("serve_sweep", "failed_frac")]
    noisy = _runs(spec)
    for run, factor in zip(noisy["untraced"]["paper_cells"],
                           (0.5, 1.0, 1.5, 0.6, 1.4)):
        run["metrics"]["setup_s"]["value"] = factor
    statuses = {
        row["metric"]: row["status"] for row in compare(spec, noisy, base)
        if row["workload"] == "paper_cells"
    }
    assert statuses["setup_s"] == "unresolved"


def test_refuses_to_run_without_the_simulator(tmp_path):
    checkout = tmp_path / "bare"
    shutil.copytree(HERE, str(checkout / "benchmarks" / "e2e"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(HERE, "..", "..", "BENCHMARK.json"),
                str(checkout))
    child = subprocess.run(
        [sys.executable, "benchmarks/e2e/__main__.py", "--workload",
         "paper_cells", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(checkout), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60,
        env={key: value for key, value in os.environ.items()
             if key != "PYTHONPATH"},
    )
    assert child.returncode != 0
    assert child.stdout.strip() == ""
