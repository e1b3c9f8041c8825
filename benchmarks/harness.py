"""Shared helpers for the benchmark suite, plus the perf-gate CLI.

Environment knobs
-----------------
REPRO_RUNS
    Independent seeded runs per (model, fault-count) cell.  Default 15;
    the paper uses 100 — set ``REPRO_RUNS=100`` (and expect roughly an
    hour on one core) for the full-fidelity sweep.
REPRO_SEED_BASE
    First seed of the canonical seed list (default 1000).

Perf gate
---------
``python -m benchmarks.harness --micro`` runs the microbenchmarks
(``bench_micro.py`` via pytest-benchmark) plus a short table sweep, writes
the medians to ``BENCH_micro.json`` at the repo root, and exits non-zero
when ``test_small_platform_run`` has regressed more than 25 % against the
checked-in baseline.  ``--update-baseline`` refreshes the checked-in
numbers after an intentional change; ``make bench`` is the shorthand.

Campaign smoke gate
-------------------
``python -m benchmarks.harness --campaign-smoke`` (``make
campaign-smoke``) runs two store gates and exits non-zero unless both
hold:

* *resume leg* — a 2-model × 2-seed campaign runs twice into one
  temporary store, cold then resumed; the resumed pass must execute
  **zero** simulations and reproduce the cold rows bit-identically;
* *dedup leg* (store v2) — a table1-subset campaign runs cold, then a
  table2-subset sharing the same store root; every shared zero-fault
  cell must resolve through the cross-campaign dedup index (**zero**
  executed shared cells) with rows bit-identical to the first
  campaign's.

Workload / examples smoke gates
-------------------------------
``--workload-smoke`` (``make workload-smoke``) gates the declarative
workload subsystem: a burst-driven workload runs and repeats
bit-identically, a config-only cell and the explicit builtin
``fork_join`` spec give the same row and series, workload-free cell
keys replicate the pre-workload hash recipe, and the capacity lint
flags an arrival rate the platform cannot sustain.  ``--examples-smoke``
(``make examples-smoke``) executes every ``examples/*.py`` script and
fails on a non-zero exit.

Report smoke gate
-----------------
``--report-smoke`` (``make report-smoke``) gates the sweep-scale
analysis layer: a small campaign runs cold then resumed (zero
re-executions), ``campaign report`` must emit a self-contained HTML page
(no scripts, links or external fetches) that re-renders byte-identically
and names every model, a self-``compare`` must come back clean, and a
candidate root with a deliberately degraded ``settled_performance`` must
be flagged — with ``campaign compare`` exiting non-zero, the CI
contract.

Combined with ``--micro``, the numbers join the printed report and the
baseline record.
"""

import argparse
import collections
import json
import os
import subprocess
import sys
import tempfile
import time

#: Repo root (this file lives in benchmarks/); set up before the repro
#: import so ``python -m benchmarks.harness`` works without PYTHONPATH.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.campaign.paper import MODELS, TABLE2_FAULTS
from repro.experiments.runner import default_seeds, run_batch

#: Repo root (this file lives in benchmarks/).
REPO_ROOT = _REPO_ROOT

#: The checked-in perf baseline written/read by the --micro gate.
BASELINE_PATH = os.path.join(REPO_ROOT, "BENCH_micro.json")

#: Benchmark watched by the regression gate, and the allowed slowdown.
GATED_BENCHMARK = "test_small_platform_run"
REGRESSION_TOLERANCE = 1.25


def runs_per_cell(default=15):
    return int(os.environ.get("REPRO_RUNS", str(default)))


def seed_base():
    return int(os.environ.get("REPRO_SEED_BASE", "1000"))


def gather_zero_fault(config, runs=None):
    """Zero-fault result lists per model (Table I input)."""
    seeds = default_seeds(runs or runs_per_cell(), base=seed_base())
    return {
        model: run_batch(model, seeds, faults=0, config=config)
        for model in MODELS
    }


def gather_faulted(config, fault_counts=TABLE2_FAULTS, runs=None):
    """Result lists per (model, fault count) (Table II input)."""
    seeds = default_seeds(runs or runs_per_cell(), base=seed_base())
    results = {}
    for model in MODELS:
        for faults in fault_counts:
            results[(model, faults)] = run_batch(
                model, seeds, faults=faults, config=config
            )
    return results


def run_campaign_smoke(models=("none", "foraging_for_work"), seeds=2,
                       processes=0):
    """Cold-then-resumed smoke campaign; returns the gate's evidence.

    Runs a ``len(models)`` × ``seeds`` zero-fault campaign twice against
    one temporary store and reports both passes: the resumed pass must
    hit the store for every cell (``warm_executed == 0``) and yield
    bit-identical rows.
    """
    import shutil

    from repro.campaign.executor import run_campaign
    from repro.campaign.spec import CampaignSpec
    from repro.platform.config import PlatformConfig

    spec = CampaignSpec(
        name="campaign-smoke",
        models=tuple(models),
        seeds=tuple(default_seeds(seeds, base=seed_base())),
        fault_counts=(0,),
        config=PlatformConfig.small(),
    )
    store = tempfile.mkdtemp(prefix="campaign-smoke-")
    try:
        cold = run_campaign(spec, store=store, processes=processes)
        warm = run_campaign(spec, store=store, processes=processes)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    return {
        "cells": spec.size(),
        "cold_s": cold.elapsed_s,
        "cold_executed": cold.executed,
        "warm_s": warm.elapsed_s,
        "warm_executed": warm.executed,
        "warm_cached": warm.cached,
        "identical": [r.as_row() for r in warm.results]
        == [r.as_row() for r in cold.results],
    }


def check_campaign_smoke(smoke):
    """Failure message for a smoke report, or ``None`` when it passed."""
    if smoke["warm_executed"] != 0:
        return (
            "campaign-smoke: resumed pass re-executed {} of {} cells "
            "(expected 0)".format(smoke["warm_executed"], smoke["cells"])
        )
    if not smoke["identical"]:
        return "campaign-smoke: resumed rows differ from the cold pass"
    return None


def run_dedup_smoke(models=("none", "foraging_for_work"), seeds=2,
                    processes=0):
    """Cross-campaign dedup gate evidence (store v2).

    A table1-subset campaign (zero faults) runs cold, then a
    table2-subset (fault counts 0 and 2) against a *different* campaign
    directory under the same store root.  The second campaign must
    resolve every shared zero-fault cell through the root's dedup index
    — zero simulations for shared cells — and execute only its faulted
    cells, with the reused rows bit-identical to the first campaign's.
    """
    import shutil

    from repro.campaign.executor import run_campaign
    from repro.campaign.spec import CampaignSpec
    from repro.platform.config import PlatformConfig

    config = PlatformConfig.small()
    seed_list = tuple(default_seeds(seeds, base=seed_base()))
    first_spec = CampaignSpec(
        name="table1-subset", models=tuple(models), seeds=seed_list,
        fault_counts=(0,), config=config,
    )
    second_spec = CampaignSpec(
        name="table2-subset", models=tuple(models), seeds=seed_list,
        fault_counts=(0, 2), config=config,
    )
    root = tempfile.mkdtemp(prefix="campaign-dedup-")
    try:
        first = run_campaign(
            first_spec, store=os.path.join(root, first_spec.name),
            processes=processes, dedup_root=root,
        )
        second = run_campaign(
            second_spec, store=os.path.join(root, second_spec.name),
            processes=processes, dedup_root=root,
        )
        shared = {
            (d.model, d.seed): r.as_row() for d, r in first.pairs()
        }
        reused = {
            (d.model, d.seed): r.as_row()
            for d, r in second.pairs() if d.faults == 0
        }
        identical = shared == reused
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "shared_cells": len(shared),
        "faulted_cells": len(models) * len(seed_list),
        "first_executed": first.executed,
        "deduped": second.deduped,
        "executed": second.executed,
        "identical": identical,
    }


def check_dedup_smoke(smoke):
    """Failure message for a dedup report, or ``None`` when it passed."""
    if smoke["deduped"] != smoke["shared_cells"]:
        return (
            "dedup-smoke: second campaign deduped {} of {} shared cells "
            "(expected all)".format(smoke["deduped"], smoke["shared_cells"])
        )
    if smoke["executed"] != smoke["faulted_cells"]:
        return (
            "dedup-smoke: second campaign executed {} cells (expected "
            "only its {} faulted cells)".format(
                smoke["executed"], smoke["faulted_cells"])
        )
    if not smoke["identical"]:
        return (
            "dedup-smoke: reused zero-fault rows differ from the first "
            "campaign's rows"
        )
    return None


def run_dynamics_smoke(seed=7):
    """Closed-loop self-healing gate evidence (platform dynamics).

    One tiny hysteresis-governed run with watchdog recovery enabled: a
    thermal storm at 50 ms must actuate throttles, every throttle must
    restore by the horizon, the killed node must come back through the
    watchdog path (racing — and beating — its scripted recovery), and a
    repeat of the identical run must be bit-identical on the series,
    the NoC statistics and the dynamics counters.
    """
    from repro.platform.centurion import CenturionPlatform
    from repro.platform.config import PlatformConfig

    config = PlatformConfig.small(
        dvfs_governor="hysteresis",
        watchdog_recovery=True,
        watchdog_timeout_us=20_000,
    )
    scenario = {
        "name": "dynamics-smoke",
        "events": [
            {"kind": "thermal_storm", "at_us": 50_000, "count": 4,
             "heat_c": 40.0},
            {"kind": "node", "at_us": 60_000, "count": 1,
             "duration_us": 100_000},
        ],
    }

    def run():
        platform = CenturionPlatform(config, model_name="ffw", seed=seed)
        platform.inject_scenario(dict(scenario))
        series = platform.run()
        return platform, series

    first, first_series = run()
    second, second_series = run()
    restored = all(
        pe.frequency.current_mhz == pe.frequency.nominal_mhz
        for pe in first.pes.values()
    )
    return {
        "throttle_events": first.dynamics.throttle_events,
        "restored": restored,
        "autonomous_recoveries": first.dynamics.autonomous_recoveries,
        "recoveries_total": len(first.controller.faults_recovered),
        "identical": (
            first_series.as_dict() == second_series.as_dict()
            and first.network.stats == second.network.stats
            and first.dynamics.throttle_events
            == second.dynamics.throttle_events
            and first.dynamics.autonomous_recoveries
            == second.dynamics.autonomous_recoveries
        ),
    }


def check_dynamics_smoke(smoke):
    """Failure message for a dynamics report, or ``None`` when it passed."""
    if smoke["throttle_events"] == 0:
        return "dynamics-smoke: the thermal storm actuated no throttles"
    if not smoke["restored"]:
        return (
            "dynamics-smoke: a node was still throttled at the horizon"
        )
    if smoke["autonomous_recoveries"] != 1:
        return (
            "dynamics-smoke: expected exactly 1 watchdog recovery, got "
            "{}".format(smoke["autonomous_recoveries"])
        )
    if smoke["recoveries_total"] != 1:
        return (
            "dynamics-smoke: node recovered {} times (the watchdog and "
            "scripted paths must race to exactly one recovery)".format(
                smoke["recoveries_total"])
        )
    if not smoke["identical"]:
        return "dynamics-smoke: repeated run was not bit-identical"
    return None


#: The burst workload driven by the workload smoke gate.
WORKLOAD_SMOKE_SPEC = {
    "name": "smoke-burst",
    "tasks": [
        {"id": 1, "service_us": 500,
         "arrival": {"period_us": 4_000, "shape": "burst",
                     "burst_ticks": 4, "idle_ticks": 4},
         "downstream": [{"task": 2, "fanout": 3}]},
        {"id": 2, "service_us": 9_000, "weight": 3, "downstream": [3]},
        {"id": 3, "service_us": 2_000, "join": True},
    ],
}


def run_workload_smoke(seed=7):
    """Declarative-workload gate evidence (PR 7).

    Four legs: a burst-driven workload must run and repeat
    bit-identically; a config-only cell and the explicit builtin
    ``fork_join`` spec must give bit-identical rows and series; a cell
    without a workload must keep its pre-workload content key (the
    ``workload`` entry joins the payload only when present); and the
    capacity lint must flag an arrival rate the platform cannot sustain.
    """
    import hashlib

    from repro.app.workloads import (
        capacity_report, compile_workload, fork_join_spec,
    )
    from repro.campaign.spec import HASH_SCHEMA_VERSION, RunDescriptor
    from repro.experiments.runner import run_single
    from repro.platform.config import PlatformConfig

    config = PlatformConfig.small(horizon_us=120_000, fault_time_us=60_000)

    def run(workload=None):
        return run_single(
            "ffw", seed=seed, faults=2, config=config, keep_series=True,
            workload=workload,
        )

    first, second = run(WORKLOAD_SMOKE_SPEC), run(WORKLOAD_SMOKE_SPEC)
    burst_identical = (
        first.as_row() == second.as_row()
        and first.series.as_dict() == second.series.as_dict()
        and first.app_stats == second.app_stats
    )

    config_only, via_spec = run(), run(fork_join_spec())
    config_row, spec_row = config_only.as_row(), via_spec.as_row()
    spec_row.pop("workload", None)
    fork_join_identical = (
        config_row == spec_row
        and config_only.series.as_dict() == via_spec.series.as_dict()
    )

    base = RunDescriptor("ffw", seed, 2, config)
    payload = {
        "schema": HASH_SCHEMA_VERSION,
        "model": "foraging_for_work",
        "seed": seed,
        "faults": 2,
        "metric": "joins",
        "config": config.canonical(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    keys_conserved = (
        base.key() == hashlib.sha256(blob.encode("utf-8")).hexdigest()
        and RunDescriptor(
            "ffw", seed, 2, config, workload=fork_join_spec()
        ).key() != base.key()
    )

    hot = compile_workload({
        "name": "over-capacity",
        "tasks": [
            {"id": 1, "service_us": 100, "arrival": 500,
             "downstream": [2]},
            {"id": 2, "service_us": 40_000},
        ],
    })
    _rows, warnings = capacity_report(
        hot, num_nodes=config.width * config.height
    )
    lint_flags = any("over capacity" in w for w in warnings)

    return {
        "burst_joins": first.app_stats["joins"],
        "burst_identical": burst_identical,
        "fork_join_identical": fork_join_identical,
        "keys_conserved": keys_conserved,
        "lint_flags_over_capacity": lint_flags,
    }


def check_workload_smoke(smoke):
    """Failure message for a workload report, or ``None`` when it passed."""
    if smoke["burst_joins"] <= 0:
        return "workload-smoke: the burst workload completed no joins"
    if not smoke["burst_identical"]:
        return "workload-smoke: repeated burst run was not bit-identical"
    if not smoke["fork_join_identical"]:
        return (
            "workload-smoke: the fork_join spec diverged from the "
            "config-only cell"
        )
    if not smoke["keys_conserved"]:
        return (
            "workload-smoke: workload-free cell keys are not conserved "
            "(or a workload failed to mint a fresh key)"
        )
    if not smoke["lint_flags_over_capacity"]:
        return (
            "workload-smoke: the capacity lint missed an over-capacity "
            "arrival rate"
        )
    return None


def run_report_smoke(models=("none", "foraging_for_work"), seeds=2,
                     processes=0):
    """Report/compare smoke over a real store root; returns evidence.

    Runs a ``len(models)`` × ``seeds`` zero-fault campaign into a
    temporary root (cold, then resumed — the resumed pass must execute
    nothing), renders the static report twice, self-compares the root,
    then injects a regression (every ``settled_performance`` halved in a
    copied candidate root) and checks both :func:`repro.analysis.compare`
    and the ``campaign compare`` CLI flag it.
    """
    import contextlib
    import io
    import shutil

    from repro.analysis.report import compare, write_report
    from repro.campaign.executor import run_campaign
    from repro.campaign.spec import CampaignSpec
    from repro.campaign.store import RESULTS_FILE, encode_line
    from repro.experiments.cli import main as cli_main
    from repro.platform.config import PlatformConfig

    spec = CampaignSpec(
        name="report-smoke",
        models=tuple(models),
        seeds=tuple(default_seeds(seeds, base=seed_base())),
        fault_counts=(0,),
        config=PlatformConfig.small(),
    )
    root = tempfile.mkdtemp(prefix="report-smoke-")
    candidate = tempfile.mkdtemp(prefix="report-smoke-cand-")
    try:
        store = os.path.join(root, spec.name)
        run_campaign(spec, store=store, processes=processes)
        resumed = run_campaign(spec, store=store, processes=processes)
        html_path = write_report(root)
        with open(html_path) as handle:
            page = handle.read()
        write_report(root)
        with open(html_path) as handle:
            repeat = handle.read()
        self_ok = compare(root, root).ok()
        # Candidate root: same cells, settled_performance halved — a
        # regression the gate must flag and the CLI must exit 1 on.
        cand_store = os.path.join(candidate, spec.name)
        shutil.copytree(store, cand_store)
        results_path = os.path.join(cand_store, RESULTS_FILE)
        records = []
        with open(results_path) as handle:
            for line in handle:
                record = json.loads(line)
                record["row"]["settled_performance"] *= 0.5
                records.append(record)
        with open(results_path, "w") as handle:
            for record in records:
                handle.write(encode_line(record))
                handle.write("\n")
        comparison = compare(root, candidate)
        with contextlib.redirect_stdout(io.StringIO()):
            cli_exit = cli_main(["campaign", "compare", root, candidate])
        return {
            "cells": spec.size(),
            "resumed_executed": resumed.executed,
            "html_bytes": len(page),
            "identical": page == repeat,
            "self_contained": all(
                marker not in page
                for marker in ("<script", "<link", "src=")
            ),
            "models_present": all(model in page for model in models),
            "self_compare_ok": self_ok,
            "regressions_flagged": len(comparison.regressions()),
            "compare_exit": cli_exit,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(candidate, ignore_errors=True)


def check_report_smoke(smoke):
    """Failure message for a report-smoke run, or ``None`` when passed."""
    if smoke["resumed_executed"] != 0:
        return (
            "report-smoke: resumed pass re-executed {} of {} cells "
            "(expected 0)".format(smoke["resumed_executed"], smoke["cells"])
        )
    if not smoke["identical"]:
        return "report-smoke: repeated render was not byte-identical"
    if not smoke["self_contained"]:
        return (
            "report-smoke: the page references external assets "
            "(script/link/src) — it must be self-contained"
        )
    if not smoke["models_present"]:
        return "report-smoke: a campaign model is missing from the page"
    if not smoke["self_compare_ok"]:
        return "report-smoke: a root compared against itself was flagged"
    if smoke["regressions_flagged"] == 0:
        return (
            "report-smoke: the injected settled_performance drop was "
            "not flagged"
        )
    if smoke["compare_exit"] == 0:
        return (
            "report-smoke: campaign compare exited zero despite the "
            "injected regression"
        )
    return None


def run_serve_smoke(models=("none", "foraging_for_work"), seeds=2):
    """Sweep-daemon smoke over a real root; returns evidence.

    Boots a :class:`~repro.campaign.serve.CampaignServer` on an
    ephemeral port, submits a ``len(models)`` × ``seeds`` zero-fault
    spec over HTTP (real simulations, small platform), resubmits the
    same spec (must dedup to **zero** executed sims), submits an
    overlapping second tenant (must dedup live through the shared
    root), checks ``/healthz``, and shuts down cleanly (queues drained,
    dedup index persisted).
    """
    import shutil

    from repro.campaign.client import CampaignClient
    from repro.campaign.index import INDEX_FILE
    from repro.campaign.serve import CampaignServer

    payload = {
        "name": "serve-smoke",
        "models": list(models),
        "seeds": default_seeds(seeds, base=seed_base()),
        "fault_counts": [0],
        "base": "small",
    }
    tenant_payload = dict(payload, name="serve-smoke-tenant")
    root = tempfile.mkdtemp(prefix="serve-smoke-")

    def store_lines(name):
        path = os.path.join(root, name, "results.jsonl")
        with open(path, "rb") as handle:
            return {
                json.loads(line)["key"]: line for line in handle
            }

    try:
        with CampaignServer(root, workers=2, port=0) as daemon:
            client = CampaignClient(daemon.url)
            health = client.healthz()
            client.submit(payload)
            first = client.wait(payload["name"], timeout=600.0)
            client.submit(payload)
            second = client.wait(payload["name"], timeout=600.0)
            client.submit(tenant_payload)
            tenant = client.wait(tenant_payload["name"], timeout=600.0)
            identical = (
                store_lines(payload["name"])
                == store_lines(tenant_payload["name"])
            )
        return {
            "cells": first.total,
            "health_ok": health.get("status") == "ok",
            "first_state": first.state,
            "first_executed": first.executed,
            "second_state": second.state,
            "second_executed": second.executed,
            "second_cached": second.cached,
            "tenant_executed": tenant.executed,
            "tenant_deduped": tenant.deduped,
            "stores_identical": identical,
            "index_persisted": os.path.exists(
                os.path.join(root, INDEX_FILE)
            ),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def check_serve_smoke(smoke):
    """Failure message for a serve-smoke run, or ``None`` when passed."""
    if not smoke["health_ok"]:
        return "serve-smoke: /healthz did not report ok"
    if smoke["first_state"] != "completed":
        return "serve-smoke: first submission ended {!r}".format(
            smoke["first_state"]
        )
    if smoke["first_executed"] != smoke["cells"]:
        return (
            "serve-smoke: first submission executed {} of {} "
            "cells".format(smoke["first_executed"], smoke["cells"])
        )
    if smoke["second_executed"] != 0:
        return (
            "serve-smoke: resubmission re-executed {} cells "
            "(expected 0)".format(smoke["second_executed"])
        )
    if smoke["second_cached"] != smoke["cells"]:
        return (
            "serve-smoke: resubmission cached {} of {} cells".format(
                smoke["second_cached"], smoke["cells"]
            )
        )
    if smoke["tenant_executed"] != 0:
        return (
            "serve-smoke: overlapping tenant executed {} cells "
            "(expected 0 — live dedup)".format(smoke["tenant_executed"])
        )
    if smoke["tenant_deduped"] != smoke["cells"]:
        return (
            "serve-smoke: overlapping tenant deduped {} of {} "
            "cells".format(smoke["tenant_deduped"], smoke["cells"])
        )
    if not smoke["stores_identical"]:
        return (
            "serve-smoke: tenant store lines are not byte-identical to "
            "the first submission's"
        )
    if not smoke["index_persisted"]:
        return "serve-smoke: shutdown did not persist the dedup index"
    return None


def run_examples_smoke():
    """Execute every ``examples/*.py`` script; returns name -> exit code.

    The examples are living documentation that CI never imported before;
    a renamed API breaking one shows up here instead of in a user's
    terminal.
    """
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    examples_dir = os.path.join(REPO_ROOT, "examples")
    codes = {}
    for name in sorted(os.listdir(examples_dir)):
        if not name.endswith(".py"):
            continue
        proc = subprocess.run(
            [sys.executable, os.path.join(examples_dir, name)],
            cwd=REPO_ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        codes[name] = proc.returncode
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
    return codes


def check_examples_smoke(codes):
    """Failure message for an examples report, or ``None`` when passed."""
    if not codes:
        return "examples-smoke: no example scripts found"
    failed = sorted(name for name, code in codes.items() if code != 0)
    if failed:
        return "examples-smoke: {} exited non-zero".format(
            ", ".join(failed)
        )
    return None


# -- perf-gate CLI -----------------------------------------------------------


def run_micro_benchmarks():
    """Run bench_micro.py under pytest-benchmark; return name -> median s."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        json_path = handle.name
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    try:
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                os.path.join(REPO_ROOT, "benchmarks", "bench_micro.py"),
                "-q",
                "--benchmark-warmup=off",
                "--benchmark-json={}".format(json_path),
            ],
            cwd=REPO_ROOT,
            env=env,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                "bench_micro.py failed (exit {})".format(proc.returncode)
            )
        with open(json_path) as handle:
            report = json.load(handle)
    finally:
        os.unlink(json_path)
    return {
        bench["name"]: bench["stats"]["median"]
        for bench in report["benchmarks"]
    }


def run_short_sweep(models=("none", "foraging_for_work"), seeds=2):
    """Time a miniature table sweep; returns wall seconds.

    A couple of small-platform batch runs exercise the full stack the way
    Tables I/II do (construction + run + analysis per seed), so sweep-level
    regressions that the microbenchmarks miss still show up here.
    """
    from repro.platform.config import PlatformConfig

    config = PlatformConfig.small()
    seed_list = default_seeds(seeds, base=seed_base())
    start = time.perf_counter()
    for model in models:
        run_batch(model, seed_list, faults=0, config=config,
                  keep_series=False)
    return time.perf_counter() - start


def load_baseline(path=BASELINE_PATH):
    """The checked-in baseline dict, or ``None`` when absent."""
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def write_baseline(result, path=BASELINE_PATH):
    with open(path, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")


def check_regression(medians, baseline):
    """Regression message for the gated benchmark, or ``None`` if fine."""
    if not baseline:
        return None
    reference = baseline.get("benchmarks", {}).get(GATED_BENCHMARK)
    current = medians.get(GATED_BENCHMARK)
    if reference is None or current is None:
        return None
    limit = reference * REGRESSION_TOLERANCE
    if current > limit:
        return (
            "{}: median {:.4f}s exceeds {:.0f}% of baseline {:.4f}s".format(
                GATED_BENCHMARK,
                current,
                REGRESSION_TOLERANCE * 100,
                reference,
            )
        )
    return None


def _render_dynamics(dynamics):
    print("dynamics smoke (hysteresis governor + watchdog recovery):")
    print("  {:<36} {}".format(
        "throttle events", dynamics["throttle_events"]))
    print("  {:<36} {}".format(
        "all throttles restored", dynamics["restored"]))
    print("  {:<36} {} (of {} total)".format(
        "watchdog recoveries", dynamics["autonomous_recoveries"],
        dynamics["recoveries_total"]))


def _render_workload(workload):
    print("workload smoke (burst workload + fork_join spec parity):")
    print("  {:<36} {}".format("burst joins", workload["burst_joins"]))
    print("  {:<36} {}".format(
        "burst repeats identical", workload["burst_identical"]))
    print("  {:<36} {}".format(
        "fork_join spec == config-only cell",
        workload["fork_join_identical"]))
    print("  {:<36} {}".format(
        "workload-free keys conserved", workload["keys_conserved"]))
    print("  {:<36} {}".format(
        "lint flags over-capacity", workload["lint_flags_over_capacity"]))


def _render_examples(examples):
    print("examples smoke ({} scripts):".format(len(examples)))
    for name in sorted(examples):
        print("  {:<36} exit {}".format(name, examples[name]))


def _render_report(report):
    print("report smoke ({} cells, small platform):".format(
        report["cells"]))
    print("  {:<36} {}".format(
        "resumed pass executed", report["resumed_executed"]))
    print("  {:<36} {} ({} bytes)".format(
        "re-render byte-identical", report["identical"],
        report["html_bytes"]))
    print("  {:<36} {}".format(
        "page self-contained", report["self_contained"]))
    print("  {:<36} {}".format(
        "self-compare clean", report["self_compare_ok"]))
    print("  {:<36} {} flagged, exit {}".format(
        "injected regression", report["regressions_flagged"],
        report["compare_exit"]))


def _render_serve(serve):
    print("serve smoke ({} cells, small platform):".format(
        serve["cells"]))
    print("  {:<36} {}".format("healthz ok", serve["health_ok"]))
    print("  {:<36} {} executed ({})".format(
        "first submission", serve["first_executed"],
        serve["first_state"]))
    print("  {:<36} {} executed, {} cached".format(
        "resubmission", serve["second_executed"],
        serve["second_cached"]))
    print("  {:<36} {} executed, {} deduped".format(
        "overlapping tenant", serve["tenant_executed"],
        serve["tenant_deduped"]))
    print("  {:<36} {}".format(
        "stores byte-identical", serve["stores_identical"]))
    print("  {:<36} {}".format(
        "index persisted on shutdown", serve["index_persisted"]))


def _render_campaign(smoke):
    print("campaign smoke ({} cells, small platform):".format(
        smoke["cells"]))
    print("  {:<36} {:>10.6f} s ({} executed)".format(
        "cold pass", smoke["cold_s"], smoke["cold_executed"]))
    print("  {:<36} {:>10.6f} s ({} executed, {} cached)".format(
        "resumed pass", smoke["warm_s"], smoke["warm_executed"],
        smoke["warm_cached"]))


def _render_dedup(dedup):
    print("dedup smoke ({} shared + {} faulted cells):".format(
        dedup["shared_cells"], dedup["faulted_cells"]))
    print("  {:<36} {} deduped, {} executed".format(
        "second campaign", dedup["deduped"], dedup["executed"]))


#: One smoke leg: the CLI flag (``args`` attribute) that requests it, the
#: key its evidence takes in the ``--micro`` baseline record, and its
#: run -> render -> check -> ok-line steps.  A failed check prints
#: ``<FLAG> FAILED: <message>`` and exits 2.
SmokeLeg = collections.namedtuple(
    "SmokeLeg", "flag key run render check ok"
)

#: Every smoke leg, in execution order (one flag may own several legs).
SMOKE_LEGS = (
    SmokeLeg(
        "dynamics_smoke", "dynamics_smoke", run_dynamics_smoke,
        _render_dynamics, check_dynamics_smoke,
        "storm throttled, recovered and repeated identically — ok",
    ),
    SmokeLeg(
        "workload_smoke", "workload_smoke", run_workload_smoke,
        _render_workload, check_workload_smoke,
        "declarative workloads deterministic and conserved — ok",
    ),
    SmokeLeg(
        "examples_smoke", "examples_smoke", run_examples_smoke,
        _render_examples, check_examples_smoke,
        "every example ran clean — ok",
    ),
    SmokeLeg(
        "report_smoke", "report_smoke", run_report_smoke,
        _render_report, check_report_smoke,
        "report deterministic, compare gated the regression — ok",
    ),
    SmokeLeg(
        "serve_smoke", "serve_smoke", run_serve_smoke,
        _render_serve, check_serve_smoke,
        "daemon executed once, deduped the rest, shut down clean — ok",
    ),
    SmokeLeg(
        "campaign_smoke", "campaign_smoke", run_campaign_smoke,
        _render_campaign, check_campaign_smoke,
        "resumed pass hit the store for every cell — ok",
    ),
    SmokeLeg(
        "campaign_smoke", "dedup_smoke", run_dedup_smoke,
        _render_dedup, check_dedup_smoke,
        "shared cells reused bit-identically, 0 executed — ok",
    ),
)


def build_parser():
    """The perf-gate CLI parser (one ``--*-smoke`` flag per leg flag)."""
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.harness",
        description="Benchmark runner and perf regression gate.",
    )
    parser.add_argument(
        "--micro", action="store_true",
        help="run the microbenchmarks + short sweep and gate on baseline",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite BENCH_micro.json with this run's numbers",
    )
    parser.add_argument(
        "--campaign-smoke", action="store_true",
        help="run the cold/resumed campaign store gate "
             "(resumed pass must execute zero simulations)",
    )
    parser.add_argument(
        "--dynamics-smoke", action="store_true",
        help="run the closed-loop self-healing gate (thermal storm must "
             "throttle and restore, watchdog must win the recovery race, "
             "repeats must be bit-identical)",
    )
    parser.add_argument(
        "--workload-smoke", action="store_true",
        help="run the declarative-workload gate (burst runs repeat "
             "bit-identically, fork_join spec matches a config-only "
             "cell, "
             "workload-free keys conserved, capacity lint flags "
             "over-capacity arrivals)",
    )
    parser.add_argument(
        "--examples-smoke", action="store_true",
        help="execute every examples/*.py script and fail on non-zero "
             "exits",
    )
    parser.add_argument(
        "--report-smoke", action="store_true",
        help="run the sweep-scale analysis gate (campaign report must "
             "re-render byte-identically and be self-contained, campaign "
             "compare must flag an injected regression with a non-zero "
             "exit)",
    )
    parser.add_argument(
        "--serve-smoke", action="store_true",
        help="run the sweep-daemon gate (ephemeral-port daemon, HTTP "
             "submission executes the grid, resubmission and an "
             "overlapping tenant dedup to zero executed sims, clean "
             "shutdown persists the index)",
    )
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    legs = [leg for leg in SMOKE_LEGS if getattr(args, leg.flag)]
    if not args.micro and not legs:
        parser.error(
            "nothing to do (pass --micro, --campaign-smoke, "
            "--dynamics-smoke, --workload-smoke, --examples-smoke, "
            "--report-smoke and/or --serve-smoke)"
        )

    evidence = {}
    for leg in legs:
        evidence[leg.key] = leg.run()
        leg.render(evidence[leg.key])
        failure = leg.check(evidence[leg.key])
        if failure is not None:
            print("\n{} FAILED: {}".format(
                leg.flag.replace("_", " ").upper(), failure))
            return 2
        print("  " + leg.ok)
    if not args.micro:
        return 0

    medians = run_micro_benchmarks()
    sweep_seconds = run_short_sweep()
    print()
    print("median wall-time per benchmark:")
    for name in sorted(medians):
        print("  {:<36} {:>10.6f} s".format(name, medians[name]))
    print("  {:<36} {:>10.6f} s".format("short_sweep (2 models x 2 seeds)",
                                        sweep_seconds))

    baseline = load_baseline()
    message = check_regression(medians, baseline)
    result = {
        "benchmarks": medians,
        "short_sweep_s": sweep_seconds,
        "gated_benchmark": GATED_BENCHMARK,
        "regression_tolerance": REGRESSION_TOLERANCE,
    }
    result.update(evidence)
    if baseline:
        # Carry over auxiliary blocks (history, seed_reference, notes).
        for key, value in baseline.items():
            result.setdefault(key, value)

    if baseline is None:
        write_baseline(result)
        print("\nwrote initial baseline to {}".format(BASELINE_PATH))
        return 0
    if message is not None and not args.update_baseline:
        print("\nPERF REGRESSION: {}".format(message))
        return 2
    if args.update_baseline:
        history = result.setdefault("history", [])
        history.append(
            {
                name: baseline["benchmarks"].get(name)
                for name in sorted(baseline.get("benchmarks", {}))
            }
        )
        write_baseline(result)
        print("\nbaseline updated at {}".format(BASELINE_PATH))
    else:
        print("\nwithin {:.0f}% of baseline — ok".format(
            REGRESSION_TOLERANCE * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main())
