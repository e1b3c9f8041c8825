"""Shared helpers for the benchmark suite, plus the perf gate.

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
``python -m benchmarks.harness`` runs the microbenchmarks
(``bench_micro.py`` via pytest-benchmark) plus a short table sweep, writes
the medians to ``BENCH_micro.json`` at the repo root, and exits 2 when
``test_small_platform_run`` has regressed more than 25 % against the
checked-in baseline, or is missing from the run or the baseline.
``--update-baseline`` refreshes the checked-in numbers after an
intentional change; ``make bench`` and ``make bench-baseline`` are the
shorthands.
"""

import argparse
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

from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.experiments.runner import default_seeds
from repro.platform.config import PlatformConfig

#: Repo root (this file lives in benchmarks/).
REPO_ROOT = _REPO_ROOT

#: The checked-in perf baseline the gate writes and reads.
BASELINE_PATH = os.path.join(REPO_ROOT, "BENCH_micro.json")

#: Benchmark watched by the regression gate, and the allowed slowdown.
GATED_BENCHMARK = "test_small_platform_run"
REGRESSION_TOLERANCE = 1.25


def runs_per_cell(default=15):
    return int(os.environ.get("REPRO_RUNS", str(default)))


def seed_base():
    return int(os.environ.get("REPRO_SEED_BASE", "1000"))


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


def zero_fault_results(models, config, runs):
    """Zero-fault results of ``models`` over ``runs`` canonical seeds.

    The cells run as one campaign through
    :func:`~repro.campaign.executor.run_campaign`, the CLI's path, in
    grid order (model-major, then seeds); ``REPRO_PROCESSES`` sets the
    worker count.
    """
    spec = CampaignSpec(
        name="bench-sweep",
        models=tuple(models),
        seeds=tuple(default_seeds(runs, base=seed_base())),
        config=config,
    )
    return run_campaign(spec).results


def run_short_sweep(models=("none", "foraging_for_work"), seeds=2):
    """Time a miniature table sweep; returns wall seconds.

    A couple of small-platform cells exercise the full stack the way
    Tables I/II do (construction + run + analysis per seed), so sweep-level
    regressions that the microbenchmarks miss still show up here.
    """
    start = time.perf_counter()
    zero_fault_results(models, PlatformConfig.small(), seeds)
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
    """Failure message for the gated benchmark, or ``None`` if fine.

    A benchmark missing from the run or from the baseline fails: a
    renamed or deselected gate must not pass silently.
    """
    reference = baseline.get("benchmarks", {}).get(GATED_BENCHMARK)
    if reference is None:
        return "{}: missing from the baseline".format(GATED_BENCHMARK)
    current = medians.get(GATED_BENCHMARK)
    if current is None:
        return "{}: missing from this run".format(GATED_BENCHMARK)
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


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.harness",
        description="Microbenchmarks + short sweep, gated against "
                    "BENCH_micro.json.",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite BENCH_micro.json with this run's numbers",
    )
    args = parser.parse_args(argv)

    medians = run_micro_benchmarks()
    sweep_seconds = run_short_sweep()
    print()
    print("median wall-time per benchmark:")
    for name in sorted(medians):
        print("  {:<36} {:>10.6f} s".format(name, medians[name]))
    print("  {:<36} {:>10.6f} s".format("short_sweep (2 models x 2 seeds)",
                                        sweep_seconds))

    result = {
        "benchmarks": medians,
        "short_sweep_s": sweep_seconds,
        "gated_benchmark": GATED_BENCHMARK,
        "regression_tolerance": REGRESSION_TOLERANCE,
    }
    baseline = load_baseline()
    if baseline is None:
        write_baseline(result)
        print("\nwrote initial baseline to {}".format(BASELINE_PATH))
        return 0
    # Carry over auxiliary blocks (history, seed_reference, notes).
    for key, value in baseline.items():
        result.setdefault(key, value)

    message = check_regression(medians, baseline)
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
