"""Command line of the end-to-end benchmark.

``--workload NAME`` alone runs one workload in this process and prints
its metrics, the last line being one JSON object ``{"correct",
"attempted", "failed", "metrics"}``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Without a
workload, or with ``--runs N``, each run goes to a fresh subprocess and
the medians are tabulated (``--json FILE`` keeps every result).
``compare BASE.json CAND.json`` applies the bounds in ``BENCHMARK.json``;
``digests`` refreshes the pinned correctness digests.
"""

import argparse
import json
import os
import subprocess
import sys

from . import DEFAULT_SEED, HERE, ROOT, load_benchmark
from .compare import VERDICTS_FAILING, compare, format_rows, summarize
from .workloads import DIGESTS_JSON, WORKLOADS, Spans

MAIN = os.path.join(HERE, "__main__.py")
OUT_DIR = os.path.join(ROOT, ".e2e_out")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end and per-layer benchmark (see "
                    "benchmarks/e2e/README.md).  Subcommands: "
                    "'compare BASE.json CAND.json', 'digests'.",
    )
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all, each in a "
             "fresh subprocess)",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="seed base every input is generated from; digests are "
             "pinned at {} (default)".format(DEFAULT_SEED),
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring time per run (default: run_seconds of "
             "BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: per-layer metrics from a profiled run, spans written as "
             "NDJSON under --out (with --runs: one traced run per "
             "workload after the untraced ones)",
    )
    parser.add_argument(
        "--runs", type=int, default=None,
        help="untraced runs per workload, seeds BASE, BASE+1, ... (each "
             "in a fresh subprocess)",
    )
    parser.add_argument("--json", metavar="FILE",
                        help="write every run's result here")
    parser.add_argument(
        "--out", default=OUT_DIR, metavar="DIR",
        help="scratch stores and span files (default: .e2e_out)",
    )
    return parser


def run_one(name, seed, seconds, trace, out_dir):
    """One in-process run; prints the result line and returns 0."""
    declared = {
        metric["name"]: metric["unit"]
        for metric in load_benchmark()["per_layer" if trace else "end_to_end"]
    }
    os.makedirs(out_dir, exist_ok=True)
    cls = WORKLOADS[name]
    workload = cls(cls.FULL, seed, seconds, out_dir)
    spans = Spans()
    outcome = workload.trace(spans) if trace else workload.run()
    emitted = set(outcome.metrics)
    if emitted != set(declared):
        raise SystemExit("{}: metrics missing {} / undeclared {}".format(
            name, sorted(set(declared) - emitted),
            sorted(emitted - set(declared))))
    for note in outcome.notes:
        print(note)
    for error in outcome.errors:
        print("FAILED: " + error, file=sys.stderr)
    for metric, unit in declared.items():
        print("{:<34} {:>16.6g} {}".format(
            metric, outcome.metrics[metric], unit))
    if trace:
        path = os.path.join(out_dir, "spans-{}-{}.ndjson".format(name, seed))
        spans.write(path)
        print("spans: {}".format(os.path.relpath(path, ROOT)))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            metric: {"value": outcome.metrics[metric], "unit": unit}
            for metric, unit in declared.items()
        },
    }))
    return 0


def run_child(name, seed, seconds, trace, out_dir):
    """One run in a fresh interpreter; returns its result object."""
    command = [
        sys.executable, MAIN, "--workload", name, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace), "--out", out_dir,
    ]
    child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                           cwd=ROOT)
    lines = child.stdout.splitlines()
    for line in lines[:-1]:
        print("  [{} seed {}] {}".format(name, seed, line))
    if child.returncode != 0 or not lines:
        raise SystemExit("{} (seed {}) exited {}".format(
            name, seed, child.returncode))
    return json.loads(lines[-1])


def run_many(args, seconds):
    names = args.workload or list(WORKLOADS)
    runs = 1 if args.runs is None else args.runs
    record = {"seed": args.seed, "seconds": seconds, "untraced": {},
              "traced": {}}
    for name in names:
        for k in range(runs):
            result = run_child(name, args.seed + k, seconds, 0, args.out)
            record["untraced"].setdefault(name, []).append(result)
        if args.trace:
            record["traced"][name] = run_child(
                name, args.seed, seconds, 1, args.out)
    record["summary"] = summarize(record["untraced"])
    for name, metrics in record["summary"].items():
        print("{} ({} runs)".format(name, runs))
        for metric, entry in metrics.items():
            print("  {:<20} median {:>12.6g}  [{:.6g}, {:.6g}] {}".format(
                metric, entry["median"], entry["q1"], entry["q3"],
                entry["unit"]))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    results = [r for rs in record["untraced"].values() for r in rs]
    results += list(record["traced"].values())
    return 0 if all(result["correct"] for result in results) else 1


def compare_main(argv):
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare")
    parser.add_argument("base", help="--json output of the parent commit")
    parser.add_argument("cand", help="--json output of the candidate")
    args = parser.parse_args(argv)
    loaded = []
    for path in (args.base, args.cand):
        with open(path) as handle:
            loaded.append(json.load(handle))
    if loaded[0].get("seed") != loaded[1].get("seed"):
        print("warning: seed bases differ ({} vs {}); the seed changes how "
              "much work a run does".format(
                  loaded[0].get("seed"), loaded[1].get("seed")),
              file=sys.stderr)
    rows = compare(load_benchmark(), *loaded)
    print(format_rows(rows))
    return 1 if any(row["status"] in VERDICTS_FAILING for row in rows) else 0


def digests_main(argv):
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e digests",
        description="Recompute the digests pinned at seed {} from "
                    "run_single, cell by cell.".format(DEFAULT_SEED),
    )
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS))
    parser.add_argument("--out", default=OUT_DIR, metavar="DIR")
    args = parser.parse_args(argv)
    try:
        with open(DIGESTS_JSON) as handle:
            pinned = json.load(handle)
    except FileNotFoundError:
        pinned = {}
    seconds = load_benchmark()["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    for name in args.workload or list(WORKLOADS):
        cls = WORKLOADS[name]
        pinned[name] = cls(
            cls.FULL, DEFAULT_SEED, seconds, args.out
        ).reference_run()
        print("{}: {} digests".format(name, len(pinned[name])))
    pinned["seed"] = DEFAULT_SEED
    with open(DIGESTS_JSON, "w") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # Connections go to a daemon on this machine only, never via a proxy.
    os.environ["no_proxy"] = os.environ["NO_PROXY"] = "127.0.0.1,localhost"
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    if argv[:1] == ["digests"]:
        return digests_main(argv[1:])
    args = build_parser().parse_args(argv)
    seconds = (
        args.seconds if args.seconds is not None
        else load_benchmark()["run_seconds"]
    )
    if args.workload and len(args.workload) == 1 and args.runs is None:
        return run_one(args.workload[0], args.seed, seconds, args.trace,
                       args.out)
    return run_many(args, seconds)
