"""Command-line interface to the experiment harness.

Usage (after ``pip install -e .``):

    python -m repro.experiments.cli run --model ffw --seed 7 --faults 42
    python -m repro.experiments.cli run --model ni --scenario waves.json
    python -m repro.experiments.cli run --model ffw --workload shuffle.json
    python -m repro.experiments.cli scenario storm.json --small
    python -m repro.experiments.cli workload burst.json --small
    python -m repro.experiments.cli table1 --runs 20 --processes 8
    python -m repro.experiments.cli table2 --runs 20 --faults 0,8,32 --resume
    python -m repro.experiments.cli figure4 --seed 42
    python -m repro.experiments.cli campaign --paper table2 --dir campaigns/t2
    python -m repro.experiments.cli campaign --spec sweep.json
    python -m repro.experiments.cli campaign --spec s.json --workers 4 --worker-id 0
    python -m repro.experiments.cli campaign ls
    python -m repro.experiments.cli campaign gc --apply
    python -m repro.experiments.cli campaign export --format csv --out all.csv
    python -m repro.experiments.cli campaign report --root campaigns
    python -m repro.experiments.cli campaign compare old-root new-root
    python -m repro.experiments.cli campaign serve --root campaigns --port 8642
    python -m repro.experiments.cli campaign submit sweep.json --wait
    python -m repro.experiments.cli campaign status sweep
    python -m repro.experiments.cli campaign wait sweep --timeout 600

The sweep subcommands are campaigns (:mod:`repro.campaign`): they shard
cells across ``--processes`` workers (default: REPRO_PROCESSES env, then
``os.cpu_count()``) and, given ``--resume [DIR]`` (or ``campaign``'s
always-on store), checkpoint each finished cell so interrupted sweeps
continue where they stopped and re-runs recompute nothing.  Store-backed
sweeps also consult the store root's cross-campaign dedup index (store
v2): a cell any sibling campaign already computed is reused
byte-identically instead of simulated (``--no-dedup`` opts out).
``campaign --workers N --worker-id K`` drains only shard ``K`` of the
pending cells into a private worker stream, so independent processes or
machines sharing the store directory sweep one campaign concurrently.
``campaign ls``/``gc``/``export`` manage store directories (survey,
compact + repair, streaming merged CSV/JSONL export), ``campaign
report`` renders a self-contained static HTML report over a store root
(constant-memory aggregation; :mod:`repro.analysis.report`), and
``campaign compare`` diffs two roots with automatic regression flagging
(non-zero exit — the CI hook).  ``campaign serve`` runs the store root
as a multi-tenant HTTP daemon (:mod:`repro.campaign.serve`) and
``campaign submit/status/wait`` talk to it — every tenant's submissions
dedup against each other and against pre-daemon campaigns through the
shared root.  Each subcommand prints its artefact to
stdout (progress goes to stderr); ``--json FILE`` additionally dumps the
raw rows/series for downstream plotting.

The full reference with worked examples is ``docs/cli.md``.
"""

import argparse
import json
import os
import sys

from repro.analysis import report as analysis_report
from repro.campaign import gc as store_gc
from repro.campaign import paper
from repro.campaign import serve
from repro.campaign.client import CampaignClient, ServeError
from repro.campaign.executor import run_campaign
from repro.campaign.index import campaign_dirs
from repro.campaign.spec import CampaignSpec
from repro.experiments.figures import render_figure4
from repro.experiments.runner import default_processes, run_single
from repro.experiments.tables import format_table
from repro.platform.config import PlatformConfig
from repro.platform.scenario import FaultScenario

MODELS = paper.MODELS

#: Default parent directory for ``--resume`` stores.
DEFAULT_CAMPAIGN_ROOT = "campaigns"


def _add_sweep_arguments(parser, command):
    parser.add_argument(
        "--processes", type=int, default=None, metavar="N",
        help="worker processes (default: REPRO_PROCESSES, then cpu count)",
    )
    parser.add_argument(
        "--resume", nargs="?", metavar="DIR",
        const=os.path.join(DEFAULT_CAMPAIGN_ROOT, command), default=None,
        help="checkpoint per-run results under DIR (default {}/{}) and "
             "skip cells already recorded there".format(
                 DEFAULT_CAMPAIGN_ROOT, command),
    )
    _add_dedup_arguments(parser)


def _add_dedup_arguments(parser):
    parser.add_argument(
        "--dedup-root", metavar="DIR", default=None,
        help="store root whose cross-campaign dedup index resolves cells "
             "sibling campaigns already computed (default: the store "
             "directory's parent, when it holds sibling campaigns)",
    )
    parser.add_argument(
        "--no-dedup", action="store_true",
        help="skip cross-campaign dedup lookups",
    )


#: ``--help`` footer on the parser and every subcommand: the worked
#: examples live in the docs tree, not in the terminal.
DOCS_EPILOG = "Full reference with worked examples: docs/cli.md"


def build_parser():
    """Construct the argparse command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the DATE 2020 social-insect RTM evaluation.",
        epilog=DOCS_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subparser(name, **kwargs):
        # Every subcommand's --help ends by pointing at docs/cli.md.
        kwargs.setdefault("epilog", DOCS_EPILOG)
        return sub.add_parser(name, **kwargs)

    run_p = subparser("run", help="one simulation run")
    run_p.add_argument("--model", default="ffw")
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--faults", type=int, default=0)
    run_p.add_argument(
        "--scenario", metavar="FILE",
        help="JSON FaultScenario driving the run's fault injections "
             "(link failures, transients, waves, spatial patterns); "
             "replaces --faults",
    )
    run_p.add_argument(
        "--workload", metavar="FILE",
        help="JSON WorkloadSpec (or builtin name: fork_join, pipeline3, "
             "shuffle2x2) instead of the config's fork-join graph",
    )
    run_p.add_argument("--small", action="store_true",
                       help="4x4 grid instead of full Centurion")
    run_p.add_argument("--json", metavar="FILE")

    t1_p = subparser("table1", help="settling/performance, no faults")
    t1_p.add_argument("--runs", type=int, default=15)
    _add_sweep_arguments(t1_p, "table1")
    t1_p.add_argument("--json", metavar="FILE")

    t2_p = subparser("table2", help="recovery/performance vs faults")
    t2_p.add_argument("--runs", type=int, default=15)
    t2_p.add_argument("--faults", default="0,2,4,8,16,32",
                      help="comma-separated fault counts")
    _add_sweep_arguments(t2_p, "table2")
    t2_p.add_argument("--json", metavar="FILE")

    f4_p = subparser("figure4", help="time-series panels")
    f4_p.add_argument("--seed", type=int, default=42)
    _add_sweep_arguments(f4_p, "figure4")
    f4_p.add_argument("--json", metavar="FILE")

    s_p = subparser(
        "scenario",
        help="validate a JSON fault scenario and print its schedule + key",
    )
    s_p.add_argument("file", metavar="FILE", help="scenario JSON file")
    s_p.add_argument("--small", action="store_true",
                     help="validate victims against the 4x4 grid instead "
                          "of full Centurion")
    s_p.add_argument("--seed", type=int, default=1,
                     help="seed used to preview hazard-storm draws")
    s_p.add_argument("--json", metavar="FILE")

    w_p = subparser(
        "workload",
        help="validate a JSON workload spec and print its graph + "
             "capacity preview",
    )
    w_p.add_argument("file", metavar="FILE",
                     help="workload JSON file (or builtin name)")
    w_p.add_argument("--small", action="store_true",
                     help="preview capacity against the 4x4 grid instead "
                          "of full Centurion")
    w_p.add_argument("--json", metavar="FILE")

    c_p = subparser(
        "campaign", help="run a declarative sweep with a persistent store"
    )
    source = c_p.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", metavar="FILE",
                        help="JSON CampaignSpec to run")
    source.add_argument("--paper", choices=sorted(paper.PAPER_SPECS),
                        help="run a canonical paper campaign")
    c_p.add_argument("--runs", type=int, default=15,
                     help="runs per cell for --paper table1/table2")
    c_p.add_argument("--seed", type=int, default=42,
                     help="seed for --paper figure4")
    c_p.add_argument(
        "--dir", metavar="DIR", default=None,
        help="result store directory (default {}/<name>)".format(
            DEFAULT_CAMPAIGN_ROOT),
    )
    c_p.add_argument(
        "--fresh", action="store_true",
        help="recompute every cell even when the store already has it",
    )
    c_p.add_argument(
        "--processes", type=int, default=None, metavar="N",
        help="worker processes (default: REPRO_PROCESSES, then cpu count)",
    )
    c_p.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="total distributed worker shards draining this campaign "
             "(pair with --worker-id; cells partition deterministically "
             "by key hash)",
    )
    c_p.add_argument(
        "--worker-id", type=int, default=None, metavar="K",
        help="this worker's shard, 0-based; results append to a private "
             "results.worker-K.jsonl merged on read",
    )
    _add_dedup_arguments(c_p)
    c_p.add_argument("--json", metavar="FILE")

    def _add_manage_arguments(parser):
        parser.add_argument(
            "dirs", nargs="*", metavar="DIR",
            help="explicit campaign directories (default: every "
                 "subdirectory of --root holding a results.jsonl)",
        )
        parser.add_argument(
            "--root", metavar="DIR", default=DEFAULT_CAMPAIGN_ROOT,
            help="campaign store root (default: {})".format(
                DEFAULT_CAMPAIGN_ROOT),
        )

    ls_p = subparser(
        "campaign-ls",
        help="survey campaign store directories (alias: campaign ls)",
    )
    _add_manage_arguments(ls_p)
    ls_p.add_argument("--json", metavar="FILE")

    gc_p = subparser(
        "campaign-gc",
        help="compact campaign stores — dry-run by default "
             "(alias: campaign gc)",
    )
    _add_manage_arguments(gc_p)
    mode = gc_p.add_mutually_exclusive_group()
    mode.add_argument(
        "--dry-run", action="store_true",
        help="plan only, touch nothing (the default)",
    )
    mode.add_argument(
        "--apply", action="store_true",
        help="rewrite the stores: fold worker streams, drop "
             "orphaned/superseded/torn lines, rebuild the root index",
    )

    ex_p = subparser(
        "campaign-export",
        help="export merged rows across campaigns "
             "(alias: campaign export)",
    )
    _add_manage_arguments(ex_p)
    ex_p.add_argument(
        "--format", choices=("jsonl", "csv"), default="jsonl",
        help="jsonl: canonical store records (byte-identical, lossless); "
             "csv: scalar rows with campaign/key columns",
    )
    ex_p.add_argument(
        "--out", metavar="FILE", default=None,
        help="output file (default: stdout)",
    )

    rp_p = subparser(
        "campaign-report",
        help="render a self-contained static HTML report over a store "
             "root (alias: campaign report)",
    )
    _add_manage_arguments(rp_p)
    rp_p.add_argument(
        "--out", metavar="DIR", default=None,
        help="report output directory (default: <root>/report)",
    )
    rp_p.add_argument(
        "--title", default=None,
        help="page title (default: derived from the root's name)",
    )
    rp_p.add_argument("--json", metavar="FILE")

    sv_p = subparser(
        "campaign-serve",
        help="run the multi-tenant sweep daemon over a store root "
             "(alias: campaign serve)",
    )
    sv_p.add_argument(
        "--root", metavar="DIR", default=DEFAULT_CAMPAIGN_ROOT,
        help="store root every tenant's campaigns land under "
             "(default: {})".format(DEFAULT_CAMPAIGN_ROOT),
    )
    sv_p.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    sv_p.add_argument(
        "--port", type=int, default=serve.DEFAULT_PORT, metavar="N",
        help="TCP port; 0 picks an ephemeral port "
             "(default: {})".format(serve.DEFAULT_PORT),
    )
    sv_p.add_argument(
        "--workers", type=int, default=2, metavar="K",
        help="worker threads draining the cell queues; cells partition "
             "deterministically by key hash (default: 2)",
    )

    def _add_client_arguments(parser):
        parser.add_argument(
            "--url", metavar="URL",
            default="http://127.0.0.1:{}".format(serve.DEFAULT_PORT),
            help="daemon base URL (default: http://127.0.0.1:{})".format(
                serve.DEFAULT_PORT),
        )
        parser.add_argument("--json", metavar="FILE")

    sb_p = subparser(
        "campaign-submit",
        help="submit a campaign spec to a running daemon "
             "(alias: campaign submit)",
    )
    sb_p.add_argument("spec", metavar="FILE",
                      help="JSON CampaignSpec to submit")
    sb_p.add_argument(
        "--wait", action="store_true",
        help="block until the campaign leaves 'running' and report the "
             "final status (non-zero exit on failed cells)",
    )
    sb_p.add_argument(
        "--timeout", type=float, default=300.0, metavar="S",
        help="--wait bound in seconds (default: 300)",
    )
    _add_client_arguments(sb_p)

    st_p = subparser(
        "campaign-status",
        help="status of a submitted campaign (alias: campaign status)",
    )
    st_p.add_argument("id", metavar="ID", help="campaign id (spec name)")
    _add_client_arguments(st_p)

    wt_p = subparser(
        "campaign-wait",
        help="block until a submitted campaign finishes "
             "(alias: campaign wait)",
    )
    wt_p.add_argument("id", metavar="ID", help="campaign id (spec name)")
    wt_p.add_argument(
        "--timeout", type=float, default=300.0, metavar="S",
        help="wait bound in seconds (default: 300)",
    )
    _add_client_arguments(wt_p)

    cp_p = subparser(
        "campaign-compare",
        help="diff two store roots and flag regressions — exits "
             "non-zero when any metric regressed "
             "(alias: campaign compare)",
    )
    cp_p.add_argument(
        "baseline", metavar="BASELINE",
        help="baseline store root (or single campaign directory)",
    )
    cp_p.add_argument(
        "candidate", metavar="CANDIDATE",
        help="candidate store root to judge against the baseline",
    )
    cp_p.add_argument(
        "--threshold", type=float,
        default=analysis_report.DEFAULT_THRESHOLD, metavar="FRACTION",
        help="relative change in a metric's worse direction that flags "
             "a regression (default: {})".format(
                 analysis_report.DEFAULT_THRESHOLD),
    )
    cp_p.add_argument("--json", metavar="FILE")

    return parser


def _dump_json(path, payload):
    if path:
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, default=str)


def _progress_printer(name, stream=sys.stderr):
    """Per-cell progress reporter (stderr, so stdout stays the artefact)."""

    def progress(done, total, cached):
        step = max(1, total // 20)
        if done == total or done % step == 0:
            stream.write(
                "\r{}: {}/{} cells ({} cached)".format(
                    name, done, total, cached
                )
            )
            if done == total:
                stream.write("\n")
            stream.flush()

    return progress


def _run_spec(spec, args, store=None):
    """Execute ``spec`` honouring the shared sweep flags."""
    processes = args.processes
    if processes is None:
        processes = default_processes()
    store = store if store is not None else getattr(args, "resume", None)
    dedup_root = None
    if isinstance(store, str) and not getattr(args, "no_dedup", False):
        # Store-backed sweeps consult the store root's dedup index: any
        # cell a sibling campaign already holds is reused, not re-run.
        # Without an explicit --dedup-root the store's parent qualifies
        # only when it actually holds sibling campaigns — an ad-hoc
        # store directory must not make us scan (or drop an index.jsonl
        # into) an unrelated parent directory.
        dedup_root = getattr(args, "dedup_root", None)
        if dedup_root is None:
            candidate = os.path.dirname(os.path.abspath(store))
            own = os.path.basename(os.path.abspath(store))
            if any(name != own for name in campaign_dirs(candidate)):
                dedup_root = candidate
    report = run_campaign(
        spec,
        store=store,
        processes=processes,
        progress=_progress_printer(spec.name),
        use_cache=not getattr(args, "fresh", False),
        dedup_root=dedup_root,
        workers=getattr(args, "workers", None),
        worker_id=getattr(args, "worker_id", None),
    )
    if report.pending_elsewhere:
        # A worker's progress stops short of the grid total, so the
        # \r-progress line is still open — terminate it ourselves.
        sys.stderr.write("\n")
    print(report.summary(), file=sys.stderr)
    return report


def cmd_run(args):
    """``run`` subcommand: one simulation, row + optional JSON."""
    config = PlatformConfig.small() if args.small else PlatformConfig()
    scenario = None
    if args.scenario:
        if args.faults:
            raise SystemExit("give either --faults or --scenario, not both")
        scenario = FaultScenario.from_json_file(args.scenario)
    workload = None
    if args.workload:
        from repro.app.workloads import load_workload

        workload = load_workload(args.workload)
    result = run_single(
        args.model, seed=args.seed, faults=args.faults, config=config,
        scenario=scenario, workload=workload,
    )
    row = result.as_row()
    for key, value in row.items():
        print("{:<24} {}".format(key, value))
    _dump_json(args.json, {"row": row, "series": result.series.as_dict()})
    return 0


def _print_artefact(report, json_path):
    """Print a finished campaign's artefact; dump it to ``json_path``.

    Tables print in the paper's layout, Figure 4 as text panels (its
    JSON holds each panel's series) and any other grid as one JSON row
    per cell.
    """
    artefact = paper.artifact(report)
    kind = report.spec.kind
    if kind in ("table1", "table2"):
        print(format_table(artefact, kind))
    elif kind == "figure4":
        print(render_figure4(artefact))
        artefact = {
            str(faults): {
                model: result.series.as_dict()
                for model, result in by_model.items()
            }
            for faults, by_model in artefact.items()
        }
    else:
        for row in artefact:
            print(json.dumps(row, sort_keys=True))
    _dump_json(json_path, artefact)


def cmd_table1(args):
    """``table1`` subcommand: regenerate Table I as a campaign."""
    spec = paper.table1_spec(runs=args.runs)
    _print_artefact(_run_spec(spec, args), args.json)
    return 0


def cmd_table2(args):
    """``table2`` subcommand: regenerate Table II as a campaign."""
    fault_counts = [int(f) for f in args.faults.split(",")]
    spec = paper.table2_spec(runs=args.runs, fault_counts=fault_counts)
    _print_artefact(_run_spec(spec, args), args.json)
    return 0


def cmd_figure4(args):
    """``figure4`` subcommand: render the six panels as a campaign."""
    spec = paper.figure4_spec(seed=args.seed)
    _print_artefact(_run_spec(spec, args), args.json)
    return 0


def cmd_scenario(args):
    """``scenario`` subcommand: lint a fault scenario without running it.

    Loads the file (schema validation), applies it to a throwaway
    platform (topology validation of pinned victims, hazard-storm time
    draws at the given seed) and prints the occurrence schedule plus the
    content-hash key that would join campaign cell keys.
    """
    from repro.platform.centurion import CenturionPlatform

    scenario = FaultScenario.from_json_file(args.file)
    config = PlatformConfig.small() if args.small else PlatformConfig()
    platform = CenturionPlatform(config, model_name="none", seed=args.seed)
    platform.inject_scenario(scenario)  # raises on malformed victims
    print("name                     {}".format(scenario.name))
    print("key                      {}".format(scenario.key()))
    print("events                   {}".format(len(scenario.events)))
    print("first_fault_us           {}".format(scenario.first_fault_us()))
    # Storm previews replay the hazard stream on a fresh simulator (the
    # platform's own stream was consumed by inject_scenario): one stream
    # shared across storm events in declaration order, exactly like the
    # injector draws it.
    from repro.platform.faults import HAZARD_STREAM
    from repro.sim.engine import Simulator

    hazard_rng = Simulator(seed=args.seed).rng.stream(HAZARD_STREAM)
    events = []
    warnings = []
    for index, event in enumerate(scenario.events):
        if event.is_storm():
            times = event.occurrence_times(hazard_rng)
            shape = "storm({}/us over {}..{}us)".format(
                event.hazard_per_us, event.at_us, event.horizon_us
            )
        else:
            times = event.occurrence_times()
            shape = "fixed"
        detail = ""
        if event.heat_c is not None:
            detail = " heat_c={}".format(event.heat_c)
        elif event.wait_limit_us is not None:
            detail = " wait_limit_us={}".format(event.wait_limit_us)
            if event.wait_limit_us >= config.deadlock_wait_limit_us:
                warnings.append(
                    "event[{}]: wait_limit_us {} >= config deadlock "
                    "bound {} — the pressure never binds".format(
                        index, event.wait_limit_us,
                        config.deadlock_wait_limit_us,
                    )
                )
        print(
            "event[{}]                 kind={}{} {} occurrences={} "
            "at={}".format(index, event.kind, detail, shape, len(times),
                           times[:8] + ["..."] if len(times) > 8 else times)
        )
        events.append(
            {"kind": event.kind, "occurrences": times,
             "canonical": event.canonical()}
        )
    for warning in warnings:
        print("warning: {}".format(warning), file=sys.stderr)
    dump = {"name": scenario.name, "key": scenario.key(), "events": events}
    if warnings:
        # Joins the dump only when present, keeping dynamics-free
        # lint output byte-identical to earlier releases.
        dump["warnings"] = warnings
    _dump_json(args.json, dump)
    return 0


def cmd_workload(args):
    """``workload`` subcommand: lint a workload spec without running it.

    Loads the file (schema validation), compiles the task graph (branch
    bases, join widths, cycle/fan-in validation) and prints the graph
    summary plus a steady-state capacity preview against the chosen
    platform size — flagging tasks whose arrival demand exceeds the node
    share their mapping weight buys.  Also prints the content-hash key
    that would join campaign cell keys.
    """
    from repro.app.workloads import (
        capacity_report, compile_workload, load_workload,
    )

    spec = load_workload(args.file)
    compiled = compile_workload(spec)
    config = PlatformConfig.small() if args.small else PlatformConfig()
    num_nodes = config.width * config.height
    print("name                     {}".format(spec.name))
    print("key                      {}".format(spec.key()))
    print("tasks                    {}".format(len(spec.tasks)))
    print("sources                  {}".format(spec.source_ids()))
    print("joins                    {}".format(spec.join_ids()))
    print("sinks                    {}".format(list(compiled.sink_ids)))
    print("multicast                {}".format(spec.multicast))
    rows, warnings = capacity_report(compiled, num_nodes)
    print("capacity ({} nodes):".format(num_nodes))
    for row in rows:
        print(
            "  task[{}] {:<16} rate={:.3f}/ms service={}us "
            "demand={:.2f} share={:.2f} util={:.2f} peak={:.2f}".format(
                row["task"], row["name"], row["rate_per_ms"],
                row["service_us"], row["demand_nodes"], row["share_nodes"],
                row["utilization"], row["peak_utilization"],
            )
        )
    for warning in warnings:
        print("warning: {}".format(warning), file=sys.stderr)
    dump = {
        "name": spec.name,
        "key": spec.key(),
        "spec": spec.to_dict(),
        "capacity": rows,
    }
    if warnings:
        # Joins the dump only when present, keeping clean-spec lint
        # output free of an empty warnings stanza.
        dump["warnings"] = warnings
    _dump_json(args.json, dump)
    return 0


def cmd_campaign(args):
    """``campaign`` subcommand: spec file or canonical paper campaign."""
    if (args.workers is None) != (args.worker_id is None):
        raise SystemExit("--workers and --worker-id go together")
    if args.spec:
        spec = CampaignSpec.from_json_file(args.spec)
    elif args.paper in ("table1", "table2"):
        spec = paper.PAPER_SPECS[args.paper](runs=args.runs)
    else:
        spec = paper.PAPER_SPECS[args.paper](seed=args.seed)
    store = args.dir or os.path.join(DEFAULT_CAMPAIGN_ROOT, spec.name)
    report = _run_spec(spec, args, store=store)
    if report.pending_elsewhere:
        # A worker shard's report is partial by design: no artefact yet.
        print(
            "worker {} drained its shard; {} cells belong to other "
            "workers — rerun without --worker-id once the fleet is done "
            "to assemble the artefact".format(
                report.worker_id, report.pending_elsewhere
            ),
            file=sys.stderr,
        )
        return 0
    _print_artefact(report, args.json)
    return 0


def _manage_dirs(args):
    """The campaign directories a management subcommand operates on."""
    if args.dirs:
        return list(args.dirs)
    return [
        os.path.join(args.root, name) for name in campaign_dirs(args.root)
    ]


def cmd_campaign_ls(args):
    """``campaign ls``: survey campaign store directories."""
    dirs = _manage_dirs(args)
    if not dirs:
        print("no campaign directories under {}".format(args.root))
        return 0
    summaries = [store_gc.summarize(directory) for directory in dirs]
    header = "{:<18} {:<8} {:>9} {:>6} {:>9} {:>11} {:>5} {:>8}".format(
        "campaign", "kind", "cells", "done%", "orphaned", "superseded",
        "torn", "workers",
    )
    print(header)
    for summary in summaries:
        if summary.spec_cells is None:
            cells, done = str(summary.stored), "-"
        else:
            cells = "{}/{}".format(summary.current, summary.spec_cells)
            done = "{:.0f}%".format(summary.completion())
        print("{:<18} {:<8} {:>9} {:>6} {:>9} {:>11} {:>5} {:>8}".format(
            summary.name, summary.kind, cells, done, summary.orphaned,
            summary.superseded, summary.torn, summary.worker_files,
        ))
    _dump_json(args.json, [summary.as_dict() for summary in summaries])
    return 0


def cmd_campaign_gc(args):
    """``campaign gc``: compact stores (dry-run unless ``--apply``)."""
    report = store_gc.gc_root(
        args.root, dirs=args.dirs or None, apply=args.apply
    )
    verb = "dropped" if args.apply else "would drop"
    for summary in report.summaries:
        print(
            "{}: {} {} superseded, {} orphaned, {} torn/garbage lines; "
            "{} worker streams {}".format(
                summary.name, verb, summary.superseded, summary.orphaned,
                summary.torn, summary.worker_files,
                "folded" if args.apply else "to fold",
            )
        )
    if report.applied:
        print("index: rebuilt at {}".format(
            os.path.join(args.root, "index.jsonl")))
    elif report.has_index:
        print("index: {} stale entries, {} stored keys unindexed".format(
            report.index_stale, report.index_missing))
    if not args.apply:
        print("(dry run — pass --apply to execute)")
    return 0


def cmd_campaign_export(args):
    """``campaign export``: merged rows across campaign directories.

    Streams — the merged-record iterator yields one record at a time
    and the writers hold none, so a sweep-scale root exports in O(keys)
    memory.  CSV runs a header-discovery pass first (the column union
    must be known before the first row is written).
    """
    dirs = _manage_dirs(args)
    export = (
        store_gc.export_csv if args.format == "csv"
        else store_gc.export_jsonl
    )
    if args.out:
        with open(args.out, "w") as stream:
            count = export(dirs, stream)
        print("exported {} rows to {}".format(count, args.out),
              file=sys.stderr)
    else:
        export(dirs, sys.stdout)
    return 0


def cmd_campaign_report(args):
    """``campaign report``: static HTML + JSON summary over a root.

    Aggregates the root's merged rows in one streaming pass (O(groups)
    memory) and writes ``index.html`` (self-contained: inline CSS and
    SVG, zero external assets) plus ``summary.json`` next to it.
    Prints the HTML path; ``--json`` additionally dumps the aggregate
    summary payload.
    """
    html_path = analysis_report.write_report(
        args.root, out_dir=args.out, dirs=args.dirs or None,
        title=args.title,
    )
    print(html_path)
    if args.json:
        summary_path = os.path.join(
            os.path.dirname(html_path), analysis_report.REPORT_JSON
        )
        with open(summary_path) as handle:
            _dump_json(args.json, json.load(handle))
    return 0


def _print_serve_status(status):
    """Key-value status block (the `run` row format)."""
    data = status.as_dict()
    errors = data.pop("errors")
    for key, value in data.items():
        print("{:<24} {}".format(key, value))
    for error in errors:
        print("{:<24} {}: {}".format(
            "error", error.get("cell"), error.get("error")))


def cmd_campaign_serve(args):
    """``campaign serve``: run the sweep daemon until interrupted.

    Prints the bound URL (stdout — the artefact a wrapper script needs,
    especially with ``--port 0``), then serves until SIGINT; shutdown
    drains the queues and refreshes the root's dedup index.
    """
    server = serve.CampaignServer(
        args.root, workers=args.workers, host=args.host, port=args.port
    )
    print(server.url, flush=True)
    print(
        "serving store root {} with {} workers — Ctrl-C stops".format(
            args.root, server.workers
        ),
        file=sys.stderr,
    )
    server.serve_forever()
    return 0


def cmd_campaign_submit(args):
    """``campaign submit``: post a spec file to a running daemon."""
    client = CampaignClient(args.url)
    try:
        status = client.submit(args.spec)
        if args.wait:
            status = client.wait(status.id, timeout=args.timeout)
    except ServeError as exc:
        raise SystemExit("submit failed: {}".format(exc))
    _print_serve_status(status)
    _dump_json(args.json, status.as_dict())
    return 1 if args.wait and status.failed else 0


def cmd_campaign_status(args):
    """``campaign status``: one campaign's live status."""
    client = CampaignClient(args.url)
    try:
        status = client.status(args.id)
    except ServeError as exc:
        raise SystemExit("status failed: {}".format(exc))
    _print_serve_status(status)
    _dump_json(args.json, status.as_dict())
    return 0


def cmd_campaign_wait(args):
    """``campaign wait``: block until a campaign finishes.

    Exits non-zero when any cell failed — the scripting hook mirroring
    ``campaign compare``.
    """
    client = CampaignClient(args.url)
    try:
        status = client.wait(args.id, timeout=args.timeout)
    except (ServeError, TimeoutError) as exc:
        raise SystemExit("wait failed: {}".format(exc))
    _print_serve_status(status)
    _dump_json(args.json, status.as_dict())
    return 1 if status.failed else 0


def cmd_campaign_compare(args):
    """``campaign compare``: regression gate between two store roots.

    Prints the verdict (every flagged group × metric, then OK/FAIL) and
    returns exit code 1 when any metric regressed beyond ``--threshold``
    or a baseline group vanished — the CI hook between campaign
    generations.
    """
    comparison = analysis_report.compare(
        args.baseline, args.candidate, threshold=args.threshold
    )
    print(analysis_report.format_comparison(comparison))
    _dump_json(args.json, comparison.as_dict())
    return 0 if comparison.ok() else 1


COMMANDS = {
    "run": cmd_run,
    "table1": cmd_table1,
    "table2": cmd_table2,
    "figure4": cmd_figure4,
    "scenario": cmd_scenario,
    "workload": cmd_workload,
    "campaign": cmd_campaign,
    "campaign-ls": cmd_campaign_ls,
    "campaign-gc": cmd_campaign_gc,
    "campaign-export": cmd_campaign_export,
    "campaign-report": cmd_campaign_report,
    "campaign-compare": cmd_campaign_compare,
    "campaign-serve": cmd_campaign_serve,
    "campaign-submit": cmd_campaign_submit,
    "campaign-status": cmd_campaign_status,
    "campaign-wait": cmd_campaign_wait,
}

#: ``campaign <action>`` spellings routed to ``campaign-<action>``.
MANAGE_ACTIONS = (
    "ls", "gc", "export", "report", "compare",
    "serve", "submit", "status", "wait",
)


def main(argv=None):
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # `campaign ls/gc/export/report/compare ...` is sugar for the
    # campaign-<action> subcommands (argparse cannot mix
    # `campaign --spec ...` with real nested subparsers).
    if (
        len(argv) > 1
        and argv[0] == "campaign"
        and argv[1] in MANAGE_ACTIONS
    ):
        argv[0:2] = ["campaign-" + argv[1]]
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
