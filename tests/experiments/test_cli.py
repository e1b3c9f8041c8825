"""Tests for the command-line interface."""

import json

import pytest

from repro.experiments.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_small(capsys, tmp_path):
    out_file = tmp_path / "run.json"
    code = main([
        "run", "--model", "none", "--seed", "3", "--small",
        "--json", str(out_file),
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "settled_performance" in captured
    payload = json.loads(out_file.read_text())
    assert payload["row"]["model"] == "none"
    assert "active_nodes" in payload["series"]


def test_run_with_faults_small(capsys):
    code = main(["run", "--model", "ffw", "--seed", "3", "--small",
                 "--faults", "2"])
    assert code == 0
    assert "recovery_time_ms" in capsys.readouterr().out


def test_run_with_scenario_file(capsys, tmp_path):
    scenario_file = tmp_path / "blip.json"
    scenario_file.write_text(json.dumps({
        "name": "blip",
        "events": [
            {"at_us": 100_000, "count": 2, "duration_us": 20_000},
            {"at_us": 120_000, "kind": "link", "count": 1},
        ],
    }))
    out_file = tmp_path / "run.json"
    code = main([
        "run", "--model", "none", "--seed", "3", "--small",
        "--scenario", str(scenario_file), "--json", str(out_file),
    ])
    assert code == 0
    assert "scenario" in capsys.readouterr().out
    payload = json.loads(out_file.read_text())
    assert payload["row"]["scenario"] == "blip"


def test_run_rejects_faults_plus_scenario(tmp_path):
    scenario_file = tmp_path / "blip.json"
    scenario_file.write_text(json.dumps({
        "name": "blip", "events": [{"at_us": 1000, "count": 1}],
    }))
    with pytest.raises(SystemExit):
        main([
            "run", "--small", "--faults", "2",
            "--scenario", str(scenario_file),
        ])


def test_campaign_spec_with_scenarios(capsys, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "name": "scenario-sweep",
        "models": ["none"],
        "seeds": [1],
        "base": "small",
        "config": {"horizon_us": 100_000},
        "scenarios": [
            {"name": "blip",
             "events": [{"at_us": 50_000, "count": 2}]},
        ],
    }))
    code = main([
        "campaign", "--spec", str(spec_file),
        "--dir", str(tmp_path / "store"), "--processes", "0",
    ])
    assert code == 0
    rows = [
        json.loads(line)
        for line in capsys.readouterr().out.strip().splitlines()
    ]
    assert rows and all(row["scenario"] == "blip" for row in rows)


def test_parser_table2_fault_list():
    args = build_parser().parse_args(["table2", "--faults", "0,8"])
    assert args.faults == "0,8"


def test_parser_defaults():
    args = build_parser().parse_args(["table1"])
    assert args.runs == 15
    assert args.processes is None
    assert args.resume is None
    args = build_parser().parse_args(["figure4"])
    assert args.seed == 42


def test_parser_run_has_no_processes_flag(capsys):
    """A single run has nothing to parallelise: ``run --processes`` is
    an unknown option (argparse exit 2), not a flag it ignores."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["run", "--processes", "2"])
    assert excinfo.value.code == 2
    assert "--processes" in capsys.readouterr().err


def test_parser_resume_default_directory():
    args = build_parser().parse_args(["table2", "--resume"])
    assert args.resume == "campaigns/table2"
    args = build_parser().parse_args(["table2", "--resume", "elsewhere"])
    assert args.resume == "elsewhere"


def test_parser_campaign_requires_source():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["campaign"])
    args = build_parser().parse_args(["campaign", "--paper", "table2"])
    assert args.paper == "table2"


def test_parser_campaign_worker_and_dedup_flags():
    args = build_parser().parse_args([
        "campaign", "--paper", "table2",
        "--workers", "4", "--worker-id", "1", "--no-dedup",
    ])
    assert args.workers == 4
    assert args.worker_id == 1
    assert args.no_dedup
    args = build_parser().parse_args(["campaign", "--paper", "table1"])
    assert args.workers is None and args.worker_id is None
    assert not args.no_dedup and args.dedup_root is None
    with pytest.raises(SystemExit):
        main(["campaign", "--paper", "table1", "--workers", "2"])


def test_parser_campaign_management_subcommands():
    args = build_parser().parse_args(["campaign-ls"])
    assert args.root == "campaigns" and args.dirs == []
    args = build_parser().parse_args(["campaign-gc", "--apply", "a", "b"])
    assert args.apply and args.dirs == ["a", "b"]
    args = build_parser().parse_args(["campaign-gc"])
    assert not args.apply  # dry-run is the default
    with pytest.raises(SystemExit):
        build_parser().parse_args(["campaign-gc", "--dry-run", "--apply"])
    args = build_parser().parse_args(
        ["campaign-export", "--format", "csv", "--out", "x.csv"]
    )
    assert args.format == "csv" and args.out == "x.csv"


def test_campaign_worker_sharded_run_skips_artifact(capsys, tmp_path):
    spec_file = _mini_spec_file(tmp_path)
    store = str(tmp_path / "store")
    assert main([
        "campaign", "--spec", spec_file, "--dir", store, "--processes", "0",
        "--workers", "2", "--worker-id", "0", "--no-dedup",
    ]) == 0
    captured = capsys.readouterr()
    assert "cells on other shards" in captured.err
    assert "Foraging For Work" not in captured.out  # partial: no artefact
    # The remaining shard + a plain merge pass assembles the artefact.
    assert main([
        "campaign", "--spec", spec_file, "--dir", store, "--processes", "0",
        "--workers", "2", "--worker-id", "1", "--no-dedup",
    ]) == 0
    capsys.readouterr()
    assert main([
        "campaign", "--spec", spec_file, "--dir", store, "--processes", "0",
    ]) == 0
    merged = capsys.readouterr()
    assert "0 executed, 8 cached" in merged.err
    assert "Foraging For Work" in merged.out


def _mini_spec_file(tmp_path):
    spec = {
        "name": "mini",
        "models": ["none", "ffw"],
        "seeds": [1, 2],
        "fault_counts": [0, 2],
        "base": "small",
        "kind": "table2",
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_campaign_subcommand_cold_then_resumed(capsys, tmp_path):
    spec_file = _mini_spec_file(tmp_path)
    store = str(tmp_path / "store")
    argv = ["campaign", "--spec", spec_file, "--dir", store,
            "--processes", "1"]
    assert main(argv) == 0
    cold = capsys.readouterr()
    assert "8 executed, 0 cached" in cold.err
    assert "Foraging For Work" in cold.out
    assert main(argv) == 0
    warm = capsys.readouterr()
    assert "0 executed, 8 cached" in warm.err
    assert warm.out == cold.out  # bit-identical artefact off the store


def test_campaign_figure4_spec_prints_panels_and_dumps_series(capsys,
                                                             tmp_path):
    spec_file = tmp_path / "f4.json"
    spec_file.write_text(json.dumps({
        "name": "f4", "models": ["none"], "seeds": [3],
        "fault_counts": [2], "base": "small", "kind": "figure4",
    }))
    out_file = tmp_path / "series.json"
    assert main([
        "campaign", "--spec", str(spec_file), "--dir",
        str(tmp_path / "store"), "--processes", "0", "--json", str(out_file),
    ]) == 0
    assert "[2 faults] none - active_nodes" in capsys.readouterr().out
    payload = json.loads(out_file.read_text())
    assert list(payload) == ["2"] and list(payload["2"]) == ["none"]
    assert "active_nodes" in payload["2"]["none"]


def test_campaign_dedup_defaults_to_sibling_campaigns(capsys, tmp_path):
    """Sweeps under a shared root dedup by default; an ad-hoc store with
    no sibling campaigns never scans (or indexes) its parent."""
    root = tmp_path / "campaigns"
    spec = {"name": "first", "models": ["none", "ffw"], "seeds": [1, 2],
            "fault_counts": [0], "base": "small", "kind": "grid"}
    first_file = tmp_path / "first.json"
    first_file.write_text(json.dumps(spec))
    second_file = tmp_path / "second.json"
    second_file.write_text(json.dumps(
        dict(spec, name="second", fault_counts=[0, 2])
    ))
    assert main(["campaign", "--spec", str(first_file),
                 "--dir", str(root / "first"), "--processes", "0"]) == 0
    # First campaign has no siblings: nothing scanned, no index dropped.
    assert not (tmp_path / "index.jsonl").exists()
    assert not (root / "index.jsonl").exists()
    capsys.readouterr()
    assert main(["campaign", "--spec", str(second_file),
                 "--dir", str(root / "second"), "--processes", "0"]) == 0
    err = capsys.readouterr().err
    assert "4 deduped" in err        # the shared zero-fault cells
    assert (root / "index.jsonl").exists()
    capsys.readouterr()
    # --no-dedup opts out entirely.
    assert main(["campaign", "--spec", str(second_file),
                 "--dir", str(root / "optout"), "--processes", "0",
                 "--no-dedup"]) == 0
    assert "deduped" not in capsys.readouterr().err


def test_campaign_fresh_recomputes(capsys, tmp_path):
    spec_file = _mini_spec_file(tmp_path)
    store = str(tmp_path / "store")
    base = ["campaign", "--spec", spec_file, "--dir", store,
            "--processes", "1"]
    assert main(base) == 0
    capsys.readouterr()
    assert main(base + ["--fresh"]) == 0
    assert "8 executed, 0 cached" in capsys.readouterr().err


def _write_synthetic_root(root, perf=3.0):
    """A store root with one campaign of hand-written record lines."""
    import os

    from repro.campaign.store import encode_line

    directory = os.path.join(str(root), "camp")
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "results.jsonl"), "w") as handle:
        for i, model in enumerate(("none", "foraging_for_work")):
            record = {"key": "cell-{}".format(i), "row": {
                "model": model, "seed": i, "faults": 0,
                "settling_time_ms": 10.0 + i,
                "settled_performance": perf,
                "recovery_time_ms": 5.0,
                "recovered_performance": perf,
                "total_switches": i,
            }}
            handle.write(encode_line(record) + "\n")
    return str(root)


def test_parser_report_and_compare_subcommands():
    args = build_parser().parse_args(
        ["campaign-report", "--root", "r", "--out", "site", "--title", "t"]
    )
    assert args.root == "r" and args.out == "site" and args.title == "t"
    args = build_parser().parse_args(["campaign-compare", "old", "new"])
    assert args.baseline == "old" and args.candidate == "new"
    assert args.threshold == 0.05
    args = build_parser().parse_args(
        ["campaign-compare", "a", "b", "--threshold", "0.2"]
    )
    assert args.threshold == 0.2


def test_every_subcommand_help_points_at_docs():
    parser = build_parser()
    assert "docs/cli.md" in parser.format_help()
    sub_actions = [
        action for action in parser._actions
        if hasattr(action, "choices") and action.choices
    ]
    for name, sub in sub_actions[0].choices.items():
        assert "docs/cli.md" in sub.format_help(), (
            "{} --help does not point at docs/cli.md".format(name)
        )


def test_campaign_report_cli(capsys, tmp_path):
    root = _write_synthetic_root(tmp_path / "root")
    out = tmp_path / "json.out"
    assert main(["campaign", "report", "--root", root,
                 "--json", str(out)]) == 0
    html_path = capsys.readouterr().out.strip()
    page = open(html_path).read()
    assert page.startswith("<!DOCTYPE html>")
    assert "foraging_for_work" in page and "none" in page
    summary = json.loads(open(str(out)).read())
    assert summary["rows"] == 2
    # Re-running writes the byte-identical page.
    assert main(["campaign", "report", "--root", root]) == 0
    assert open(html_path).read() == page


def test_campaign_compare_cli_exit_codes(capsys, tmp_path):
    baseline = _write_synthetic_root(tmp_path / "base", perf=3.0)
    same = _write_synthetic_root(tmp_path / "same", perf=3.0)
    worse = _write_synthetic_root(tmp_path / "worse", perf=2.0)
    assert main(["campaign", "compare", baseline, same]) == 0
    assert capsys.readouterr().out.strip().endswith("OK — no regressions")
    out = tmp_path / "cmp.json"
    assert main(["campaign", "compare", baseline, worse,
                 "--json", str(out)]) == 1
    verdict = capsys.readouterr().out
    assert "REGRESSION" in verdict and "FAIL" in verdict
    payload = json.loads(open(str(out)).read())
    assert payload["ok"] is False and payload["regressions"]


def test_campaign_export_streams_csv_and_jsonl(capsys, tmp_path):
    root = _write_synthetic_root(tmp_path / "root")
    csv_out = tmp_path / "all.csv"
    assert main(["campaign", "export", "--root", root, "--format", "csv",
                 "--out", str(csv_out)]) == 0
    lines = open(str(csv_out)).read().splitlines()
    assert lines[0].startswith("campaign,key,model,seed,faults")
    assert len(lines) == 3
    capsys.readouterr()
    assert main(["campaign", "export", "--root", root]) == 0
    jsonl = capsys.readouterr().out.strip().splitlines()
    assert len(jsonl) == 2
    assert json.loads(jsonl[0])["key"] == "cell-0"
