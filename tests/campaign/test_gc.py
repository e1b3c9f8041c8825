"""Store management: ``campaign ls``, ``campaign gc``, ``campaign export``.

Every test runs against real campaign directories (small platform, short
horizon) — including pristine v1-style stores, which ls/gc/export must
handle unchanged: a clean directory survives ``gc --apply`` byte-for-byte
and the index stays derivable, never required.
"""

import hashlib
import json
import os

import pytest

from repro.campaign import gc as store_gc
from repro.campaign.executor import run_campaign
from repro.campaign.index import StoreIndex
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import (
    RESULTS_FILE,
    SPEC_FILE,
    ResultStore,
    encode_line,
)
from repro.experiments.cli import main
from repro.platform.config import PlatformConfig

_CONFIG = PlatformConfig.small(horizon_us=120_000, fault_time_us=60_000)


def _spec(name, fault_counts=(0,)):
    return CampaignSpec(
        name=name, models=("none",), seeds=(1, 2),
        fault_counts=fault_counts, config=_CONFIG,
    )


def _build_root(tmp_path, dedup=True):
    """A root with two real campaigns (the second dedups off the first)."""
    root = str(tmp_path / "campaigns")
    run_campaign(_spec("one"), store=os.path.join(root, "one"),
                 processes=0, dedup_root=root if dedup else None)
    run_campaign(_spec("two", fault_counts=(0, 2)),
                 store=os.path.join(root, "two"),
                 processes=0, dedup_root=root if dedup else None)
    return root


def _results_path(root, name):
    return os.path.join(root, name, RESULTS_FILE)


class TestLs:
    def test_summarize_complete_campaign(self, tmp_path):
        root = _build_root(tmp_path)
        summary = store_gc.summarize(os.path.join(root, "two"))
        assert summary.name == "two"
        assert summary.spec_cells == 4
        assert summary.stored == summary.current == 4
        assert summary.completion() == 100.0
        assert summary.orphaned == summary.superseded == summary.torn == 0

    def test_summarize_counts_stale_keys(self, tmp_path):
        root = _build_root(tmp_path)
        # A key the spec no longer expands to: an orphan.
        with open(_results_path(root, "one"), "a") as handle:
            handle.write(encode_line({"key": "stale", "row": {}}) + "\n")
        summary = store_gc.summarize(os.path.join(root, "one"))
        assert summary.orphaned == 1
        assert summary.stored == 3
        assert summary.current == 2

    def test_summarize_without_spec_is_tolerant(self, tmp_path):
        directory = str(tmp_path / "bare")
        os.makedirs(directory)
        with open(os.path.join(directory, RESULTS_FILE), "w") as handle:
            handle.write(encode_line({"key": "x", "row": {}}) + "\n")
        summary = store_gc.summarize(directory)
        assert summary.spec_cells is None
        assert summary.completion() is None
        assert summary.stored == 1
        assert summary.orphaned == 0  # no spec, no orphan detection

    def test_cli_ls_lists_campaigns(self, tmp_path, capsys):
        root = _build_root(tmp_path)
        assert main(["campaign", "ls", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "one" in out and "two" in out
        assert "100%" in out

    def test_cli_ls_empty_root(self, tmp_path, capsys):
        assert main(["campaign", "ls", "--root", str(tmp_path)]) == 0
        assert "no campaign directories" in capsys.readouterr().out


class TestGc:
    def _corrupt(self, root):
        """Duplicate a record, add an orphan, tear the final line."""
        path = _results_path(root, "one")
        with open(path) as handle:
            first = handle.readline().rstrip("\n")
        with open(path, "a") as handle:
            handle.write(first + "\n")                       # superseded
            handle.write(encode_line({"key": "orphan", "row": {}}) + "\n")
            handle.write('{"key": "torn-mid-wri')            # torn tail

    def test_dry_run_reports_without_touching(self, tmp_path, capsys):
        root = _build_root(tmp_path)
        self._corrupt(root)
        before = open(_results_path(root, "one")).read()
        assert main(["campaign", "gc", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "would drop 1 superseded, 1 orphaned, 1 torn" in out
        assert "dry run" in out
        assert open(_results_path(root, "one")).read() == before

    def test_apply_compacts_and_rebuilds_index(self, tmp_path, capsys):
        root = _build_root(tmp_path)
        self._corrupt(root)
        assert main(["campaign", "gc", "--root", root, "--apply"]) == 0
        assert "rebuilt" in capsys.readouterr().out
        store = ResultStore(os.path.join(root, "one"))
        assert len(store) == 2            # the spec's two cells, only
        assert "orphan" not in store
        with open(_results_path(root, "one")) as handle:
            assert len(handle.readlines()) == 2
        index = StoreIndex(root)
        for key in store.keys():
            assert index.lookup(key)["key"] == key
        assert index.stale_keys() == []

    def test_apply_folds_worker_streams(self, tmp_path):
        root = str(tmp_path)
        spec = _spec("sharded", fault_counts=(0, 2))
        directory = os.path.join(root, "sharded")
        for worker in (0, 1):
            store = ResultStore(directory, worker=worker)
            run_campaign(spec, store=store, processes=0,
                         workers=2, worker_id=worker)
            store.close()
        report = store_gc.gc_root(root, apply=True)
        assert report.summaries[0].worker_files == 2
        assert not [name for name in os.listdir(directory)
                    if name.startswith("results.worker-")]
        assert len(ResultStore(directory)) == spec.size()

    def test_apply_leaves_clean_v1_store_byte_untouched(self, tmp_path):
        root = _build_root(tmp_path, dedup=False)
        before = open(_results_path(root, "two"), "rb").read()
        store_gc.gc_root(root, apply=True)
        assert open(_results_path(root, "two"), "rb").read() == before

    def test_apply_raises_when_stream_changes_after_survey(
            self, tmp_path, monkeypatch):
        """A survivor that no longer verifies at its surveyed offset
        stops the rewrite: results.jsonl keeps its bytes, no temp file
        is left and no record is dropped."""
        directory = str(tmp_path / "camp")
        os.makedirs(directory)
        path = os.path.join(directory, RESULTS_FILE)
        lines = [encode_line({"key": key, "row": {}}) + "\n"
                 for key in ("a", "b", "a")]
        with open(path, "w") as handle:
            handle.writelines(lines)
        survey = store_gc._survey

        def survey_then_rewrite(directory):
            surveyed = survey(directory)
            with open(path, "w") as handle:
                handle.writelines(lines[1:])  # every offset moves
            return surveyed

        monkeypatch.setattr(store_gc, "_survey", survey_then_rewrite)
        with pytest.raises(RuntimeError, match="changed since the gc survey"):
            store_gc.gc_root(str(tmp_path), apply=True)
        assert open(path).read() == "".join(lines[1:])
        assert os.listdir(directory) == [RESULTS_FILE]

    def test_dry_run_reports_index_divergence(self, tmp_path, capsys):
        root = _build_root(tmp_path)
        StoreIndex(root).refresh()
        # Compact a campaign behind the index's back: offsets now stale.
        path = _results_path(root, "one")
        lines = open(path).readlines()
        open(path, "w").writelines(lines[1:])
        assert main(["campaign", "gc", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "stale entries" in out


@pytest.mark.parametrize("field,value", [
    ("timer_mode", "ticked"),
    ("fast_path", False),
])
def test_retired_field_spec_keeps_its_rows(tmp_path, field, value):
    """A spec.json written while a retired knob existed, at a value its
    rows were keyed with, no longer loads: ``ls`` counts no orphans,
    ``gc --apply`` keeps every row and ``campaign --spec`` refuses to
    re-key (and re-execute) the grid."""
    directory = tmp_path / "legacy"
    directory.mkdir()
    spec = _spec("legacy").to_dict()
    spec["config"][field] = value
    spec_path = directory / SPEC_FILE
    spec_path.write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n")
    lines = []
    for seed in spec["seeds"]:
        # The key those rows were stored under: the field was hashed.
        payload = {"schema": 1, "model": "none", "seed": seed, "faults": 0,
                   "metric": "joins", "config": spec["config"]}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        key = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        lines.append(encode_line({"key": key, "row": {"seed": seed}}) + "\n")
    results = directory / RESULTS_FILE
    results.write_text("".join(lines))
    summary = store_gc.summarize(str(directory))
    assert summary.spec_cells is None
    assert summary.stored == 2
    assert summary.orphaned == 0
    assert main(["campaign", "gc", "--root", str(tmp_path), "--apply"]) == 0
    assert results.read_text() == "".join(lines)
    with pytest.raises(ValueError, match=field):
        main(["campaign", "--spec", str(spec_path), "--dir", str(directory)])
    assert results.read_text() == "".join(lines)


class TestExport:
    def test_jsonl_export_merges_unique_keys(self, tmp_path, capsys):
        root = _build_root(tmp_path)
        out_file = str(tmp_path / "all.jsonl")
        assert main(["campaign", "export", "--root", root,
                     "--out", out_file]) == 0
        lines = [line for line in open(out_file).read().splitlines() if line]
        keys = [json.loads(line)["key"] for line in lines]
        # "one" (2 cells) ∪ "two" (4 cells) share the 2 zero-fault
        # cells: 4 unique keys, not 6.
        assert len(keys) == len(set(keys)) == 4

    def test_jsonl_export_lines_are_store_lines(self, tmp_path):
        root = _build_root(tmp_path)
        out_file = str(tmp_path / "all.jsonl")
        assert main(["campaign", "export", "--root", root,
                     "--out", out_file]) == 0
        store_lines = set()
        for name in ("one", "two"):
            with open(_results_path(root, name)) as handle:
                store_lines.update(
                    line.rstrip("\n") for line in handle if line.strip()
                )
        exported = set(open(out_file).read().splitlines())
        assert exported <= store_lines

    def test_csv_export_has_campaign_and_row_columns(self, tmp_path):
        root = _build_root(tmp_path)
        out_file = str(tmp_path / "all.csv")
        assert main(["campaign", "export", "--root", root,
                     "--format", "csv", "--out", out_file]) == 0
        lines = open(out_file).read().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["campaign", "key"]
        assert "settled_performance" in header
        assert len(lines) == 1 + 4

    def test_export_to_stdout(self, tmp_path, capsys):
        root = _build_root(tmp_path)
        assert main(["campaign", "export", "--root", root]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 4

    def test_export_explicit_dirs(self, tmp_path, capsys):
        root = _build_root(tmp_path)
        assert main(["campaign", "export",
                     os.path.join(root, "one")]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2


@pytest.mark.parametrize("action", ["ls", "gc", "export"])
def test_manage_alias_routes_to_subcommand(action, tmp_path, capsys):
    """``campaign <action>`` and ``campaign-<action>`` are the same."""
    root = _build_root(tmp_path, dedup=False)
    assert main(["campaign", action, "--root", root]) == 0
    alias_out = capsys.readouterr().out
    assert main(["campaign-" + action, "--root", root]) == 0
    assert capsys.readouterr().out == alias_out
