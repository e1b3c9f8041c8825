"""Serve worker processes: lifecycle and exactly-once on the process path.

The daemon's default ``run_fn`` runs each cell in a forked worker
process.  These tests monkeypatch :func:`repro.experiments.runner
.run_cell` *before* :meth:`~repro.campaign.serve.CampaignServer.start`,
so the workers inherit a fake cell runner.  The fake appends ``pid
key`` to a log file and can block a chosen key until a gate file
appears, which lets a test act while a worker is known to be mid-cell.

* A worker killed mid-cell fails only that cell (the error names the
  cell and the exit code); its slot forks a fresh worker that runs the
  next cells, and a resubmission executes exactly the failed cell.
  That holds while the other slot waits on a busy worker, and when the
  fresh worker cannot be forked (that cell fails, its key is freed).
  A failing cell's error reads the same in a worker and in a slot.
* Both shutdowns reap every worker, and a clean one counts their CPU
  in ``RUSAGE_CHILDREN``; on Ctrl-C ``campaign serve`` finishes every
  cell, even those running, and exits 0 with no worker left.
* A cell popped while its key is in flight parks, and resolves from
  the landed record (``deduped``); a ``keep_series`` cell parked behind
  a series-less run executes once more.  Under a stress of concurrent
  overlapping tenants, more workers than cores and a short thread
  switch interval, every key still executes once.
"""

import contextlib
import errno
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.campaign.client import CampaignClient
from repro.campaign.serve import CampaignServer
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import StoredSeries
from repro.experiments import runner
from repro.experiments.runner import RunResult

#: Seconds any single wait in these tests may take before failing.
PATIENCE_S = 30.0


def make_result(descriptor):
    """Deterministic in the cell, with a series when one is asked for."""
    series = None
    if descriptor.keep_series:
        series = StoredSeries({"time_ms": [0.0, 1.0], "joins": [0, 1]})
    return RunResult(
        model=descriptor.model,
        seed=descriptor.seed,
        faults=descriptor.faults,
        settling_time_ms=1.0 + descriptor.seed,
        settled_performance=0.9,
        recovery_time_ms=2.0,
        recovered_performance=0.8,
        series=series,
        app_stats={},
        noc_stats={},
        total_switches=descriptor.seed,
    )


class FakeCells:
    """A ``run_cell`` for forked workers, coordinated through files.

    ``block`` keys wait for :meth:`release` (every execution, or only
    the first with ``first_only``); ``busy_s`` burns that much CPU per
    cell.
    """

    def __init__(self, tmp_path, block=(), first_only=False, busy_s=0.0):
        self.log = str(tmp_path / "cells.log")
        self.gate = str(tmp_path / "gate")
        self.block = set(block)
        self.first_only = first_only
        self.busy_s = busy_s
        #: The test process, which forks the workers.
        self.parent = os.getpid()

    def __call__(self, descriptor):
        key = descriptor.key()
        blocked = key in self.block and not (
            self.first_only and key in self.keys()
        )
        with open(self.log, "a") as handle:
            handle.write("{} {}\n".format(os.getpid(), key))
        # A blocked worker also gives up once its parent is gone, so a
        # test killed mid-wait leaves no orphan behind.
        while (blocked and not os.path.exists(self.gate)
               and os.getppid() == self.parent):
            time.sleep(0.002)
        start = time.process_time()
        while time.process_time() - start < self.busy_s:
            pass
        return make_result(descriptor)

    def entries(self):
        """``(pid, key)`` per execution started, in order."""
        if not os.path.exists(self.log):
            return []
        with open(self.log) as handle:
            return [
                (int(pid), key)
                for pid, key in (line.split() for line in handle)
            ]

    def keys(self):
        return [key for _pid, key in self.entries()]

    def release(self):
        open(self.gate, "w").close()

    @contextlib.contextmanager
    def releasing(self):
        """Release the gate on the way out, so a failing test still
        lets the daemon drain instead of hanging in ``shutdown``."""
        try:
            yield
        finally:
            self.release()


def payload(name, seeds, keep_series=False):
    return {
        "name": name,
        "models": ["none"],
        "seeds": list(seeds),
        "fault_counts": [0],
        "base": "small",
        "keep_series": keep_series,
    }


def keys_of(spec_payload):
    return [d.key() for d in CampaignSpec.from_dict(spec_payload).expand()]


def until(predicate, what):
    """Poll ``predicate`` until true; fail naming ``what`` on timeout."""
    deadline = time.monotonic() + PATIENCE_S
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting for " + what
        time.sleep(0.005)


def store_lines(root, name):
    """``key -> raw line`` of one campaign's results stream."""
    lines = {}
    path = os.path.join(root, name, "results.jsonl")
    if os.path.exists(path):
        with open(path, "rb") as handle:
            for line in handle:
                lines[json.loads(line)["key"]] = line
    return lines


def shut_down(daemon, drain=True):
    """``daemon.shutdown(drain)``; false when it does not return in
    time (its thread is left behind, and does not hold up the exit)."""
    stopper = threading.Thread(
        target=daemon.shutdown, args=(drain,), daemon=True)
    stopper.start()
    stopper.join(PATIENCE_S)
    return not stopper.is_alive()


def assert_reaped(pids):
    """No pid in ``pids`` names a process, not even a zombie."""
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.fixture
def fake(tmp_path, monkeypatch):
    """Install a :class:`FakeCells` factory as the workers' ``run_cell``."""

    def install(**options):
        cells = FakeCells(tmp_path, **options)
        monkeypatch.setattr(runner, "run_cell", cells)
        return cells

    return install


# -- worker lifecycle ---------------------------------------------------------


def test_killed_worker_fails_only_its_cell_and_is_replaced(tmp_path, fake):
    root = str(tmp_path / "root")
    grid = payload("wounded", seeds=(1, 2, 3))
    descriptors = CampaignSpec.from_dict(grid).expand()
    victim = descriptors[0].key()
    cells = fake(block=[victim], first_only=True)
    with CampaignServer(root, workers=1) as daemon, cells.releasing():
        [first_pid] = daemon.worker_pids()
        client = CampaignClient(daemon.url)
        client.submit(grid)
        until(lambda: victim in cells.keys(), "the victim cell to start")
        os.kill(first_pid, signal.SIGKILL)
        wounded = client.wait("wounded", timeout=PATIENCE_S)

        assert wounded.state == "failed"
        assert (wounded.failed, wounded.executed) == (1, 2)
        [error] = wounded.errors
        assert error["key"] == victim
        assert error["cell"] == list(descriptors[0].cell())
        assert str(descriptors[0].cell()) in error["error"]
        assert "exit code -9" in error["error"]
        # The slot reaped the dead worker and forked a fresh one, which
        # ran every cell after the victim.
        [second_pid] = daemon.worker_pids()
        assert second_pid != first_pid
        assert_reaped([first_pid])
        assert cells.entries()[1:] == [
            (second_pid, d.key()) for d in descriptors[1:]
        ]
        lines = store_lines(root, "wounded")
        assert set(lines) == {d.key() for d in descriptors[1:]}

        client.submit(grid)
        healed = client.wait("wounded", timeout=PATIENCE_S)
    assert healed.state == "completed"
    assert (healed.executed, healed.cached, healed.failed) == (1, 2, 0)
    assert cells.entries()[-1] == (second_pid, victim)
    assert cells.keys().count(victim) == 2
    assert set(store_lines(root, "wounded")) == {d.key() for d in descriptors}


def test_worker_replaced_while_the_other_slot_waits_mid_cell(
        tmp_path, fake):
    root = str(tmp_path / "root")
    grid = payload("crowded", seeds=(1, 2, 3, 4))
    keys = keys_of(grid)
    cells = fake(block=keys[:2])
    daemon = CampaignServer(root, workers=2).start()
    pids = daemon.worker_pids()
    with cells.releasing():
        client = CampaignClient(daemon.url)
        client.submit(grid)
        until(lambda: len(cells.entries()) == 2, "both workers to be mid-cell")
        victim = dict((key, pid) for pid, key in cells.entries())[keys[1]]
        os.kill(victim, signal.SIGKILL)
        # The victim's slot forks a fresh worker for the next cell while
        # the other slot is still waiting on its blocked worker.
        until(lambda: len(cells.entries()) == 4,
              "a fresh worker to run the remaining cells")
        fresh = {pid for pid, _key in cells.entries()[2:]}
        assert len(fresh) == 1 and not fresh & set(pids)
        cells.release()
        final = client.wait("crowded", timeout=PATIENCE_S)
    assert shut_down(daemon), "shutdown(drain=True) hung"
    assert (final.executed, final.failed) == (3, 1)
    assert [error["key"] for error in final.errors] == [keys[1]]
    assert_reaped(pids + sorted(fresh))


def test_failed_fork_fails_its_cell_and_frees_the_key(tmp_path, fake):
    root = str(tmp_path / "root")
    grid = payload("unforked", seeds=(1, 2, 3))
    keys = keys_of(grid)
    cells = fake(block=keys[:1], first_only=True)
    daemon = CampaignServer(root, workers=1).start()
    refusal = BlockingIOError(errno.EAGAIN, "fork refused")
    fork, refused = daemon._fork, []

    def refuse_once(index):
        if not refused:
            refused.append(index)
            raise refusal
        return fork(index)

    daemon._fork = refuse_once
    with cells.releasing():
        [pid] = daemon.worker_pids()
        client = CampaignClient(daemon.url)
        client.submit(grid)
        until(lambda: keys[0] in cells.keys(), "the first cell to start")
        os.kill(pid, signal.SIGKILL)
        wounded = client.wait("unforked", timeout=PATIENCE_S)
        # The dead worker's cell fails, and so does the next one, which
        # had no worker to run on; the third runs on a fresh worker.
        assert (wounded.failed, wounded.executed) == (2, 1)
        errors = {error["key"]: error["error"] for error in wounded.errors}
        assert "died (exit code -9)" in errors[keys[0]]
        assert errors[keys[1]] == "BlockingIOError: " + str(refusal)
        client.submit(grid)
        healed = client.wait("unforked", timeout=PATIENCE_S)
    assert shut_down(daemon), "shutdown(drain=True) hung"
    assert healed.state == "completed"
    assert (healed.executed, healed.cached, healed.failed) == (2, 1, 0)
    assert sorted(cells.keys()) == sorted([keys[0]] + keys)


class CellError(Exception):
    """Defined outside builtins, so its name could come out qualified."""


def raising_cell(descriptor):
    error = CellError("cell {} failed\non two lines".format(descriptor.seed))
    if hasattr(error, "add_note"):  # Python 3.11 and later
        error.add_note("and a note")
    raise error


def test_failing_cell_reads_the_same_in_a_worker_and_a_slot(
        tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "run_cell", raising_cell)
    grid = payload("raising", seeds=(1,))
    errors = []
    for path, run_fn in (("worker", None), ("slot", raising_cell)):
        root = str(tmp_path / path)
        with CampaignServer(root, workers=1, run_fn=run_fn) as daemon:
            assert bool(daemon.worker_pids()) == (run_fn is None)
            client = CampaignClient(daemon.url)
            client.submit(grid)
            [error] = client.wait("raising", timeout=PATIENCE_S).errors
        errors.append(error["error"])
    assert errors == ["CellError: cell 1 failed\non two lines"] * 2


def test_clean_shutdown_finishes_the_queue_and_reaps_workers(tmp_path, fake):
    root = str(tmp_path / "root")
    grid = payload("drained", seeds=(1, 2, 3, 4))
    fake(busy_s=0.05)
    children_cpu = resource.getrusage(resource.RUSAGE_CHILDREN)
    daemon = CampaignServer(root, workers=2).start()
    pids = daemon.worker_pids()
    assert len(pids) == 2
    CampaignClient(daemon.url).submit(grid)
    daemon.shutdown(drain=True)
    assert daemon.worker_pids() == []
    assert_reaped(pids)
    assert set(store_lines(root, "drained")) == set(keys_of(grid))
    # Reaped workers count in RUSAGE_CHILDREN: 4 cells of 50 ms CPU.
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    spent = (after.ru_utime + after.ru_stime
             - children_cpu.ru_utime - children_cpu.ru_stime)
    assert spent >= 0.8 * 4 * 0.05


def test_hard_shutdown_mid_cell_abandons_it_and_reaps_workers(
        tmp_path, fake):
    root = str(tmp_path / "root")
    grid = payload("abandoned", seeds=(1, 2, 3))
    cells = fake(block=keys_of(grid))
    daemon = CampaignServer(root, workers=2).start()
    pids = daemon.worker_pids()
    CampaignClient(daemon.url).submit(grid)
    until(lambda: len(cells.entries()) == 2, "both workers to be mid-cell")
    with cells.releasing():  # lets a shutdown stuck behind the cells end
        assert shut_down(daemon, drain=False), (
            "shutdown(drain=False) waited for the running cells")
    assert_reaped(pids)
    # Nothing landed: the two running cells were abandoned like the
    # queued one, so a restart re-queues all three.
    assert store_lines(root, "abandoned") == {}
    assert sorted(pid for pid, _key in cells.entries()) == sorted(pids)


def test_serve_cli_drains_on_ctrl_c_and_reaps_workers(tmp_path):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    # A shell that runs the tests as a background job starts them with
    # SIGINT ignored, which an exec keeps: the daemon gets the default
    # disposition a terminal gives it.
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        # Its own session, so SIGINT can reach the whole process group
        # the way a terminal's Ctrl-C does: the workers must ignore it.
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "campaign",
             "serve", "--root", str(tmp_path), "--port", "0",
             "--workers", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=dict(os.environ, PYTHONPATH=src), start_new_session=True,
        )
    finally:
        signal.signal(signal.SIGINT, previous)
    try:
        url = process.stdout.readline().strip()
        assert url.startswith("http://")
        client = CampaignClient(url)
        until(lambda: _healthy(client), "the daemon to answer /healthz")
        pids = client.healthz()["worker_pids"]
        assert len(pids) == 2
        grid = payload("cli", seeds=(1, 2, 3, 4, 5, 6))
        client.submit(grid)
        os.killpg(process.pid, signal.SIGINT)
        assert process.wait(timeout=PATIENCE_S) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    assert_reaped(pids)
    # The drain finished every cell, the ones running at Ctrl-C too.
    assert set(store_lines(str(tmp_path), "cli")) == set(keys_of(grid))


def _healthy(client):
    try:
        return client.healthz()["status"] == "ok"
    except OSError:
        return False


# -- exactly once on the process path ------------------------------------------


def test_cell_popped_while_in_flight_parks_and_dedups(tmp_path, fake):
    root = str(tmp_path / "root")
    first, second = payload("first", (1, 2)), payload("second", (1, 3))
    shared = keys_of(first)[0]
    assert shared == keys_of(second)[0]
    cells = fake(block=[shared])
    with CampaignServer(root, workers=2) as daemon, cells.releasing():
        client = CampaignClient(daemon.url)
        client.submit(first)
        until(lambda: shared in cells.keys(), "the shared cell to start")
        client.submit(second)
        # The second tenant's seed-3 cell sits behind its shared cell in
        # the queue; once it is done, the shared cell has been popped.
        until(lambda: client.status("second").done == 1,
              "the second tenant's own cell")
        assert client.status("second").pending == 1
        cells.release()
        finals = {
            name: client.wait(name, timeout=PATIENCE_S)
            for name in ("first", "second")
        }
        totals = client.metrics()
    assert cells.keys().count(shared) == 1
    assert totals["executed"] == 3 and totals["deduped"] == 1
    assert (finals["first"].executed, finals["first"].deduped) == (2, 0)
    assert (finals["second"].executed, finals["second"].deduped) == (1, 1)
    assert (store_lines(root, "first")[shared]
            == store_lines(root, "second")[shared])


def test_keep_series_cell_parked_behind_series_less_run_executes_again(
        tmp_path, fake):
    root = str(tmp_path / "root")
    plain = payload("plain", (1, 2))
    series = payload("series", (1, 3), keep_series=True)
    shared = keys_of(plain)[0]
    assert shared == keys_of(series)[0]
    cells = fake(block=[shared], first_only=True)
    with CampaignServer(root, workers=2) as daemon, cells.releasing():
        client = CampaignClient(daemon.url)
        client.submit(plain)
        until(lambda: shared in cells.keys(), "the shared cell to start")
        client.submit(series)
        until(lambda: client.status("series").done == 1,
              "the series tenant's own cell")
        cells.release()
        finals = {
            name: client.wait(name, timeout=PATIENCE_S)
            for name in ("plain", "series")
        }
    assert cells.keys().count(shared) == 2
    assert (finals["series"].executed, finals["series"].deduped) == (2, 0)
    assert json.loads(store_lines(root, "plain")[shared])["series"] is None
    assert json.loads(store_lines(root, "series")[shared])["series"] == {
        "time_ms": [0.0, 1.0], "joins": [0, 1], "census": {},
    }


def test_concurrent_overlapping_tenants_execute_each_key_once(
        tmp_path, fake):
    root = str(tmp_path / "root")
    cells = fake()
    grids = [payload("t{}".format(i), seeds=(i % 3 + 1, i % 3 + 2, 7))
             for i in range(8)]
    unique = {key for grid in grids for key in keys_of(grid)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with CampaignServer(root, workers=4) as daemon:
            client = CampaignClient(daemon.url)
            threads = [
                threading.Thread(target=client.submit, args=(grid,))
                for grid in grids
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(PATIENCE_S)
                assert not thread.is_alive()
            finals = [client.wait(grid["name"], timeout=PATIENCE_S)
                      for grid in grids]
            totals = client.metrics()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(cells.keys()) == sorted(unique)
    assert all(final.state == "completed" for final in finals)
    assert totals["executed"] == len(unique)
    assert totals["executed"] + totals["deduped"] == sum(
        final.total for final in finals)
