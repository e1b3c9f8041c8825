"""Multi-tenant campaign sweep daemon (stdlib-only HTTP front end).

:class:`CampaignServer` turns the CLI campaign engine into an always-on
service: tenants ``POST`` ordinary :class:`~repro.campaign.spec
.CampaignSpec` JSON to ``/campaigns``, the server expands the grid,
queues the pending cells to worker processes draining one shared store
root, and streams progress back over plain HTTP/1.1.  Everything is
standard library — ``http.server`` + ``threading`` +
``multiprocessing`` — so the daemon adds zero runtime dependencies.

Endpoints
---------
``POST /campaigns``
    Body: a ``CampaignSpec`` dict (exactly what ``campaign --spec``
    loads).  Returns the campaign status (201 fresh, 200 resubmit).
    A malformed spec is rejected with **4xx and a structured error
    body** — validation and grid expansion complete *before* anything
    is registered, so a rejected submission never leaves a
    half-registered campaign behind.
``GET /campaigns``
    Status summaries of every registered campaign.
``GET /campaigns/{id}``
    One campaign's status: counters, state, per-cell errors.
``GET /campaigns/{id}/events``
    NDJSON progress stream (one JSON event per line); ``?follow=1``
    keeps the connection open until the campaign leaves ``running``.
``GET /healthz`` / ``GET /metrics``
    Liveness probe and server-wide counters.

Execution model
---------------
Pending cells join one first-in, first-out queue drained by
``workers`` slot threads.  Each slot owns one worker process, forked by
:meth:`CampaignServer.start` before any thread starts: the slot sends a
cell's descriptor down the worker's pipe and waits for the reply (the
result of :func:`~repro.experiments.runner.run_cell`, the cell runner
``iter_runs`` uses, or the error it raised), so cells run on as many
cores as there are workers while the parent keeps every dedup
decision.  One lock guards the done map (cell key ->
stored record) and the in-flight map (cell key -> the cells parked
behind its execution).  A slot that pops a key already in flight parks
the cell and takes the next one; the slot that lands the key resolves
each parked cell from the landed record, or re-queues one the record
does not satisfy (a ``keep_series`` cell behind a series-less run).
So every shared cell executes **exactly once** per root, however many
tenants ask for it.  Cells a sibling campaign computed before this
daemon started resolve through the root's
:class:`~repro.campaign.index.StoreIndex` (refreshed once at startup),
so dedup spans daemon restarts too.

A worker that dies fails the cell it was running (the error names the
cell and the worker's exit code), and its slot forks a replacement for
its next cell; a resubmission executes exactly the failed cells.  A
custom ``run_fn`` runs in the slot threads instead, and no process
starts.  A failing cell's error reads ``"{type}: {message}"`` either
way.

The front end speaks HTTP/1.1 with keep-alive, so a client polling
status reuses one connection
(:class:`~repro.campaign.client.CampaignClient` does); the NDJSON event
stream closes its connection when it ends.

Byte contract
-------------
A cell executed here is appended through the exact writer path
``run_campaign`` uses — ``encode_result`` → ``ResultStore.save_record``
(one canonical ``encode_line`` serialisation) — so the record line for
a spec submitted over HTTP is **byte-identical** to the line the same
spec writes via ``campaign --spec`` (pinned by
``tests/integration/test_serve_determinism.py``).  Results land in each
campaign's ordinary ``results.jsonl``, so ``campaign
ls/gc/export/report`` and the streaming analysis work unchanged on a
root a daemon is (or was) serving.

Each campaign's store is opened exactly once, at registration — the
single-scan invariant ``tests/campaign/test_executor.py`` pins for
``run_campaign`` holds for the serve path as well (asserted inline in
:meth:`CampaignServer.submit` and pinned by the serve torture layer).
"""

import json
import os
import queue
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.campaign.index import StoreIndex
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import (
    ResultStore,
    encode_result,
    record_satisfies,
)
from repro.experiments import runner

#: Default TCP port of ``campaign serve`` (0 = ephemeral).
DEFAULT_PORT = 8642

#: Largest accepted request body (a campaign spec is a few KB; anything
#: near this bound is garbage, not a sweep).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Campaign lifecycle states reported by the status endpoints.
STATES = ("running", "completed", "failed")

#: Seconds a kept-alive connection may sit idle before the daemon
#: closes it.
IDLE_TIMEOUT_S = 30.0


class BadRequest(Exception):
    """A client error carrying the structured body the handler returns."""

    def __init__(self, status, kind, message):
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.message = message

    def body(self):
        """The structured error payload (every 4xx uses this shape)."""
        return {"error": {"type": self.kind, "message": self.message}}


class _Campaign:
    """Server-side registration of one submitted campaign.

    All mutable state (counters, events, the store append handle) is
    guarded by ``cond``'s lock; waiters (``/events?follow=1`` streams,
    ``wait`` clients polling status) are woken through the condition.
    """

    def __init__(self, name, store):
        self.name = name
        self.store = store
        self.spec = None
        self.total = 0
        self.cached = 0
        self.executed = 0
        self.deduped = 0
        self.failed = 0
        self.pending = 0
        self.errors = []
        self.events = []
        self.submissions = 0
        self.cond = threading.Condition()

    def state(self):
        """Lifecycle state (call with ``cond`` held)."""
        if self.pending:
            return "running"
        return "failed" if self.failed else "completed"

    def status(self):
        """The status payload (call with ``cond`` held)."""
        done = self.total - self.pending
        return {
            "id": self.name,
            "state": self.state(),
            "total": self.total,
            "done": done,
            "pending": self.pending,
            "cached": self.cached,
            "executed": self.executed,
            "deduped": self.deduped,
            "failed": self.failed,
            "submissions": self.submissions,
            "errors": list(self.errors),
        }

    def emit(self, event, **fields):
        """Append one progress event (call with ``cond`` held)."""
        entry = {"event": event, "campaign": self.name}
        entry.update(fields)
        self.events.append(entry)
        self.cond.notify_all()


def _error_text(exc):
    """How a failed cell's error reads in its campaign's status, whether
    the cell ran in a worker process or in a slot thread."""
    return "{}: {}".format(type(exc).__name__, exc)


def _outcome(run_fn, descriptor):
    """``(result, None)``, or ``(None, error text)`` when the cell
    raises."""
    try:
        return run_fn(descriptor), None
    except Exception as exc:
        return None, _error_text(exc)


def _work(conn, inherited):
    """A worker process: reply to each descriptor the parent sends with
    the cell's :func:`_outcome` until the pipe reaches EOF."""
    # Ctrl-C reaches the whole process group; the parent drains first.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # A worker holding the listening socket or another worker's pipe end
    # would keep it open.  Closing a socket or a Connection takes no
    # lock, so this cannot hang on one that a slot thread of the parent
    # held (mid-recv) when a replacement worker was forked.
    for handle in inherited:
        handle.close()
    while True:
        try:
            descriptor = conn.recv()
        except EOFError:
            # Not through multiprocessing's exit path, which flushes
            # stdio: a stream lock a parent thread held at the fork
            # stays held here.
            os._exit(0)
        conn.send(_outcome(runner.run_cell, descriptor))


class _Worker:
    """One worker process and the parent's end of its pipe."""

    def __init__(self, context, inherited):
        self.conn, theirs = context.Pipe()
        self.process = context.Process(
            target=_work, args=(theirs, inherited + [self.conn]),
            name="serve-worker", daemon=True,
        )
        self.process.start()
        theirs.close()

    def run(self, descriptor):
        """The cell's :func:`_outcome`; ``None`` when the worker died."""
        try:
            self.conn.send(descriptor)
            return self.conn.recv()
        except (EOFError, OSError):
            return None

    def stop(self):
        """Close our end (the worker exits on EOF) and reap the worker."""
        self.conn.close()
        self.process.join()


class CampaignServer:
    """The sweep daemon: HTTP front end + worker processes on one queue.

    Parameters
    ----------
    root:
        Store root every tenant's campaigns land under.  One root =
        one dedup scope: a cell key computed for any campaign under the
        root is never executed again for any other.
    workers:
        Worker processes (one per slot thread) draining the cell queue.
    run_fn:
        ``run_fn(descriptor) -> RunResult`` executing one cell in the
        slot threads.  The default, ``None``, runs each cell in a worker
        process through :func:`~repro.experiments.runner.run_cell`, the
        cell runner ``run_campaign``'s sweeps use.  Tests inject fakes
        here; the byte contract only constrains how results are
        *encoded*.
    host / port:
        Bind address.  ``port=0`` picks an ephemeral port; the bound
        port is ``self.port`` either way.
    """

    def __init__(self, root, workers=2, run_fn=None, host="127.0.0.1",
                 port=0):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.workers = max(1, int(workers))
        self.run_fn = run_fn
        self.started_at = time.time()
        self._registry = {}
        self._registry_lock = threading.Lock()
        #: Guards ``_done`` and ``_inflight``: every dedup decision.
        self._lock = threading.Lock()
        #: Cross-tenant done map: cell key -> raw stored record.  Fed by
        #: every record loaded at registration or landed by a slot; the
        #: in-memory face of the root's dedup index.
        self._done = {}
        #: Cell keys executing now -> the ``(campaign, descriptor)``
        #: cells parked behind them.
        self._inflight = {}
        self._rejected = 0
        self._queue = queue.Queue()
        self._slots = []
        #: Slot index -> its worker process, ``None`` from the death of
        #: one until the slot's next cell (empty with a ``run_fn``).
        self._workers = []
        self._fork_lock = threading.Lock()
        self._running = False
        self._abandon = False
        # Sibling campaigns written before this daemon started join the
        # dedup scope through the persistent index, refreshed once here
        # (slots only call the read-only, seek-and-verify lookup()).
        self._index = StoreIndex(root)
        self._index.refresh()
        self._httpd = _HTTPServer((host, port), _Handler)
        self._httpd.app = self
        self.host, self.port = self._httpd.server_address[:2]

    @property
    def url(self):
        """Base URL clients talk to."""
        return "http://{}:{}".format(self.host, self.port)

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        """Fork the workers, then start the slot threads and the HTTP
        listener (non-blocking)."""
        if self._running:
            return self
        self._running = True
        if self.run_fn is None:
            # Every first fork happens before any thread of ours runs.
            self._workers = [None] * self.workers
            for index in range(self.workers):
                self._fork(index)
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._slot, args=(index,),
                name="serve-slot-{}".format(index), daemon=True,
            )
            thread.start()
            self._slots.append(thread)
        threading.Thread(
            target=self._httpd.serve_forever, name="serve-http", daemon=True
        ).start()
        return self

    def worker_pids(self):
        """Process ids of the slots' current workers (empty with a
        ``run_fn`` and after shutdown)."""
        return [worker.process.pid for worker in self._workers
                if worker is not None]

    def serve_forever(self):
        """Blocking variant for the CLI: start, then wait for shutdown."""
        self.start()
        try:
            while self._running:
                time.sleep(0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.shutdown()

    def shutdown(self, drain=True):
        """Stop the daemon.

        ``drain=True`` (the default) finishes every queued cell first —
        the clean shutdown; ``drain=False`` abandons queued cells and
        terminates the workers, abandoning the cells they were running
        too (nothing but the queue held them, so a resubmission after
        restart re-queues exactly the unfinished ones).  A ``run_fn``
        cell in flight still finishes.  Either way every worker is
        reaped before this returns, and kept-alive connections close.
        """
        if not self._running:
            return
        self._running = False
        if drain:
            # A parked cell is re-queued before the cell it waited on is
            # marked done, so this also waits for parked cells.
            self._queue.join()
        else:
            self._abandon = True
            while True:
                try:
                    self._queue.get_nowait()
                except queue.Empty:
                    break
                self._queue.task_done()
            for worker in list(self._workers):
                if worker is not None:
                    worker.process.terminate()
        for _ in self._slots:
            self._queue.put(None)
        for thread in self._slots:
            thread.join()
        self._workers = []
        self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd.close_connections()
        for campaign in list(self._registry.values()):
            campaign.store.close()
        if drain:
            # Persist the dedup entries for whoever opens the root next
            # (a restarted daemon, or plain `campaign --spec` sweeps).
            self._index.refresh()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.shutdown()

    # -- submission ----------------------------------------------------------

    def submit(self, payload):
        """Register (or resume) a campaign; returns ``(status, body)``.

        Validation and grid expansion run to completion before any
        registry or filesystem mutation, so a rejected spec leaves no
        trace.  Resubmitting a finished campaign re-queues exactly the
        cells its store does not hold (crash recovery / failure retry);
        resubmitting a running campaign is idempotent.
        """
        if not isinstance(payload, dict):
            raise BadRequest(
                400, "invalid-spec",
                "campaign spec must be a JSON object, got {}".format(
                    type(payload).__name__
                ),
            )
        try:
            spec = CampaignSpec.from_dict(payload)
            descriptors = spec.expand()
            keys = [descriptor.key() for descriptor in descriptors]
        except Exception as exc:
            raise BadRequest(400, "invalid-spec", str(exc))
        with self._registry_lock:
            campaign = self._registry.get(spec.name)
            fresh = campaign is None
            if fresh:
                store = ResultStore(os.path.join(self.root, spec.name))
                campaign = _Campaign(spec.name, store)
                self._registry[spec.name] = campaign
            pending = self._activate(campaign, spec, descriptors, keys)
            if pending is None:
                with campaign.cond:
                    return 200, campaign.status()
            for descriptor, key in pending:
                self._queue.put((campaign, descriptor, key))
            with campaign.cond:
                return (201 if fresh else 200), campaign.status()

    def _activate(self, campaign, spec, descriptors, keys):
        """Partition the grid against the store; returns cells to queue
        (``None`` when the campaign is already running)."""
        with campaign.cond:
            if campaign.pending:
                return None
            scans_before = campaign.store.scans
            campaign.spec = spec
            campaign.store.write_spec(spec)
            pending = []
            for descriptor, key in zip(descriptors, keys):
                if campaign.store.has_result(descriptor, key=key):
                    # Resumed cells join the cross-tenant done map so
                    # other tenants dedup against them live.
                    with self._lock:
                        self._done.setdefault(key, campaign.store.get(key))
                else:
                    pending.append((descriptor, key))
            # The single-scan invariant: partitioning hits the store's
            # memoised key map only — never a per-key stream re-read.
            assert campaign.store.scans == scans_before
            campaign.total = len(descriptors)
            campaign.cached = len(descriptors) - len(pending)
            campaign.executed = 0
            campaign.deduped = 0
            campaign.failed = 0
            campaign.errors = []
            campaign.pending = len(pending)
            campaign.submissions += 1
            campaign.emit(
                "submitted", total=campaign.total, cached=campaign.cached,
                pending=campaign.pending, submission=campaign.submissions,
            )
            if not campaign.pending:
                campaign.emit("completed", state=campaign.state())
            return pending

    # -- slots and workers ---------------------------------------------------

    def _fork(self, index):
        """Start slot ``index``'s worker process; returns it."""
        # Imported here: an importer that starts no worker does not load
        # multiprocessing.
        import multiprocessing

        context = multiprocessing.get_context("fork")
        with self._fork_lock:
            inherited = [self._httpd.socket]
            for worker in self._workers:
                if worker is not None:
                    inherited.append(worker.conn)
            worker = self._workers[index] = _Worker(context, inherited)
        return worker

    def _reap(self, index):
        """Stop slot ``index``'s worker, if it has one.

        Under the fork lock, so no other slot's fork reaps it first (a
        ``Process.start`` polls every child) and leaves its exit code
        unread.
        """
        with self._fork_lock:
            worker, self._workers[index] = self._workers[index], None
            if worker is not None:
                worker.stop()

    def _slot(self, index):
        while True:
            item = self._queue.get()
            try:
                if item is None:
                    break
                self._resolve_cell(index, *item)
            finally:
                self._queue.task_done()
        if self._workers:
            self._reap(index)

    def _resolve_cell(self, index, campaign, descriptor, key):
        """Dedup, park or execute one cell and checkpoint it.

        Under ``_lock`` a key is done, in flight (the cell parks behind
        it) or claimed by this slot, so no key executes twice at once.
        The slot that claimed it lands the record, or fails the cell if
        anything raises on the way, and resolves every cell parked
        behind it.
        """
        with self._lock:
            record = self._done.get(key)
            if not record_satisfies(record, descriptor):
                record = None
                parked = self._inflight.get(key)
                if parked is not None:
                    parked.append((campaign, descriptor))
                    return
                self._inflight[key] = []
        if record is not None:
            self._finish(campaign, descriptor, key, "deduped", record=record)
            return
        try:
            executed = self._execute(index, descriptor, key)
        except Exception as exc:
            executed = "failed", None, _error_text(exc)
        if executed is None:
            return  # abandoned by shutdown(drain=False)
        outcome, record, error = executed
        with self._lock:
            if record is not None:
                self._done[key] = record
            parked = self._inflight.pop(key)
        self._finish(campaign, descriptor, key, outcome, record=record,
                     error=error)
        for other, wanted in parked:
            if record_satisfies(record, wanted):
                self._finish(other, wanted, key, "deduped", record=record)
            else:
                self._queue.put((other, wanted, key))

    def _execute(self, index, descriptor, key):
        """Resolve one claimed cell from the index or run it:
        ``(outcome, record, error)``, or ``None`` when
        ``shutdown(drain=False)`` terminated its worker."""
        record = self._index.lookup(key)
        if record_satisfies(record, descriptor):
            return "deduped", record, None
        if self.run_fn is not None:
            result, error = _outcome(self.run_fn, descriptor)
        else:
            # A slot whose worker died forks a fresh one for its next
            # cell.
            worker = self._workers[index] or self._fork(index)
            reply = worker.run(descriptor)
            if reply is None:
                if self._abandon:
                    return None
                self._reap(index)
                return "failed", None, (
                    "worker process {} died (exit code {}) running cell "
                    "{}".format(worker.process.pid, worker.process.exitcode,
                                descriptor.cell())
                )
            result, error = reply
        if error is not None:
            return "failed", None, error
        return "executed", encode_result(descriptor, result, key=key), None

    def _finish(self, campaign, descriptor, key, outcome, record=None,
                error=None):
        """Checkpoint + count one resolved cell, waking any waiters."""
        with campaign.cond:
            if record is not None:
                # The one canonical writer path (encode_line under
                # save_record): executed and deduped lines are
                # byte-identical to run_campaign's.
                campaign.store.save_record(record)
            if outcome == "executed":
                campaign.executed += 1
            elif outcome == "deduped":
                campaign.deduped += 1
            else:
                campaign.failed += 1
                campaign.errors.append(
                    {"key": key, "cell": list(descriptor.cell()),
                     "error": error}
                )
            campaign.pending -= 1
            campaign.emit(
                "cell", key=key, cell=list(descriptor.cell()),
                status=outcome, done=campaign.total - campaign.pending,
                total=campaign.total,
            )
            if not campaign.pending:
                campaign.emit("completed", state=campaign.state())

    # -- read surface --------------------------------------------------------

    def campaign(self, name):
        """The registered campaign, or a 404 :class:`BadRequest`."""
        with self._registry_lock:
            campaign = self._registry.get(name)
        if campaign is None:
            raise BadRequest(
                404, "unknown-campaign",
                "no campaign {!r} on this server".format(name),
            )
        return campaign

    def status(self, name):
        """One campaign's status payload (404 on unknown names)."""
        campaign = self.campaign(name)
        with campaign.cond:
            return campaign.status()

    def statuses(self):
        """Status payloads of every registered campaign, sorted by id."""
        with self._registry_lock:
            campaigns = list(self._registry.values())
        out = []
        for campaign in campaigns:
            with campaign.cond:
                out.append(campaign.status())
        return sorted(out, key=lambda status: status["id"])

    def healthz(self):
        """The liveness payload (``GET /healthz``)."""
        return {
            "status": "ok",
            "root": self.root,
            "workers": self.workers,
            "worker_pids": self.worker_pids(),
            "campaigns": len(self._registry),
        }

    def metrics(self):
        """Server-wide counters (sums over the live registry)."""
        totals = {"executed": 0, "cached": 0, "deduped": 0, "failed": 0,
                  "pending": 0, "cells": 0}
        for status in self.statuses():
            totals["executed"] += status["executed"]
            totals["cached"] += status["cached"]
            totals["deduped"] += status["deduped"]
            totals["failed"] += status["failed"]
            totals["pending"] += status["pending"]
            totals["cells"] += status["total"]
        totals["campaigns"] = len(self._registry)
        totals["submissions_rejected"] = self._rejected
        totals["workers"] = self.workers
        totals["queue_depth"] = self._queue.qsize()
        totals["uptime_s"] = round(time.time() - self.started_at, 3)
        return totals

    def iter_events(self, name, follow=False, poll_s=0.2):
        """Yield a campaign's progress events as dicts.

        ``follow=True`` blocks for new events until the campaign leaves
        ``running`` — the server side of the NDJSON stream.
        """
        campaign = self.campaign(name)
        cursor = 0
        while True:
            with campaign.cond:
                while cursor >= len(campaign.events):
                    if not follow or campaign.state() != "running":
                        return
                    campaign.cond.wait(poll_s)
                fresh = campaign.events[cursor:]
                cursor = len(campaign.events)
            # Emit outside the lock: a slow consumer never stalls the
            # slots.
            for event in fresh:
                yield event


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    #: Set by :class:`CampaignServer` right after construction.
    app = None

    def __init__(self, address, handler):
        self._connections = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, handler)

    def process_request(self, request, client_address):
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self):
        """Hang up every open connection: a handler thread waiting for a
        kept-alive client's next request reads EOF and ends."""
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the client hung up first


class _Handler(BaseHTTPRequestHandler):
    """Routes the endpoint table above onto the :class:`CampaignServer`."""

    server_version = "repro-campaign-serve"
    # HTTP/1.1 keeps a client's connection open across requests: every
    # JSON reply carries its Content-Length, and the NDJSON event stream
    # (no length) closes its connection when it ends.
    protocol_version = "HTTP/1.1"
    # Headers and body are separate writes; with Nagle's algorithm on, a
    # kept-alive body would wait for the client's delayed ACK.
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S

    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        """Silence per-request logging (the CLI reports its own URL)."""

    @property
    def app(self):
        return self.server.app

    def _send_json(self, status, payload):
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, exc):
        self._send_json(exc.status, exc.body())

    def _route(self):
        """``(path segments, query dict)`` of the request target."""
        path, _, query = self.path.partition("?")
        segments = [part for part in path.split("/") if part]
        params = {}
        for pair in query.split("&"):
            if pair:
                key, _, value = pair.partition("=")
                params[key] = value
        return segments, params

    def do_GET(self):  # noqa: N802 (stdlib dispatch name)
        segments, params = self._route()
        try:
            if segments == ["healthz"]:
                return self._send_json(200, self.app.healthz())
            if segments == ["metrics"]:
                return self._send_json(200, self.app.metrics())
            if segments == ["campaigns"]:
                return self._send_json(
                    200, {"campaigns": self.app.statuses()}
                )
            if len(segments) == 2 and segments[0] == "campaigns":
                return self._send_json(200, self.app.status(segments[1]))
            if (
                len(segments) == 3
                and segments[0] == "campaigns"
                and segments[2] == "events"
            ):
                return self._stream_events(
                    segments[1],
                    follow=params.get("follow") not in (None, "", "0"),
                )
            raise BadRequest(
                404, "not-found", "no route {!r}".format(self.path)
            )
        except BadRequest as exc:
            self._send_error_json(exc)
        except Exception as exc:  # pragma: no cover - server bug surface
            self._send_json(
                500, {"error": {"type": "internal",
                                "message": str(exc)}},
            )

    def do_POST(self):  # noqa: N802 (stdlib dispatch name)
        segments, _params = self._route()
        try:
            if segments == ["campaigns"]:
                status, body = self.app.submit(self._read_json())
                return self._send_json(status, body)
            self.close_connection = True  # the body stays unread
            raise BadRequest(
                404, "not-found", "no route {!r}".format(self.path)
            )
        except BadRequest as exc:
            if exc.status == 400:
                self.app._rejected += 1
            self._send_error_json(exc)
        except Exception as exc:  # pragma: no cover - server bug surface
            self._send_json(
                500, {"error": {"type": "internal",
                                "message": str(exc)}},
            )

    def _read_json(self):
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = None
        if length is None or not 0 < length <= MAX_BODY_BYTES:
            # The body stays unread, so no request can follow it on this
            # connection.
            self.close_connection = True
        if length is None:
            raise BadRequest(400, "invalid-request",
                             "unreadable Content-Length")
        if length <= 0:
            raise BadRequest(400, "invalid-request", "empty request body")
        if length > MAX_BODY_BYTES:
            raise BadRequest(
                413, "payload-too-large",
                "body of {} bytes exceeds the {} byte bound".format(
                    length, MAX_BODY_BYTES
                ),
            )
        body = self.rfile.read(length)
        try:
            return json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise BadRequest(
                400, "invalid-json", "request body is not JSON: {}".format(
                    exc
                ),
            )

    def _stream_events(self, name, follow):
        # Resolve the campaign *before* committing to a 200: the 404
        # must arrive as a structured error, not a torn event stream
        # (iter_events is a generator — it would not raise until after
        # the headers were already on the wire).
        self.app.campaign(name)
        iterator = self.app.iter_events(name, follow=follow)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")  # the stream ends at EOF
        self.end_headers()
        try:
            for event in iterator:
                self.wfile.write(
                    (json.dumps(event, sort_keys=True) + "\n").encode(
                        "utf-8"
                    )
                )
                self.wfile.flush()
        except OSError:
            pass  # consumer hung up or stalled mid-stream
