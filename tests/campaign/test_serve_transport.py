"""Serve transport: HTTP/1.1 keep-alive between the daemon and its client.

:class:`~repro.campaign.client.CampaignClient` keeps one connection per
thread, and the daemon keeps it open across requests.  Pinned here:

* a request on a connection the daemon has since closed (idle timeout)
  succeeds through exactly one reconnect;
* a structured 4xx leaves the connection usable for the next request;
* a kept-alive reply is not held back waiting for a delayed ACK;
* the NDJSON event stream, which has no length, still ends when the
  campaign leaves ``running``;
* shutdown hangs up kept-alive connections, so no handler thread waits
  on an idle client.
"""

import http.client
import time

import pytest

from repro.campaign import serve
from repro.campaign.client import CampaignClient, ServeError
from repro.campaign.serve import CampaignServer
from repro.experiments.runner import RunResult


def fake_run(descriptor, delay_s=0.0):
    if delay_s:
        time.sleep(delay_s)
    return RunResult(
        model=descriptor.model,
        seed=descriptor.seed,
        faults=descriptor.faults,
        settling_time_ms=1.0,
        settled_performance=0.9,
        recovery_time_ms=2.0,
        recovered_performance=0.8,
        series=None,
        app_stats={},
        noc_stats={},
        total_switches=0,
    )


def payload(name, seeds=(1, 2)):
    return {"name": name, "models": ["none", "ni"], "seeds": list(seeds),
            "fault_counts": [0], "base": "small"}


@pytest.fixture
def connects(monkeypatch):
    """How many TCP connections clients open during the test."""
    opened = []
    real_connect = http.client.HTTPConnection.connect

    def counting_connect(self):
        opened.append(self)
        return real_connect(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect",
                        counting_connect)
    return opened


def test_request_after_idle_close_reconnects_once(tmp_path, monkeypatch,
                                                  connects):
    monkeypatch.setattr(serve._Handler, "timeout", 0.1)
    with CampaignServer(str(tmp_path), workers=1, run_fn=fake_run) as daemon:
        client = CampaignClient(daemon.url)
        assert client.healthz()["status"] == "ok"
        assert len(connects) == 1
        time.sleep(0.5)  # the daemon closes the idle connection
        assert client.healthz()["status"] == "ok"
    assert len(connects) == 2


def test_structured_4xx_keeps_the_connection(tmp_path, connects):
    with CampaignServer(str(tmp_path), workers=1, run_fn=fake_run) as daemon:
        client = CampaignClient(daemon.url)
        with pytest.raises(ServeError) as missing:
            client.status("ghost")
        assert (missing.value.status, missing.value.kind) == (
            404, "unknown-campaign")
        with pytest.raises(ServeError) as invalid:
            client.submit({"name": "bad", "models": []})
        assert (invalid.value.status, invalid.value.kind) == (
            400, "invalid-spec")
        client.submit(payload("good"))
        final = client.wait("good", timeout=30.0)
    assert final.state == "completed"
    assert len(connects) == 1


def test_kept_alive_polls_are_not_held_back(tmp_path):
    with CampaignServer(str(tmp_path), workers=1, run_fn=fake_run) as daemon:
        client = CampaignClient(daemon.url)
        client.healthz()
        started = time.perf_counter()
        for _ in range(50):
            client.healthz()
        elapsed = time.perf_counter() - started
    # Headers and body leave in two writes.  With Nagle's algorithm the
    # body waits for the client's delayed ACK, about 40 ms on Linux, so
    # 50 polls would take some 2 s; without it they take milliseconds.
    assert elapsed < 1.0


def test_followed_events_end_when_campaign_leaves_running(tmp_path):
    def slow_run(descriptor):
        return fake_run(descriptor, delay_s=0.02)

    with CampaignServer(str(tmp_path), workers=1, run_fn=slow_run) as daemon:
        client = CampaignClient(daemon.url, timeout=10.0)
        receipt = client.submit(payload("followed", seeds=(1, 2, 3)))
        events = list(client.events("followed", follow=True))
        assert client.status("followed").state == "completed"
        # A client that keeps connections alive (curl does) reads the
        # stream, which has no length, to its end too.
        connection = http.client.HTTPConnection(daemon.host, daemon.port,
                                                timeout=10.0)
        try:
            connection.request("GET", "/campaigns/followed/events?follow=1")
            streamed = connection.getresponse().read().splitlines()
        finally:
            connection.close()
    assert len(streamed) == len(events)
    assert events[0]["event"] == "submitted"
    assert events[-1] == {"event": "completed", "campaign": "followed",
                          "state": "completed"}
    assert sum(e["event"] == "cell" for e in events) == receipt.total


def test_shutdown_hangs_up_kept_connections(tmp_path):
    daemon = CampaignServer(str(tmp_path), workers=1, run_fn=fake_run)
    daemon.start()
    connection = http.client.HTTPConnection(daemon.host, daemon.port,
                                            timeout=10.0)
    try:
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        assert response.status == 200 and not response.will_close
        response.read()
        daemon.shutdown()
        assert connection.sock.recv(1) == b""
    finally:
        connection.close()
