"""Protocol/property layer for the campaign serve daemon.

Hypothesis drives generated campaign specs through the full HTTP
round-trip — submit → status → stored result — against a live
:class:`~repro.campaign.serve.CampaignServer` (fake ``run_fn``, no
simulations — fast).  The properties pinned here are the daemon's
client-facing contract:

* a submitted grid completes with coherent counters
  (``executed + cached + deduped + failed == total``) and the store on
  disk holds exactly the expansion's cell keys;
* resubmitting a finished campaign is a pure cache hit — zero
  executions;
* the events stream brackets every run (``submitted`` … ``completed``)
  and agrees with the status endpoint;
* a malformed spec is rejected with **4xx and a structured error
  body** — never a 500, never a half-registered campaign: the name
  stays a 404 afterwards.
"""

import itertools
import json
import os
import urllib.error
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.client import CampaignClient, ServeError
from repro.campaign.serve import CampaignServer
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.experiments.runner import RunResult

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

MODELS = ("none", "foraging_for_work", "ni")

#: Unique campaign names across hypothesis examples sharing one server.
_names = itertools.count()


def fake_run(descriptor):
    """Deterministic stand-in for ``run_single`` (cell-derived fields)."""
    return RunResult(
        model=descriptor.model,
        seed=descriptor.seed,
        faults=descriptor.faults,
        settling_time_ms=1.0 + descriptor.seed,
        settled_performance=0.9,
        recovery_time_ms=2.0 + descriptor.faults,
        recovered_performance=0.8,
        series=None,
        app_stats={},
        noc_stats={},
        total_switches=descriptor.seed,
    )


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("serve-root"))
    with CampaignServer(root, workers=3, run_fn=fake_run) as daemon:
        yield daemon


@pytest.fixture(scope="module")
def client(server):
    return CampaignClient(server.url)


@st.composite
def spec_payloads(draw):
    models = draw(st.lists(
        st.sampled_from(MODELS), min_size=1, max_size=3, unique=True
    ))
    seeds = draw(st.lists(
        st.integers(min_value=1, max_value=10**6),
        min_size=1, max_size=3, unique=True,
    ))
    faults = draw(st.lists(
        st.integers(min_value=0, max_value=64),
        min_size=1, max_size=2, unique=True,
    ))
    return {
        "name": "proto-{:04d}".format(next(_names)),
        "models": models,
        "seeds": seeds,
        "fault_counts": faults,
        "base": "small",
    }


def post_raw(url, body, content_length=None):
    """POST raw bytes to ``/campaigns``; returns (status, parsed body)."""
    request = urllib.request.Request(
        url + "/campaigns", data=body,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    if content_length is not None:
        request.add_header("Content-Length", str(content_length))
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


# -- round-trip properties ----------------------------------------------------


@SETTINGS
@given(payload=spec_payloads())
def test_submit_status_result_roundtrip(server, client, payload):
    spec = CampaignSpec.from_dict(payload)
    expected = {descriptor.key() for descriptor in spec.expand()}

    receipt = client.submit(payload)
    assert receipt.id == payload["name"]
    assert receipt.total == spec.size() == len(expected)

    final = client.wait(receipt.id, timeout=30.0)
    assert final.state == "completed"
    assert final.failed == 0 and final.pending == 0
    assert final.done == final.total
    assert (final.executed + final.cached + final.deduped
            + final.failed) == final.total

    # The store on disk holds exactly the expansion's cell keys.
    store = ResultStore(os.path.join(server.root, payload["name"]))
    try:
        assert set(store.keys()) == expected
    finally:
        store.close()

    # Resubmitting a finished campaign is a pure cache hit.
    client.submit(payload)
    again = client.wait(receipt.id, timeout=30.0)
    assert again.state == "completed"
    assert again.executed == 0
    assert again.cached + again.deduped == again.total


@SETTINGS
@given(payload=spec_payloads())
def test_events_bracket_every_run(server, client, payload):
    receipt = client.submit(payload)
    client.wait(receipt.id, timeout=30.0)
    events = list(client.events(receipt.id))
    kinds = [event["event"] for event in events]
    assert kinds[0] == "submitted"
    assert kinds[-1] == "completed"
    cells = [event for event in events if event["event"] == "cell"]
    assert len(cells) == receipt.total
    assert {event["status"] for event in cells} <= {
        "executed", "cached", "deduped"
    }
    # The stream agrees with the status endpoint.
    assert events[-1]["state"] == client.status(receipt.id).state


# -- rejection surface --------------------------------------------------------

MALFORMED = [
    pytest.param({}, id="missing-name"),
    pytest.param({"name": "bad-a"}, id="missing-models"),
    pytest.param({"name": "bad-b", "models": []}, id="empty-models"),
    pytest.param(
        {"name": "bad-c", "models": ["none"]}, id="missing-seeds"
    ),
    pytest.param(
        {"name": "bad-d", "models": ["none"], "seeds": [1, 1]},
        id="duplicate-seeds",
    ),
    pytest.param(
        {"name": "bad-e", "models": ["no-such-model"], "seeds": [1]},
        id="unknown-model",
    ),
    pytest.param(
        {"name": "bad-f", "models": ["none"], "seeds": [1],
         "base": "gigantic"},
        id="unknown-base",
    ),
    pytest.param(
        {"name": "bad-g", "models": ["none"], "seeds": [1],
         "frobnicate": True},
        id="unknown-key",
    ),
    pytest.param(
        {"name": "bad-h", "models": ["none"], "seeds": [1],
         "kind": "spiral"},
        id="unknown-kind",
    ),
    pytest.param(
        {"name": "bad-i", "models": ["none"], "seeds": [1],
         "config": {"timer_mode": "sometimes"}},
        id="unknown-timer-mode",
    ),
    pytest.param(
        {"name": "bad-j", "models": ["none"], "seeds": [1],
         "config": {"timer_mode": "ticked"}},
        id="retired-timer-mode-ticked",
    ),
    pytest.param(
        {"name": "bad-k", "models": ["none"], "seeds": [1],
         "config": {"fast_path": False}},
        id="retired-fast-path-false",
    ),
]


@pytest.mark.parametrize("payload", MALFORMED)
def test_malformed_specs_reject_structured(server, client, payload):
    status, body = post_raw(server.url, json.dumps(payload).encode())
    assert 400 <= status < 500, body
    assert set(body) == {"error"}
    assert body["error"]["type"] == "invalid-spec"
    assert body["error"]["message"]
    # Never a half-registered campaign: the name stays unknown.
    name = payload.get("name")
    if name:
        with pytest.raises(ServeError) as excinfo:
            client.status(name)
        assert excinfo.value.status == 404
        assert name not in {status.id for status in client.campaigns()}


@pytest.mark.parametrize("body,expect_kind", [
    pytest.param(b"", "invalid-request", id="empty-body"),
    pytest.param(b"not json {", "invalid-json", id="garbage-bytes"),
    pytest.param(b"[1, 2, 3]", "invalid-spec", id="non-object"),
    pytest.param(b'"just a string"', "invalid-spec", id="string-body"),
])
def test_non_spec_bodies_reject_structured(server, body, expect_kind):
    status, parsed = post_raw(server.url, body)
    assert 400 <= status < 500
    assert parsed["error"]["type"] == expect_kind
    assert parsed["error"]["message"]


def test_oversized_body_rejected_without_read(server):
    from repro.campaign import serve

    status, parsed = post_raw(
        server.url, b"{}", content_length=serve.MAX_BODY_BYTES + 1
    )
    assert status == 413
    assert parsed["error"]["type"] == "payload-too-large"


def test_unknown_routes_are_structured_404s(server, client):
    for path in ("/nope", "/campaigns/ghost/nope/extra"):
        request = urllib.request.Request(server.url + path)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read())["error"]["type"] == (
            "not-found"
        )
    with pytest.raises(ServeError) as excinfo:
        client.status("ghost")
    assert excinfo.value.kind == "unknown-campaign"
    with pytest.raises(ServeError) as excinfo:
        list(client.events("ghost"))
    assert excinfo.value.status == 404


def test_post_to_unknown_route_is_404(server):
    request = urllib.request.Request(
        server.url + "/healthz", data=b"{}", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    assert excinfo.value.code == 404


def test_healthz_and_metrics_shape(server, client):
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["root"] == server.root
    assert health["workers"] == server.workers
    before = client.metrics()["submissions_rejected"]
    post_raw(server.url, b"not json {")
    metrics = client.metrics()
    assert metrics["workers"] == server.workers
    assert metrics["campaigns"] == health["campaigns"]
    assert metrics["submissions_rejected"] == before + 1
    assert (metrics["executed"] + metrics["cached"] + metrics["deduped"]
            + metrics["failed"] + metrics["pending"]) == metrics["cells"]
