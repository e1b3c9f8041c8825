"""Thin typed client for the :mod:`repro.campaign.serve` daemon.

Stdlib-only (``http.client``): :class:`CampaignClient` wraps the
daemon's HTTP surface in typed calls, decoding status payloads into
:class:`CampaignStatus` and structured error bodies into
:class:`ServeError`.  Each thread keeps one connection alive across its
requests, so a status poll costs a round trip, not a TCP handshake (the
NDJSON event stream opens its own, through ``urllib``).  The CLI verbs
``campaign submit/status/wait`` are thin shells over this class;
scripts can use it directly::

    from repro.campaign.client import CampaignClient

    client = CampaignClient("http://127.0.0.1:8642")
    receipt = client.submit({"name": "sweep", "models": ["ffw"],
                             "seeds": [1, 2], "base": "small"})
    final = client.wait(receipt.id)
    assert final.state == "completed" and final.failed == 0
"""

import dataclasses
import http.client
import json
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

#: Default per-request timeout (seconds).  Requests are cheap — the
#: daemon answers status from memory — so a stall means a dead server.
DEFAULT_TIMEOUT = 30.0


class ServeError(RuntimeError):
    """A non-2xx daemon response, carrying the structured error body."""

    def __init__(self, status, payload):
        error = {}
        if isinstance(payload, dict):
            error = payload.get("error") or {}
        super().__init__(
            "HTTP {}: {} ({})".format(
                status,
                error.get("message", "no error body"),
                error.get("type", "unknown"),
            )
        )
        self.status = status
        self.kind = error.get("type")
        self.payload = payload


@dataclasses.dataclass(frozen=True)
class CampaignStatus:
    """One campaign's decoded status payload."""

    id: str
    state: str
    total: int
    done: int
    pending: int
    cached: int
    executed: int
    deduped: int
    failed: int
    submissions: int
    errors: tuple

    @classmethod
    def from_payload(cls, payload):
        """Decode a daemon status payload into a typed status."""
        return cls(
            id=payload["id"],
            state=payload["state"],
            total=payload["total"],
            done=payload["done"],
            pending=payload["pending"],
            cached=payload["cached"],
            executed=payload["executed"],
            deduped=payload["deduped"],
            failed=payload["failed"],
            submissions=payload["submissions"],
            errors=tuple(payload.get("errors", ())),
        )

    def as_dict(self):
        """JSON-friendly dump (the ``--json`` payload of the CLI verbs)."""
        data = dataclasses.asdict(self)
        data["errors"] = list(self.errors)
        return data


def _serve_error(status, body):
    """A :class:`ServeError` from a non-2xx reply's raw body."""
    text = body.decode("utf-8", "replace")
    try:
        parsed = json.loads(text)
    except ValueError:
        parsed = {"error": {"type": "opaque", "message": text}}
    return ServeError(status, parsed)


class CampaignClient:
    """Typed HTTP client for one ``campaign serve`` daemon.

    Safe to share between threads: each thread keeps its own
    connection.
    """

    def __init__(self, url, timeout=DEFAULT_TIMEOUT):
        self.base = url.rstrip("/")
        self.timeout = timeout
        parts = urllib.parse.urlsplit(self.base)
        self._netloc = parts.netloc
        self._prefix = parts.path
        self._local = threading.local()

    # -- transport -----------------------------------------------------------

    def _connection(self):
        """This thread's kept connection."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self._netloc, timeout=self.timeout
            )
            self._local.connection = connection
        return connection

    def _request(self, method, path, payload=None):
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._connection()
        # A kept connection may have been closed by the daemon while it
        # sat idle, which shows only on its next use: that request goes
        # once more on a fresh connection.
        retry = connection.sock is not None
        while True:
            try:
                connection.request(
                    method, self._prefix + path, body=body, headers=headers
                )
                response = connection.getresponse()
                data = response.read()
                break
            except ConnectionError:
                connection.close()
                if not retry:
                    raise
                retry = False
            except BaseException:
                connection.close()
                raise
        if response.status >= 400:
            raise _serve_error(response.status, data)
        return json.loads(data.decode("utf-8"))

    # -- endpoints -----------------------------------------------------------

    def healthz(self):
        """The liveness payload (raises on a dead or sick daemon)."""
        return self._request("GET", "/healthz")

    def metrics(self):
        """Server-wide counters."""
        return self._request("GET", "/metrics")

    def campaigns(self):
        """Status of every registered campaign."""
        return [
            CampaignStatus.from_payload(payload)
            for payload in self._request("GET", "/campaigns")["campaigns"]
        ]

    def submit(self, spec):
        """Submit a campaign spec (dict, ``CampaignSpec``, or JSON path).

        Returns the submission receipt as a :class:`CampaignStatus`;
        a malformed spec raises :class:`ServeError` with the daemon's
        structured 4xx body.
        """
        if hasattr(spec, "to_dict"):
            spec = spec.to_dict()
        elif isinstance(spec, str):
            with open(spec) as handle:
                spec = json.load(handle)
        return CampaignStatus.from_payload(
            self._request("POST", "/campaigns", payload=spec)
        )

    def status(self, campaign_id):
        """Current status of one campaign."""
        return CampaignStatus.from_payload(
            self._request("GET", "/campaigns/{}".format(campaign_id))
        )

    def wait(self, campaign_id, timeout=300.0, poll_s=0.05):
        """Poll until the campaign leaves ``running``; returns the final
        status.  Raises :class:`TimeoutError` when ``timeout`` elapses
        first (the campaign keeps running server-side)."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(campaign_id)
            if status.state != "running":
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    "campaign {!r} still running after {}s "
                    "({}/{} cells done)".format(
                        campaign_id, timeout, status.done, status.total
                    )
                )
            time.sleep(poll_s)

    def events(self, campaign_id, follow=False):
        """Yield the campaign's NDJSON progress events as dicts.

        ``follow=True`` keeps the stream open until the campaign leaves
        ``running`` — the live tail a dashboard would consume.
        """
        path = "/campaigns/{}/events".format(campaign_id)
        if follow:
            path += "?follow=1"
        request = urllib.request.Request(
            self.base + path, headers={"Accept": "application/x-ndjson"}
        )
        try:
            response = urllib.request.urlopen(
                request, timeout=self.timeout
            )
        except urllib.error.HTTPError as exc:
            raise _serve_error(exc.code, exc.read()) from None
        with response:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))
