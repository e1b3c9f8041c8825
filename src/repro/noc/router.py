"""The Centurion five-port router (Figure 2a).

Ports: North, East, South, West, and an internal (Local) port to the node's
processing element; a sixth Router Configuration Access Port (RCAP) accepts
remote configuration writes without carrying application traffic.  The
router exposes *monitors* (routing events, per-task counts, queue state)
that the embedded Artificial Intelligence Module subscribes to, and honours
*knobs* via its configuration — this is the sense/actuate surface the
social-insect models are wired to.
"""

from repro.noc.topology import DIRECTIONS, INTERNAL


class Port:
    """One router port: an attachment point with per-port statistics."""

    __slots__ = ("name", "packets_in", "packets_out")

    def __init__(self, name):
        self.name = name
        self.packets_in = 0
        self.packets_out = 0

    def __repr__(self):
        return "Port({}, in={}, out={})".format(
            self.name, self.packets_in, self.packets_out
        )


def check_settings(routing_mode, router_latency, recent_queue_depth):
    """Raise ``ValueError`` unless the three router settings are valid.

    The hop engine reads all three on every visit, so both
    :class:`RouterConfig` and :meth:`Router.rcap_write` check them.
    """
    if routing_mode not in ("xy", "adaptive"):
        raise ValueError("unknown routing mode {!r}".format(routing_mode))
    if router_latency < 0:
        raise ValueError("router_latency must be non-negative")
    if recent_queue_depth < 1:
        raise ValueError("recent_queue_depth must be >= 1")


class RouterConfig:
    """Mutable router settings reachable through the RCAP.

    Attributes
    ----------
    routing_mode:
        ``"xy"`` or ``"adaptive"`` — the paper's two packet routing modes.
        ``xy`` is dimension-ordered (the evaluated system's "minimised
        Manhattan distance" heuristic); ``adaptive`` additionally lets the
        router pick the less-congested of the minimal output ports (the
        paper's §V extension).  Fault detours are independent of the mode.
    router_latency:
        Fixed µs added per hop for header decode and arbitration.
    recent_queue_depth:
        How many recently-forwarded packet tasks the router remembers; the
        Foraging-for-Work model reads this queue to pick its next task.
    """

    def __init__(self, routing_mode="xy", router_latency=2,
                 recent_queue_depth=8):
        check_settings(routing_mode, router_latency, recent_queue_depth)
        self.routing_mode = routing_mode
        self.router_latency = router_latency
        self.recent_queue_depth = recent_queue_depth

    def copy(self):
        """Independent copy (each router owns its settings).

        Skips ``__init__`` — the source instance already validated, and
        128 copies are made per platform construction.
        """
        clone = RouterConfig.__new__(RouterConfig)
        clone.routing_mode = self.routing_mode
        clone.router_latency = self.router_latency
        clone.recent_queue_depth = self.recent_queue_depth
        return clone


class Router:
    """A single mesh router.

    The router does not move packets itself — the :class:`~repro.noc.network.
    Network` drives hop scheduling — but it owns everything local: port
    state, the RCAP configuration interface, per-task routing-event counters
    (the NI model's monitor), the recent-task queue (the FFW model's
    monitor) and the observer list through which the AIM hears routing
    events.  The network's hop engine updates the counters, the queue and
    the port statistics inline on each visit and calls
    :attr:`routed_handlers` itself: a router visit is one Python frame.

    Failure belongs to the network: only its ``fail_node`` and
    ``recover_node`` write :attr:`failed`, which the router reads to
    refuse RCAP writes and to stay silent about drops.
    """

    def __init__(self, node_id, config=None):
        self.node_id = node_id
        self.config = config if config is not None else RouterConfig()
        self.ports = {name: Port(name) for name in DIRECTIONS}
        self.ports[INTERNAL] = Port(INTERNAL)
        self.failed = False
        #: packets routed through (any port), per destination task
        self.task_route_counts = {}
        #: most recent dest tasks forwarded (oldest first)
        self.recent_tasks = []
        self._observers = []
        #: Routed-event handlers, in subscription order, of the observers
        #: that want routing events; the hop engine calls each as
        #: ``handler(router, packet, to_internal)``.
        self.routed_handlers = []
        self._dropped_handlers = []
        self.packets_forwarded = 0
        self.packets_sunk = 0
        #: Sunk packets whose payload arrived corrupted (counted in
        #: ``packets_sunk`` too — the flits did reach the internal port).
        self.corrupted_sunk = 0
        self.packets_dropped_here = 0

    # -- observer wiring (monitors) ------------------------------------------

    def add_observer(self, observer):
        """Subscribe an observer (typically the node's AIM).

        Observers may implement ``on_packet_routed(router, packet,
        to_internal)`` and ``on_packet_dropped(router, packet)``; missing
        methods are tolerated so tests can pass minimal stubs.  Handlers
        are cached at subscription time — routing events are the hottest
        path in the simulation.  An observer whose ``wants_routing_events``
        attribute is false stays out of the routed fan-out, and calls
        :meth:`refresh_handlers` when that changes (the AIM does on every
        model upload).
        """
        self._observers.append(observer)
        self.refresh_handlers()

    def remove_observer(self, observer):
        """Unsubscribe an observer."""
        self._observers.remove(observer)
        self.refresh_handlers()

    def refresh_handlers(self):
        """Rebuild the handler caches from the observer list."""
        self.routed_handlers = [
            handler
            for handler in (
                getattr(obs, "on_packet_routed", None)
                for obs in self._observers
                if getattr(obs, "wants_routing_events", True)
            )
            if handler is not None
        ]
        self._dropped_handlers = [
            handler
            for handler in (
                getattr(obs, "on_packet_dropped", None)
                for obs in self._observers
            )
            if handler is not None
        ]

    # -- events driven by the network -----------------------------------------

    def notify_dropped(self, packet):
        """Report a packet dropped at this router to observers.

        A drop — deadlock recovery, no surviving provider, reroute budget
        exhausted — is the strongest local evidence that the colony is
        failing to do some task's work, so the AIM hears about it (the
        Foraging-for-Work model arms its task-switch timeout on it).
        """
        if self.failed:
            return
        self.packets_dropped_here += 1
        for handler in self._dropped_handlers:
            handler(self, packet)

    # -- RCAP ---------------------------------------------------------------------

    def rcap_write(self, settings):
        """Apply remote configuration (the paper's sixth port).

        ``settings`` maps :class:`RouterConfig` setting names to new
        values.  The write is all or nothing: an unknown key raises
        ``KeyError`` (to surface typos in experiment scripts), an invalid
        value raises ``ValueError`` (:func:`check_settings`), and either
        leaves the configuration unchanged.
        """
        if self.failed:
            raise RuntimeError(
                "RCAP write to failed router {}".format(self.node_id)
            )
        merged = self.rcap_read()
        for key, value in settings.items():
            if key not in merged:
                raise KeyError("unknown router setting {!r}".format(key))
            merged[key] = value
        check_settings(**merged)
        for key, value in merged.items():
            setattr(self.config, key, value)

    def rcap_read(self):
        """Snapshot of current settings, as a plain dict."""
        return {
            "routing_mode": self.config.routing_mode,
            "router_latency": self.config.router_latency,
            "recent_queue_depth": self.config.recent_queue_depth,
        }

    def __repr__(self):
        return "Router(node={}, forwarded={}, sunk={}{})".format(
            self.node_id,
            self.packets_forwarded,
            self.packets_sunk,
            ", FAILED" if self.failed else "",
        )
