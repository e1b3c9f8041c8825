"""Fault-injection engine.

"In this work our fault model considers multiple node failures" (paper
§IV-B): at a configured time a set of victim nodes fail permanently — the
processor stops, the router stops forwarding, and the surviving system must
re-route and (with intelligence enabled) re-allocate tasks.  Victims are
drawn from the currently-alive candidates using a dedicated RNG stream so
fault patterns are reproducible per seed and independent of the mapping
stream.

The injector is an *interpreter* for declarative
:class:`~repro.platform.scenario.FaultScenario` compositions, and
:meth:`FaultInjector.apply` is the only way a fault enters the platform:
the paper's burst is the one-event scenario
:meth:`~repro.platform.scenario.FaultScenario.burst`.  Beyond it the
scenarios compose link failures, transient/intermittent outages (fail,
then recover, then optionally fail again), timed waves, spatial victim
patterns (row/column/region/neighbourhood), degraded links (slower
``flit_time`` instead of an outage), packet-corrupting links (payload
delivered but useless), controller attach-point failures (monitors/knobs
go dark), deadlock pressure, thermal storms and hazard-rate storms
(occurrence times drawn from a Poisson process on a dedicated RNG
stream, which scenarios without a storm never touch).

Overlapping faults are arbitrated by one claim table.  Each occurrence
claims its victims until its end time (``None`` for a permanent fault),
and a victim stays faulted while any claim on it is live.  The two
magnitude kinds run at their worst live claim — a degraded edge at its
largest factor, a pressured router at its smallest wait limit — and only
the last claim's lapse undoes the fault.
"""

from repro.noc.topology import normalize_edge
from repro.platform.scenario import (
    CONTROLLER,
    CORRUPT,
    DEADLOCK_PRESSURE,
    LINK,
    LINK_DEGRADE,
    NODE,
    NODE_KINDS,
    THERMAL_STORM,
    UNIFORM,
)

#: RNG stream shared by every victim draw.  Its name seeds the draws, so
#: renaming it would move every faulted cell.
FAULT_STREAM = "fault-injection"

#: RNG stream for hazard-rate storm occurrence times.  Separate from the
#: victim stream so storms cannot perturb the draws of fixed-schedule
#: events (and scenarios without a storm never create it at all).
HAZARD_STREAM = "fault-hazard"


class FaultInjector:
    """Interprets fault scenarios against a platform.

    Parameters
    ----------
    platform:
        The Centurion platform under test.
    """

    def __init__(self, platform):
        self.platform = platform
        #: Node ids actually killed, in injection order (repeats included).
        self.victims = []
        #: ``(src, dst)`` link endpoints actually failed, in order.
        self.link_victims = []
        #: ``(src, dst)`` link endpoints actually degraded, in order.
        self.degraded_victims = []
        #: ``(src, dst)`` link endpoints actually set corrupting, in order.
        self.corrupted_victims = []
        #: Controller attach-point indices actually severed, in order.
        self.controller_victims = []
        #: Node ids actually hit by thermal storms, in order.
        self.thermal_victims = []
        #: Node ids actually put under deadlock pressure, in order.
        self.pressure_victims = []
        #: ``(time_us, kind, victim)`` recovery log.
        self.recovered = []
        #: Scenarios applied through :meth:`apply`.
        self.scenarios = []
        #: Live claims per ``(kind, victim)``: ``[(until, magnitude)]``.
        #: ``until`` is ``None`` for a permanent claim; ``magnitude`` is
        #: a degrade's factor or a pressure's wait limit (``None`` for the
        #: binary kinds).  A victim with no claim left has no entry.
        self._claims = {}

    def apply(self, scenario):
        """Schedule every event of a declarative scenario.

        Pinned victims are validated against this platform's topology
        up front, so a malformed scenario fails here — at apply time —
        instead of deep inside the event loop at simulated fault time.
        """
        for event in scenario.events:
            self._check_victims(scenario, event)
        self.scenarios.append(scenario)
        for event in scenario.events:
            self._schedule_event(event)

    def _check_victims(self, scenario, event):
        if event.victims is None:
            return
        network = self.platform.network
        num_nodes = network.topology.num_nodes
        if event.kind in NODE_KINDS:
            for victim in event.victims:
                if not 0 <= victim < num_nodes:
                    raise ValueError(
                        "scenario {!r}: node victim {} outside the "
                        "{}-node mesh".format(
                            scenario.name, victim, num_nodes
                        )
                    )
        elif event.kind == CONTROLLER:
            attaches = len(self.platform.controller.attach_points)
            for victim in event.victims:
                if not 0 <= victim < attaches:
                    raise ValueError(
                        "scenario {!r}: controller victim {} outside the "
                        "{} attach points".format(
                            scenario.name, victim, attaches
                        )
                    )
        else:
            for src, dst in event.victims:
                if (src, dst) not in network.links:
                    raise ValueError(
                        "scenario {!r}: {} victim ({}, {}) is not a "
                        "mesh edge".format(scenario.name, event.kind,
                                           src, dst)
                    )

    def _schedule_event(self, event):
        sim = self.platform.sim
        if event.is_storm():
            # Storm occurrence times are drawn up front, at apply time,
            # from the dedicated hazard stream: per-seed deterministic,
            # and invisible to the victim draws of other events.
            times = event.occurrence_times(sim.rng.stream(HAZARD_STREAM))
        else:
            times = event.occurrence_times()
        for at in times:
            sim.schedule_at(
                at,
                lambda e=event: self._execute(e),
                priority=sim.PRIORITY_CONTROL,
            )

    # -- interpretation ----------------------------------------------------

    def _execute(self, event):
        """Inject one occurrence of ``event`` and claim its victims.

        A kind's actuator skips a victim that is already faulted, yet
        the claim covers every declared victim: a node already down from
        a transient outage stays down until this claim lapses too.  A
        degrade alone claims only what it actuates, because a dead edge
        has no timing left to degrade.
        """
        kind = event.kind
        magnitude = None
        if kind == THERMAL_STORM:
            # Heat impulses decay on their own: nothing to claim.
            self._inject_heat(event, self._node_victims(event))
            return
        if kind == NODE:
            victims = self._node_victims(event)
            self._inject_nodes(victims)
        elif kind == DEADLOCK_PRESSURE:
            victims = self._node_victims(event)
            self.pressure_victims.extend(victims)
            magnitude = event.wait_limit_us
        elif kind == CONTROLLER:
            victims = self._controller_victims_for(event)
            self._sever_attaches(victims)
        else:
            victims = [
                normalize_edge(*edge)
                for edge in self._edge_victims_for(event)
            ]
            if kind == LINK:
                self._inject_links(victims)
            elif kind == CORRUPT:
                self._corrupt_links(victims)
            else:
                network = self.platform.network
                victims = [
                    edge for edge in victims
                    if not network.link_failed(*edge)
                ]
                self.degraded_victims.extend(victims)
                magnitude = event.factor
        sim = self.platform.sim
        until = (
            None if event.duration_us is None
            else sim.now + event.duration_us
        )
        for victim in victims:
            self._claims.setdefault((kind, victim), []).append(
                (until, magnitude)
            )
            self._govern(kind, victim)
        if until is not None and victims:
            sim.schedule_at(
                until,
                lambda: self._expire(kind, victims),
                priority=sim.PRIORITY_CONTROL,
            )

    def _govern(self, kind, victim):
        """Run a magnitude victim at its worst live claim.

        Overlapping degrades and pressures do not stack: an edge runs at
        its largest live factor, a router at its smallest live wait
        limit.  A binary kind has nothing to arbitrate.
        """
        claims = self._claims[kind, victim]
        network = self.platform.network
        if kind == LINK_DEGRADE:
            factor = max(claim[1] for claim in claims)
            if network.degraded_links.get(victim) != factor:
                network.degrade_link(*victim, factor)
        elif kind == DEADLOCK_PRESSURE:
            network.set_deadlock_pressure(
                victim, min(claim[1] for claim in claims)
            )

    def _expire(self, kind, victims):
        """Drop one occurrence's lapsed claims and re-arbitrate.

        A victim that keeps a live claim stays faulted; a magnitude
        victim re-runs at its worst remaining claim, but a binary one is
        not re-actuated (a node the watchdog revived meanwhile stays
        up).  A victim with no claim left is restored.
        """
        now = self.platform.sim.now
        for victim in victims:
            key = (kind, victim)
            claims = self._claims.get(key)
            if claims is None:
                continue  # a same-time expiry already dropped them
            live = [claim for claim in claims
                    if claim[0] is None or claim[0] > now]
            if live:
                self._claims[key] = live
                self._govern(kind, victim)
            else:
                del self._claims[key]
                if self._restore(kind, victim):
                    self.recovered.append((now, kind, victim))

    def _restore(self, kind, victim):
        """Undo a victim's fault; False when it has none left to undo."""
        controller = self.platform.controller
        network = self.platform.network
        if kind == NODE:
            if self.platform.pes[victim].halted:
                controller.recover_node(victim)
                return True
        elif kind == CONTROLLER:
            if victim in controller.severed:
                controller.restore_attach(victim)
                return True
        elif kind == DEADLOCK_PRESSURE:
            if victim in network.deadlock_pressure:
                network.clear_deadlock_pressure(victim)
                return True
        elif kind == LINK:
            if network.link_failed(*victim):
                network.recover_link(*victim)
                return True
        elif kind == LINK_DEGRADE:
            if network.link_degraded(*victim):
                network.restore_link(*victim)
                return True
        elif network.link_corrupting(*victim):
            network.clean_link(*victim)
            return True
        return False

    # -- actuators ---------------------------------------------------------

    def _inject_nodes(self, victims):
        controller = self.platform.controller
        pes = self.platform.pes
        for node_id in victims:
            if not pes[node_id].halted:
                controller.inject_fault(node_id)
                self.victims.append(node_id)

    def _inject_links(self, edges):
        network = self.platform.network
        for edge in edges:
            if not network.link_failed(*edge):
                network.fail_link(*edge)
                self.link_victims.append(edge)

    def _corrupt_links(self, edges):
        network = self.platform.network
        for edge in edges:
            if not (network.link_failed(*edge)
                    or network.link_corrupting(*edge)):
                network.corrupt_link(*edge)
                self.corrupted_victims.append(edge)

    def _sever_attaches(self, indices):
        controller = self.platform.controller
        for index in indices:
            if index not in controller.severed:
                controller.sever_attach(index)
                self.controller_victims.append(index)

    def _inject_heat(self, event, victims):
        """Push one thermal-storm occurrence's heat into its victims.

        Actuation goes through the platform's
        :class:`~repro.platform.dynamics.DynamicsController`, which
        heats every victim's thermal model and re-evaluates any active
        governors — so a storm on a governed platform triggers the
        closed loop immediately.
        """
        self.thermal_victims.extend(
            self.platform.dynamics.inject_heat(victims, event.heat_c)
        )

    # -- victim selection --------------------------------------------------

    def _node_victims(self, event):
        """Node victims for one occurrence, drawn at injection time.

        The uniform draw is ``rng.sample`` over the alive list of a
        ``min``-capped count, on :data:`FAULT_STREAM`: the paper burst's
        draw, which every stored faulted cell was made with.
        """
        if event.victims is not None:
            return event.victims
        rng = self.platform.sim.rng.stream(FAULT_STREAM)
        alive = self.platform.controller.alive_nodes()
        if event.pattern == UNIFORM:
            count = min(event.count, len(alive))
            return rng.sample(alive, count)
        candidates = self._pattern_candidates(event, alive)
        if event.count is None:
            return candidates
        count = min(event.count, len(candidates))
        return rng.sample(candidates, count)

    def _pattern_candidates(self, event, alive):
        """Alive nodes inside the event's spatial shape, id-ordered."""
        topology = self.platform.network.topology
        coords = topology.coords
        if event.pattern == "row":
            return [n for n in alive if coords(n)[1] == event.row]
        if event.pattern == "column":
            return [n for n in alive if coords(n)[0] == event.column]
        if event.pattern == "region":
            x0, y0, x1, y1 = event.region
            return [
                n for n in alive
                if x0 <= coords(n)[0] <= x1 and y0 <= coords(n)[1] <= y1
            ]
        # neighbourhood: Manhattan ball around the centre node.
        center = event.center
        radius = event.radius
        return [
            n for n in alive if topology.manhattan(n, center) <= radius
        ]

    def _edge_victims_for(self, event):
        """Edge victims for one occurrence (pinned pairs or a draw).

        The draw excludes edges already claimed by the event's own kind
        (failed edges for ``link``, degraded for ``link_degrade``,
        corrupting for ``corrupt``) plus — for the partial kinds — the
        outright-failed edges, which have no traffic left to damage.
        Edges are drawn from the id-sorted candidate list, so the draw
        does not depend on set iteration order.
        """
        if event.victims is not None:
            return [tuple(v) for v in event.victims]
        network = self.platform.network
        rng = self.platform.sim.rng.stream(FAULT_STREAM)
        taken = network.failed_links
        if event.kind == LINK_DEGRADE:
            taken = taken | set(network.degraded_links)
        elif event.kind == CORRUPT:
            taken = taken | network.corrupting_links
        healthy = sorted(
            edge
            for edge in {
                normalize_edge(a, b) for a, b in network.links
            }
            if edge not in taken
        )
        count = min(event.count, len(healthy))
        return rng.sample(healthy, count)

    def _controller_victims_for(self, event):
        """Attach-point victims for one occurrence (pinned or drawn).

        Uniform draws come from the currently-healthy attach points,
        through the same victim stream as every other draw.
        """
        if event.victims is not None:
            return event.victims
        controller = self.platform.controller
        rng = self.platform.sim.rng.stream(FAULT_STREAM)
        healthy = controller.healthy_attach_indices()
        count = min(event.count, len(healthy))
        return rng.sample(healthy, count)

    def __repr__(self):
        return (
            "FaultInjector(scenarios={}, injected={}, "
            "links={}, degraded={}, corrupted={}, severed={}, "
            "heated={}, pressured={}, recovered={})".format(
                len(self.scenarios),
                len(self.victims),
                len(self.link_victims),
                len(self.degraded_victims),
                len(self.corrupted_victims),
                len(self.controller_victims),
                len(self.thermal_victims),
                len(self.pressure_victims),
                len(self.recovered),
            )
        )
