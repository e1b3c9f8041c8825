"""The Experiment Controller.

Paper §III: "A larger processor, the Experiment Controller, is connected to
the NoC via the North ports of four of the (otherwise unconnected) routers
in the top row ... The experiment controller can also access the nodes
separately to the NoC via a dedicated debug interface.  This allows
experiment data to be downloaded and parameters to be set at runtime (e.g.
for fault injection) without interfering with the NoC traffic of active
experiments."

Accordingly this class has two faces:

* a NoC face — four attachment points on top-row North ports through which
  it can inject packets into the network (used by the injection examples
  and tests);
* a debug face — direct, zero-time access to any node for state readout,
  parameter upload (model/RCAP settings) and fault injection, which by
  construction does not touch the NoC.

Attach-point failures (fault taxonomy v2): each node is covered by its
nearest attach point (ties to the lower index), and severing an attach
point takes both faces down for the nodes it covers — packets can no
longer be injected through it, and the debug-face monitors/knobs for the
covered nodes go dark (:class:`ControllerDetachedError`) until the attach
point is restored.  Fault injection and recovery themselves are exempt:
they model physical faults striking the die, not controller commands, so
a scenario can keep evolving while the controller is partially blind.
"""


class ControllerDetachedError(RuntimeError):
    """A controller operation needed a severed attach point."""


class ExperimentController:
    """PC-side management processor for a Centurion platform.

    Parameters
    ----------
    platform:
        The :class:`~repro.platform.centurion.CenturionPlatform` to manage.
    attach_columns:
        Grid columns of the four top-row routers whose North ports carry
        the controller's NoC interfaces; defaults to four columns spread
        evenly across the top row.
    """

    def __init__(self, platform, attach_columns=None):
        self.platform = platform
        topology = platform.network.topology
        if attach_columns is None:
            quarter = max(1, topology.width // 4)
            attach_columns = tuple(
                min(topology.width - 1, quarter // 2 + i * quarter)
                for i in range(min(4, topology.width))
            )
        self.attach_points = tuple(
            topology.node_id(x, 0) for x in attach_columns
        )
        #: Indices of currently-severed attach points.
        self.severed = set()
        #: Per-node covering attach index: nearest attach column, ties to
        #: the lower index (precomputed once; the mesh never changes).
        self._covering = {
            node: min(
                range(len(self.attach_points)),
                key=lambda i: (
                    abs(
                        topology.coords(node)[0]
                        - topology.coords(self.attach_points[i])[0]
                    ),
                    i,
                ),
            )
            for node in topology.node_ids()
        }
        self.injected = 0
        self.faults_injected = []
        self.faults_recovered = []
        #: ``(time_us, attach_index)`` sever / restore logs.
        self.attach_severed_log = []
        self.attach_restored_log = []
        #: Broadcast-knob writes skipped because the target was dark.
        self.dark_skips = 0

    # -- NoC face --------------------------------------------------------------

    def inject_packet(self, packet, attach_index=0):
        """Inject a packet through one of the four North-port interfaces.

        A severed attach point cannot inject; the packet fails over to
        the next healthy interface (round-robin), and with every attach
        point severed the controller is fully detached from the NoC —
        :class:`ControllerDetachedError`.
        """
        count = len(self.attach_points)
        for probe in range(count):
            index = (attach_index + probe) % count
            if index not in self.severed:
                self.injected += 1
                return self.platform.network.send(
                    packet, self.attach_points[index]
                )
        raise ControllerDetachedError(
            "all controller attach points are severed"
        )

    # -- attach-point fabric ---------------------------------------------------

    def attach_index_of(self, node_id):
        """Index of the attach point covering ``node_id``."""
        return self._covering[node_id]

    def healthy_attach_indices(self):
        """Attach-point indices that are not currently severed."""
        return [
            i for i in range(len(self.attach_points))
            if i not in self.severed
        ]

    def is_dark(self, node_id):
        """True while the attach point covering ``node_id`` is severed."""
        return self._covering[node_id] in self.severed

    def sever_attach(self, index):
        """Sever one attach point: its covered nodes go dark.

        The NoC interface at that attach point stops injecting and the
        debug-face monitors/knobs for every covered node raise
        :class:`ControllerDetachedError` until :meth:`restore_attach`.
        """
        if not 0 <= index < len(self.attach_points):
            raise ValueError(
                "attach index {} outside 0..{}".format(
                    index, len(self.attach_points) - 1
                )
            )
        if index in self.severed:
            return
        self.severed.add(index)
        platform = self.platform
        self.attach_severed_log.append((platform.sim.now, index))
        if platform.trace is not None:
            platform.trace.record(
                platform.sim.now, "controller_severed", attach=index,
                node=self.attach_points[index],
            )

    def restore_attach(self, index):
        """Re-attach a severed attach point; its nodes light back up."""
        if index not in self.severed:
            return
        self.severed.discard(index)
        platform = self.platform
        self.attach_restored_log.append((platform.sim.now, index))
        if platform.trace is not None:
            platform.trace.record(
                platform.sim.now, "controller_restored", attach=index,
                node=self.attach_points[index],
            )

    def _require_light(self, node_id):
        if self._covering[node_id] in self.severed:
            raise ControllerDetachedError(
                "node {} is dark: controller attach point {} is "
                "severed".format(node_id, self._covering[node_id])
            )

    # -- debug face -------------------------------------------------------------

    def debug_read(self, node_id):
        """Out-of-band node state snapshot (no NoC traffic).

        Dark nodes (covered by a severed attach point) cannot be read:
        :class:`ControllerDetachedError`.
        """
        self._require_light(node_id)
        pe = self.platform.pes[node_id]
        router = self.platform.network.router(node_id)
        return {
            "node": node_id,
            "task": pe.task_id,
            "halted": pe.halted,
            "queue_length": len(pe.queue),
            "completions": pe.completions,
            "task_switches": pe.task_switches,
            "frequency_mhz": pe.frequency.current_mhz,
            "temperature_c": pe.thermal.temperature(self.platform.sim.now),
            "router_failed": router.failed,
            "packets_forwarded": router.packets_forwarded,
            "packets_sunk": router.packets_sunk,
        }

    def debug_set_task(self, node_id, task_id):
        """Force a node's task assignment (experiment setup).

        The task-select knob of a dark node is unreachable:
        :class:`ControllerDetachedError`.
        """
        self._require_light(node_id)
        self.platform.pes[node_id].set_task(task_id, reason="controller")

    def upload_model_params(self, params, node_ids=None):
        """Retune hosted models at runtime via the RCAP path.

        A broadcast (default) silently skips dark nodes — they are
        unreachable, exactly like a real partial-fabric outage — and
        counts the skips in :attr:`dark_skips`; an explicitly targeted
        dark node raises :class:`ControllerDetachedError` instead.
        Returns the node ids actually written.
        """
        broadcast = node_ids is None
        targets = node_ids if not broadcast else list(self.platform.aims)
        written = []
        for node_id in targets:
            if self.is_dark(node_id):
                if not broadcast:
                    self._require_light(node_id)
                self.dark_skips += 1
                continue
            self.platform.aims[node_id].rcap_write_params(params)
            written.append(node_id)
        return written

    def rcap_write(self, node_id, settings):
        """Remote router reconfiguration (dark nodes are unreachable)."""
        self._require_light(node_id)
        self.platform.network.router(node_id).rcap_write(settings)

    # -- fault injection ------------------------------------------------------------

    def inject_fault(self, node_id):
        """Kill one node: processor halts, router dies, AIM silenced.

        Uses the debug interface, so injection itself produces no NoC
        traffic — matching the paper's setup.
        """
        platform = self.platform
        pe = platform.pes[node_id]
        if pe.halted:
            return
        pe.halt()
        aim = platform.aims.get(node_id)
        if aim is not None:
            aim.shutdown()
        platform.network.fail_node(node_id)
        self.faults_injected.append((platform.sim.now, node_id))
        platform.dynamics.note_node_killed(node_id)

    def recover_node(self, node_id):
        """Un-fail one node: processor restarts blank, router revives.

        The transient-fault back edge.  Like injection this rides the
        debug interface — recovery itself produces no NoC traffic.  The
        recovered node holds no task until the intelligence layer (or a
        :meth:`debug_set_task`) re-allocates work to it.
        """
        platform = self.platform
        pe = platform.pes[node_id]
        if not pe.halted:
            return
        pe.restart()
        aim = platform.aims.get(node_id)
        if aim is not None:
            aim.restart()
        platform.network.recover_node(node_id)
        self.faults_recovered.append((platform.sim.now, node_id))
        platform.dynamics.note_node_recovered(node_id)

    def alive_nodes(self):
        """Node ids that have not been fault-injected."""
        return [
            node_id
            for node_id, pe in self.platform.pes.items()
            if not pe.halted
        ]

    def __repr__(self):
        return (
            "ExperimentController(attach={}, severed={}, faults={}, "
            "recovered={})".format(
                self.attach_points, sorted(self.severed),
                len(self.faults_injected), len(self.faults_recovered),
            )
        )
