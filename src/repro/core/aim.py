"""The Artificial Intelligence Module (AIM).

One AIM per node, as in Figure 2a: a PicoBlaze-class controller wired
between the node's monitors and knobs, hosting an uploaded intelligence
program (a :class:`repro.core.models.base.IntelligenceModel`).  The AIM

* subscribes to the router (routing-event impulses) and the processing
  element (internal-sink / execution / task-change impulses),
* runs a periodic timer tick (the "Timer Tick" input of Figure 2b) that
  drives time-based model logic such as the Foraging-for-Work timeout,
* calls ``on_packet_routed`` and ``on_tick`` only on a model whose class
  overrides them (re-read on every upload),
* exposes the knob bank to the model, and
* accepts RCAP-style parameter writes so the Experiment Controller can
  retune models remotely at runtime.
"""

from repro.core.knobs import standard_knob_bank
from repro.core.models.base import IntelligenceModel
from repro.core.monitors import standard_monitor_bank
from repro.sim.process import PeriodicProcess


class AimTickBank:
    """One shared timer-tick event train for all AIMs on a platform.

    Every AIM ticks at the same period and they are all started together
    at platform construction, so the per-node tick events land on the same
    timestamps and dispatch in node order.  The bank collapses them into a
    *single* periodic event that relays the tick to each registered AIM in
    registration (node) order — observably identical to per-AIM tick
    events, at a fraction of the kernel traffic: 128 heap events per
    period become one.
    """

    def __init__(self, sim, period_us):
        self.sim = sim
        self._aims = []
        self._process = PeriodicProcess(
            sim, period_us, self._tick_all, priority=sim.PRIORITY_SAMPLE
        )

    def register(self, aim):
        """Add an AIM to the shared train (starts it on first use)."""
        self._aims.append(aim)
        if not self._process.running:
            self._process.start()

    def _tick_all(self, _process):
        # Dispatches straight to the models.  ``_ticking`` holds only
        # while a model that overrides ``on_tick`` is uploaded and its
        # node has not been shut down.
        now = self.sim.now
        for aim in self._aims:
            if aim._ticking and not aim.pe.halted:
                aim.model.on_tick(aim, now)


class ArtificialIntelligenceModule:
    """Embedded intelligence for one node.

    Parameters
    ----------
    sim, pe, router, network:
        The node's simulator, processing element, router and the NoC.
    model:
        The intelligence program to host (may be ``None`` for an
        unmanaged node; a model can also be uploaded later through
        :meth:`upload_model`, like the Experiment Controller uploading
        PicoBlaze code).
    tick_bank:
        The platform's shared :class:`AimTickBank`; its periodic event
        drives the model's ``on_tick``.
    """

    def __init__(self, sim, pe, router, network, tick_bank, model=None):
        self.sim = sim
        self.pe = pe
        self.router = router
        self.network = network
        self.node_id = pe.node_id
        self._monitors = None
        self.knobs = standard_knob_bank(pe, router)
        tick_bank.register(self)
        pe.add_observer(self)
        self._install(model)
        router.add_observer(self)

    @property
    def monitors(self):
        """The node's monitor bank, built on first access.

        Only a minority of models read monitors directly (most subscribe
        to impulses instead), and platform construction is on the
        benchmark hot path, so the eight monitor objects are lazy.
        """
        monitors = self._monitors
        if monitors is None:
            monitors = self._monitors = standard_monitor_bank(
                self.sim, self.pe, self.router, self.network
            )
        return monitors

    # -- program upload ------------------------------------------------------

    def upload_model(self, model):
        """Install (or replace) the program; re-read the hooks it overrides."""
        self._install(model)
        self.router.refresh_handlers()

    def _install(self, model):
        self.model = model
        #: True while the model overrides ``on_packet_routed``: the router
        #: lists this AIM's relay only then.
        self.wants_routing_events = self._ticking = False
        if model is not None:
            model.bind(self)
            self.knobs["task_select"].reason = model.name
            cls = type(model)
            self.wants_routing_events = (
                cls.on_packet_routed is not IntelligenceModel.on_packet_routed
            )
            self._ticking = cls.on_tick is not IntelligenceModel.on_tick

    def shutdown(self):
        """Stop the timer tick (used when the node dies)."""
        self._ticking = False

    def restart(self):
        """Resume the timer tick after node recovery.

        The AIM flips its gate back on if its model ticks (the shared
        train never stopped).  An AIM with no model stays silent.

        The model's :meth:`~repro.core.models.base.IntelligenceModel.
        on_restart` hook runs before the next tick: a deadline armed
        before the fault is stale evidence (the node's task and queues
        were wiped), so e.g. FFW disarms instead of firing an immediate
        switch against a pre-fault candidate.
        """
        if self.model is None:
            return
        self._ticking = type(self.model).on_tick is not IntelligenceModel.on_tick
        self.model.on_restart(self)

    # -- router monitor relay ---------------------------------------------------

    def on_packet_routed(self, router, packet, to_internal):
        """Router monitor relay (filters locally-injected packets)."""
        if self.pe.halted:
            return
        # Locally-injected packets (hop count still zero) are the node's own
        # emissions, not observed traffic; monitors sit on the mesh input
        # ports so they do not see them.
        injected = packet.hops == 0 and not to_internal
        self.model.on_packet_routed(
            self, packet, to_internal=to_internal, injected=injected
        )

    def on_packet_dropped(self, router, packet):
        """Router drop-event relay."""
        if self.model is None or self.pe.halted:
            return
        self.model.on_packet_dropped(self, packet)

    # -- processing element monitor relay -----------------------------------------

    def on_internal_sink(self, pe, packet):
        """PE internal-sink monitor relay."""
        if self.model is not None and not pe.halted:
            self.model.on_internal_sink(self, packet)

    def on_execution_complete(self, pe, task_id):
        """PE execution-complete monitor relay."""
        if self.model is not None and not pe.halted:
            self.model.on_execution_complete(self, task_id)

    def on_task_changed(self, pe, old, new):
        """PE task-change monitor relay."""
        if self.model is not None and not pe.halted:
            self.model.on_task_changed(self, old, new)

    # -- knob helpers used by models ---------------------------------------------------

    def switch_task(self, task_id):
        """Pull the task-select knob; returns the resulting task."""
        return self.knobs["task_select"].set(task_id)

    def current_task(self):
        """The node's current task (monitor view)."""
        return self.pe.task_id

    def set_frequency(self, mhz):
        """Pull the DVFS knob; returns the applied frequency."""
        return self.knobs["frequency"].set(mhz)

    def set_clock_enabled(self, enabled):
        """Pull the clock-enable knob."""
        return self.knobs["clock_enable"].set(enabled)

    def reset_node(self):
        """Pull the reset knob."""
        return self.knobs["reset"].set()

    # -- RCAP parameter access --------------------------------------------------------------

    def rcap_write_params(self, params):
        """Remote model retuning (thresholds etc.) via the RCAP."""
        if self.model is None:
            raise RuntimeError("no model uploaded to AIM {}".format(
                self.node_id))
        self.model.configure(**params)

    def __repr__(self):
        model_name = self.model.name if self.model is not None else None
        return "AIM(node={}, model={})".format(self.node_id, model_name)
