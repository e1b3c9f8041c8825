"""Closed-loop self-healing dynamics.

The paper's platform is *self-aware*: AIM monitors (temperature, node
frequency, watchdog signals) feed intelligence that actuates knobs
(frequency scaling, reset) to keep the system healthy.  The four
node-local dynamics models — :class:`~repro.node.thermal.ThermalModel`,
:class:`~repro.node.dvfs.FrequencyScaler`,
:class:`~repro.node.watchdog.Watchdog` and
:class:`~repro.noc.deadlock.DeadlockRecovery` — have been attached to
every node since the seed, but nothing closed the loop.  This module is
the monitor/actuator seam that does:

* **DVFS governors** (:data:`~repro.platform.config.GOVERNORS` config
  axis): a policy per node watches its temperature and throttles the
  frequency knob when it runs hot, which stretches service times
  through :meth:`~repro.node.dvfs.FrequencyScaler.scale_duration` — the
  first *feedback* fault, where the platform's own reaction is the
  perturbation.
* **Thermal storms** (scenario kind ``thermal_storm``): the fault
  injector pushes exogenous heat into victim nodes through
  :meth:`DynamicsController.inject_heat`, giving governors something to
  fight.
* **Watchdog-driven autonomous recovery** (``watchdog_recovery``
  config flag): when a node is fault-injected, the controller arms a
  check at the moment the node's watchdog would expire; if the node is
  still down it recovers it on its own — racing any scripted scenario
  recovery.  Recovery is idempotent (both paths go through
  ``ExperimentController.recover_node``, which is a no-op on a live
  node), so the loser of the race changes nothing.

Everything here is **event-driven, not per-tick**: governors evaluate on
the PE's ``on_execution_complete`` monitor event and on heat injection,
with one predicted cool-crossing wakeup per throttled node (closed-form
RC decay, so an idle throttled node restores without polling); watchdog
checks are scheduled once per kill at the exact expiry time.  A platform
with governor ``"none"`` and ``watchdog_recovery`` off registers no
observers and schedules no events — dynamics-free runs are byte-identical
to a build without this module.
"""


class HysteresisGovernor:
    """Two-threshold policy with a minimum dwell between changes.

    Throttles above ``hot_c``, restores only at or below ``cool_c``
    (<= ``hot_c``), and refuses any transition within ``dwell_us`` of
    the previous one — so the frequency knob can never oscillate faster
    than the dwell time (pinned by the hypothesis property layer).

    With ``cool_c == hot_c`` and no dwell it is the naive bang-bang
    ``"threshold-throttle"`` policy: both transitions trip on the same
    threshold, so a node hovering at the boundary chatters, which is
    the pathology the two thresholds and the dwell exist to fix.
    """

    def __init__(self, hot_c, cool_c, throttle_mhz, dwell_us):
        if cool_c > hot_c:
            raise ValueError("cool_c must not lie above hot_c")
        self.hot_c = hot_c
        self.cool_c = cool_c
        self.cool_target_c = cool_c
        self.throttle_mhz = throttle_mhz
        self.dwell_us = dwell_us
        self.changes = 0
        self._last_change_us = None

    def decide(self, now, temperature_c, throttled):
        """``"throttle"``, ``"restore"`` or ``None`` (hold / in dwell)."""
        if (
            self._last_change_us is not None
            and now - self._last_change_us < self.dwell_us
        ):
            return None
        if not throttled and temperature_c > self.hot_c:
            self._last_change_us = now
            self.changes += 1
            return "throttle"
        if throttled and temperature_c <= self.cool_c:
            self._last_change_us = now
            self.changes += 1
            return "restore"
        return None

    def earliest_change_us(self, now):
        """First time a transition is permitted again (dwell honoured)."""
        if self._last_change_us is None:
            return now
        return max(now, self._last_change_us + self.dwell_us)


def build_governor(config):
    """One fresh governor instance per node from the platform config.

    Returns ``None`` for governor ``"none"`` — no policy, no observers.
    """
    if config.dvfs_governor == "threshold-throttle":
        return HysteresisGovernor(
            hot_c=config.governor_hot_c,
            cool_c=config.governor_hot_c,
            throttle_mhz=config.governor_throttle_mhz,
            dwell_us=0,
        )
    if config.dvfs_governor == "hysteresis":
        return HysteresisGovernor(
            hot_c=config.governor_hot_c,
            cool_c=config.governor_cool_c,
            throttle_mhz=config.governor_throttle_mhz,
            dwell_us=config.governor_dwell_us,
        )
    return None


class DynamicsController:
    """The platform's monitor/actuator loop (one per platform).

    Parameters
    ----------
    platform:
        The :class:`~repro.platform.centurion.CenturionPlatform` whose
        nodes this controller governs.
    """

    def __init__(self, platform):
        self.platform = platform
        config = platform.config
        self.governor_name = config.dvfs_governor
        self.watchdog_recovery = config.watchdog_recovery
        self.recovery_remap = config.recovery_remap
        #: Throttle transitions actuated across all nodes.
        self.throttle_events = 0
        #: Nodes recovered by the watchdog path (not scripted recovery).
        self.autonomous_recoveries = 0
        #: Recovered blank nodes re-tasked by the fault-aware remap.
        self.recovery_remaps = 0
        #: Per-node governor instances (empty with governor "none").
        self.governors = {}
        self._throttled = set()
        #: Per-node due time of the one outstanding cool-crossing check.
        self._next_check = {}
        #: Per-node due time of the one outstanding watchdog check.
        self._wd_due = {}
        if self.governor_name != "none":
            for node_id, pe in platform.pes.items():
                self.governors[node_id] = build_governor(config)
                pe.add_observer(self)

    # -- PE monitor events ---------------------------------------------------

    def on_execution_complete(self, pe, _task_id):
        """Monitor event: re-evaluate the node's governor while it works."""
        self._evaluate(pe.node_id)

    # -- thermal-storm actuation ---------------------------------------------

    def inject_heat(self, victims, heat_c):
        """Push ``heat_c`` °C of exogenous heat into each victim node.

        Heat lands on every victim's thermal model (dead silicon warms
        too); governors of live victims re-evaluate immediately, so an
        idle hot node throttles at injection time instead of waiting for
        its next execution.  Returns the heated node ids.
        """
        now = self.platform.sim.now
        heated = []
        for node_id in victims:
            pe = self.platform.pes[node_id]
            pe.thermal.inject_heat(now, heat_c)
            heated.append(node_id)
        if self.governors:
            for node_id in heated:
                self._evaluate(node_id)
        return heated

    # -- governor loop -------------------------------------------------------

    def _evaluate(self, node_id):
        """Run the node's governor once against its current temperature."""
        governor = self.governors.get(node_id)
        if governor is None:
            return
        platform = self.platform
        pe = platform.pes[node_id]
        if pe.halted:
            return
        now = platform.sim.now
        throttled = node_id in self._throttled
        action = governor.decide(
            now, pe.thermal.temperature(now), throttled
        )
        if action == "throttle":
            pe.frequency.set_frequency(governor.throttle_mhz)
            self._throttled.add(node_id)
            self.throttle_events += 1
            if platform.trace is not None:
                platform.trace.record(
                    now, "node_throttled", node=node_id,
                    mhz=pe.frequency.current_mhz,
                )
        elif action == "restore":
            pe.frequency.set_frequency(pe.frequency.nominal_mhz)
            self._throttled.discard(node_id)
            if platform.trace is not None:
                platform.trace.record(
                    now, "node_restored", node=node_id,
                    mhz=pe.frequency.current_mhz,
                )
        if node_id in self._throttled:
            self._schedule_cool_check(node_id, governor)

    def _schedule_cool_check(self, node_id, governor):
        """Arm one wakeup at the node's predicted cool-crossing.

        An idle throttled node completes no executions, so without this
        it would stay throttled forever.  The ETA is the closed-form RC
        decay to the governor's restore target, pushed past any dwell;
        heat added in the meantime simply re-evaluates and re-arms at
        the new (later) crossing.  At most one check is outstanding per
        node — a superseded due time makes the stale event a no-op.
        """
        sim = self.platform.sim
        pe = self.platform.pes[node_id]
        eta = pe.thermal.cooldown_eta_us(sim.now, governor.cool_target_c)
        if eta is None:
            # Restore target at/below ambient: unreachable by cooling;
            # the node re-evaluates on its next execution instead.
            return
        due = max(
            sim.now + max(1, eta),
            governor.earliest_change_us(sim.now),
            sim.now + 1,
        )
        pending = self._next_check.get(node_id)
        if pending is not None and sim.now < pending <= due:
            return  # an earlier (or equal) check is already armed
        self._next_check[node_id] = due
        sim.schedule_at(
            due,
            lambda n=node_id, t=due: self._cool_check(n, t),
            priority=sim.PRIORITY_CONTROL,
        )

    def _cool_check(self, node_id, due):
        """Cool-crossing wakeup: re-evaluate unless superseded."""
        if self._next_check.get(node_id) != due:
            return  # a later re-arm superseded this check
        del self._next_check[node_id]
        if node_id in self._throttled:
            self._evaluate(node_id)

    # -- watchdog-driven autonomous recovery ---------------------------------

    def note_node_recovered(self, node_id):
        """Recovery hook: a rebooted node re-enters governance fresh.

        A reboot returns the clock to nominal, so a node killed *while
        throttled* must not come back stuck at the throttle frequency
        with no cool-check armed (its pending check no-ops on a halted
        node).  Clearing the pending due time also turns any stale
        scheduled check into a no-op.

        With ``recovery_remap="fault-aware"`` the rebooted node — which
        comes back blank — is first assigned the task with the largest
        census deficit (see
        :func:`repro.app.workloads.policies.remap_for_recovery`), so
        repair does not wait on the intelligence models.
        """
        if self.recovery_remap != "none":
            self._remap_recovered(node_id)
        if not self.governors:
            return
        if node_id in self._throttled:
            pe = self.platform.pes[node_id]
            pe.frequency.set_frequency(pe.frequency.nominal_mhz)
            self._throttled.discard(node_id)
        self._next_check.pop(node_id, None)

    def _remap_recovered(self, node_id):
        """Fault-aware remap actuation: re-task a recovered blank node."""
        from repro.app.workloads.policies import remap_for_recovery

        pe = self.platform.pes[node_id]
        if pe.halted or pe.task_id is not None:
            return
        task_id = remap_for_recovery(self.platform, node_id)
        if task_id is None:
            return
        pe.set_task(task_id, reason="recovery-remap")
        self.recovery_remaps += 1

    def note_node_killed(self, node_id):
        """Fault-injection hook: arm a watchdog check for a killed node.

        The check lands exactly when the node's watchdog expires (one
        past ``last_kick + timeout``, never before the kill itself).  A
        node killed again after recovery re-arms; the superseded due
        time makes the earlier pending check a no-op.
        """
        if not self.watchdog_recovery:
            return
        sim = self.platform.sim
        watchdog = self.platform.pes[node_id].watchdog
        due = max(
            watchdog.last_kick + watchdog.timeout_us + 1, sim.now + 1
        )
        self._wd_due[node_id] = due
        sim.schedule_at(
            due,
            lambda n=node_id, t=due: self._watchdog_check(n, t),
            priority=sim.PRIORITY_CONTROL,
        )

    def _watchdog_check(self, node_id, due):
        """Observe the node's watchdog; recover it if it truly expired.

        Observation goes through ``Watchdog.check_and_count`` so the
        ``expirations`` counter records exactly the expiries the
        controller saw.  A node whose scripted recovery won the race
        re-kicked its watchdog on restart, so the check reads healthy
        and recovers nothing — recovery happens exactly once, at
        ``min(scripted, watchdog)`` time.
        """
        if self._wd_due.get(node_id) != due:
            return  # re-armed by a later kill; this check is stale
        del self._wd_due[node_id]
        platform = self.platform
        pe = platform.pes[node_id]
        if not pe.watchdog.check_and_count(platform.sim.now):
            return  # recovered (and re-kicked) before expiry
        if not pe.halted:
            return  # alive but silent: not this controller's call
        platform.controller.recover_node(node_id)
        self.autonomous_recoveries += 1
        if platform.trace is not None:
            platform.trace.record(
                platform.sim.now, "watchdog_recovery", node=node_id,
            )

    def __repr__(self):
        return (
            "DynamicsController(governor={!r}, throttled={}, "
            "throttle_events={}, autonomous_recoveries={})".format(
                self.governor_name, len(self._throttled),
                self.throttle_events, self.autonomous_recoveries,
            )
        )
