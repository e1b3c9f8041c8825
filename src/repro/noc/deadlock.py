"""Deadlock recovery.

The Centurion router includes "a basic deadlock recovery mechanism ... not
guaranteed to alleviate all deadlock conditions or detect and release
deadlocked packets within any guaranteed timespan" (paper §III-A).  We model
the same best-effort behaviour: a packet that would wait longer than
``wait_limit`` µs for an output channel is treated as deadlocked and dropped,
and the drop is counted and reported to the router's monitors.  Dimension-
ordered XY routing is deadlock-free, so in the healthy mesh this mechanism
only fires under extreme congestion; with BFS detour routes around faults it
provides the recovery the paper describes.
"""


class DeadlockRecovery:
    """Best-effort deadlock detection by bounded channel wait.

    Parameters
    ----------
    wait_limit:
        Maximum µs a packet may wait for one output channel before being
        declared deadlocked (a wait equal to it is tolerated); ``None``
        disables recovery entirely.
    """

    def __init__(self, wait_limit=50_000):
        if wait_limit is not None and wait_limit <= 0:
            raise ValueError("wait_limit must be positive or None")
        self.wait_limit = wait_limit
        self.drops = 0
        self.last_drop_time = None

    def record_drop(self, now):
        """Account one recovered (dropped) packet."""
        self.drops += 1
        self.last_drop_time = now

    def __repr__(self):
        return "DeadlockRecovery(limit={}us, drops={})".format(
            self.wait_limit, self.drops
        )
