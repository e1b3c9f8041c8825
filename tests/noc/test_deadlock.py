"""Tests for the deadlock recovery mechanism."""

import pytest

from repro.noc.deadlock import DeadlockRecovery


def test_drop_accounting():
    recovery = DeadlockRecovery(wait_limit=1)
    recovery.record_drop(now=500)
    recovery.record_drop(now=900)
    assert recovery.drops == 2
    assert recovery.last_drop_time == 900


def test_non_positive_limit_rejected():
    with pytest.raises(ValueError):
        DeadlockRecovery(wait_limit=0)
