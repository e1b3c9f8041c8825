"""Shared fixtures and helpers for the test suite."""

import importlib.util
from pathlib import Path

import pytest

from repro.sim.engine import Simulator


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden files under tests/experiments/golden/ "
             "with freshly computed values instead of comparing",
    )


@pytest.fixture
def update_golden(request):
    """True when the run should refresh golden files, not check them."""
    return request.config.getoption("--update-golden")


@pytest.fixture
def sim():
    """A fresh simulator with a fixed seed."""
    return Simulator(seed=1234)


class RecordingObserver:
    """Observer stub recording every event it receives."""

    def __init__(self):
        self.routed = []
        self.dropped = []
        self.sinks = []
        self.completions = []
        self.task_changes = []

    def on_packet_routed(self, router, packet, to_internal):
        self.routed.append((router.node_id, packet.dest_task, to_internal))

    def on_packet_dropped(self, router, packet):
        self.dropped.append((router.node_id, packet.packet_id))

    def on_internal_sink(self, pe, packet):
        self.sinks.append((pe.node_id, packet.dest_task))

    def on_execution_complete(self, pe, task_id):
        self.completions.append((pe.node_id, task_id))

    def on_task_changed(self, pe, old, new):
        self.task_changes.append((pe.node_id, old, new))


@pytest.fixture
def recording_observer():
    return RecordingObserver()


@pytest.fixture(scope="session")
def count_calls():
    """The ``tools/count_calls.py`` module behind ``make counters``."""
    path = Path(__file__).resolve().parents[1] / "tools" / "count_calls.py"
    spec = importlib.util.spec_from_file_location("count_calls", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
