"""Smoke tests: every example script must run to completion.

Each ``examples/*.py`` script runs in-process and its output is checked
for a landmark line; ``test_every_example_is_tested`` fails when a script
is added without a test here.  The full-Centurion examples take a few
seconds each and are marked ``slow``.
"""

import re
import runpy
import tempfile
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "Initial task census" in out
    assert "Node 5 monitors" in out
    assert "Controller debug read" in out


def test_model_taxonomy(capsys):
    out = run_example("model_taxonomy.py", capsys)
    assert "Figure 1 factor taxonomy" in out
    assert "foraging_for_work" in out
    assert "network_interaction" in out
    # All nine factors printed.
    for factor in ("location", "nestmates", "ontogeny", "experience"):
        assert factor in out


def test_custom_intelligence(capsys):
    out = run_example("custom_intelligence.py", capsys)
    assert "thermal_foraging" in out
    assert "joins completed" in out


@pytest.mark.slow
def test_task_allocation(capsys):
    out = run_example("task_allocation.py", capsys)
    assert "Settling from the same random" in out


@pytest.mark.slow
def test_fault_tolerance(capsys):
    out = run_example("fault_tolerance.py", capsys)
    assert "retained" in out


@pytest.mark.slow
def test_telemetry(capsys, monkeypatch, tmp_path):
    # The example exports its series to a CSV in the temp directory and
    # must remove it again: nothing is left behind in tmp_path.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = run_example("telemetry.py", capsys)
    assert "Packet latency by destination task" in out
    assert "Exported 100 metric windows" in out
    assert list(tmp_path.iterdir()) == []


def test_every_example_is_tested():
    tested = set(re.findall(
        r'run_example\("(\w+\.py)"', Path(__file__).read_text()
    ))
    assert tested == {path.name for path in EXAMPLES.glob("*.py")}
