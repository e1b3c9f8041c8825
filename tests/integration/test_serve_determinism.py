"""Serve determinism: the daemon path is byte-invisible in the store.

The load-bearing contract of ``campaign serve``: a spec submitted over
HTTP must produce cell keys and record lines **byte-identical** to the
same spec run sequentially via ``run_campaign`` (the ``campaign
--spec`` path).  Real simulations on the shortened small platform — one
sequential root, one served root, then a line-level diff and a clean
``campaign compare`` between them.  On the served root a resubmission
and an overlapping tenant execute nothing, and the daemon's shutdown
leaves the dedup index on disk.
"""

import json
import os

import pytest

from repro.analysis import report as analysis_report
from repro.campaign.client import CampaignClient
from repro.campaign.executor import run_campaign
from repro.campaign.index import INDEX_FILE
from repro.campaign.serve import CampaignServer
from repro.campaign.spec import CampaignSpec
from repro.platform.config import PlatformConfig

#: Shortened small-platform grid: 2 models × 1 seed × 2 fault counts.
_CONFIG = PlatformConfig.small(horizon_us=120_000, fault_time_us=60_000)
_NAME = "served"
_TENANT = "tenant"


def make_spec():
    return CampaignSpec(
        name=_NAME,
        models=("none", "foraging_for_work"),
        seeds=(21,),
        fault_counts=(0, 2),
        config=_CONFIG,
        kind="table2",
    )


def read_lines(root, name=_NAME):
    """``key -> raw line`` of the campaign's results stream."""
    lines = {}
    path = os.path.join(root, name, "results.jsonl")
    with open(path, "rb") as handle:
        for line in handle:
            lines[json.loads(line)["key"]] = line
    return lines


@pytest.fixture(scope="module")
def roots(tmp_path_factory):
    """(sequential root, served root) holding the same completed spec.

    The served root also holds an overlapping tenant: the same grid
    under another name, submitted after a resubmission of the spec.
    """
    spec = make_spec()
    sequential_root = str(tmp_path_factory.mktemp("sequential"))
    served_root = str(tmp_path_factory.mktemp("served"))
    report = run_campaign(
        spec, store=os.path.join(sequential_root, _NAME), processes=0
    )
    assert report.executed == spec.size()
    with CampaignServer(served_root, workers=2) as daemon:
        client = CampaignClient(daemon.url)
        client.submit(spec.to_dict())
        final = client.wait(_NAME, timeout=600.0)
        client.submit(spec.to_dict())
        resubmitted = client.wait(_NAME, timeout=600.0)
        client.submit(dict(spec.to_dict(), name=_TENANT))
        tenant = client.wait(_TENANT, timeout=600.0)
    assert final.state == "completed"
    assert final.executed == spec.size()
    assert final.failed == 0
    assert (resubmitted.executed, resubmitted.cached) == (0, spec.size())
    assert (tenant.executed, tenant.deduped) == (0, spec.size())
    assert read_lines(served_root, _TENANT) == read_lines(served_root)
    # The clean shutdown persisted the dedup index for the next opener.
    assert os.path.exists(os.path.join(served_root, INDEX_FILE))
    return sequential_root, served_root


def test_served_records_byte_identical_to_sequential(roots):
    sequential_root, served_root = roots
    sequential = read_lines(sequential_root)
    served = read_lines(served_root)
    # Same cell keys (the hash contract) ...
    assert set(served) == set(sequential) == {
        descriptor.key() for descriptor in make_spec().expand()
    }
    # ... and the byte-identical record line for every one of them.
    assert served == sequential


def test_campaign_compare_between_roots_is_clean(roots):
    sequential_root, served_root = roots
    comparison = analysis_report.compare(sequential_root, served_root)
    assert comparison.ok(), analysis_report.format_comparison(comparison)
    # Byte-identical stores aggregate identically — zero regressions and
    # zero coverage drift in either direction.
    assert not comparison.regressions()
    assert not comparison.missing and not comparison.added
