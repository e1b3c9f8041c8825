"""Only the NoC writes a packet's routing state.

A packet's status, provider, reroute count, bounced-off set, delivery
time, hop count and corruption flag decide what ``Network.stats``
counts, and those counts are hashed into every stored record.  The
network owns them: every module under ``src/repro`` outside
``repro/noc`` is parsed with :mod:`ast`, and none may assign (or
delete) one of these attributes on anything but ``self``.  A model, a
PE or a workload that needs a packet to move asks the network to move
it.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).resolve().parent

#: Packet attributes only ``repro.noc`` may write.
ROUTING_STATE = frozenset({
    "status", "dest_node", "reroutes", "tried", "delivered_at", "hops",
    "corrupted",
})


def routing_state_writes(tree):
    """``(line, attribute)`` of each write of a routing-state attribute
    on anything but ``self`` in ``tree``, in source order."""
    writes = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and node.attr in ROUTING_STATE
            and not (isinstance(node.value, ast.Name)
                     and node.value.id == "self")
        ):
            writes.append((node.lineno, node.attr))
    return sorted(writes)


def _writes_by_module():
    found = {}
    for path in sorted(ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        writes = routing_state_writes(tree)
        if writes:
            found[path.relative_to(ROOT.parent).as_posix()] = writes
    return found


def test_routing_state_written_only_in_noc():
    found = _writes_by_module()
    # The walk sees the network's own writes, so it is not vacuous.
    assert "repro/noc/network.py" in found
    outside = {
        module: writes for module, writes in found.items()
        if not module.startswith("repro/noc/")
    }
    assert not outside, (
        "packet routing state written outside repro.noc: {}".format(outside)
    )


def test_detector_flags_writes_on_anything_but_self():
    tree = ast.parse(
        "packet.reroutes += 1\n"
        "self.status = 'done'\n"
        "a.tried, b.hops = set(), 0\n"
        "packet.payload = None\n"
        "del pe.queue[0].delivered_at\n"
        "print(packet.status)\n"
    )
    assert routing_state_writes(tree) == [
        (1, "reroutes"), (3, "hops"), (3, "tried"), (5, "delivered_at"),
    ]
