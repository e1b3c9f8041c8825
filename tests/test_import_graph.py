"""The ``repro`` module import graph is acyclic.

Every module under ``src/repro`` is parsed with :mod:`ast`, so an import
inside a function counts like one at the top of the file: a lazy import
that only dodges a cycle at load time is still a cycle here.  Edges:

* ``import repro.x.y`` and ``from repro.x.y import name`` point at
  module ``repro.x.y`` (a package's module is its ``__init__``);
* ``from repro.x import y`` points at module ``repro.x.y`` when that
  module exists, else at package ``repro.x``;
* relative imports resolve against the importing module's package.

Nothing declares which package may import which: the graph is read from
the code, so the test needs no table kept in step with it.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).resolve().parent


def _module_name(path, root):
    parts = path.relative_to(root.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _imports(tree, name, is_package, modules):
    """Dotted names of what ``tree`` imports, function bodies included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = name if is_package else name.rpartition(".")[0]
                for _ in range(node.level - 1):
                    package = package.rpartition(".")[0]
                base = package + "." + base if base else package
            for alias in node.names:
                submodule = base + "." + alias.name
                yield submodule if submodule in modules else base


def import_graph(root):
    """``{module: set of modules it imports}`` for the package at ``root``.

    Only the package's own modules are nodes; imports from outside it
    (the standard library, third parties) are dropped.
    """
    paths = {
        _module_name(path, root): path for path in sorted(root.rglob("*.py"))
    }
    graph = {}
    for name, path in paths.items():
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        is_package = path.name == "__init__.py"
        graph[name] = {
            target
            for target in _imports(tree, name, is_package, paths)
            if target in paths and target != name
        }
    return graph


def find_cycle(graph):
    """One cycle of ``graph`` as a closed path ``[a, b, ..., a]``, or None.

    Depth-first in sorted order, so the same graph always reports the
    same cycle.
    """
    done = set()
    path = []
    on_path = set()

    def visit(node):
        path.append(node)
        on_path.add(node)
        for successor in sorted(graph[node]):
            if successor in on_path:
                return path[path.index(successor):] + [successor]
            if successor not in done:
                cycle = visit(successor)
                if cycle:
                    return cycle
        path.pop()
        on_path.discard(node)
        done.add(node)
        return None

    for node in sorted(graph):
        if node not in done:
            cycle = visit(node)
            if cycle:
                return cycle
    return None


def test_repro_import_graph_is_acyclic():
    graph = import_graph(ROOT)
    assert "repro.campaign.executor" in graph  # the walk found the tree
    cycle = find_cycle(graph)
    assert cycle is None, "import cycle: {}".format(" -> ".join(cycle))


def _write_package(root, files):
    """Write ``{"pkg/sub/name": source}`` as ``.py`` files under ``root``."""
    for relative, source in files.items():
        path = root / (relative + ".py")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root / "pkg"


def test_function_level_import_closes_a_cycle(tmp_path):
    root = _write_package(tmp_path, {
        "pkg/__init__": "",
        "pkg/low/__init__": "",
        "pkg/low/a": "def lazy():\n    from pkg.high import b\n",
        "pkg/high/__init__": "",
        "pkg/high/b": "from pkg.low.a import lazy\n",
    })
    graph = import_graph(root)
    assert graph["pkg.low.a"] == {"pkg.high.b"}
    assert find_cycle(graph) == ["pkg.high.b", "pkg.low.a", "pkg.high.b"]


def test_package_and_relative_imports_resolve(tmp_path):
    root = _write_package(tmp_path, {
        "pkg/__init__": "from pkg.sub import helper\n",
        "pkg/sub/__init__": "from .core import helper\n",
        "pkg/sub/core": "import os\nfrom .. import other\n",
        "pkg/other": "import pkg.sub\n",
    })
    graph = import_graph(root)
    # ``helper`` is no module: the edge goes to the package's __init__.
    assert graph["pkg"] == {"pkg.sub"}
    assert graph["pkg.sub"] == {"pkg.sub.core"}
    assert graph["pkg.sub.core"] == {"pkg.other"}
    assert graph["pkg.other"] == {"pkg.sub"}
    assert find_cycle(graph) == [
        "pkg.sub", "pkg.sub.core", "pkg.other", "pkg.sub"
    ]


def test_acyclic_graph_has_no_cycle():
    graph = {"a": {"b", "c"}, "b": {"c"}, "c": set()}
    assert find_cycle(graph) is None
