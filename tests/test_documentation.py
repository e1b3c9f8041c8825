"""Documentation guarantees.

The deliverable includes "doc comments on every public item"; this test
walks the installed package and enforces it: every module, every public
class and every public function/method carries a docstring.  Names the
docs point at must exist too: every Sphinx-role reference to ``repro.…``
in the source and every backticked ``repro.…`` name in README.md and
docs/*.md imports and resolves, so a deleted function cannot leave a
stale reference behind.  Every markdown file a source file under
``src/`` or ``benchmarks/`` names must exist.
"""

import importlib
import inspect
import os
import pkgutil
import re

import pytest

import repro


def _walk_modules():
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        modules.append(importlib.import_module(info.name))
    return modules


MODULES = _walk_modules()


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), (
        "module {} lacks a docstring".format(module.__name__)
    )


def _public_classes():
    seen = set()
    for module in MODULES:
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if name.startswith("_") or cls.__module__ != module.__name__:
                continue
            if cls in seen:
                continue
            seen.add(cls)
            yield cls


@pytest.mark.parametrize(
    "cls", sorted(_public_classes(), key=lambda c: c.__qualname__),
    ids=lambda c: "{}.{}".format(c.__module__, c.__qualname__),
)
def test_public_class_documented(cls):
    assert cls.__doc__ and cls.__doc__.strip(), (
        "class {} lacks a docstring".format(cls.__qualname__)
    )
    for name, member in inspect.getmembers(cls, inspect.isfunction):
        if name.startswith("_") or member.__qualname__.split(".")[0] != (
            cls.__qualname__
        ):
            continue
        assert member.__doc__ and member.__doc__.strip(), (
            "method {}.{} lacks a docstring".format(cls.__qualname__, name)
        )


def _public_functions():
    for module in MODULES:
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != module.__name__:
                continue
            yield fn


@pytest.mark.parametrize(
    "fn", sorted(_public_functions(), key=lambda f: f.__qualname__),
    ids=lambda f: "{}.{}".format(f.__module__, f.__qualname__),
)
def test_public_function_documented(fn):
    assert fn.__doc__ and fn.__doc__.strip(), (
        "function {} lacks a docstring".format(fn.__qualname__)
    )


#: ``:func:`repro.x.y``` and ``:meth:`~repro.x.Y.z``` style references.
_ROLE_REF = re.compile(
    r":(?:func|class|meth|mod|attr|data):`~?(repro(?:\.\w+)+)`"
)
#: A whole backticked dotted name in Markdown, e.g. `repro.campaign.rows`.
_MARKDOWN_REF = re.compile(r"`(repro(?:\.\w+)+)`")


def _unresolved(name):
    """None when dotted ``name`` imports and resolves, else the reason."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(target, attr):
                return "{!r} has no attribute {!r}".format(target, attr)
            target = getattr(target, attr)
        return None
    return "no importable module prefix"


def test_source_references_resolve():
    unresolved = []
    for module in MODULES:
        for name in _ROLE_REF.findall(inspect.getsource(module)):
            reason = _unresolved(name)
            if reason:
                unresolved.append((module.__name__, name, reason))
    assert not unresolved, unresolved


def test_markdown_references_resolve():
    checker = _load_link_checker()
    unresolved = []
    for path in checker.doc_files():
        with open(path) as handle:
            names = _MARKDOWN_REF.findall(handle.read())
        for name in names:
            reason = _unresolved(name)
            if reason:
                where = os.path.relpath(path, checker.REPO_ROOT)
                unresolved.append((where, name, reason))
    assert not unresolved, unresolved


def _load_link_checker():
    import importlib.util

    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "tools", "check_doc_links.py",
    )
    spec = importlib.util.spec_from_file_location("check_doc_links", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_exist():
    checker = _load_link_checker()
    names = {os.path.relpath(p, checker.REPO_ROOT)
             for p in checker.doc_files()}
    assert {"README.md", os.path.join("docs", "architecture.md"),
            os.path.join("docs", "cli.md")} <= names


def test_docs_relative_links_resolve():
    checker = _load_link_checker()
    dangling = {
        path: checker.dangling_links(path)
        for path in checker.doc_files()
    }
    assert all(not missing for missing in dangling.values()), dangling


def test_source_markdown_names_exist():
    checker = _load_link_checker()
    sources = checker.source_files()
    assert os.path.join(
        checker.REPO_ROOT, "src", "repro", "platform", "config.py"
    ) in sources
    missing = {path: checker.missing_markdown(path) for path in sources}
    assert all(not names for names in missing.values()), missing


def test_missing_markdown_flags_a_dangling_name(tmp_path):
    checker = _load_link_checker()
    source = tmp_path / "module.py"
    source.write_text('"""See DESIGN.md and README.md."""\n')
    assert checker.missing_markdown(str(source)) == ["DESIGN.md"]


def test_python_paths_exist():
    checker = _load_link_checker()
    paths = checker.doc_files() + checker.source_files(
        checker.PY_SOURCE_TREES
    )
    assert os.path.join(
        checker.REPO_ROOT, "tests", "test_documentation.py"
    ) in paths
    missing = {path: checker.missing_python(path) for path in paths}
    assert all(not names for names in missing.values()), missing


def test_missing_python_flags_a_dangling_path(tmp_path):
    checker = _load_link_checker()
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "real.py").write_text("")
    real, gone = "pkg/real.py", "pkg/gone.py"
    source = tmp_path / "module.py"
    source.write_text(
        '"""See {}, {}, tools/check_doc_links.py, repro/sim/engine.py '
        'and conftest.py."""\n'.format(gone, real)
    )
    assert checker.missing_python(str(source)) == [gone]
    doc = tmp_path / "notes.md"
    doc.write_text("Run `{}`, not `{}`.\n".format(real, gone))
    assert checker.missing_python(str(doc)) == [gone]


def test_missing_python_reads_only_docstrings(tmp_path):
    checker = _load_link_checker()
    source = tmp_path / "module.py"
    # A code literal is data: a test may write a fixture under any name.
    source.write_text('FIXTURE = "pkg/low/a.py"\n')
    assert checker.missing_python(str(source)) == []
    source.write_text(
        '"""Module."""\n\n\nclass Reader:\n'
        '    def read(self):\n        """Reads pkg/low/a.py."""\n'
    )
    assert checker.missing_python(str(source)) == ["pkg/low/a.py"]


def test_docs_make_targets_exist():
    checker = _load_link_checker()
    missing = {
        path: checker.missing_make_targets(path)
        for path in checker.doc_files()
    }
    assert all(not names for names in missing.values()), missing


def test_missing_make_targets_flags_an_unknown_target(tmp_path):
    checker = _load_link_checker()
    makefile = tmp_path / "Makefile"
    makefile.write_text(
        "PYTHON ?= python\n\ntest:\n\tpytest\n\n"
        "bench-baseline:\n\tpython -m bench\n\n.PHONY: test\n"
    )
    doc = tmp_path / "notes.md"
    doc.write_text(
        "Run `make test` or `make bench-baseline`, not `make gone` "
        "(`make bench-*` is a pattern; `make PYTHON` is no target).\n"
    )
    assert checker.missing_make_targets(str(doc), str(makefile)) == [
        "gone", "PYTHON",
    ]
