"""Docs link check: every relative markdown link, every markdown file
named in a ``src/`` or ``benchmarks/`` docstring or string, and every
Python file named by path in the docs or a ``src/``, ``benchmarks/`` or
``tests/`` docstring, must resolve.

Scans ``README.md`` and every ``docs/*.md`` for markdown links
(``[text](target)``), skips external schemes (``http://``, ``https://``,
``mailto:``) and pure in-page anchors (``#...``), and verifies each
remaining target exists relative to the file that links it (dropping any
``#fragment``).  Then scans the string literals (docstrings included) of
every ``*.py`` file under ``src/`` and ``benchmarks/`` for ``*.md`` file
names and verifies each exists relative to the repo root or to the
naming file's directory.  Last, it scans the same docs' text and the
module, class and function docstrings under ``src/``, ``benchmarks/``
and ``tests/`` for path-like ``*.py`` names
(``tests/sim/test_engine.py``, ``repro/noc/network.py`` — at least one
``/``) and verifies each exists relative to the repo root, to ``src/``
or to the naming file's directory.  Other string literals are data (a
test writes fixture files under any name it likes), so they are not
read for ``*.py`` paths.  Then every backticked ``make X`` in the same docs must name
a Makefile target (a line ``X:``; names holding ``*`` are patterns and
skipped).  Exits non-zero listing every dangling link or name — wired
into ``make lint`` so a moved file or a deleted target breaks the build,
not the docs.

Standard library only; run as ``python tools/check_doc_links.py`` from
the repo root (or anywhere — paths are anchored to this file).
"""

import ast
import os
import re
import sys

#: Repo root (this file lives in tools/).
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Markdown inline links: ``[text](target)``; images share the syntax.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Link targets that are not files to resolve.
EXTERNAL = ("http://", "https://", "mailto:")

#: Markdown file names in Python strings: ``README.md``, ``docs/cli.md``.
MD_NAME_RE = re.compile(r"[\w./-]*\w\.md\b")

#: Trees whose Python sources may name markdown files.
SOURCE_TREES = ("src", "benchmarks")

#: Python file names with a directory part: ``tests/sim/test_engine.py``,
#: ``repro/noc/network.py``.  A bare ``conftest.py`` is not a path.
PY_PATH_RE = re.compile(r"[\w./-]*/[\w.-]*\w\.py\b")

#: Trees whose Python sources may name Python files by path.
PY_SOURCE_TREES = SOURCE_TREES + ("tests",)

#: A backticked make invocation in the docs, e.g. `make test`.
MAKE_RE = re.compile(r"`make ([\w*-]+)")

#: Makefile target lines: ``test:``, ``bench-baseline:``.
TARGET_RE = re.compile(r"^([\w-]+):", re.MULTILINE)


def doc_files():
    """The markdown files under the check: README.md + docs/*.md."""
    paths = []
    readme = os.path.join(REPO_ROOT, "README.md")
    if os.path.exists(readme):
        paths.append(readme)
    docs = os.path.join(REPO_ROOT, "docs")
    if os.path.isdir(docs):
        for name in sorted(os.listdir(docs)):
            if name.endswith(".md"):
                paths.append(os.path.join(docs, name))
    return paths


def dangling_links(path):
    """The unresolvable relative link targets of one markdown file."""
    with open(path) as handle:
        text = handle.read()
    base = os.path.dirname(path)
    missing = []
    for target in LINK_RE.findall(text):
        if target.startswith(EXTERNAL) or target.startswith("#"):
            continue
        resolved = os.path.join(base, target.split("#", 1)[0])
        if not os.path.exists(resolved):
            missing.append(target)
    return missing


def source_files(trees=SOURCE_TREES):
    """Every ``*.py`` file under ``trees`` (default :data:`SOURCE_TREES`)."""
    paths = []
    for tree in trees:
        for directory, _dirs, names in sorted(
            os.walk(os.path.join(REPO_ROOT, tree))
        ):
            paths.extend(
                os.path.join(directory, name)
                for name in sorted(names) if name.endswith(".py")
            )
    return paths


#: Nodes whose first statement may be a docstring (the module too).
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _string_names(path, pattern, docstrings_only=False):
    """Every match of ``pattern`` in one Python file's string literals,
    or only in its module, class and function docstrings."""
    with open(path, "rb") as handle:
        tree = ast.parse(handle.read(), path)
    if docstrings_only:
        texts = [
            ast.get_docstring(node, clean=False) or ""
            for node in ast.walk(tree) if isinstance(node, DOCUMENTED)
        ]
    else:
        texts = [
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        ]
    return [name for text in texts for name in pattern.findall(text)]


def _missing(names, bases):
    """The ``names`` that exist under none of the ``bases``."""
    return [
        name for name in names
        if not any(os.path.exists(os.path.join(base, name))
                   for base in bases)
    ]


def missing_markdown(path):
    """The ``*.md`` names in one Python file's string literals that exist
    neither under the repo root nor next to the file."""
    return _missing(
        _string_names(path, MD_NAME_RE), (REPO_ROOT, os.path.dirname(path))
    )


def missing_python(path):
    """The path-like ``*.py`` names in one markdown file's text, or one
    Python file's docstrings, that exist neither under the repo root,
    under ``src/``, nor next to the file."""
    if path.endswith(".md"):
        with open(path) as handle:
            names = PY_PATH_RE.findall(handle.read())
    else:
        names = _string_names(path, PY_PATH_RE, docstrings_only=True)
    return _missing(
        names,
        (REPO_ROOT, os.path.join(REPO_ROOT, "src"), os.path.dirname(path)),
    )


def missing_make_targets(path, makefile=os.path.join(REPO_ROOT, "Makefile")):
    """The backticked ``make X`` names in one markdown file that are not
    targets of ``makefile``."""
    with open(makefile) as handle:
        targets = set(TARGET_RE.findall(handle.read()))
    with open(path) as handle:
        names = MAKE_RE.findall(handle.read())
    return [
        name for name in names if "*" not in name and name not in targets
    ]


def main():
    """Check every doc and source file; print what dangles and return 1
    on any."""
    files = doc_files()
    if not files:
        print("check_doc_links: no markdown files found", file=sys.stderr)
        return 1
    failures = 0
    for path in files:
        rel = os.path.relpath(path, REPO_ROOT)
        for target in dangling_links(path):
            print("{}: dangling link -> {}".format(rel, target))
            failures += 1
    sources = source_files()
    for path in sources:
        rel = os.path.relpath(path, REPO_ROOT)
        for name in missing_markdown(path):
            print("{}: names missing {}".format(rel, name))
            failures += 1
    py_sources = source_files(PY_SOURCE_TREES)
    for path in files + py_sources:
        rel = os.path.relpath(path, REPO_ROOT)
        for name in missing_python(path):
            print("{}: names missing {}".format(rel, name))
            failures += 1
    for path in files:
        rel = os.path.relpath(path, REPO_ROOT)
        for name in missing_make_targets(path):
            print("{}: names missing make target {}".format(rel, name))
            failures += 1
    if failures:
        print("{} dangling link(s) or name(s)".format(failures),
              file=sys.stderr)
        return 1
    print("docs links ok ({} docs, {} sources)".format(
        len(files), len(py_sources)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
