"""Docs link check: every relative markdown link, and every markdown file
named in a ``src/`` or ``benchmarks/`` docstring or string, must resolve.

Scans ``README.md`` and every ``docs/*.md`` for markdown links
(``[text](target)``), skips external schemes (``http://``, ``https://``,
``mailto:``) and pure in-page anchors (``#...``), and verifies each
remaining target exists relative to the file that links it (dropping any
``#fragment``).  Then scans the string literals (docstrings included) of
every ``*.py`` file under ``src/`` and ``benchmarks/`` for ``*.md`` file
names and verifies each exists relative to the repo root or to the
naming file's directory.  Exits non-zero listing every dangling link or
name — wired into ``make lint`` so a moved file breaks the build, not
the docs.

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


def source_files():
    """Every ``*.py`` file under the :data:`SOURCE_TREES`."""
    paths = []
    for tree in SOURCE_TREES:
        for directory, _dirs, names in sorted(
            os.walk(os.path.join(REPO_ROOT, tree))
        ):
            paths.extend(
                os.path.join(directory, name)
                for name in sorted(names) if name.endswith(".py")
            )
    return paths


def missing_markdown(path):
    """The ``*.md`` names in one Python file's string literals that exist
    neither under the repo root nor next to the file."""
    with open(path, "rb") as handle:
        tree = ast.parse(handle.read(), path)
    bases = (REPO_ROOT, os.path.dirname(path))
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for name in MD_NAME_RE.findall(node.value):
                if not any(
                    os.path.exists(os.path.join(base, name))
                    for base in bases
                ):
                    missing.append(name)
    return missing


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
    if failures:
        print("{} dangling link(s) or name(s)".format(failures),
              file=sys.stderr)
        return 1
    print("docs links ok ({} docs, {} sources)".format(
        len(files), len(sources)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
