"""Documentation health checks, run in CI and by tests/test_docs.py.

Five checks, all cheap and dependency-free:

1. **Markdown link check** — every relative link in the repo's
   markdown files must point at a file (or directory) that exists.
   External links (http/https/mailto) are *not* fetched; docs must
   stay checkable offline.
2. **pydoc smoke** — the public modules must import and render a help
   page, so a broken docstring (or a module broken at import time)
   fails the docs job, not a user's first `help(...)` call.
3. **Dotted-name check** — every backticked ``repro.…`` name in the
   reference docs must resolve to a module or attribute, so a deleted
   or renamed module cannot linger in them.  ROADMAP.md and CHANGES.md
   record history, so they are not checked.
4. **Flag-default check** — every numeric Default cell in the
   ``repro serve`` and ``repro loadgen`` flag tables of
   docs/OPERATIONS.md (§1.1, §1.2) must equal the default that
   ``repro.cli.build_parser()`` gives that flag.
5. **Config-default check** — the Storage configuration table of
   docs/OPERATIONS.md has exactly one row per ``StorageConfig`` field,
   and each Default cell equals that field's default, so a retired
   setting cannot linger in the docs.

Usage::

    PYTHONPATH=src python scripts/check_docs.py

Exit code 0 when everything passes, 1 with one line per problem
otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import glob
import importlib
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MARKDOWN_FILES = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "CHANGES.md",
    "docs/ARCHITECTURE.md",
    "docs/OPERATIONS.md",
)

# Docs that describe the code as it is now (history files excluded).
REFERENCE_FILES = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

# Modules whose help() page must render: the public API surface.
PYDOC_MODULES = (
    "repro",
    "repro.cli",
    "repro.core.result",
    "repro.core.tiles",
    "repro.core.m4lsm.operator",
    "repro.storage.engine",
    "repro.storage.config",
    "repro.query.session",
    "repro.server.client",
    "repro.server.service",
    "repro.shard",
    "repro.shard.placement",
    "repro.shard.protocol",
    "repro.shard.router",
    "repro.shard.worker",
)

# [text](target) — excluding images' leading ! doesn't matter for
# existence checking, so the pattern keeps it simple.
_LINK = re.compile(r"\[[^\]^\[]*\]\(([^)\s]+)\)")


def check_links(root=ROOT, files=MARKDOWN_FILES):
    """Return a list of "file: broken link" problem strings."""
    problems = []
    for rel in files:
        path = os.path.join(root, rel)
        if not os.path.exists(path):
            problems.append("%s: file listed in MARKDOWN_FILES is missing"
                            % rel)
            continue
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
        for target in _LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target = target.split("#", 1)[0]   # strip the anchor
            if not target:                     # pure in-page anchor
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target))
            if not os.path.exists(resolved):
                problems.append("%s: broken link -> %s" % (rel, target))
    return problems


_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")


def check_dotted_names(root=ROOT, files=None):
    """Return a list of "file: name" strings for backticked ``repro.…``
    names that resolve to no module or attribute."""
    if files is None:
        files = REFERENCE_FILES + tuple(sorted(
            os.path.relpath(path, root)
            for path in glob.glob(os.path.join(root, "docs", "*.md"))))
    problems = []
    for rel in files:
        with open(os.path.join(root, rel), "r", encoding="utf-8") as f:
            spans = _CODE_SPAN.findall(f.read())
        names = sorted({name for span in spans
                        for name in _DOTTED.findall(span)})
        for name in names:
            if not _resolves(name):
                problems.append("%s: `%s` does not resolve" % (rel, name))
    return problems


def _resolves(name):
    """True when ``name`` is a module, or an attribute path under the
    longest importable module prefix."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


# The OPERATIONS.md flag tables checked against the CLI parser:
# section heading -> subcommand.
FLAG_TABLES = {"### 1.1 `repro serve`": "serve",
               "### 1.2 `repro loadgen`": "loadgen"}

_FLAG_ROW = re.compile(r"^\| `(--[\w-]+)[^`]*` \| `?([^|`]*?)`? \|")
_NUMBER = re.compile(r"^-?\d+(?:\.\d+)?$")


def check_flag_defaults(root=ROOT, rel="docs/OPERATIONS.md"):
    """Return a list of "file: flag" strings for numeric Default cells
    that disagree with the CLI parser's default for that flag."""
    from repro.cli import build_parser

    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    with open(os.path.join(root, rel), "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    problems = []
    defaults = None
    for line in lines:
        if line.startswith("#"):
            command = FLAG_TABLES.get(line.strip())
            defaults = None if command is None else {
                flag: action.default
                for action in commands.choices[command]._actions
                for flag in action.option_strings}
            continue
        match = _FLAG_ROW.match(line) if defaults is not None else None
        if match is None or not _NUMBER.match(match.group(2)):
            continue
        flag, cell = match.groups()
        if flag not in defaults:
            problems.append("%s: %s is not a flag of the parser"
                            % (rel, flag))
        elif float(cell) != defaults[flag]:
            problems.append("%s: %s default is %s, the parser says %r"
                            % (rel, flag, cell, defaults[flag]))
    return problems


CONFIG_TABLE = "### Storage configuration"

_CONFIG_ROW = re.compile(r"^\| `(\w+)` \| `([^`|]*)` \|")


def _config_cell(value):
    """A ``StorageConfig`` default as the docs table writes it."""
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def check_config_defaults(root=ROOT, rel="docs/OPERATIONS.md"):
    """Return a list of "file: field" strings where the Storage
    configuration table and ``dataclasses.fields(StorageConfig)``
    disagree: a missing row, a row naming no field, or a wrong
    default."""
    from repro.storage.config import StorageConfig

    defaults = {field.name: _config_cell(field.default)
                for field in dataclasses.fields(StorageConfig)}
    with open(os.path.join(root, rel), "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    rows = {}
    in_table = False
    for line in lines:
        if line.startswith("#"):
            in_table = line.strip() == CONFIG_TABLE
            continue
        match = _CONFIG_ROW.match(line) if in_table else None
        if match is not None:
            rows[match.group(1)] = match.group(2)
    problems = []
    for name, cell in rows.items():
        if name not in defaults:
            problems.append("%s: %s is not a StorageConfig field"
                            % (rel, name))
        elif cell != defaults[name]:
            problems.append("%s: %s default is %s, StorageConfig says %s"
                            % (rel, name, cell, defaults[name]))
    for name in defaults:
        if name not in rows:
            problems.append("%s: StorageConfig field %s has no row in %r"
                            % (rel, name, CONFIG_TABLE))
    return problems


def check_pydoc(modules=PYDOC_MODULES):
    """Return a list of "module: error" strings for unrenderable docs."""
    import pydoc

    problems = []
    for name in modules:
        try:
            text = pydoc.render_doc(name, renderer=pydoc.plaintext)
        except Exception as exc:                  # import or doc failure
            problems.append("%s: pydoc failed: %s" % (name, exc))
            continue
        if not text.strip():
            problems.append("%s: pydoc rendered an empty page" % name)
    return problems


def main():
    problems = (check_links() + check_pydoc() + check_dotted_names()
                + check_flag_defaults() + check_config_defaults())
    for problem in problems:
        print("docs check: %s" % problem, file=sys.stderr)
    if not problems:
        print("docs check: %d markdown files, %d modules OK"
              % (len(MARKDOWN_FILES), len(PYDOC_MODULES)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
