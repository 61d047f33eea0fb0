"""Pin the layering: storage and shard sit below the serving layer.

A shard worker is an engine on a pipe; if it (or the engine) reaches up
into ``repro.server`` — even lazily, inside a function — the serving
tier can no longer be swapped or slimmed without touching the store.
Walks the AST so function-local imports count too.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
LOWER = ("storage", "shard")
FORBIDDEN = "repro.server"


def _imported_modules(path):
    """Absolute dotted names of everything ``path`` imports."""
    package = list(path.relative_to(SRC).with_suffix("").parts[:-1])
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] \
                if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            for alias in node.names:   # ``from .. import server``
                yield "%s.%s" % (module, alias.name)


@pytest.mark.parametrize("package", LOWER)
def test_lower_layers_do_not_import_the_server(package):
    offenders = []
    files = sorted((SRC / "repro" / package).rglob("*.py"))
    assert files, "no sources found under %s" % package
    for path in files:
        for module in _imported_modules(path):
            if module == FORBIDDEN or module.startswith(FORBIDDEN + "."):
                offenders.append("%s imports %s"
                                 % (path.relative_to(SRC), module))
    assert not offenders, "\n".join(offenders)
