"""Every name a package module imports is used by it: a stale import
costs start-up time and hides which module a decision lives in."""

import ast
from pathlib import Path

import pytest

import ietwords

# the package re-exports its API from ``__init__``, which uses no name
MODULES = sorted(
    path for path in Path(ietwords.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names bound by an import in ``source`` and never read, where a
    name is read wherever it appears in an expression, ``x.attr`` included."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        # a __future__ import sets a compiler flag and binds nothing read
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport os, sys\nfrom x import a, b as c\nsys.exit(c)\n"
    assert unused_imports(source) == ["os (line 2)", "a (line 3)"]
