"""Every private top-level name of a package module is read somewhere in
the package or its tests: a helper that nothing reads any more is left
over from a change that replaced it."""

import ast
from pathlib import Path

import ietwords

PACKAGE = Path(ietwords.__file__).parent
TESTS = Path(__file__).parent


def private_definitions(source: str) -> dict[str, int]:
    """The private names that ``source`` binds at its top level, by a
    ``def``, a ``class`` or an assignment, with their lines; a dunder
    name is not private."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            bound = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in bound for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def read_names(source: str) -> set[str]:
    """The names ``source`` reads, as a plain name or as the attribute of
    ``module.name``; binding or importing a name does not read it."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def unread_private_names(modules: dict[str, str], readers: list[str]) -> list[str]:
    """The private top-level names of the sources ``modules``, by module
    name, that none of the sources ``readers`` reads."""
    read = set().union(*map(read_names, readers))
    return [
        f"{module}.{name} (line {line})"
        for module, source in modules.items()
        for name, line in private_definitions(source).items()
        if name not in read
    ]


def test_every_private_helper_is_read():
    modules = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    readers = [*modules.values(), *(path.read_text() for path in TESTS.glob("*.py"))]
    assert sum(map(len, map(private_definitions, modules.values()))) > 0
    assert unread_private_names(modules, readers) == []


def test_an_unread_helper_is_found():
    module = (
        "import re as _re\n"
        "_LIMIT = 3\n"
        "_A, (_B, c) = 1, (2, 3)\n"
        "__all__ = []\n"
        "def _used(): return _LIMIT\n"
        "def _dead(): pass\n"
        "class _Gone: pass\n"
    )
    reader = "from m import _dead\nm._used()\nm._A = 4\nprint(_B)\n"
    assert unread_private_names({"m": module}, [module, reader]) == [
        "m._A (line 3)", "m._dead (line 6)", "m._Gone (line 7)",
    ]
