"""Every private top-level name of a package module is read somewhere in
the package or its tests, and every public function and class is read
by the package or named in the README: a helper that nothing reads any
more is left over from a change that replaced it, and an oracle that
only tests read belongs with them."""

import ast
import re
from pathlib import Path

import ietwords

PACKAGE = Path(ietwords.__file__).parent
TESTS = Path(__file__).parent
README = TESTS.parent / "README.md"

# the constructors of the two kinds of word, for callers and tests: the
# package itself builds each word as a FiniteWord
PUBLIC_ALLOWANCE = {"words.binary_word", "words.ternary_word"}


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


def read_names(tree: ast.AST) -> set[str]:
    """The names the syntax ``tree`` reads, as a plain name or as the
    attribute of ``module.name``; binding or importing a name does not
    read it, and neither does a docstring or a comment."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def unread_private_names(modules: dict[str, str], readers: list[str]) -> list[str]:
    """The private top-level names of the sources ``modules``, by module
    name, that none of the sources ``readers`` reads."""
    read = set().union(*(read_names(ast.parse(reader)) for reader in readers))
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


def unread_public_names(modules: dict[str, str], readme: str) -> list[str]:
    """The public top-level functions and classes of the sources
    ``modules``, by module name, that no other top-level statement of
    them reads and that ``readme`` does not name."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    statements = [(node, read_names(node)) for tree in trees.values() for node in tree.body]
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or re.search(rf"\b{node.name}\b", readme):
                continue
            if not any(node.name in read for other, read in statements if other is not node):
                unread.append(f"{module}.{node.name} (line {node.lineno})")
    return unread


def test_every_public_name_is_read_or_documented():
    modules = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    unread = unread_public_names(modules, README.read_text())
    assert [entry for entry in unread if entry.split()[0] not in PUBLIC_ALLOWANCE] == []


def test_an_unread_public_name_is_found():
    module = (
        "def used(): return Own()\n"
        "def documented(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def mentioned():\n"
        "    \"\"\"Not read by used() or by Own.\"\"\"\n"
        "    # recursive() is named here only\n"
        "class Own:\n"
        "    def copy(self): return Own()\n"
        "class Lone:\n"
        "    def copy(self): return Lone()\n"
        "def _private(): return used()\n"
    )
    reader = "from m import mentioned\nimport m\nx = m.used\n"
    assert unread_public_names({"m": module, "r": reader}, "see `documented`") == [
        "m.recursive (line 3)", "m.mentioned (line 4)", "m.Lone (line 9)",
    ]
