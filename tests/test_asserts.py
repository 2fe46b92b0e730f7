"""The package states its checks as explicit raises: ``python -O``
strips ``assert`` statements, so a check written as one silently
disappears."""

import ast
from pathlib import Path

import ietwords


def test_package_has_no_assert_statement():
    sources = sorted(Path(ietwords.__file__).parent.glob("*.py"))
    # the walk must see the package's modules
    assert {"__init__.py", "amicability.py", "matrices.py", "words.py"} <= {
        path.name for path in sources
    }
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
