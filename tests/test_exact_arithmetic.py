"""The orbit coder, the quadratic numbers and the word kernels decide
every comparison on integers: the fixed-point filter of
:mod:`ietwords.iet` is exact only because its rounding error is bounded
by integer arithmetic, and the balance test of :mod:`ietwords.words`
compares run lengths with a floor division of integers.  A float
anywhere in those modules would break that exactness."""

import ast
from pathlib import Path

import ietwords

EXACT_MODULES = ("iet.py", "quadratic.py", "words.py")


def float_uses(tree):
    """Float literals, calls of ``float`` and uses of ``math.sqrt`` (also
    imported by name) in a module's syntax tree, as descriptions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield f"float literal {node.value!r} at line {node.lineno}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            yield f"float() call at line {node.lineno}"
        elif isinstance(node, ast.Attribute) and node.attr == "sqrt" \
                and isinstance(node.value, ast.Name) and node.value.id == "math":
            yield f"math.sqrt at line {node.lineno}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math" \
                and any(alias.name == "sqrt" for alias in node.names):
            yield f"import of math.sqrt at line {node.lineno}"


def test_walk_finds_each_float_use():
    source = "import math\nfrom math import sqrt\nx = 0.5\ny = float(2)\nz = math.sqrt(2)\n"
    assert len(list(float_uses(ast.parse(source)))) == 4


def test_exact_modules_use_no_floats():
    package = Path(ietwords.__file__).parent
    found = {
        name: list(float_uses(ast.parse((package / name).read_text(), filename=name)))
        for name in EXACT_MODULES
    }
    assert found == {name: [] for name in EXACT_MODULES}
