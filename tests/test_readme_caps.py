"""The caps README.md states are the caps of the source: each backticked
``module.MAX_X = value`` names a module-level constant of that value,
every module-level ``MAX_*`` constant of the package is stated there, and
the command block's list of ``--max-norm`` caps names each command and
suite with its cap."""

import ast
import importlib
import re
from pathlib import Path

import ietwords
from ietwords import cli, verification

PACKAGE = Path(ietwords.__file__).parent
README = PACKAGE.parents[1] / "README.md"


def integer(expression: str) -> int:
    """An integer written with digits, ``*`` and ``**`` only, as README and
    the source write their caps (``50_000`` and ``50000`` read alike)."""

    def evaluate(node: ast.expr) -> int:
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return node.value
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            return evaluate(node.left) * evaluate(node.right)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            return evaluate(node.left) ** evaluate(node.right)
        raise ValueError(f"{expression!r} is no product of powers of integers")

    return evaluate(ast.parse(expression, mode="eval").body)


def stated_caps() -> list[tuple[str, int]]:
    """``module.MAX_X`` and its value, each time README.md states a cap."""
    pattern = re.compile(r"`(\w+\.MAX_\w+) = ([^`]+)`")
    return [(name, integer(value)) for name, value in pattern.findall(README.read_text())]


def defined_caps() -> set[str]:
    """``module.MAX_X`` for each ``MAX_*`` name a package module binds at
    its top level."""
    caps = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                caps.update(
                    f"{path.stem}.{target.id}"
                    for target in node.targets
                    if isinstance(target, ast.Name) and target.id.startswith("MAX_")
                )
    return caps


def test_each_stated_cap_is_a_constant_of_that_value():
    stated = stated_caps()
    assert stated
    for name, value in stated:
        module, constant = name.split(".")
        source = importlib.import_module(f"ietwords.{module}")
        assert constant in vars(source), f"README states {name}, which the source lacks"
        assert getattr(source, constant) == value, (name, getattr(source, constant), value)


def test_each_cap_of_the_source_is_stated():
    assert defined_caps() - {name for name, _ in stated_caps()} == set()


def listed_norm_caps() -> dict[str, int]:
    """Each command or suite and its ``--max-norm`` cap, as the comments
    of README.md's command block list them: ``--max-norm below 2, or
    above 300 for count, 125 for counting, ...;``."""
    comments = " ".join(
        line.lstrip("# ").strip() for line in README.read_text().splitlines()
        if line.startswith("#")
    )
    listed = re.search(r"--max-norm below 2, or above (.*?);", comments)
    assert listed, "README's command block lists no --max-norm caps"
    return {name: int(cap) for cap, name in re.findall(r"(\d+) for ([\w-]+)", listed[1])}


def test_the_command_block_lists_each_norm_cap():
    suites = {
        name: getattr(verification, f"MAX_{name.replace('-', '_').upper()}_NORM")
        for name in verification.SUITES
    }
    assert listed_norm_caps() == {"count": cli.MAX_COUNT_NORM, **suites}
