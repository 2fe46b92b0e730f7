"""The conjugation chain of a matrix's Sturmian morphisms has one source:
``matrices._labelled`` names it, and the preservation checker decides
the chains its caller names.  So the suites read no built pair, and the
checker neither counts nor rotates a chain itself."""

import ast

from test_dead_helpers import PACKAGE, read_names


def imported_names(tree: ast.AST) -> set[str]:
    """The names that the ``from ... import`` statements of ``tree`` bind."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_the_suites_read_no_built_pair():
    tree = ast.parse((PACKAGE / "verification.py").read_text())
    assert "brute_force_pairs" not in read_names(tree) | imported_names(tree)


def test_the_checker_finds_no_chain_itself():
    tree = ast.parse((PACKAGE / "amicability.py").read_text())
    assert not {"_turns", "_rotated"} & (read_names(tree) | imported_names(tree))


def test_a_read_and_an_import_are_both_seen():
    tree = ast.parse("from m import _turns\nx = matrices.brute_force_pairs\n")
    assert "_turns" in imported_names(tree)
    assert "brute_force_pairs" in read_names(tree)
