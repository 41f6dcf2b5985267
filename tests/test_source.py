"""Checks on the package source itself."""

import ast
from pathlib import Path

import submodzeta

SOURCES = sorted(Path(submodzeta.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    """Self-checks must raise: `python -O` strips assert statements."""
    assert SOURCES
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
