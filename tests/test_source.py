"""Checks on the package source itself."""

import ast
import importlib
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


def _top_level_names(path):
    """Names a module binds at top level by def, class or assignment."""
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_every_export_is_defined_in_the_package():
    """Each name in __all__ resolves on the package to the object a package module defines."""
    defined = {path.stem: _top_level_names(path) for path in SOURCES if path.stem != "__init__"}
    stale = []
    for name in submodzeta.__all__:
        homes = [stem for stem, names in defined.items() if name in names]
        if not hasattr(submodzeta, name) or len(homes) != 1:
            stale.append(name)
            continue
        module = importlib.import_module(f"submodzeta.{homes[0]}")
        if getattr(module, name) is not getattr(submodzeta, name):
            stale.append(name)
    assert stale == []


def test_every_top_level_definition_has_a_caller():
    """Each top-level function or class of a package module is used by some
    package module outside its own definition; re-exports in __init__.py do
    not count, so nothing stays in the package for the tests alone."""
    defined = {}
    used = set()
    for path in SOURCES:
        if path.stem == "__init__":
            continue
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = f"{path.name}:{node.lineno} {node.name}"
                names.discard(node.name)
            used |= names
    assert len(defined) > 50
    assert sorted(loc for name, loc in defined.items() if name not in used) == []
