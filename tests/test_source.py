"""Checks on the package source itself."""

import ast
import contextlib
import functools
import importlib
import io
import json
import os
from pathlib import Path

import submodzeta
from submodzeta.cli import ENV_PREFIX, main

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


def test_no_package_module_imports_random():
    """Counts and outputs must not depend on the global `random` state."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "random" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _package_imports(path):
    """Package modules a source file imports, by relative or absolute name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                found.update([module.split(".")[0]] if module else [a.name for a in node.names])
            elif module == "submodzeta":
                found.update(a.name for a in node.names)
            elif module.startswith("submodzeta."):
                found.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("submodzeta."))
    return found


def test_the_oracle_imports_no_formula_code():
    """`verify` checks the formulas against the oracle, so the oracle shares
    no code with them: it imports nothing of the package but `linalg`."""
    imports = _package_imports(Path(submodzeta.__file__).parent / "oracle.py")
    assert imports.isdisjoint({"canonical", "polyfactor", "zetacore", "cli"})
    assert imports == {"linalg"}


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


# Methods that Python calls on its own terms (printing a value in a failed
# assertion, dict and set membership) rather than on a command's behalf.
PROTOCOL_ONLY = {"__repr__", "__eq__", "__hash__"}


def _counted(fn, key, ran):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        ran.add(key)
        return fn(*args, **kwargs)
    return wrapper


def test_every_method_runs_under_some_command(monkeypatch):
    """Each method and property a package class body defines runs when the
    command line executes its recorded cases (tests/cli_golden.json), one
    {"n": ..., "entries": ...} matrix and one usage error; so no method stays
    in the package for the tests alone."""
    wrapped = set()
    ran = set()
    for path in SOURCES:
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"submodzeta.{path.stem}")
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, ast.ClassDef):
                continue
            cls = getattr(module, node.name)
            for item in node.body:
                if not isinstance(item, ast.FunctionDef) or item.name in PROTOCOL_ONLY:
                    continue
                key = f"{path.name}:{item.lineno} {node.name}.{item.name}"
                raw = cls.__dict__[item.name]
                if isinstance(raw, property):
                    new = property(_counted(raw.fget, key, ran), raw.fset, raw.fdel, raw.__doc__)
                elif isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(_counted(raw.__func__, key, ran))
                else:
                    new = _counted(raw, key, ran)
                monkeypatch.setattr(cls, item.name, new)
                wrapped.add(key)
    assert len(wrapped) > 40

    for name in list(os.environ):
        if name.startswith(ENV_PREFIX):
            monkeypatch.delenv(name)
    here = Path(__file__).parent
    monkeypatch.chdir(here)
    argvs = [case["argv"] for case in json.loads((here / "cli_golden.json").read_text())]
    argvs += [["analyze", '{"n": 2, "entries": [[0, 1], [-1, 0]]}'],
              ["analyze", "--format", "yaml"]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes = [main(argv) for argv in argvs]
    assert codes[-2:] == [0, 1]
    assert sorted(wrapped - ran) == []
