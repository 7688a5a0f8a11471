"""Source guards: module boundaries that the library keeps by construction.

The package source is parsed with ``ast``, never imported.  No module may
import another module's private (underscore) name, and only ``spectral`` may
call an eigensolver, so every eigenvalue the library reports has passed its
asymmetry certificate.
"""

import ast
from pathlib import Path

import sipspectra

PACKAGE = Path(sipspectra.__file__).resolve().parent
EIGENSOLVERS = {"eigvalsh", "eigh", "eigsh", "eig"}


def _modules():
    return [(path.stem, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(PACKAGE.glob("*.py"))]


def test_the_package_has_modules_to_scan():
    names = {name for name, _ in _modules()}
    assert {"spectral", "experiments", "intertwiners", "cli"} <= names


def test_no_module_imports_a_private_name_of_another():
    found = [f"{name}: from .{node.module} import {alias.name}"
             for name, tree in _modules()
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level > 0
             for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_only_spectral_calls_an_eigensolver():
    found = []
    for name, tree in _modules():
        if name == "spectral":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called in EIGENSOLVERS:
                found.append(f"{name}:{node.lineno} calls {called}")
    assert found == []
