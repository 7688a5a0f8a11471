"""Source guards: module boundaries that the library keeps by construction.

The package source is parsed with ``ast``, never imported.  No module may
import another module's private (underscore) name, and only ``spectral`` may
call an eigensolver, so every eigenvalue the library reports has passed its
asymmetry certificate.  Only ``metastable.build_chain`` splits a generator
into its slow-fast pair; every other reader takes the built chain.
"""

import ast
from pathlib import Path

import sipspectra

PACKAGE = Path(sipspectra.__file__).resolve().parent
EIGENSOLVERS = {"eigvalsh", "eigh", "eigsh", "eig"}


def _modules():
    return [(path.stem, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(PACKAGE.glob("*.py"))]


def _called(node: ast.Call):
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _call_sites(name: str) -> list[tuple[str, str | None]]:
    """(module, innermost enclosing function) of every call to ``name``."""
    sites = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Call) and _called(child) == name:
                sites.append((module, where))
            visit(child, module, where)

    for module, tree in _modules():
        visit(tree, module, None)
    return sites


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
            called = _called(node)
            if called in EIGENSOLVERS:
                found.append(f"{name}:{node.lineno} calls {called}")
    assert found == []


def test_only_build_chain_splits_into_the_slow_fast_pair():
    assert _call_sites("build_slow_fast") == [("metastable", "build_chain")]
