"""Source guards: module boundaries that the library keeps by construction.

The package source is parsed with ``ast``, never imported.  No module may
import another module's private (underscore) name, and only ``spectral`` may
call an eigensolver, so every eigenvalue the library reports has passed its
asymmetry certificate.  Only ``metastable.build_chain`` splits a generator
into its slow-fast pair; every other reader takes the built chain.  No
``dirichlet_form`` or ``carrier`` call sits in a loop body or a
comprehension: a block of functions is one call, so one carrier.  Every
exported name has a reader outside the tests, or a reason to stay public.
"""

import ast
from pathlib import Path

import sipspectra

PACKAGE = Path(sipspectra.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
EIGENSOLVERS = {"eigvalsh", "eigh", "eigsh", "eig"}
LOOPS = (ast.For, ast.AsyncFor, ast.While)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

# exported names that no criterion, CLI path or perfbench workload reads
PUBLIC_API = {
    "open_generator_apply": "pointwise oracle of the open generator in eigen_lift_residual",
    "lift_F": "pointwise oracle of the duality lift in eigen_lift_residual",
    "gap_induction_check": "the rigid-eigenstructure induction step, kept until a criterion reads it",
    "contraction_map": "the log-concave level-lowering step, kept until a criterion reads it",
}


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


def _looped_call_sites(names: set[str]) -> set[str]:
    """module.function of every call to one of ``names`` made in a loop body
    (a ``while`` test included) or a comprehension."""
    sites = set()

    def visit(node, module, where, looped):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where, looped = node.name, False
        elif looped and isinstance(node, ast.Call) and _called(node) in names:
            sites.add(f"{module}.{where}")
        for field, value in ast.iter_fields(node):
            inner = looped or isinstance(node, COMPREHENSIONS) or (
                isinstance(node, LOOPS) and field in ("body", "test"))
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child, module, where, inner)

    for module, tree in _modules():
        visit(tree, module, None, False)
    return sites


def _reads(tree) -> set[str]:
    """Identifiers and attribute names that a tree reads."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def _is_all(stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)


def _exported() -> set[str]:
    """Every name in a module's ``__all__`` or imported by ``__init__``."""
    names = set()
    for module, tree in _modules():
        for stmt in tree.body:
            if _is_all(stmt):
                names |= {elt.value for elt in stmt.value.elts}
            elif module == "__init__" and isinstance(stmt, ast.ImportFrom):
                names |= {alias.name for alias in stmt.names}
    return names


def _package_readers() -> set[str]:
    """Names read by a package statement other than ``__init__``, an
    ``__all__`` list or the name's own definition."""
    read = set()
    for module, tree in _modules():
        if module == "__init__":
            continue
        for stmt in tree.body:
            if not _is_all(stmt):
                read |= _reads(stmt) - {getattr(stmt, "name", None)}
    return read


def _perfbench_readers() -> set[str]:
    """Names the benchmark imports from the package, reads as attributes of
    a package module, or traces by a ``layers.py`` target string."""
    read = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {"sipspectra"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sipspectra"):
                names = {alias.asname or alias.name for alias in node.names}
                read |= names
                if node.module == "sipspectra":
                    modules |= names
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id in modules}
        if path.name == "layers.py":
            for stmt in tree.body:
                target = stmt.targets[0] if isinstance(stmt, ast.Assign) else getattr(stmt, "target", None)
                if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED"):
                    read |= {part for value in stmt.value.values for node in ast.walk(value)
                             if isinstance(node, ast.Constant)
                             for part in node.value.split(".")[1:]}
    return read


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


def test_no_carrier_is_built_inside_a_loop():
    assert _looped_call_sites({"dirichlet_form", "carrier"}) == set()


def test_every_exported_name_has_a_reader_outside_the_tests():
    unread = _exported() - _package_readers() - _perfbench_readers()
    only_tests = sorted(unread - set(PUBLIC_API))
    assert only_tests == [], f"exported names that only tests read: {only_tests}"
    stale = sorted(set(PUBLIC_API) - unread)
    assert stale == [], f"allow-listed names that are read or gone: {stale}"
