# tests/test_layout.py
#
# Modules of the package talk to each other only through public names, so a
# private helper can be renamed or removed without touching its siblings.

import ast
import importlib
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "postdist"
README = PACKAGE.parents[1] / "README.md"


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_private_names_imported_from_siblings(module):
    tree = ast.parse((PACKAGE / module).read_text())
    private = [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "postdist")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"{module} imports private sibling names: {private}"


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_no_unused_imports(module):
    # __init__.py is exempt: its imports are the package's re-exports.
    tree = ast.parse((PACKAGE / module).read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)
    assert not unused, f"{module} imports names it never uses: {unused}"


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_undeclared_dependencies(module):
    # numpy is the only runtime dependency pyproject.toml declares; scipy may
    # be installed beside it, but the package must not come to rely on it.
    nodes = list(ast.walk(ast.parse((PACKAGE / module).read_text())))
    names = [(n.lineno, a.name) for n in nodes if isinstance(n, ast.Import) for a in n.names]
    names += [(n.lineno, n.module) for n in nodes if isinstance(n, ast.ImportFrom) and n.level == 0]
    scipy = [f"line {line}: {name}" for line, name in names if name.split(".")[0] == "scipy"]
    assert not scipy, f"{module} imports scipy: {scipy}"


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_private_names(module):
    # A private helper that its own module never reads is dead code: no
    # sibling may import it. Dunder names such as __all__ are exempt.
    tree = ast.parse((PACKAGE / module).read_text())
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = sorted(
        f"line {line}: {name}"
        for name, line in defined.items()
        if name.startswith("_") and not name.endswith("__") and name not in read
    )
    assert not unused, f"{module} defines private names it never reads: {unused}"


def test_readme_dotted_names_resolve():
    names = sorted(set(re.findall(r"postdist\.([a-z_]+)\.([A-Za-z_]\w*)", README.read_text())))
    assert names
    missing = [
        f"postdist.{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(f"postdist.{module}"), name)
    ]
    assert not missing, f"README.md names what the package lacks: {missing}"


def _identifiers(module: str) -> set[str]:
    # Every name a module reads, imports or takes as an attribute.
    nodes = list(ast.walk(ast.parse((PACKAGE / module).read_text())))
    names = {n.id for n in nodes if isinstance(n, ast.Name)}
    names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    return names | {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}


def test_one_rule_for_a_bad_argument():
    # linalg states the integer rule once (`check_integer`, over `is_integer`)
    # and the real-number rule once (`is_real`, the only `math.isfinite`); the
    # other modules call them instead of restating them. A seed is keyed as it
    # is, with no mask. A bad argument has one error class, InvalidInputError,
    # and no module keeps a second name for it.
    modules = sorted(p.name for p in PACKAGE.glob("*.py"))
    restating = [m for m in modules if m != "linalg.py" and "is_integer" in _identifiers(m)]
    assert not restating, f"modules that name is_integer: {restating}"
    masking = [m for m in modules if "SEED_MASK" in _identifiers(m)]
    assert not masking, f"modules that name SEED_MASK: {masking}"
    finite_tests = [
        m
        for m in modules
        if m != "linalg.py"
        and any(
            isinstance(node, ast.Attribute)
            and node.attr == "isfinite"
            and getattr(node.value, "id", None) == "math"
            or isinstance(node, ast.ImportFrom)
            and node.module == "math"
            and any(alias.name == "isfinite" for alias in node.names)
            for node in ast.walk(ast.parse((PACKAGE / m).read_text()))
        )
    ]
    assert not finite_tests, f"modules that call math.isfinite: {finite_tests}"
    aliasing = [
        m
        for m in modules
        if "ParameterError" in _identifiers(m)
        or any(
            getattr(node, "name", None) == "ParameterError"
            for node in ast.walk(ast.parse((PACKAGE / m).read_text()))
        )
    ]
    assert not aliasing, f"modules that define or import ParameterError: {aliasing}"


def test_only_distances_runs_the_optimizer():
    # `maximize` runs one budget per call; the other modules reach it only
    # through distances' estimates, and theorems needs none of its kernel kit.
    callers = sorted(
        p.name
        for p in PACKAGE.glob("*.py")
        if p.name not in ("distances.py", "__init__.py") and "maximize" in _identifiers(p.name)
    )
    assert not callers, f"modules that name maximize: {callers}"
    # Inside distances, only distance_batch runs it, from the restart streams it
    # draws (`_starts`): every estimate goes through one batch.
    tree = ast.parse((PACKAGE / "distances.py").read_text())
    for name in ("maximize", "_starts"):
        users = sorted(
            getattr(node, "name", f"line {node.lineno}")
            for node in tree.body
            if any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(node))
        )
        assert users == ["distance_batch"], f"distances code that names {name}: {users}"
    kit = {
        "kraus_images",
        "pure_outputs",
        "renormalized",
        "pullback",
        "herm_sign",
        "herm_trace_norms",
        "unit_pairs",
        "unit_pairs_gradient",
    }
    assert not kit & _identifiers("theorems.py"), sorted(kit & _identifiers("theorems.py"))


def test_only_channels_extends_kraus_operators_by_an_ancilla():
    # channels.apply is the one place that applies K_e (x) I_anc to a matrix;
    # distances reaches the extended action only through it.
    assert "kron" not in _identifiers("distances.py")
