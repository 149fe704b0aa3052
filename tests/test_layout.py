# tests/test_layout.py
#
# Modules of the package talk to each other only through public names, so a
# private helper can be renamed or removed without touching its siblings.

import ast
import importlib
import os
import re
import subprocess
import sys
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


# `import postdist` loads the core eagerly and the verification layer on first use.
CORE = ("linalg", "channels", "distances")
PUBLIC_NAMES = [
    "AscentResult", "CapacityError", "Channel", "DIM_CAP", "DensityMatrix", "DistanceEstimate",
    "GALLERY_NAMES", "InvalidInputError", "MEASURES", "OptimizerConfig", "PureState", "RunConfig",
    "STATEMENT_IDS", "TheoremReport", "ValidityError", "alpha_necessity_report", "apply",
    "apply_renormalized", "channel_from_json", "channel_to_json", "channels", "check_conversion",
    "check_diamond_from_state_distance", "check_dilation_norm_identity",
    "check_isometry_approximation", "check_postselected_contractivity",
    "check_postselected_diamond_bound", "check_postselected_dilation_bound",
    "check_postselected_subadditivity", "check_state_distance_doubling", "check_subadditivity",
    "check_trace_preserving_diamond_bound", "choi_to_kraus", "compose", "contractivity_curve",
    "contractivity_report", "contractivity_triple", "conversion_factor", "conversion_pair",
    "dense_oracle", "diamond_norm_channel", "distance", "distance_batch", "distances",
    "environment_vector", "evaluate_witness", "format_suite_results", "gallery", "hermitian_eig",
    "hermitianize", "is_hermitian", "isometry", "kraus_to_choi", "linalg", "maximize",
    "nonconvexity_curve", "nonconvexity_pair", "nonconvexity_report", "normalize_suite_ids",
    "operator_norm", "output_separation_bound", "partial_trace", "phase_mixture_states",
    "random_channel", "random_density", "random_pure", "read_channel", "require_postselection",
    "run_statement", "run_suite", "scale", "stinespring", "suite_passed", "suites", "teleportation",
    "tensor_with_identity", "theorems", "trace_norm", "write_channel",
]


def test_import_postdist_loads_only_the_core():
    script = (
        "import sys, postdist\n"
        "print(sorted(m for m in sys.modules if m.startswith('postdist')))\n"
        "postdist.run_suite\n"
        "print(sorted(m for m in sys.modules if m.startswith('postdist')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    eager, used = (ast.literal_eval(line) for line in run.stdout.splitlines())
    assert eager == sorted(["postdist", *(f"postdist.{m}" for m in CORE)])
    assert used == sorted([*eager, "postdist.suites", "postdist.theorems"])


def test_public_names_resolve_eagerly_or_on_first_use():
    import postdist

    assert postdist.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(postdist))
    for name in PUBLIC_NAMES:
        namespace = {}
        exec(f"from postdist import {name}", namespace)
        assert namespace[name] is getattr(postdist, name), name
    assert postdist.run_suite is postdist.suites.run_suite
    assert postdist.TheoremReport is postdist.theorems.TheoremReport
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(postdist, "no_such_name")
    assert not hasattr(postdist, "no_such_name")


def _postdist_imports(nodes) -> list[tuple[int, str]]:
    # (line, submodule) for each import of a postdist module among the nodes.
    imported = []
    for node in nodes:
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("postdist" if node.level else "", node.module)))
            paths = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        imported += [(node.lineno, p.split(".")[1]) for p in paths if p.startswith("postdist.")]
    return imported


@pytest.mark.parametrize("module", CORE)
def test_the_core_imports_only_the_core(module):
    # One import of theorems, suites or cli here would load the verification
    # layer on every `import postdist` again.
    imported = _postdist_imports(ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())))
    outside = [f"line {line}: {name}" for line, name in imported if name not in CORE]
    assert not outside, f"{module}.py imports from outside the core: {outside}"


def _module_level(tree: ast.Module):
    # The nodes that run on import: everything outside function and class bodies.
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def test_cli_imports_the_verification_layer_only_where_it_runs():
    # `verify` and `curve` import suites and theorems inside their commands, so
    # `postdist dist` and `postdist example` never compile them.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    eager = [f"line {line}: {name}" for line, name in _postdist_imports(_module_level(tree))]
    eager = [entry for entry in eager if entry.endswith((": suites", ": theorems"))]
    assert not eager, f"cli.py imports the verification layer on import: {eager}"


def test_dist_and_example_commands_load_only_the_core(tmp_path):
    script = (
        "import sys\n"
        "from postdist import cli\n"
        f"out = {str(tmp_path)!r}\n"
        "assert cli.main(['example', 'conversion_pair', '--out-dir', out]) == 0\n"
        "files = [f'{out}/conversion_pair_{i}.json' for i in (0, 1)]\n"
        "assert cli.main(['dist', 'dtrD', *files, '--restarts', '2', '--max-iter', '3']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('postdist')))\n"
        "assert cli.main(['curve', '--figure', '1', '--epsilon', '0.25', '--grid', '3']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('postdist')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    listed = [line for line in run.stdout.splitlines() if line.startswith("[")]
    core, curve = (ast.literal_eval(line) for line in listed)
    assert core == sorted(["postdist", "postdist.cli", *(f"postdist.{m}" for m in CORE)])
    assert curve == sorted([*core, "postdist.theorems"])
