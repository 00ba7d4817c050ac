"""Tests for the package's public surface."""

import ast
import importlib.util
from pathlib import Path

import qthermo

ROOT = Path(__file__).resolve().parents[1]


def test_public_names_resolve_once():
    # A stale __all__ breaks ``from qthermo import *``.
    assert len(qthermo.__all__) == len(set(qthermo.__all__))
    missing = [name for name in qthermo.__all__ if not hasattr(qthermo, name)]
    assert missing == []


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # No linter is a dependency, so this scan stands in for one.  The
    # package __init__ is skipped: its imports are the re-exported API.
    files = [p for p in sorted((ROOT / "src/qthermo").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    assert [u for p in files for u in _unused_imports(p)] == []


def _gibbs_solver_calls(path: Path) -> list[str]:
    """``GibbsSolver(...)`` calls in a module, as 'file:line in function'."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "GibbsSolver":
                found.append(f"{path.relative_to(ROOT)}:{node.lineno} in {where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def test_gibbs_solver_is_constructed_in_one_place():
    # One solver per H_E: every internal caller goes through thermo._solver,
    # which caches the solver on the HermitianMatrix it was built from.
    calls = [c for p in sorted((ROOT / "src/qthermo").glob("*.py"))
             for c in _gibbs_solver_calls(p)]
    assert [c for c in calls if not c.endswith(" in _solver")] == []
    assert len(calls) == 2 and all(c.startswith("src/qthermo/thermo.py:") for c in calls)


def _numpy_linalg_uses(path: Path) -> list[str]:
    """``np.linalg`` / ``numpy.linalg`` references and imports, as 'file:line'."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute):
            hit = node.attr == "linalg" and getattr(node.value, "id", None) in ("np", "numpy")
        elif isinstance(node, ast.Import):
            hit = any(alias.name.startswith("numpy.linalg") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").startswith("numpy.linalg") or node.module == "numpy" \
                and any(alias.name == "linalg" for alias in node.names)
        else:
            hit = False
        if hit:
            found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def test_verify_decomposes_only_through_the_library_kernels():
    # verify checks the code users call: every eigendecomposition, QR and
    # matrix function goes through the linalg and thermo kernels.
    assert _numpy_linalg_uses(ROOT / "src/qthermo/verify.py") == []
    # The scan does see a direct call.
    assert _numpy_linalg_uses(ROOT / "src/qthermo/linalg.py") != []


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", ROOT / "bench/tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_names_resolve():
    # The benchmark tracer patches these names by lookup at run time, so a
    # renamed or moved entry point breaks it without failing any import.
    tracing = _load_tracing()
    for layer in tracing.LAYERS:
        importlib.import_module(f"qthermo.{layer}")
    missing = []
    for layer, names in tracing.SPANS.items():
        for dotted in names:
            owner, attr = tracing._resolve(layer, dotted)
            if not callable(getattr(owner, attr, None)):
                missing.append(f"{layer}.{dotted}")
    for layer, names in tracing.COUNTS.values():
        for dotted in names:
            # Counters wrap the attribute the class itself defines.
            owner, attr = tracing._resolve(layer, dotted)
            if not callable(vars(owner).get(attr)):
                missing.append(f"{layer}.{dotted}")
    assert missing == []
