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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """Module-level ``_`` functions, classes and constants, and ``_`` methods."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, ast.Assign):
            found += [(t.id, node.lineno) for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.append((node.target.id, node.lineno))
        if isinstance(node, ast.ClassDef):
            found += [(m.name, m.lineno) for m in node.body
                      if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [(name, line) for name, line in found if _is_private(name)]


def _unreferenced_private(sources: dict[str, str]) -> list[str]:
    """Private definitions whose name no module in ``sources`` loads, as 'file:line name'."""
    trees = {path: ast.parse(text, filename=path) for path, text in sources.items()}
    loaded = {node.id if isinstance(node, ast.Name) else node.attr
              for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    return [f"{path}:{line} {name}" for path, tree in trees.items()
            for name, line in _private_definitions(tree) if name not in loaded]


def test_no_unreferenced_private_definitions():
    # Dead private code: a helper, constant or method left behind when its
    # last caller went.  An import is not a load: a name imported elsewhere
    # but never used there is the unused-import scan's to catch.
    sources = {str(p.relative_to(ROOT)): p.read_text()
               for p in sorted((ROOT / "src/qthermo").glob("*.py"))}
    assert _unreferenced_private(sources) == []
    # The scan does see unreferenced names.
    synthetic = ("_USED = 1\n_STRAY = 2\n\n\ndef _f():\n    return _USED\n\n\n"
                 "class _C:\n    def __init__(self):\n        _f()\n\n"
                 "    def _m(self):\n        pass\n")
    assert _unreferenced_private({"m.py": synthetic}) == ["m.py:2 _STRAY", "m.py:9 _C",
                                                          "m.py:13 _m"]


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


def _kron_calls(path: Path) -> list[str]:
    """``np.kron`` / ``numpy.kron`` references and imports, as 'file:line'."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute):
            hit = node.attr == "kron" and getattr(node.value, "id", None) in ("np", "numpy")
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "numpy" and any(alias.name == "kron" for alias in node.names)
        else:
            hit = False
        if hit:
            found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def test_kronecker_products_go_through_one_routine():
    # Every Kronecker product in the package is linalg._kron, on stacks or on stacks of one.
    files = sorted((ROOT / "src/qthermo").glob("*.py"))
    assert [c for p in files for c in _kron_calls(p)] == []
    # The scan does see a call.
    assert _kron_calls(ROOT / "tests/test_linalg.py") != []


_MATRIX_TYPES = {"HermitianMatrix", "DensityMatrix"}


def _matrix_coercions(path: str, text: str) -> list[str]:
    """``if not isinstance(x, T): x = T(x)`` and ``x if isinstance(x, T) else T(x)`` for a
    matrix type T, and their variants, as 'file:line'."""
    found = []
    for node in ast.walk(ast.parse(text, filename=path)):
        if not isinstance(node, (ast.If, ast.IfExp)):
            continue
        tested = {name.id for call in ast.walk(node.test) if isinstance(call, ast.Call)
                  and getattr(call.func, "id", None) == "isinstance" and len(call.args) == 2
                  for name in ast.walk(call.args[1]) if isinstance(name, ast.Name)}
        branches = [node.body, node.orelse] if isinstance(node, ast.IfExp) \
            else node.body + node.orelse
        built = {getattr(call.func, "id", None) for branch in branches
                 for call in ast.walk(branch) if isinstance(call, ast.Call)}
        if tested & built & _MATRIX_TYPES:
            found.append(node.lineno)
    return [f"{path}:{line}" for line in sorted(found)]


def test_matrix_arguments_are_coerced_in_one_place():
    # Array-like or validated matrix arguments become validated objects through
    # HermitianMatrix._of / DensityMatrix._of; no other module copies the rule.
    files = [p for p in sorted((ROOT / "src/qthermo").glob("*.py")) if p.name != "linalg.py"]
    assert [c for p in files for c in _matrix_coercions(str(p.relative_to(ROOT)),
                                                          p.read_text())] == []
    # The scan does see each form.
    synthetic = ("if not isinstance(a, HermitianMatrix):\n    a = HermitianMatrix(a)\n"
                 "b = b if isinstance(b, DensityMatrix) else DensityMatrix(b)\n"
                 "if isinstance(c, (HermitianMatrix, int)):\n    pass\n"
                 "else:\n    c = HermitianMatrix(c)\n"
                 "if not isinstance(d, HermitianMatrix):\n    d = GibbsSolver(d)\n")
    assert _matrix_coercions("m.py", synthetic) == ["m.py:1", "m.py:3", "m.py:4"]


def _scalar_coercions(path: str, text: str) -> list[str]:
    """Numeric coercions of an outside value, as 'file:line in function': ``float``, ``int``
    or ``complex`` of a parameter or of a ``self`` attribute (a dataclass field), an
    ``np.asarray`` or ``np.array`` of one with a dtype, and a bool test ``isinstance(x, bool)``."""
    found = []

    def outside(node, params):
        return (isinstance(node, ast.Name) and node.id in params
                or isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self")

    def visit(node, where, params):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            where, params = node.name, {a.arg for a in args.posonlyargs + args.args
                                        + args.kwonlyargs} - {"self", "cls"}
        if isinstance(node, ast.Call):
            f, first = node.func, node.args[0] if node.args else None
            name = getattr(f, "id", None) or getattr(f, "attr", None)
            if name == "isinstance" and len(node.args) == 2:
                hit = any(getattr(n, "id", None) == "bool" for n in ast.walk(node.args[1]))
            elif name in ("float", "int", "complex"):
                hit = isinstance(f, ast.Name) and len(node.args) == 1 and outside(first, params)
            else:
                hit = name in ("asarray", "array") and outside(first, params) \
                    and any(k.arg == "dtype" for k in node.keywords)
            if hit:
                found.append(f"{path}:{node.lineno} in {where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where, params)

    visit(ast.parse(text, filename=path), "<module>", set())
    return found


def test_scalar_arguments_are_coerced_in_one_place():
    # Every real, inverse temperature and count from outside is read once, by the readers
    # in linalg (_as_real, _as_reals, _as_complex, _as_int), the JSON layer's included.
    files = [p for p in sorted((ROOT / "src/qthermo").glob("*.py")) if p.name != "linalg.py"]
    found = [c for p in files for c in _scalar_coercions(str(p.relative_to(ROOT)), p.read_text())]
    assert found == []
    # The scan does see each form, and not a coercion of a local value.
    synthetic = ("def f(x, y, *, z):\n    a = float(x)\n    b = np.asarray(y, dtype=float)\n"
                 "    c = float(a) + complex(z)\n    return isinstance(a, (int, bool))\n\n\n"
                 "class C:\n    def __post_init__(self):\n        int(self.n)\n")
    assert _scalar_coercions("m.py", synthetic) == ["m.py:2 in f", "m.py:3 in f", "m.py:4 in f",
                                                    "m.py:5 in f", "m.py:10 in __post_init__"]


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
