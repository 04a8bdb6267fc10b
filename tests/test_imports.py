"""Every name a library module imports is used in that module, every
private module-level name is referenced somewhere in the library, every
exported function or class has a caller in the program, and one routine
holds the library's only ODE integration."""

import ast
from pathlib import Path

import pytest

import hjsing

PACKAGE = Path(hjsing.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]   # __init__ imports to re-export
BENCHMARK = sorted((PACKAGE.parents[1] / "hjbench").rglob("*.py"))

# exported functions and classes that no program code calls, each with its reason
ALLOWED_EXPORTS = {
    # the paper's backward operator T^- in the a-priori ball, which the
    # operator tests call; the program runs localized_convolution directly
    "lax_oleinik_minus",
}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _defined_names(stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [
        getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _referenced_names(stmt) -> set:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced_private_names(sources: dict) -> list:
    """(module, name) of the module-level names with one leading underscore
    that no other top-level statement of any module references."""
    defined, referenced = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            referenced.append((stmt, _referenced_names(stmt)))
            defined += [(module, name, stmt) for name in _defined_names(stmt)
                        if name.startswith("_") and not name.startswith("__")]
    return sorted((module, name) for module, name, stmt in defined
                  if not any(name in names for other, names in referenced
                             if other is not stmt))


def _loaded_names(stmt) -> set:
    """Names a statement reads, as a plain name or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def exports_without_callers(init_source: str, modules: dict, callers: list) -> list:
    """The public functions and classes that the package ``__init__``
    re-exports (``from .module import name``) and that no top-level
    statement of ``modules`` or ``callers`` reads, apart from the one that
    defines it.  ``modules`` maps a module name to its source; ``callers``
    holds the sources of the program code outside the package."""
    trees = {module: ast.parse(source).body for module, source in modules.items()}
    defined = {(module, stmt.name): stmt for module, body in trees.items() for stmt in body
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
    statements = [stmt for body in trees.values() for stmt in body]
    statements += [stmt for source in callers for stmt in ast.parse(source).body]
    reads = [(stmt, _loaded_names(stmt)) for stmt in statements]
    exported = [(node.module, alias.name) for node in ast.parse(init_source).body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names if not alias.name.startswith("_")]
    return sorted(name for module, name in exported if (module, name) in defined
                  and not any(name in names for stmt, names in reads
                              if stmt is not defined[(module, name)]))


def test_scan_finds_exports_without_callers():
    init = "from .a import K, f, g, _h\nfrom .b import CONST, use\n"
    modules = {
        "a": "class K:\n    pass\n\ndef f():\n    pass\n\n"
             "def g(n):\n    return g(n - 1)\n\ndef _h():\n    pass\n",
        "b": "from .a import f\n\nCONST = 1\n\ndef use():\n    return f()\n",
    }
    callers = ["import lib\n\nlib.K()\n"]
    assert exports_without_callers(init, modules, callers) == ["g", "use"]
    callers.append("from lib import use\n\nuse()\n")
    assert exports_without_callers(init, modules, callers) == ["g"]


def test_every_export_has_a_caller():
    modules = {p.stem: p.read_text() for p in MODULES}
    callers = [p.read_text() for p in BENCHMARK]
    init = (PACKAGE / "__init__.py").read_text()
    assert set(exports_without_callers(init, modules, callers)) == ALLOWED_EXPORTS


def test_scan_finds_unused_names():
    source = "from typing import Callable, Optional\nimport os.path\nx: Optional[int] = 0\n"
    assert unused_imports(source) == [(1, "Callable"), (2, "os")]


def test_scan_finds_unreferenced_private_names():
    sources = {
        "a": "_K = 2\n_SELF = 1\n\ndef _rec(n):\n    return _rec(n - 1)\n\n"
             "def _helper():\n    return _K\n",
        "b": "from .a import _helper\n\ndef public():\n    return _helper()\n"
             "\n__version__ = '1'\n",
    }
    assert unreferenced_private_names(sources) == [("a", "_SELF"), ("a", "_rec")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_private_names_referenced():
    assert unreferenced_private_names({p.name: p.read_text() for p in SOURCES}) == []


def call_sites(source: str, name: str) -> list:
    """The enclosing class/function path of each call of ``name`` (by name or
    as an attribute) in a module, one entry per call."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            func = getattr(child, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) == name:
                sites.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return sites


def solve_ivp_calls(source: str) -> int:
    """The calls of ``solve_ivp`` (by name or as an attribute) in a module."""
    return len(call_sites(source, "solve_ivp"))


def test_one_characteristic_integrator():
    # every characteristic runs in singular's own batched Dormand-Prince loop
    assert sum(solve_ivp_calls(p.read_text()) for p in SOURCES) == 0


def test_one_legendre_hamiltonian_site():
    # a model without a closed-form Hamiltonian gets one when it is built
    sites = [(p.name, site) for p in SOURCES
             for site in call_sites(p.read_text(), "hamiltonian_from_lagrangian")]
    assert sites == [("model.py", "LagrangianModel.__post_init__")]
