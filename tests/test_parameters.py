"""Every defaulted parameter of a library function is passed by some call
in the program: the library itself or the benchmark.

A default that no program call overrides is a constant in disguise; it
belongs in the function body or in a named module constant.  Tests are not
counted: a setting that only a test makes is no reason for an option.
"""

import ast
from pathlib import Path

import hjsing

PACKAGE = Path(hjsing.__file__).parent
CALLERS = [PACKAGE.parent, PACKAGE.parents[1] / "hjbench"]

# defaulted parameters that no program call passes, each with its reason
ALLOWED = {
    # the entry point: the console script calls main() and reads sys.argv
    ("cli.py", "main", "argv"),
    # the config sets it through lagrangian_by_key(key, dimension, **kwargs),
    # which the scan counts for lagrangian_by_key, not for sine_kink
    ("catalog.py", "sine_kink", "eps"),
    # the evolutionary residual is the tests' PDE oracle of solve_evolutionary
    ("solver.py", "residual_check", "times"),
}


def defaulted_parameters(source: str) -> list:
    """(names, parameter, position) per defaulted parameter or ``**kwargs``.

    ``names`` are the names a call may use: the function's, and for an
    ``__init__`` also its class's.  ``position`` is the index a positional
    argument of a call takes (after ``self`` or ``cls`` for methods), None
    for keyword-only parameters and -1 for ``**kwargs``.
    """
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls)
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in child.decorator_list)
            shift = 1 if cls and not static else 0
            names = (child.name, cls) if child.name == "__init__" else (child.name,)
            args = child.args
            pos = args.posonlyargs + args.args
            first = len(pos) - len(args.defaults)
            params = [(a.arg, i - shift) for i, a in enumerate(pos) if i >= first]
            params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None]
            if args.kwarg:
                params.append(("**" + args.kwarg.arg, -1))
            out.extend((names, p, i) for p, i in params)
            visit(child, None)

    visit(ast.parse(source), None)
    return out


def calls_by_name(sources) -> dict:
    calls = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def is_passed(call: ast.Call, param: str, position) -> bool:
    if any(k.arg is None for k in call.keywords):            # f(**kw)
        return True
    if param.startswith("**"):
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):   # f(*args)
        return True
    return (any(k.arg == param for k in call.keywords)
            or (position is not None and len(call.args) > position))


def never_passed(modules: dict, calls: dict) -> list:
    """(module, function or class, parameter) per default no call overrides."""
    return sorted((module, names[-1], param)
                  for module, source in modules.items()
                  for names, param, position in defaulted_parameters(source)
                  if not any(is_passed(c, param, position)
                             for name in names for c in calls.get(name, [])))


def test_scan_finds_unset_defaults():
    library = {"lib.py": (
        "def f(a, b=1, *, c=2, **kw):\n    pass\n"
        "class K:\n"
        "    def __init__(self, x=0):\n        pass\n"
        "    def m(self, y=1, z=2):\n        pass\n")}
    callers = ["f(0, 5)\nK()\nk.m(3)\n", "f(0, **opts)\n"]
    assert never_passed(library, calls_by_name(callers)) == [
        ("lib.py", "K", "x"), ("lib.py", "m", "z")]
    callers = ["f(0, c=3)\nK(x=1)\nk.m(z=1)\nk.m(1)\n"]
    assert never_passed(library, calls_by_name(callers)) == [
        ("lib.py", "f", "**kw"), ("lib.py", "f", "b")]


def test_every_default_has_a_caller():
    modules = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    callers = [p.read_text() for root in CALLERS for p in sorted(root.rglob("*.py"))]
    assert set(never_passed(modules, calls_by_name(callers))) == ALLOWED
