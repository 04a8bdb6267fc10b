"""Arithmetic expression strings compiled to vectorized numpy callables.

Config files describe user models with plain formulas such as
``v^2/2 + cos(x)`` or ``(v1^2 + v2^2)/2 - cos(x1)*cos(x2)``.  The parser
accepts numbers, the variables ``s`` (time), ``x``/``v`` (1D) or
``x1..x3``/``v1..v3``, the operators ``+ - * / ^ **``, parentheses, and a
fixed set of functions.  Anything else is rejected, so config input can
never execute arbitrary code.
"""

from __future__ import annotations

import ast

import numpy as np

from .errors import ConfigError

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "atan": np.arctan,
    "asinh": np.arcsinh,
    "min": np.minimum,
    "max": np.maximum,
}

_CONSTANTS = {"pi": np.pi, "e": np.e}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.true_divide,
    ast.Pow: np.power,
}


def _compile_node(node, names):
    if isinstance(node, ast.Expression):
        return _compile_node(node.body, names)
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ConfigError(f"non-numeric constant {node.value!r}")
        value = float(node.value)
        return lambda env: value
    if isinstance(node, ast.Name):
        key = node.id
        if key in _CONSTANTS:
            value = _CONSTANTS[key]
            return lambda env: value
        if key not in names:
            raise ConfigError(f"unknown variable {key!r} (allowed: {sorted(names)})")
        return lambda env: env[key]
    if isinstance(node, ast.BinOp):
        op = _BINOPS.get(type(node.op))
        if op is None:
            raise ConfigError(f"operator {type(node.op).__name__} not allowed")
        left = _compile_node(node.left, names)
        right = _compile_node(node.right, names)
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.UnaryOp):
        operand = _compile_node(node.operand, names)
        if isinstance(node.op, ast.USub):
            return lambda env: -operand(env)
        if isinstance(node.op, ast.UAdd):
            return operand
        raise ConfigError(f"operator {type(node.op).__name__} not allowed")
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.keywords:
            raise ConfigError("only plain function calls are allowed")
        fn = _FUNCTIONS.get(node.func.id)
        if fn is None:
            raise ConfigError(f"unknown function {node.func.id!r}")
        args = [_compile_node(a, names) for a in node.args]
        return lambda env: fn(*(a(env) for a in args))
    raise ConfigError(f"syntax element {type(node).__name__} not allowed")


def compile_expression(text: str, variables: tuple[str, ...]):
    """Compile ``text`` into ``fn(env: dict[str, array]) -> array``.

    ``variables`` lists the names the expression may reference; ``^`` is
    accepted as a power operator alias.
    """
    source = text.replace("^", "**").strip()
    if not source:
        raise ConfigError("empty expression")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc}") from exc
    fn = _compile_node(tree, frozenset(variables))

    def evaluate(env):
        # a value that is not finite is raised as a typed error where the
        # caller reads it, so numpy's warnings would only repeat it on stderr
        with np.errstate(divide="ignore", invalid="ignore"):
            return fn(env)

    return evaluate


def scalar_field(text: str, dimension: int):
    """Compile an expression of (s, x, v) into ``f(s, x, v) -> array``.

    ``x`` and ``v`` are arrays of shape (..., dimension); the 1D variable
    names ``x``/``v`` and per-axis names ``x1..``/``v1..`` are both bound.
    """
    names = ["s", "x", "v"]
    for i in range(dimension):
        names += [f"x{i + 1}", f"v{i + 1}"]
    fn = compile_expression(text, tuple(names))

    def evaluate(s, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        env = {"s": np.asarray(s, dtype=float)}
        env["x"] = x[..., 0]
        env["v"] = v[..., 0]
        for i in range(dimension):
            env[f"x{i + 1}"] = x[..., i]
            env[f"v{i + 1}"] = v[..., i]
        out = fn(env)
        return np.broadcast_to(np.asarray(out, dtype=float), x.shape[:-1]).copy()

    return evaluate
