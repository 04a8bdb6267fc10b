"""Command-line drivers: solve | evolve | trace | cutlocus | verify | constants.

Configuration is INI text, ``key = value`` lines under ``[section]``
headers with ``#`` comments; its keys, defaults, rules and override flags
follow.  Numbers are finite, separated by spaces or commas, and k numbers
per axis may be given once for every axis.  An empty value leaves its key
unset; an unknown section or key is an error.  Outputs carry a comment
header (version, config hash, seed, tol); with a fixed seed, repeated runs
write byte-identical files.

Exit codes: 0 success, 2 numerical failure (a trace whose start point is
not singular included), 3 usage or config error (a potential or u0
expression that is not finite where it is sampled included).

"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import logging
import math
import sys
from collections import namedtuple
from dataclasses import replace
from itertools import groupby
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .action import estimate_constants
from .catalog import (
    discounted_from_model,
    lagrangian_by_key,
    lagrangian_from_expression,
    lagrangian_from_potential,
)
from .errors import ConfigError, NumericsError
from .expressions import compile_expression
from .laxoleinik import (
    GridFunction,
    discounted_lax_oleinik,
    localization_radius,
    solution_lipschitz_bound,
)
from .model import check_tonelli, legendre, to_evolutionary
from .singular import (
    aubry_candidates,
    cut_time_field,
    fundamental_solution,
    reachable_gradients_batch,
    retraction,
    trace_singular_curve,
)
from .solver import (
    DiscountedField,
    EvolutionaryField,
    bounds_K,
    solve_discounted,
    solve_evolutionary,
)

logger = logging.getLogger("hjsing")


# ---------------------------------------------------------------------------
# configuration

class RunConfig(SimpleNamespace):
    """Run settings: an attribute per row of :data:`KEYS`, and ``raw_text``."""

    def header(self, extra=()):
        digest = hashlib.sha256(self.raw_text.encode()).hexdigest()[:16]
        return [f"hjsing {__version__}", f"config {digest}", f"seed {self.seed}",
                f"tol {repr(self.tol)}", *extra]


# A config key, [section] name, sets RunConfig.<attr> (by default the name).
# kind is str, float, int or a dict from the accepted words to their values.
# A numeric key takes count numbers (0: one or more), or with per_axis also
# count per axis; one number is a scalar, 2 per axis a (dimension, 2) array.
# rule holds for each number ("> b", ">= b") or pair ("lo < hi").  default is
# config text, None (unset) or a function of the settings read before it.
# flag --<name> overrides the key in every subcommand ("all") or in one.
Key = namedtuple("Key", "section name kind default help rule count per_axis attr flag",
                 defaults=("", 1, False, "", ""))


def _describe(key: Key) -> str:
    """The key's entry in the module docstring and in its config errors."""
    what = " or ".join(key.kind) if isinstance(key.kind, dict) else ""
    if key.kind in (float, int):
        noun = "number" if key.kind is float else "integer"
        what = f"{key.count} {noun}" + "s" * (key.count > 1) if key.count else noun + "s"
        what += (f", or {key.count} per axis" if key.per_axis else "") + (
            f" ({key.rule})" if key.rule else "")
    head = f"{key.name} = {key.default}" if isinstance(key.default, str) else key.name
    flag = f"; --{key.name} ({'every subcommand' if key.flag == 'all' else key.flag})"
    return f"{head}: {what + '; ' if what else ''}{key.help}{flag if key.flag else ''}"


def _value(key: Key, text: str, cfg: RunConfig):
    """The value of the key's config text, which is empty when unset."""
    if not text and not isinstance(key.default, str):
        return key.default(cfg) if callable(key.default) else key.default
    text = text or key.default
    if key.kind is str:
        return text
    error = ConfigError(f"bad config value: {key.section}.{key.name} = {text}; "
                        f"its entry: {_describe(key)}")
    if isinstance(key.kind, dict):
        if text.lower() not in key.kind:
            raise error
        return key.kind[text.lower()]
    try:
        numbers = [key.kind(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise error from None
    if key.per_axis and len(numbers) == key.count:
        numbers *= cfg.dimension
    count = key.count * (cfg.dimension if key.per_axis else 1)
    fits = len(numbers) == count if count else len(numbers) > 0
    if not (fits and all(map(math.isfinite, numbers))):
        raise error
    value = (numbers[0] if key.count == 1 and not key.per_axis
             else np.reshape(numbers, (-1, 2)) if key.count == 2 and key.per_axis
             else tuple(numbers))
    if key.rule and not _obeys(key.rule, np.asarray(value)):
        raise error
    return value


def _obeys(rule: str, a: np.ndarray) -> bool:
    if rule == "lo < hi":
        return bool(np.all(a[..., 0] < a[..., 1]))
    op, bound = rule.split()
    return bool(np.all(a > float(bound) if op == ">" else a >= float(bound)))


_BOOL = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}

KEYS = (
    Key("problem", "key", str, None, "a catalog model: free_particle, pendulum, sine_kink "
        "or double_well", attr="problem_key"),
    Key("problem", "lagrangian", str, None, "or L(s, x, v), an expression; needs c1"),
    Key("problem", "potential", str, None, "or V(x) of L = v^2/2 - V, in 1D"),
    Key("problem", "lambda", float, "1.0", "the discount rate", "> 0", attr="lam"),
    Key("problem", "dimension", int, "1", "the number of axes", ">= 1"),
    Key("problem", "eps", float, None, "the smoothing of sine_kink", ">= 0"),
    Key("problem", "c1", float, None, "v^2/2 - c1 <= L (unset: the model's own)", ">= 0"),
    Key("problem", "c2", float, None, "L <= v^2/2 + c2 (unset: the model's own, 0 for a "
        "lagrangian); c1 and c2 must hold at 200 samples of the box"),
    Key("grid", "box", float, "-3.141592653589793 3.141592653589793", "the domain",
        "lo < hi", 2, per_axis=True),
    Key("grid", "resolution", int, "128", "nodes per axis", ">= 16", per_axis=True),
    Key("grid", "periodic", _BOOL, "true", "one period per axis"),
    Key("solve", "tol", float, "1e-3", "the solver tolerance", "> 0", flag="all"),
    Key("singular", "tau_horizon", float, lambda cfg: 20.0 / cfg.lam,
        "the cut-time horizon (unset: 20/lambda)", "> 0"),
    Key("evolve", "u0", str, None, "u(0, x), an expression of x or x1, x2, ..."),
    Key("evolve", "u0_file", str, None, "or u(0, x) as a .grid file"),
    Key("evolve", "times", float, None, "the slice times", "> 0", 0),
    Key("evolve", "box", float, lambda cfg: cfg.box, "their box (unset: the grid's)",
        "lo < hi", 2, per_axis=True, attr="evolve_box"),
    Key("evolve", "resolution", int, lambda cfg: cfg.resolution, "their nodes (unset: "
        "the grid's)", ">= 2", per_axis=True, attr="evolve_resolution"),
    Key("trace", "t0", float, "0.5", "the start time", attr="trace_t0", flag="trace"),
    Key("trace", "x0", float, "0", "the start point", per_axis=True, attr="trace_x0",
        flag="trace"),
    Key("trace", "horizon", float, "2.0", "the end time", attr="trace_horizon"),
    Key("trace", "block", float, "1.0", "the annulus length", "> 0", attr="trace_block"),
    Key("trace", "field", {"discounted": "discounted", "evolutionary": "evolutionary"},
        "discounted", "the traced field", attr="trace_field"),
    Key("cutlocus", "demo_points", int, "20", "points of the retraction demo", ">= 0"),
    Key("cutlocus", "demo_range", float, None, "their range (unset: the box's first axis)",
        "lo < hi", 2),
    Key("run", "out", str, "out", "the output directory", flag="all"),
    Key("run", "seed", int, "0", "the seed of the demo and verify draws", ">= 0",
        flag="all"),
)
KEYS = tuple(key._replace(attr=key.attr or key.name) for key in KEYS)

# the rules that span keys, checked once every key is read
ACROSS_KEYS = (
    ("trace.horizon >= trace.t0", lambda cfg: cfg.trace_horizon >= cfg.trace_t0),
    ("trace.t0 > 0 for the evolutionary field",
     lambda cfg: cfg.trace_field == "discounted" or cfg.trace_t0 > 0),
    ("increasing evolve.times",
     lambda cfg: cfg.times is None or bool(np.all(np.diff(cfg.times) > 0))),
    # 1000 annuli of sine_kink on 32 nodes take about 18 s on 2 cores
    ("(trace.horizon - trace.t0) / trace.block <= 1000",
     lambda cfg: (cfg.trace_horizon - cfg.trace_t0) / cfg.trace_block <= 1000),
)

__doc__ = (__doc__ or "") + "\n\n".join(
    f"[{section}]\n" + "\n".join("  " + _describe(key) for key in keys)
    for section, keys in groupby(KEYS, lambda key: key.section))
__doc__ += "\n\nAcross keys: " + "; ".join(message for message, _ in ACROSS_KEYS) + ".\n"


def load_config(path: str, overrides: dict) -> RunConfig:
    """Every key of :data:`KEYS`, from ``overrides`` (by attribute) or the
    config at ``path``, checked by its rule and by :data:`ACROSS_KEYS`."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    text = Path(path).read_text()
    parser.read_string(text, source=path)
    known = {(key.section, key.name) for key in KEYS}
    sections = {section for section, _ in known}
    unknown = [f"[{s}]" for s in parser.sections() if s not in sections]
    unknown += [f"{s}.{name}" for s in parser.sections() if s in sections
                for name in parser.options(s) if (s, name) not in known]
    if unknown:
        raise ConfigError("unknown config section or key: " + ", ".join(unknown))

    cfg = RunConfig(raw_text=text + repr(sorted(overrides.items())))
    for key in KEYS:
        given = overrides.get(key.attr)
        raw = (parser.get(key.section, key.name, fallback="") if given is None
               else " ".join(map(str, given)) if isinstance(given, list) else str(given))
        setattr(cfg, key.attr, _value(key, raw, cfg))
    for message, holds in ACROSS_KEYS:
        if not holds(cfg):
            raise ConfigError(f"config needs {message}")
    return cfg


def build_problem(cfg: RunConfig):
    """Discounted problem from the config's model section; ``c1``/``c2``, when
    set, replace the model's growth offsets whatever the model's source, and
    must bound L at :func:`check_tonelli`'s samples of the box.  A
    ``lagrangian`` expression, whose own offsets are placeholders, needs
    ``c1``; without it the config is an error."""
    if cfg.problem_key:
        try:
            model = lagrangian_by_key(cfg.problem_key, cfg.dimension,
                                      **({} if cfg.eps is None else dict(eps=cfg.eps)))
        except TypeError as exc:
            raise ConfigError(f"problem.key = {cfg.problem_key}: {exc}") from exc
    elif cfg.potential:
        if cfg.dimension != 1:
            raise ConfigError("problem.potential is one-dimensional")
        model = lagrangian_from_potential(cfg.potential)
    elif cfg.lagrangian:
        if cfg.c1 is None:
            # the expression model's c_T = 0 is a placeholder, and the search
            # ball and the coarse re-score's action floor both rely on c_T
            raise ConfigError("problem.lagrangian needs problem.c1, the growth offset "
                              "in v^2/2 - c1 <= L")
        model = lagrangian_from_expression(cfg.lagrangian, cfg.dimension)
    else:
        raise ConfigError("config needs one of problem.key / problem.lagrangian / "
                          "problem.potential")
    g = model.growth
    model.growth = replace(g, c_T=g.c_T if cfg.c1 is None else cfg.c1,
                           offset=g.offset if cfg.c2 is None else cfg.c2)
    if cfg.c1 is not None or cfg.c2 is not None:
        # a too small offset shrinks the search ball, a silent miss later
        report = check_tonelli(model, cfg.box, horizon=1.0)
        lower, upper = report.lower_growth_margin, report.upper_growth_margin
        if not (lower >= 0 and upper >= 0):
            raise ConfigError(f"c1, c2 do not bound L at {report.samples} samples: the least "
                              f"L - v^2/2 + c1 is {lower:.3g}, v^2/2 + c2 - L {upper:.3g}")
    return discounted_from_model(model, cfg.lam)


def _field_from_expression(expr: str, dimension: int):
    """u0 of the expression, which must be finite at every point it is read."""
    names = ["x"] + [f"x{i + 1}" for i in range(dimension)]
    fn = compile_expression(expr, tuple(names))

    def evaluate(points):
        points = np.asarray(points, dtype=float)
        env = {"x": points[..., 0]}
        for i in range(dimension):
            env[f"x{i + 1}"] = points[..., i]
        values = np.broadcast_to(np.asarray(fn(env), dtype=float),
                                 points.shape[:-1]).copy()
        bad = ~np.isfinite(values)
        if bad.any():
            raise ConfigError(f"evolve.u0 = {expr} is not finite at x = {points[bad][0]}")
        return values

    return evaluate


def _load_u0(cfg: RunConfig) -> GridFunction:
    if cfg.u0_file:
        grid, _ = GridFunction.read(cfg.u0_file)
        return grid
    if not cfg.u0:
        raise ConfigError("evolve needs evolve.u0 (expression) or evolve.u0_file")
    fn = _field_from_expression(cfg.u0, cfg.dimension)
    return GridFunction.from_callable(fn, cfg.box, cfg.resolution,
                                      periodic=cfg.periodic)


# ---------------------------------------------------------------------------
# subcommands

def cmd_solve(cfg: RunConfig) -> int:
    problem = build_problem(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    v, report = solve_discounted(problem, cfg.box, cfg.resolution, tol=cfg.tol,
                                 periodic=cfg.periodic)
    v.write(out / "v.grid", lam=cfg.lam, comments=cfg.header())
    (out / "report.json").write_text(report.as_json() + "\n")
    logger.info("wrote %s (sweeps=%d, policy passes=%d, residual=%.3g)",
                out / "v.grid", report.iterations, sum(report.policy_passes),
                report.final_residual)
    return 0


def cmd_evolve(cfg: RunConfig) -> int:
    problem = build_problem(cfg)
    model = problem.lagrangian
    if not cfg.times:
        raise ConfigError("evolve needs evolve.times")
    u0 = _load_u0(cfg)
    # the u0 grid must cover the target box plus the localization pad
    pad = EvolutionaryField(model, u0).search_radius(max(cfg.times))
    needed_lo = cfg.evolve_box[:, 0] - pad
    needed_hi = cfg.evolve_box[:, 1] + pad
    if (not all(u0.periodic)
            and (np.any(needed_lo < u0.box[:, 0] - 1e-9)
                 or np.any(needed_hi > u0.box[:, 1] + 1e-9))):
        h = float(np.max(u0.spacing))
        fresh_box = np.stack([needed_lo - h, needed_hi + h], axis=1)
        fresh_res = tuple(int(math.ceil((b - a) / h)) + 1
                          for a, b in fresh_box)
        logger.info("u0 grid too small for the localization pad %.3g; "
                    "resampling on box %s", pad, fresh_box.tolist())
        if not cfg.u0:
            raise ConfigError("u0 file does not cover the localization pad "
                              f"({pad:.3g}); supply a larger grid")
        fn = _field_from_expression(cfg.u0, cfg.dimension)
        u0 = GridFunction.from_callable(fn, fresh_box, fresh_res)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    slices = solve_evolutionary(model, u0, cfg.times, cfg.evolve_box,
                                cfg.evolve_resolution)
    for t, grid in zip(cfg.times, slices):
        name = f"u_t{t:.6f}.grid"
        grid.write(out / name, comments=cfg.header([f"time {repr(float(t))}"]))
        logger.info("wrote %s", out / name)
    return 0


def _read_or_solve_v(cfg: RunConfig, problem) -> GridFunction:
    """``out/v.grid`` if it exists, else the solution of the discounted problem."""
    v_path = Path(cfg.out) / "v.grid"
    if v_path.exists():
        return GridFunction.read(v_path)[0]
    return solve_discounted(problem, cfg.box, cfg.resolution, tol=cfg.tol,
                            periodic=cfg.periodic)[0]


def _trace_field(cfg: RunConfig, problem):
    if cfg.trace_field == "evolutionary":
        u0 = _load_u0(cfg)
        return EvolutionaryField(problem.lagrangian, u0)
    return DiscountedField(problem, _read_or_solve_v(cfg, problem))


def cmd_trace(cfg: RunConfig) -> int:
    problem = build_problem(cfg)
    field = _trace_field(cfg, problem)
    x_start = np.asarray(cfg.trace_x0, dtype=float)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    curve = trace_singular_curve(field, cfg.trace_t0, x_start,
                                 cfg.trace_horizon, block=cfg.trace_block)
    diams = curve.certificate_diameters
    _write_rows(out / "curve.csv",
                ["s"] + [f"x{i+1}" for i in range(x_start.size)]
                + ["step_size", "certificate_diameter"],
                [[s, *p, h, d] for s, p, h, d in zip(curve.times, curve.points,
                                                      curve.step_sizes, diams)],
                cfg.header())
    certs = [{"s": float(s), "point": [float(c) for c in p],
              "diameter": (float(d) if np.isfinite(d) else None)}
             for s, p, d in zip(curve.times, curve.points, diams)]
    payload = {"schedule": [{"annulus": i, "t_i": t, "k_i": k}
                            for i, t, k in curve.schedule],
               "certificates": certs}
    (out / "certificates.json").write_text(json.dumps(payload, indent=2) + "\n")
    logger.info("wrote %s (%d points)", out / "curve.csv", len(curve.times))
    return 0


def _write_rows(path, columns, rows, comments):
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_cutlocus(cfg: RunConfig) -> int:
    problem = build_problem(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    v_path = out / "v.grid"
    v = _read_or_solve_v(cfg, problem)
    if not v_path.exists():
        v.write(v_path, lam=cfg.lam, comments=cfg.header())
    field = DiscountedField(problem, v)

    ctf = cut_time_field(problem, v, cfg.tau_horizon)
    ctf.tau.write(out / "tau.grid", comments=cfg.header())
    ctf.alpha.write(out / "alpha.grid", comments=cfg.header())

    pts, _ = aubry_candidates(field, cfg.tau_horizon,
                              forward_tau=ctf.tau.values.reshape(-1))
    _write_rows(out / "aubry.csv", [f"x{i+1}" for i in range(v.dimension)],
                [list(p) for p in pts], cfg.header())

    # retraction demo: G(x, 0) = x and G(x, 1) at the first demo_points of
    # 10 demo_points sampled points whose cut time is below the horizon
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.demo_range or (float(v.box[0, 0]), float(v.box[0, 1]))
    xs = rng.uniform(lo, hi, size=(10 * cfg.demo_points, v.dimension))
    tau = ctf.tau(xs)
    keep = np.flatnonzero(tau < cfg.tau_horizon)[:cfg.demo_points]
    xs, tau = xs[keep], tau[keep]
    alpha = ctf.alpha(xs)
    g1 = np.array([retraction(field, None, ctf, x, 1.0) for x in xs]).reshape(xs.shape)
    certs = reachable_gradients_batch(field, 0.0, g1) if len(g1) else []
    rows = [[*x, t, a, *x, *g, c.diameter]
            for x, t, a, g, c in zip(xs, tau, alpha, g1, certs)]
    n = v.dimension
    cols = ([f"x{i+1}" for i in range(n)] + ["tau", "alpha"]
            + [f"g0_x{i+1}" for i in range(n)]
            + [f"g1_x{i+1}" for i in range(n)] + ["g1_diameter"])
    _write_rows(out / "retraction_demo.csv", cols, rows, cfg.header())
    logger.info("wrote cut-locus outputs to %s", out)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    problem = build_problem(cfg)
    model = problem.lagrangian
    rng = np.random.default_rng(cfg.seed)
    checks = []

    report = check_tonelli(model, cfg.box, horizon=1.0, seed=cfg.seed)
    checks.append(("tonelli", report.passed, report.as_dict()))

    # Legendre round trip through the dual pairing
    draws = [(rng.uniform(cfg.box[:, 0], cfg.box[:, 1]), rng.normal(size=cfg.dimension))
             for _ in range(20)]
    x, v = (np.array(a) for a in zip(*draws))
    v_back, _ = legendre(model, 0.0, x, model.L_v(0.0, x, v))
    worst = float(np.max(np.linalg.norm(v_back - v, axis=-1)))
    checks.append(("legendre_round_trip", worst < 1e-8, {"worst": worst}))

    # D_x A, D_y A and D_t A against central differences of the action
    def action(t, x, y):
        return fundamental_solution(model, 0.0, t, x, y)[0]

    worst = 0.0
    h = 1e-5
    for _ in range(5):
        x = rng.uniform(cfg.box[:, 0], cfg.box[:, 1])
        y = x + rng.normal(scale=0.5, size=cfg.dimension)
        _, (dxa, dya, dta) = fundamental_solution(model, 0.0, 1.0, x, y)
        pairs = [(dta, action(1.0 + h, x, y) - action(1.0 - h, x, y))]
        for ax, e in enumerate(h * np.eye(cfg.dimension)):
            pairs += [(dxa[ax], action(1.0, x + e, y) - action(1.0, x - e, y)),
                      (dya[ax], action(1.0, x, y + e) - action(1.0, x, y - e))]
        for d, diff in pairs:
            fd = diff / (2 * h)
            worst = max(worst, float(abs(fd - d) / (1.0 + abs(fd))))
    checks.append(("action_gradients", worst < 1e-4, {"worst_rel": worst}))

    # contraction of the unit-time discounted operator, queried at the nodes
    # whose search ball lies inside the box (it raises at the others)
    lam = problem.lam
    growth = to_evolutionary(problem, horizon=1.0)[0].growth
    nodes = GridFunction.from_callable(lambda p: 0.0 * p[..., 0], cfg.box,
                                       (33,) * cfg.dimension,
                                       periodic=cfg.periodic)
    worst, queried = -np.inf, []
    pts = nodes.nodes()
    for _ in range(3):
        f_vals = rng.uniform(-1, 1, size=nodes.resolution)
        g_vals = rng.uniform(-1, 1, size=nodes.resolution)
        f = nodes.with_values(np.cumsum(f_vals, axis=0) * nodes.spacing[0])
        g = nodes.with_values(np.cumsum(g_vals, axis=0) * nodes.spacing[0])
        radius = localization_radius(growth, max(f.lipschitz_estimate,
                                                 g.lipschitz_estimate))
        inside = np.all((pts - radius >= nodes.box[:, 0]) & (pts + radius <= nodes.box[:, 1])
                        | np.asarray(nodes.periodic), axis=1)
        queried.append(int(inside.sum()))
        if not inside.any():
            continue
        tf = np.array([r.value for r in
                       discounted_lax_oleinik(problem, f, 1.0, pts[inside])])
        tg = np.array([r.value for r in
                       discounted_lax_oleinik(problem, g, 1.0, pts[inside])])
        lhs = float(np.max(np.abs(tf - tg)))
        rhs = math.exp(-lam) * float(np.max(np.abs(f.values - g.values)))
        eps = f.interpolation_error_bound() + g.interpolation_error_bound()
        worst = max(worst, lhs - rhs - 2 * eps)
    checks.append(("contraction", worst <= 0.0 and min(queried) > 0,
                   {"worst_violation": worst, "nodes": min(queried)}))

    try:
        constants = estimate_constants(model, 0.0, np.zeros(cfg.dimension),
                                       1.0, 2.0)
        checks.append(("convexity_constants", constants.c2 > 0, {
            "c0": constants.c0, "c1": constants.c1,
            "c2": constants.c2, "c3": constants.c3}))
    except NumericsError as exc:
        checks.append(("convexity_constants", False, {"error": str(exc)}))

    all_ok = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all_ok else 2


def cmd_constants(cfg: RunConfig) -> int:
    problem = build_problem(cfg)
    k1, k2 = bounds_K(problem)
    lhat, _ = to_evolutionary(problem, horizon=1.0)
    lam1 = localization_radius(lhat.growth, 1.0)
    f0 = solution_lipschitz_bound(lhat.growth, 1.0, 1.0)
    lam2 = localization_radius(lhat.growth, f0)
    constants = estimate_constants(lhat, 0.0, np.zeros(cfg.dimension), 1.0,
                                   min(lam2, 4.0))
    payload = {
        "K1": k1, "K2": k2,
        "lambda1_unit_lip1": lam1,
        "F0_unit_lip1": f0,
        "lambda2_unit": lam2,
        "c0": constants.c0, "c1": constants.c1,
        "c2": constants.c2, "c3": constants.c3,
    }
    print(json.dumps(payload, indent=2))
    return 0


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(prog="hjsing",
                     description="Hamilton-Jacobi solvers with singularity tracing")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("solve", "discounted fixed point -> v.grid, report.json"),
        ("evolve", "initial-value fields -> u_t*.grid per time"),
        ("trace", "singular curve -> curve.csv, certificates.json"),
        ("cutlocus", "cut times, Aubry candidates, retraction demo"),
        ("verify", "model and operator self-checks"),
        ("constants", "print localization and convexity constants"),
    ]:
        p = sub.add_parser(name, help=help_text, parents=[])
        p.add_argument("--config", required=True, help="path to the run config")
        for key in KEYS:
            if key.flag in ("all", name):
                p.add_argument(f"--{key.name}", dest=key.attr, help=key.help,
                               type=None if key.kind is str else key.kind,
                               nargs="+" if key.per_axis else None)
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")

    overrides = {key.attr: getattr(args, key.attr) for key in KEYS
                 if getattr(args, key.attr, None) is not None}
    try:
        cfg = load_config(args.config, overrides)
        return {"solve": cmd_solve, "evolve": cmd_evolve, "trace": cmd_trace,
                "cutlocus": cmd_cutlocus, "verify": cmd_verify,
                "constants": cmd_constants}[args.command](cfg)
    except (ConfigError, OSError, configparser.Error) as exc:
        print(f"hjsing: config error: {exc}", file=sys.stderr)
        return 3
    except NumericsError as exc:
        print(f"hjsing: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
