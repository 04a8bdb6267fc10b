"""Command-line drivers: solve | evolve | trace | cutlocus | verify | constants.

Configuration is INI text, ``key = value`` lines under ``[section]``
headers with ``#`` comments.  The keys and their defaults:

[problem]   key (free_particle, pendulum, sine_kink, double_well), or
            lagrangian (an expression of s, x, v), or potential (V(x), for
            L = v^2/2 - V; 1D only); lambda = 1.0 (> 0); dimension = 1; eps = 0
            (sine_kink smoothing, >= 0); c1 (>= 0), c2: the growth
            offsets v^2/2 - c1 <= L <= v^2/2 + c2 of the model, which
            every subcommand uses (unset: the catalog model's own, or
            from the potential's samples; a lagrangian needs c1, and its
            c2 is 0 unless set)
[grid]      box = -pi pi (2 numbers, or 2 per axis); resolution = 128
            (1 count, or 1 per axis; >= 16); periodic = true (true, false,
            yes, no, 1 or 0)
[solve]     tol = 1e-3 (> 0)
[singular]  tau_horizon = 20/lambda
[evolve]    u0 (an expression of x or x1, x2, ...) or u0_file (a .grid);
            times (> 0, increasing); box, resolution (1 count, or 1 per
            axis; unset: from [grid])
[trace]     t0 = 0.5 (> 0 for the evolutionary field); x0 = 0 on every axis
            (1 number per axis); horizon = 2.0 (>= t0); block = 1.0;
            field = discounted (or evolutionary)
[cutlocus]  demo_points = 20; demo_range = lo hi (unset: the first axis)
[run]       out = out; seed = 0

An unknown section or key is a config error.  ``--out``, ``--seed``,
``--tol`` and, for trace, ``--t0`` and ``--x0`` override the config.
Outputs land in the configured directory and carry a metadata comment
header (version, config hash, seed, solver tolerance); with a fixed
seed, repeated runs produce byte-identical files.

Exit codes: 0 success, 2 numerical failure, 3 usage or config error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import logging
import math
import sys
from dataclasses import dataclass, field as dataclass_field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .action import estimate_constants
from .catalog import (
    discounted_from_model,
    lagrangian_by_key,
    lagrangian_from_expression,
    lagrangian_from_potential,
)
from .errors import ConfigError, InvalidProblem, NumericsError
from .expressions import compile_expression
from .laxoleinik import (
    GridFunction,
    discounted_lax_oleinik,
    localization_radius,
    solution_lipschitz_bound,
)
from .model import check_tonelli, legendre, to_evolutionary
from .singular import (
    SingularCurve,
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

@dataclass
class RunConfig:
    """Validated run settings; the module docstring lists the config keys."""

    problem_key: str = ""
    lagrangian_expr: str = ""
    potential_expr: str = ""
    lam: float = 1.0
    dimension: int = 1
    model_kwargs: dict = dataclass_field(default_factory=dict)
    c1: float | None = None
    c2: float | None = None

    box: np.ndarray = None
    resolution: tuple = (128,)
    periodic: bool = True

    tol: float = 1e-3
    tau_horizon: float | None = None

    u0_expr: str = ""
    u0_file: str = ""
    evolve_times: tuple = ()
    evolve_box: np.ndarray = None
    evolve_resolution: tuple = ()

    trace_t0: float = 0.5
    trace_x0: tuple = (0.0,)
    trace_horizon: float = 2.0
    trace_block: float = 1.0
    trace_field: str = "discounted"

    demo_points: int = 20
    demo_range: tuple = ()

    out: str = "out"
    seed: int = 0
    raw_text: str = ""

    def config_hash(self) -> str:
        digest = hashlib.sha256(self.raw_text.encode()).hexdigest()
        return digest[:16]

    def header(self, extra=()):
        base = [f"hjsing {__version__}", f"config {self.config_hash()}",
                f"seed {self.seed}", f"tol {repr(self.tol)}"]
        return base + list(extra)


def _parse_floats(text: str):
    return [float(tok) for tok in text.replace(",", " ").split()]


def _parse_box(text: str, dimension: int) -> np.ndarray:
    vals = _parse_floats(text)
    if len(vals) == 2 and dimension >= 1:
        vals = vals * dimension
    if len(vals) != 2 * dimension:
        raise ConfigError(f"box needs 2 or {2 * dimension} numbers, got {len(vals)}")
    box = np.array(vals, dtype=float).reshape(dimension, 2)
    if np.any(box[:, 1] <= box[:, 0]):
        raise ConfigError("box needs min < max on every axis")
    return box


def load_config(path: str, overrides: dict) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    text = Path(path).read_text()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    read = set()     # (section, key) pairs the parsing below asks for

    def get(section, key, default=None):
        read.add((section, key))
        if parser.has_option(section, key):
            return parser.get(section, key)
        return default

    cfg = RunConfig(raw_text=text + repr(sorted(overrides.items())))
    try:
        cfg.problem_key = get("problem", "key", "")
        cfg.lagrangian_expr = get("problem", "lagrangian", "")
        cfg.potential_expr = get("problem", "potential", "")
        cfg.lam = float(get("problem", "lambda", "1.0"))
        cfg.dimension = int(get("problem", "dimension", "1"))
        if get("problem", "eps") is not None:
            cfg.model_kwargs["eps"] = float(get("problem", "eps"))
        if get("problem", "c1") is not None:
            cfg.c1 = float(get("problem", "c1"))
        if get("problem", "c2") is not None:
            cfg.c2 = float(get("problem", "c2"))

        cfg.box = _parse_box(get("grid", "box", "-3.141592653589793 3.141592653589793"),
                             cfg.dimension)
        res = get("grid", "resolution", "128")
        vals = [int(v) for v in res.replace(",", " ").split()]
        cfg.resolution = tuple(vals) if len(vals) > 1 else (vals[0],) * cfg.dimension
        periodic = get("grid", "periodic", "true").strip().lower()
        if periodic not in ("1", "true", "yes", "0", "false", "no"):
            raise ValueError(f"grid.periodic must be true or false, not {periodic!r}")
        cfg.periodic = periodic in ("1", "true", "yes")

        cfg.tol = float(get("solve", "tol", "1e-3"))
        th = get("singular", "tau_horizon")
        cfg.tau_horizon = float(th) if th is not None else None

        cfg.u0_expr = get("evolve", "u0", "")
        cfg.u0_file = get("evolve", "u0_file", "")
        times = get("evolve", "times", "")
        cfg.evolve_times = tuple(_parse_floats(times)) if times else ()
        if get("evolve", "box"):
            cfg.evolve_box = _parse_box(get("evolve", "box"), cfg.dimension)
        if get("evolve", "resolution"):
            vals = [int(v) for v in get("evolve", "resolution").replace(",", " ").split()]
            cfg.evolve_resolution = tuple(vals) if len(vals) > 1 else (vals[0],) * cfg.dimension

        cfg.trace_t0 = float(get("trace", "t0", "0.5"))
        cfg.trace_x0 = tuple(_parse_floats(get("trace", "x0", "0 " * cfg.dimension)))
        cfg.trace_horizon = float(get("trace", "horizon", "2.0"))
        cfg.trace_block = float(get("trace", "block", "1.0"))
        cfg.trace_field = get("trace", "field", "discounted")

        cfg.demo_points = int(get("cutlocus", "demo_points", "20"))
        rng_text = get("cutlocus", "demo_range", "")
        cfg.demo_range = tuple(_parse_floats(rng_text)) if rng_text else ()

        cfg.out = get("run", "out", "out")
        cfg.seed = int(get("run", "seed", "0"))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    sections = {section for section, _ in read}
    unknown = [f"[{s}]" for s in parser.sections() if s not in sections]
    unknown += [f"{s}.{key}" for s in parser.sections() if s in sections
                for key in parser.options(s) if (s, key) not in read]
    if unknown:
        raise ConfigError("unknown config section or key: " + ", ".join(unknown))

    for key, val in overrides.items():
        if val is not None:
            setattr(cfg, key, val)

    times = np.asarray(cfg.evolve_times)
    for ok, message in [
        (cfg.lam > 0, "problem.lambda must be > 0"),
        (cfg.model_kwargs.get("eps", 0.0) >= 0, "problem.eps must be >= 0"),
        (cfg.c1 is None or cfg.c1 >= 0, "problem.c1 must be >= 0"),
        (len(cfg.resolution) == cfg.dimension,
         f"grid.resolution needs 1 or {cfg.dimension} counts"),
        (min(cfg.resolution) >= 16, "resolution must be at least 16 nodes per axis"),
        (cfg.tol > 0, "solve.tol must be > 0"),
        (cfg.tau_horizon is None or cfg.tau_horizon > 0,
         "singular.tau_horizon must be > 0"),
        (np.all(times > 0) and np.all(np.diff(times) > 0),
         "evolve.times must be positive and increasing"),
        (len(cfg.evolve_resolution) in (0, cfg.dimension),
         f"evolve.resolution needs 1 or {cfg.dimension} counts"),
        (len(cfg.trace_x0) == cfg.dimension,
         f"trace.x0 needs {cfg.dimension} number(s), got {len(cfg.trace_x0)}"),
        (cfg.trace_field in ("discounted", "evolutionary"),
         f"trace.field must be discounted or evolutionary, not {cfg.trace_field!r}"),
        (cfg.trace_field == "discounted" or cfg.trace_t0 > 0,
         "trace.t0 must be > 0 for the evolutionary field"),
        (cfg.trace_horizon >= cfg.trace_t0, "trace.horizon must be >= trace.t0"),
        (cfg.trace_block > 0, "trace.block must be > 0"),
        (not cfg.demo_range
         or (len(cfg.demo_range) == 2 and cfg.demo_range[0] < cfg.demo_range[1]),
         "cutlocus.demo_range needs two numbers lo < hi"),
    ]:
        if not ok:
            raise ConfigError(message)
    if cfg.tau_horizon is None:
        cfg.tau_horizon = 20.0 / cfg.lam
    return cfg


def build_problem(cfg: RunConfig):
    """Discounted problem from the config's model section; ``c1``/``c2``, when
    set, replace the model's growth offsets whatever the model's source.  A
    ``lagrangian`` expression, whose own offsets are placeholders, needs
    ``c1``; without it the config is an error."""
    if cfg.problem_key:
        try:
            model = lagrangian_by_key(cfg.problem_key, cfg.dimension, **cfg.model_kwargs)
        except TypeError as exc:
            raise ConfigError(f"problem.key = {cfg.problem_key}: {exc}") from exc
    elif cfg.potential_expr:
        if cfg.dimension != 1:
            raise ConfigError("problem.potential is one-dimensional")
        model = lagrangian_from_potential(cfg.potential_expr)
    elif cfg.lagrangian_expr:
        if cfg.c1 is None:
            # the expression model's c_T = 0 is a placeholder, and the search
            # ball and the coarse re-score's action floor both rely on c_T
            raise ConfigError("problem.lagrangian needs problem.c1, the growth offset "
                              "in v^2/2 - c1 <= L")
        model = lagrangian_from_expression(cfg.lagrangian_expr, cfg.dimension)
    else:
        raise ConfigError("config needs one of problem.key / problem.lagrangian / "
                          "problem.potential")
    g = model.growth
    model.growth = replace(g, c_T=g.c_T if cfg.c1 is None else cfg.c1,
                           offset=g.offset if cfg.c2 is None else cfg.c2)
    return discounted_from_model(model, cfg.lam)


def _field_from_expression(expr: str, dimension: int):
    names = ["x"] + [f"x{i + 1}" for i in range(dimension)]
    fn = compile_expression(expr, tuple(names))

    def evaluate(points):
        points = np.asarray(points, dtype=float)
        env = {"x": points[..., 0]}
        for i in range(dimension):
            env[f"x{i + 1}"] = points[..., i]
        return np.broadcast_to(np.asarray(fn(env), dtype=float),
                               points.shape[:-1]).copy()

    return evaluate


def _load_u0(cfg: RunConfig) -> GridFunction:
    if cfg.u0_file:
        grid, _ = GridFunction.read(cfg.u0_file)
        return grid
    if not cfg.u0_expr:
        raise ConfigError("evolve needs evolve.u0 (expression) or evolve.u0_file")
    fn = _field_from_expression(cfg.u0_expr, cfg.dimension)
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
    if not cfg.evolve_times:
        raise ConfigError("evolve needs evolve.times")
    u0 = _load_u0(cfg)
    target_box = cfg.evolve_box if cfg.evolve_box is not None else cfg.box
    target_res = cfg.evolve_resolution or cfg.resolution
    # the u0 grid must cover the target box plus the localization pad
    pad = EvolutionaryField(model, u0).search_radius(max(cfg.evolve_times))
    needed_lo = np.asarray(target_box)[:, 0] - pad
    needed_hi = np.asarray(target_box)[:, 1] + pad
    if (not all(u0.periodic)
            and (np.any(needed_lo < u0.box[:, 0] - 1e-9)
                 or np.any(needed_hi > u0.box[:, 1] + 1e-9))):
        h = float(np.max(u0.spacing))
        fresh_box = np.stack([needed_lo - h, needed_hi + h], axis=1)
        fresh_res = tuple(int(math.ceil((b - a) / h)) + 1
                          for a, b in fresh_box)
        logger.info("u0 grid too small for the localization pad %.3g; "
                    "resampling on box %s", pad, fresh_box.tolist())
        if not cfg.u0_expr:
            raise ConfigError("u0 file does not cover the localization pad "
                              f"({pad:.3g}); supply a larger grid")
        fn = _field_from_expression(cfg.u0_expr, cfg.dimension)
        u0 = GridFunction.from_callable(fn, fresh_box, fresh_res)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    slices = solve_evolutionary(model, u0, cfg.evolve_times, target_box,
                                target_res)
    for t, grid in zip(cfg.evolve_times, slices):
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

    try:
        curve = trace_singular_curve(field, cfg.trace_t0, x_start,
                                     cfg.trace_horizon, block=cfg.trace_block)
    except InvalidProblem as exc:
        logger.warning("%s; writing an empty curve", exc)
        curve = SingularCurve(times=np.empty(0), points=np.empty((0, x_start.size)),
                              step_sizes=np.empty(0), schedule=[], certificates=[])
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
               "localization_ok": curve.localization_ok,
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
    if cfg.demo_range:
        lo, hi = cfg.demo_range
    else:
        lo, hi = float(v.box[0, 0]), float(v.box[0, 1])
    xs = rng.uniform(lo, hi, size=(10 * max(cfg.demo_points, 0), v.dimension))
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
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--tol", type=float, help="solver tolerance override")
        if name == "trace":
            p.add_argument("--t0", type=float, help="trace start time")
            p.add_argument("--x0", type=float, nargs="+", help="trace start point")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")

    flags = {"out": "out", "seed": "seed", "tol": "tol", "t0": "trace_t0",
             "x0": "trace_x0"}
    overrides = {key: getattr(args, flag) for flag, key in flags.items()
                 if getattr(args, flag, None) is not None}
    try:
        cfg = load_config(args.config, overrides)
        return {"solve": cmd_solve, "evolve": cmd_evolve, "trace": cmd_trace,
                "cutlocus": cmd_cutlocus, "verify": cmd_verify,
                "constants": cmd_constants}[args.command](cfg)
    except (ConfigError, OSError) as exc:
        print(f"hjsing: config error: {exc}", file=sys.stderr)
        return 3
    except NumericsError as exc:
        print(f"hjsing: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
