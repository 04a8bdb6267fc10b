"""Viscosity solutions: the discounted fixed point and evolutionary value fields.

The discounted solver is modified policy iteration on the unit-time
backward operator T, started from the constant lower bracket.  Each
convolution sweep applies T at every node; the contraction rate exp(-lam)
turns its observed sup-change into a certified total-error bound, which is
the stopping rule.  Between two sweeps, policy evaluation holds each
node's argpoint fixed and iterates the affine map that this policy makes
of T, which costs a few interpolations per node and no path solve.
Evolutionary fields are computed in one shot per requested time (no time
stepping): every node is an independent localized inf-convolution of the
initial data.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field as dataclass_field

import numpy as np

from .errors import InvalidProblem, NoConvergence
from .laxoleinik import (
    DiscountedOperator,
    GridFunction,
    discounted_lax_oleinik,
    localization_radius,
    localized_convolution,
    solution_lipschitz_bound,
)
from .model import DiscountedProblem, LagrangianModel, to_evolutionary

_CERTIFICATE_POLISH_WINDOW = 2e-2  # polish seeds of a singularity certificate
# a sweep or pass rounds each |v| <= max(K1, K2) by a few ulps (up to 3 on
# sine_kink in 1D; a 2D pass sums 4 weighted terms), so the stopping rule
# must lie above this many ulps to be met at all
_ROUNDING_ULPS = 8


# ---------------------------------------------------------------------------
# reports

@dataclass
class SolveReport:
    """``iterations`` counts convolution sweeps and ``sup_changes`` holds
    each one's sup-change; ``policy_passes`` holds the policy-evaluation
    passes run after each sweep (0 after the last).  ``final_residual`` is
    :func:`residual_check`'s sampled equation residual of the result, run
    at 10 tol."""

    iterations: int
    sup_changes: list
    policy_passes: list
    K1: float
    K2: float
    final_residual: float
    tol: float

    def as_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


@dataclass
class ResidualReport:
    sup_residual: float            # over gradient-stable sample points
    stable_points: int
    unstable_points: int
    subsolution_margin: float      # max over kink tests of lam*v + H (or q + H)
    tol: float
    passed: bool = dataclass_field(init=False)

    def __post_init__(self):
        self.passed = (self.sup_residual <= self.tol
                       and self.subsolution_margin <= self.tol)


# ---------------------------------------------------------------------------
# discounted fixed point

def bounds_K(problem: DiscountedProblem):
    """Constant bracket (K1, K2) for the backward fixed-point iteration."""
    k1 = problem.c1 / problem.lam
    k2 = problem.c2 / problem.lam
    return k1, k2


def solve_discounted(problem: DiscountedProblem, box, resolution, tol: float = 1e-3,
                     periodic: bool = True):
    """Modified policy iteration on the unit-time backward operator T from
    -K1, until the tail bound.

    Each convolution sweep computes T v at every node.  It stops the
    iteration once its sup-change |T v - v| is at most tol (1 - e^{-lam}),
    and then returns T v: T contracts by e^{-lam}, so |T v - v*| <= tol.
    Otherwise policy evaluation follows.  With z*(x) the first argpoint of
    node x, a(x) = (T v)(x) - e^{-lam} v(z*(x)) is its path cost (a tied
    argpoint gives the same), and the passes iterate
    w -> e^{-lam} P w + a from w = T v, P the interpolation weights at the
    argpoints, until a pass changes w by at most tol (1 - e^{-lam}) or
    after as many passes as the sweep cap.  P is stochastic, so the passes
    converge at the rate e^{-lam}; the next sweep starts from w.  The
    evaluated policy's value lies above the fixed point, so the sweeps
    after the first approach it from above.  The stopping rule and the
    certificate are those of plain value iteration, as only sweeps are
    tested and a sweep's output is returned.  A stop tol (1 - e^{-lam}) at
    or below 8 ulps of max(K1, K2), the bound of |v|, could never be met
    through rounding, and raises :class:`NoConvergence` before the first
    sweep.

    Every sweep applies one :class:`DiscountedOperator`, whose plan keeps
    what does not depend on v: the candidates of each node's ball, their
    straight-segment actions and every coarse and fine path solved so far.
    A sweep recomputes the scan costs with the new v, solves the paths of
    candidates new to the re-scores, and runs the polish and the Richardson
    pass; its answer is that of a fresh operator bit for bit.  The plan is
    built again only if the search radius, set by max(lip_cap, Lip v),
    changes.

    The grid is treated as one period per axis by default; discounted
    localization radii exceed any affordable non-periodic padding, so
    non-periodic boxes are only accepted when their interior margin covers
    the search ball at every node (otherwise the operator raises).
    Returns (v, SolveReport).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    k1, k2 = bounds_K(problem)
    lam = problem.lam
    v = GridFunction.from_callable(lambda p: np.full(p.shape[:-1], -k1), box,
                                   resolution, periodic=periodic)
    nodes = v.nodes()
    # fixed search Lipschitz bound: the a-priori constant of the fixed point
    lip_cap = 0.5 + problem.c2 + lam * max(k1, k2)

    spread = k1 + k2
    cap = 10 if spread <= tol else math.ceil(math.log(spread / tol) / lam) + 10
    decay = math.exp(-lam)
    stop = tol * (1.0 - decay)
    if not stop > _ROUNDING_ULPS * np.spacing(max(k1, k2)):
        raise NoConvergence(
            f"stopping rule tol (1 - e^-lam) = {stop:.3g} is below the rounding of "
            f"|v| <= {max(k1, k2):.3g}, {_ROUNDING_ULPS} ulps; raise lam or tol")
    sup_changes, policy_passes = [], []
    operator = DiscountedOperator(problem, 1.0, nodes, lip_bound=lip_cap)
    for _ in range(cap):
        results = operator(v)
        swept = np.array([r.value for r in results])
        change = float(np.max(np.abs(swept - v.values.reshape(-1))))
        sup_changes.append(change)
        if change <= stop:
            v = v.with_values(swept.reshape(v.resolution))
            policy_passes.append(0)
            break
        # policy evaluation, each node's first argpoint held: the path costs
        # make the held map reproduce the sweep at v
        index, weight = v.interpolation_weights([r.arg.argpoints[0] for r in results])

        def held(w):
            return np.sum(weight * w[index], axis=1)

        cost = swept - decay * held(v.values.reshape(-1))
        w = swept
        for passes in range(1, cap + 1):
            w, before = decay * held(w) + cost, w
            if float(np.max(np.abs(w - before))) <= stop:
                break
        policy_passes.append(passes)
        v = v.with_values(w.reshape(v.resolution))
    else:
        raise NoConvergence(
            f"discounted iteration: sup-change {sup_changes[-1]:.3g} > {stop:.3g} "
            f"after {cap} sweeps")

    # a sampled field carries interpolation error, so the residual check
    # runs at a tolerance looser than the iteration's
    residual = residual_check(problem, v, samples=33, tol=10 * tol).sup_residual
    report = SolveReport(iterations=len(sup_changes), sup_changes=sup_changes,
                         policy_passes=policy_passes, K1=k1, K2=k2,
                         final_residual=residual, tol=tol)
    return v, report


# ---------------------------------------------------------------------------
# value fields

class ValueField:
    """Value field u(t, x) whose data at t = 0 is the grid ``u0``.

    Subclasses supply what the solvers and the singular layer call:
    ``values(t, xs)``; ``certificate_search(t, xs)``, one ``SearchResult``
    per row whose ``momenta`` are the tied minimizers' end momenta
    (``d_end``); ``domain(t)``, the box where u(t, .) can be evaluated; and
    ``action_lagrangian(T)``, the action model of horizon T, whose growth
    data and the Lipschitz estimate of ``u0`` give the localization
    constants.  ``values`` and ``certificate_search`` take one time for
    every row of ``xs`` or a (P,) array of per-row times, and search a batch
    at once; a row's answer does not depend on the other rows of its batch.
    A field whose u(t, .) is a grid interpolant times a scale says so
    through ``grid_data``, and the argmax of the singular layer then
    polishes cell by cell instead of zooming.
    """

    def __init__(self, u0: GridFunction):
        self.u0 = u0
        self.dimension = u0.dimension

    def lambda1(self, T: float) -> float:
        return localization_radius(self.action_lagrangian(T).growth,
                                   self.u0.lipschitz_estimate)

    def lipschitz_bound(self, T: float) -> float:
        return solution_lipschitz_bound(self.action_lagrangian(T).growth, T,
                                        self.u0.lipschitz_estimate)

    def lambda2(self, T: float) -> float:
        return localization_radius(self.action_lagrangian(T).growth,
                                   self.lipschitz_bound(T))

    def grid_data(self, ts):
        """(grid, scales) with u(t_j, .) = scales[j] * grid at the times ts,
        or None when u(t, .) is no scaled grid interpolant."""
        return None


def _row_times(t, xs) -> np.ndarray:
    """The time of each row of xs: t broadcast to (P,)."""
    return np.broadcast_to(np.asarray(t, dtype=float), (len(xs),))


class EvolutionaryField(ValueField):
    """Value field u(t, x) of an initial-value problem, evaluated on demand.

    Every evaluation with t > 0 is a localized inf-convolution of the
    initial data; a batch is one search over its rows and their times, in
    which rows equal to 12 digits are searched once.
    """

    def __init__(self, model: LagrangianModel, u0: GridFunction):
        super().__init__(u0)
        self.model = model

    def action_lagrangian(self, T: float) -> LagrangianModel:
        return self.model

    def search_radius(self, t):
        """Radius of the a-priori ball of u(t, x) around x: lambda_1 times t
        (t a scalar or one time per row)."""
        return self.lambda1(t) * t

    def values(self, t, xs) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ts = _row_times(t, xs)
        out = np.empty(len(xs))
        now = ts <= 0.0
        if now.any():
            out[now] = np.asarray(self.u0(xs[now]), dtype=float).reshape(-1)
        keys = {i: (round(float(ts[i]), 12), tuple(np.round(xs[i], 12)))
                for i in np.flatnonzero(~now)}
        # one search over the first row of each key, every time of the batch
        first = {}
        for i, k in keys.items():
            first.setdefault(k, i)
        if first:
            rows = list(first.values())
            t_rows = float(t) if np.ndim(t) == 0 else ts[rows]
            found = localized_convolution(self.model, self.u0, 0.0, t_rows, xs[rows],
                                          self.search_radius(t_rows))
            value = {k: r.value for k, r in zip(first, found)}
            for i, k in keys.items():
                out[i] = value[k]
        return out

    def certificate_search(self, t, xs) -> list:
        """Tied minimizers of u(t, .) at the rows of xs; needs t > 0."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if np.any(_row_times(t, xs) <= 0):
            raise ValueError("evolutionary reachable gradients need t > 0")
        return localized_convolution(self.model, self.u0, 0.0, t, xs,
                                     self.search_radius(t),
                                     polish_window=_CERTIFICATE_POLISH_WINDOW)

    def domain(self, t: float):
        """Box of u(t, .): non-periodic axes lose the localization pad."""
        lo, hi = self.u0.box[:, 0].copy(), self.u0.box[:, 1].copy()
        pad = self.search_radius(t) + np.max(self.u0.spacing)
        open_axes = ~np.asarray(self.u0.periodic)
        lo[open_axes] += pad
        hi[open_axes] -= pad
        return lo, hi


def solve_evolutionary(model: LagrangianModel, u0: GridFunction, times, box,
                       resolution):
    """Value fields u(t_j, .) on the target box, one independent shot each.

    ``u0`` must cover the target box padded by the localization radius
    times the largest requested time; otherwise the operator raises
    :class:`BoundaryClipped`.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(np.diff(times) <= 0) or times[0] <= 0:
        raise ValueError("times must be increasing and positive")
    target = GridFunction.from_callable(lambda p: np.zeros(p.shape[:-1]), box,
                                        resolution)
    nodes = target.nodes()
    field = EvolutionaryField(model, u0)
    slices = []
    for t in times:
        vals = field.values(float(t), nodes).reshape(target.resolution)
        slices.append(GridFunction(target.box, vals))
    return slices


class DiscountedField(ValueField):
    """Solved discounted field v with its evolutionary lift u(t,x) = e^{lam t} v(x).

    The lift's data at t = 0 is v, so ``u0`` is v.
    """

    def __init__(self, problem: DiscountedProblem, v: GridFunction):
        super().__init__(v)
        self.problem = problem

    @property
    def v(self) -> GridFunction:
        return self.u0

    def action_lagrangian(self, T: float) -> LagrangianModel:
        """The lift ``to_evolutionary`` of horizon T."""
        return to_evolutionary(self.problem, horizon=T)[0]

    def grid_data(self, ts):
        """(v, e^{lam t}) per time: u(t, .) = e^{lam t} v."""
        # math.exp, time by time: numpy's vectorized exp may round differently
        return self.v, np.array([math.exp(self.problem.lam * t) for t in np.ravel(ts)])

    def values(self, t, xs) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        grid, scale = self.grid_data(_row_times(t, xs))
        return scale * np.asarray(grid(xs), dtype=float).reshape(-1)

    def certificate_search(self, t, xs) -> list:
        """Tied minimizers of the backward representation of v at the rows of
        xs, searched at the probe horizon min(0.5, 10/lam) whatever t is."""
        probe = min(0.5, 10.0 / self.problem.lam)
        return discounted_lax_oleinik(self.problem, self.v, probe, xs,
                                      polish_window=_CERTIFICATE_POLISH_WINDOW)

    def domain(self, t: float):
        """Box of v, unbounded along periodic axes."""
        lo, hi = self.v.box[:, 0].copy(), self.v.box[:, 1].copy()
        periodic = np.asarray(self.v.periodic)
        lo[periodic] = -np.inf
        hi[periodic] = np.inf
        return lo, hi


# ---------------------------------------------------------------------------
# residual verification

def _stencil_gradients(lines, h, tol):
    """(gradient, g_minus, g_plus, stable) from 5-point stencils lines[0..4].

    ``lines`` is (5, ...) and ``h`` broadcasts against lines[0].
    Stability needs the two centered stencils to agree and the one-sided
    slopes not to jump (a symmetric kink fools the centered test alone).
    """
    g1 = (lines[3] - lines[1]) / (2 * h)
    g2 = (lines[4] - lines[0]) / (4 * h)
    g_minus = (lines[2] - lines[1]) / h
    g_plus = (lines[3] - lines[2]) / h
    stable = ((np.abs(g1 - g2) <= 10 * tol)
              & (np.abs(g_plus - g_minus) <= 10 * np.maximum(h, np.abs(g1 - g2))))
    return g1, g_minus, g_plus, stable


def residual_check(problem_or_model, fields, samples: int = 65, tol: float = 1e-3,
                   times=None):
    """Pointwise equation residuals on a sample of grid nodes.

    Discounted usage: ``residual_check(problem, v)`` checks
    lam*v + H(x, Dv) where the numerical gradient is stable (two centered
    stencils agree within 10*tol) and runs the one-sided-gradient
    subsolution test elsewhere.

    Evolutionary usage: ``residual_check(model, field, times=[...])`` with an
    :class:`EvolutionaryField` checks D_t u + H(t, x, D_x u) at interior
    sample nodes of the initial grid, using time probes of +-0.02 for D_t.
    """
    if isinstance(problem_or_model, DiscountedProblem):
        return _residual_discounted(problem_or_model, fields, samples, tol)
    if isinstance(fields, EvolutionaryField):
        if times is None:
            raise ValueError("evolutionary residual check needs times")
        return _residual_evolutionary(problem_or_model, fields, times, samples, tol)
    raise InvalidProblem("residual_check expects (problem, grid) or (model, field)")


def _residual_discounted(problem: DiscountedProblem, v: GridFunction,
                         samples: int, tol: float) -> ResidualReport:
    lam, H = problem.lam, problem.hamiltonian.H
    total = int(np.prod(v.resolution))
    picks = np.arange(0, total, max(1, total // samples))
    x = v.nodes()[picks]
    vals = v.values.reshape(-1)[picks]

    # probe[c, o, ax, i]: coordinate c of pick i moved by o - 2 along axis ax
    res = np.asarray(v.resolution)[:, None, None, None]
    idx = np.array(np.unravel_index(picks, v.resolution))[:, None, None]
    eye = np.eye(v.dimension, dtype=int)[:, None, :, None]
    probe = idx + np.arange(-2, 3)[:, None, None] * eye
    periodic = np.asarray(v.periodic)[:, None, None, None]
    inside = np.all((probe >= 0) & (probe < res) | periodic, axis=(0, 1, 2))
    g1, g_minus, g_plus, ax_stable = _stencil_gradients(
        v.values[tuple(probe % res)], np.asarray(v.spacing)[:, None], tol)
    stable = inside & np.all(ax_stable, axis=0)

    r = np.abs(lam * vals[stable] + H(0.0, x[stable], g1[:, stable].T))
    sup_res = float(np.max(r, initial=0.0))
    # subsolution test over the hull of the one-sided gradients
    hull = inside & ~stable
    sub_margin = 0.0
    if hull.any():
        lo = np.minimum(g_minus, g_plus)[:, hull].T
        hi = np.maximum(g_minus, g_plus)[:, hull].T
        w = np.linspace(0.0, 1.0, 17)[:, None]
        p = lo[:, None] + w * (hi - lo)[:, None]              # (hull, 17, n)
        xh = np.broadcast_to(x[hull][:, None], p.shape)
        sub_margin = float(np.max(lam * vals[hull][:, None] + H(0.0, xh, p)))
    return ResidualReport(sup_residual=sup_res, stable_points=int(stable.sum()),
                          unstable_points=int(len(picks) - stable.sum()),
                          subsolution_margin=sub_margin, tol=tol)


def _residual_evolutionary(model: LagrangianModel, field: EvolutionaryField,
                           times, samples: int, tol: float) -> ResidualReport:
    dt_probe = 0.02
    grid = field.u0
    nodes = grid.nodes()
    # restrict samples to where the localization ball stays inside the grid
    t_max = float(np.max(times)) + dt_probe
    pad = field.search_radius(t_max) + 3 * float(np.max(grid.spacing))
    inner = np.ones(len(nodes), dtype=bool)
    for ax in range(grid.dimension):
        if not grid.periodic[ax]:
            inner &= ((nodes[:, ax] >= grid.box[ax, 0] + pad)
                      & (nodes[:, ax] <= grid.box[ax, 1] - pad))
    nodes = nodes[inner]
    if len(nodes) == 0:
        raise InvalidProblem("no interior sample nodes: grid too small for "
                             "the localization pad")
    stride = max(1, len(nodes) // samples)
    nodes = nodes[::stride]

    n, hx = grid.dimension, float(np.max(grid.spacing))
    times = np.atleast_1d(np.asarray(times, dtype=float))
    # one batch: the 5-point stencil of every node along every axis at each
    # time (the repeated centre is searched once) and each node at t +- dt_probe
    offsets = np.arange(-2, 3)[:, None, None] * hx * np.eye(n)      # (5, n, n)
    pts = np.concatenate([nodes + offsets.reshape(-1, 1, n), [nodes, nodes]])
    dts = np.r_[np.zeros(5 * n), dt_probe, -dt_probe]
    vals = field.values(np.repeat(times[:, None] + dts, len(nodes), axis=1).reshape(-1),
                        np.tile(pts.reshape(-1, n), (len(times), 1)))
    vals = vals.reshape(len(times), 5 * n + 2, len(nodes))
    lines = vals[:, :5 * n].reshape(len(times), 5, n, -1)   # (time, offset, axis, node)
    g1, _, _, ax_stable = _stencil_gradients(lines.transpose(1, 0, 2, 3), hx, tol)
    stable = np.all(ax_stable, axis=1)                       # (time, node)
    dtu = (vals[:, -2] - vals[:, -1]) / (2 * dt_probe)
    t_rows = np.broadcast_to(times[:, None], stable.shape)[stable]
    x_rows = np.broadcast_to(nodes, stable.shape + (n,))[stable]
    h = model.hamiltonian.H(t_rows, x_rows, g1.transpose(0, 2, 1)[stable])
    n_stable = int(stable.sum())
    return ResidualReport(sup_residual=float(np.max(np.abs(dtu[stable] + h), initial=0.0)),
                          stable_points=n_stable, unstable_points=stable.size - n_stable,
                          subsolution_margin=0.0, tol=tol)
