"""Grid-sampled scalar fields and the localized inf-convolution operator.

The operator searches the infimum of ``f(z) + A(z, x)`` only inside the
a-priori ball whose radius is the localization constant times the time
gap; that bound is what keeps the scan finite, and every :class:`ArgBall`
a search returns asserts that its argument points lie inside it.  (The
sup-convolution that moves a singularity forward is the argmax of
``singular._argmax_points``.)  The search is
a three-stage pipeline: a straight-segment quadrature ranks every node in
the ball, the optimizing direct method re-scores a window around the
leaders, and a cell-by-cell polish produces the final value and the
(possibly tied) argument set.  The re-score has two levels: every
candidate in the window gets a cheap 4-segment path, and only those whose
coarse cost is within the polish window plus a margin of the coarse best
get a ``PATH_SEGMENTS`` path.  The margin is measured, not set: it grows to
twice the spread of fine minus coarse cost over the query's fine-scored
candidates.  The polish uses that f is linear between grid nodes along
each axis: it locates the minimizer in each cell from the endpoint
derivatives of the action, which the direct method returns, and
Richardson-refined actions give the final values.

Grids are axis-aligned boxes with multilinear interpolation.  An axis may
be periodic, in which case node values wrap and the candidate enumeration
works with real-line representatives near the query point.  Periodic
wrapping is what makes discounted fixed-point iteration possible on a
single period; the localization radii of the a-priori bounds routinely
exceed any affordable non-periodic padding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from .action import (
    PATH_SEGMENTS,
    _refine_nodes,
    minimize_paths,
    require_converged,
    straight_line_actions,
)
from .errors import BoundaryClipped, ExponentOverflow
from .model import (
    EXPONENT_CAP,
    DiscountedProblem,
    GrowthData,
    LagrangianModel,
    to_evolutionary,
)

TIE_TOL = 1e-6  # values this close to the optimum count as tied optima
_COARSE_SEGMENTS = 4  # segments of the re-score that picks the fine one's rows
_SWEEP_SHRINK = 0.4  # polish half-width factor from one sweep to the next

# ---------------------------------------------------------------------------
# grid functions

class GridFunction:
    """Scalar field sampled on a rectangular box, multilinear interpolation.

    Parameters
    ----------
    box : (n, 2) array
        Axis-aligned bounds [a_i, b_i].
    values : ndarray
        Node values, shape = resolution.  Stored read-only.
    periodic : bool or tuple of bool
        Periodic axes wrap: node i lives at a + i*(b-a)/m and position b
        identifies with a.  Non-periodic axes place m nodes on [a, b].
    """

    def __init__(self, box, values, periodic=False):
        box = np.asarray(box, dtype=float)
        if box.ndim == 1:
            box = box[None, :]
        values = np.asarray(values, dtype=float)
        if box.shape[0] != values.ndim or np.any(box[:, 1] <= box[:, 0]):
            raise ValueError("box must be (n, 2) with min < max, matching values.ndim")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite")
        self.box = box
        self.dimension = box.shape[0]
        self.resolution = values.shape
        if isinstance(periodic, bool):
            periodic = (periodic,) * self.dimension
        self.periodic = tuple(bool(p) for p in periodic)
        self.values = values.copy()
        self.values.setflags(write=False)
        self.spacing = np.array([
            (b - a) / (m if per else m - 1)
            for (a, b), m, per in zip(box, values.shape, self.periodic)
        ])
        self.lipschitz_estimate = self._lipschitz()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_callable(cls, fn, box, resolution, periodic=False):
        box = np.asarray(box, dtype=float)
        if box.ndim == 1:
            box = box[None, :]
        if np.isscalar(resolution):
            resolution = (int(resolution),) * box.shape[0]
        if isinstance(periodic, bool):
            periodic = (periodic,) * box.shape[0]
        axes = [
            np.linspace(a, b, m, endpoint=not per)
            for (a, b), m, per in zip(box, resolution, periodic)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack(mesh, axis=-1)
        return cls(box, np.asarray(fn(pts), dtype=float), periodic)

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.box, values, self.periodic)

    # -- geometry ----------------------------------------------------------

    def axes(self):
        return [
            np.linspace(a, b, m, endpoint=not per)
            for (a, b), m, per in zip(self.box, self.resolution, self.periodic)
        ]

    def nodes(self):
        """All node coordinates, shape (prod(resolution), n)."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, self.dimension)

    def _lipschitz(self) -> float:
        total = 0.0
        for ax in range(self.dimension):
            diff = np.diff(self.values, axis=ax)
            quot = 0.0 if diff.size == 0 else float(np.max(np.abs(diff))) / self.spacing[ax]
            if self.periodic[ax]:
                wrap = np.abs(np.take(self.values, 0, axis=ax)
                              - np.take(self.values, -1, axis=ax))
                if wrap.size:
                    quot = max(quot, float(np.max(wrap)) / self.spacing[ax])
            total += quot ** 2
        return math.sqrt(total)

    def interpolation_error_bound(self) -> float:
        """Bound on |interpolant - underlying field| from second differences."""
        total = 0.0
        for ax in range(self.dimension):
            vals = self.values
            if self.periodic[ax]:
                # wrap both ends: the stencils centred on the first and last nodes
                vals = np.concatenate([np.take(vals, [-1], axis=ax), vals,
                                       np.take(vals, [0], axis=ax)], axis=ax)
            d2 = np.diff(vals, n=2, axis=ax)
            if d2.size:
                total += float(np.max(np.abs(d2))) / 8.0
        return total

    # -- evaluation ---------------------------------------------------------

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        squeeze = pts.ndim == 1
        pts = np.atleast_2d(pts)
        flat = pts.reshape(-1, self.dimension)
        idx0, frac = [], []
        for ax in range(self.dimension):
            a, b = self.box[ax]
            m = self.resolution[ax]
            h = self.spacing[ax]
            u = (flat[:, ax] - a) / h
            # snap to exact node indices so nodes reproduce stored values
            near = np.abs(u - np.round(u)) < 1e-9
            u = np.where(near, np.round(u), u)
            if self.periodic[ax]:
                u = np.mod(u, m)
                i0 = np.floor(u).astype(int) % m
            else:
                span = b - a
                if np.any(flat[:, ax] < a - 1e-9 * span) or np.any(flat[:, ax] > b + 1e-9 * span):
                    raise BoundaryClipped(
                        f"evaluation outside box on axis {ax}")
                u = np.clip(u, 0.0, m - 1)
                i0 = np.minimum(np.floor(u).astype(int), m - 2 if m > 1 else 0)
            idx0.append(i0)
            frac.append(u - i0)
        out = np.zeros(flat.shape[0])
        for corner in range(1 << self.dimension):
            weight = np.ones(flat.shape[0])
            index = []
            for ax in range(self.dimension):
                if corner >> ax & 1:
                    i = idx0[ax] + 1
                    if self.periodic[ax]:
                        i = i % self.resolution[ax]
                    else:
                        i = np.minimum(i, self.resolution[ax] - 1)
                    weight = weight * frac[ax]
                else:
                    i = idx0[ax]
                    weight = weight * (1.0 - frac[ax])
                index.append(i)
            out += weight * self.values[tuple(index)]
        out = out.reshape(pts.shape[:-1])
        return float(out[0]) if squeeze else out

    # -- persistence ---------------------------------------------------------

    def write(self, path, lam: Optional[float] = None, comments=()):
        lines = [f"# {c}" for c in comments]
        lines.append(f"dim {self.dimension}")
        lines.append("box " + " ".join(repr(float(v)) for v in self.box.reshape(-1)))
        lines.append("resolution " + " ".join(str(m) for m in self.resolution))
        if lam is not None:
            lines.append(f"lambda {repr(float(lam))}")
        if any(self.periodic):
            lines.append("periodic " + " ".join("1" if p else "0" for p in self.periodic))
        lines.extend(repr(float(v)) for v in self.values.reshape(-1))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def read(cls, path):
        """Returns (grid, lam-or-None)."""
        header = {}
        values = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if parts[0] in ("dim", "box", "resolution", "lambda", "periodic"):
                    header[parts[0]] = parts[1:]
                else:
                    values.append(float(parts[0]))
        n = int(header["dim"][0])
        box = np.array([float(v) for v in header["box"]], dtype=float).reshape(n, 2)
        resolution = tuple(int(m) for m in header["resolution"])
        periodic = tuple(bool(int(p)) for p in header.get("periodic", ["0"] * n))
        lam = float(header["lambda"][0]) if "lambda" in header else None
        return cls(box, np.array(values).reshape(resolution), periodic), lam


# ---------------------------------------------------------------------------
# a-priori constants

def localization_radius(growth: GrowthData, K: float) -> float:
    """Per-unit-time bound on |argmin - x| for Lipschitz-constant-K inputs."""
    if K < 0:
        raise ValueError("need K >= 0")
    s = K + 1.0
    return float(0.5 * s * s + growth.c_T + growth.offset)


def solution_lipschitz_bound(growth: GrowthData, T: float, lip_u0: float) -> float:
    """Lipschitz bound on the value field up to horizon T from Lip of the data.

    Chains the energy estimate: a spatial-gradient bound F1 from the energy
    at the endpoint, a time-derivative bound F2 through the equation, and
    returns sqrt(F1^2 + F2^2).
    """
    lam1 = localization_radius(growth, lip_u0)
    f1 = (0.5 * lip_u0 * lip_u0 + growth.c_T + 2.0 * growth.rate * growth.c_T * T
          + growth.rate * T * growth.upper(lam1) + growth.upper(1.0))
    # theta_lower^*(F1) + c_T + |theta_upper^*(F1)|
    f2 = (0.5 * f1 * f1 + growth.c_T
          + abs(0.5 * f1 * f1 / growth.scale - growth.offset))
    return float(math.hypot(f1, f2))


# ---------------------------------------------------------------------------
# argument sets

@dataclass
class ArgBall:
    """Localization ball plus the near-optimal argument points found in it."""

    center: np.ndarray
    radius: float
    argpoints: list = dataclass_field(default_factory=list)
    spacing: float = 0.0

    def __post_init__(self):
        self.center = np.atleast_1d(np.asarray(self.center, dtype=float))
        for z in self.argpoints:
            d = float(np.linalg.norm(np.asarray(z) - self.center))
            if d > self.radius + self.spacing + 1e-9:
                raise ValueError(
                    f"argpoint at distance {d:.6g} outside ball radius {self.radius:.6g}")


# ---------------------------------------------------------------------------
# candidate enumeration

def periodic_radius_cap(grid: GridFunction, ax: int) -> float:
    """Search radius cap on axis ``ax``: inf unless the axis is periodic, where
    half a period plus 2 cells suffices (every node value has a representative
    there, and farther wraps only pay more transport)."""
    if not grid.periodic[ax]:
        return np.inf
    a, b = grid.box[ax]
    return 0.5 * (b - a) + 2 * grid.spacing[ax]


def _axis_candidates(grid: GridFunction, ax: int, center: float, radius: float):
    a, b = grid.box[ax]
    nodes = np.linspace(a, b, grid.resolution[ax], endpoint=not grid.periodic[ax])
    if grid.periodic[ax]:
        span = b - a
        r_eff = min(radius, periodic_radius_cap(grid, ax))
        k_lo = math.floor((center - r_eff - a) / span)
        k_hi = math.ceil((center + r_eff - a) / span)
        out = []
        for k in range(k_lo - 1, k_hi + 1):
            shifted = nodes + k * span
            mask = (shifted >= center - r_eff) & (shifted <= center + r_eff)
            out.append(shifted[mask])
        pos = np.unique(np.concatenate(out)) if out else np.array([center])
        if pos.size == 0:
            pos = np.array([center])
        return pos
    lo, hi = center - radius, center + radius
    if lo < a - 1e-9 * (b - a) or hi > b + 1e-9 * (b - a):
        raise BoundaryClipped(
            f"localization ball [{lo:.4g}, {hi:.4g}] exits box [{a:.4g}, {b:.4g}] on axis {ax}")
    mask = (nodes >= max(lo, a)) & (nodes <= min(hi, b))
    pos = nodes[mask]
    if pos.size == 0:
        pos = np.array([min(max(center, a), b)])
    return pos


def _ball_mesh(axes, center, radius: float):
    """The center, then the points of the product of ``axes`` in its ball."""
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1).reshape(-1, center.size)
    keep = np.linalg.norm(pts - center, axis=1) <= radius + 1e-12
    return np.vstack([center[None, :], pts[keep]])


def _ball_candidates(grid: GridFunction, center, radius: float):
    """Real-line candidate positions in the ball around center, center included."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    return _ball_mesh([_axis_candidates(grid, ax, center[ax], radius)
                       for ax in range(grid.dimension)], center, radius)


# ---------------------------------------------------------------------------
# the cell-wise polish

_SECANT_STEPS = 8   # Illinois steps per cell; the last iterate then stands
_EXCESS_TOL = 1e-13  # a secant iterate stands once |slope| times its bracket,
                     # which bounds its cost excess in a convex cell, is below
                     # this times (1 + |A|)


def _axis_breakpoints(f: GridFunction, ax: int, center, width: float):
    """Window [c - w, c + w] around each center on axis ``ax``, clipped to
    the box if the axis is not periodic, cut at the grid nodes inside it.

    Returns (owner, x): the breakpoints in increasing order per center,
    window ends included, and the index of the center each belongs to.
    """
    h, a = f.spacing[ax], f.box[ax, 0]
    lo, hi = center - width, center + width
    if not f.periodic[ax]:
        lo = np.maximum(lo, a)
        hi = np.minimum(hi, f.box[ax, 1])
    nodes = a + (np.floor((lo - a) / h)[:, None]
                 + np.arange(1, int(2 * width / h) + 3)) * h
    gap = 1e-9 * h
    inside = (nodes > lo[:, None] + gap) & (nodes < hi[:, None] - gap)
    ends = np.ones((len(center), 1), dtype=bool)
    owner, col = np.nonzero(np.hstack([ends, inside, ends]))
    return owner, np.hstack([lo[:, None], nodes, hi[:, None]])[owner, col]


def _illinois(evaluate, x_lo, x_hi, d_lo, d_hi, n_lo, n_hi):
    """Root of the cost slope in each cell [x_lo, x_hi], d_lo < 0 < d_hi.

    ``evaluate(rows, x, warm)`` returns (cost, action, slope, nodes) at x in
    the cells ``rows``.  Each step is the regula falsi point of the
    bracket, warm-started from the path of the nearer bracket end; an end
    kept twice in a row has its slope halved (the Illinois rule).  A cell
    stops once |slope| times its bracket, which bounds the cost excess of
    a convex cell, is below ``_EXCESS_TOL`` (1 + |A|), or after
    ``_SECANT_STEPS`` steps.  The bracket arrays are updated in place.
    Returns (x, cost, action, nodes) of each cell's last step.
    """
    C = len(x_lo)
    last = np.zeros(C, dtype=int)            # end replaced last: -1 lo, +1 hi
    xc, cc, ac = np.empty(C), np.full(C, np.inf), np.full(C, np.nan)
    nc = np.empty_like(n_lo)
    active = np.arange(C)
    for _ in range(_SECANT_STEPS):
        if active.size == 0:
            break
        i = active
        x = x_lo[i] - d_lo[i] * (x_hi[i] - x_lo[i]) / (d_hi[i] - d_lo[i])
        x = np.clip(x, x_lo[i], x_hi[i])
        near_lo = (x - x_lo[i]) <= (x_hi[i] - x)
        warm = np.where(near_lo[:, None, None], n_lo[i], n_hi[i])
        cc[i], ac[i], d, nc[i] = evaluate(i, x, warm)
        xc[i] = x
        up = d > 0                                   # x becomes the upper end
        bracket = np.where(up, x - x_lo[i], x_hi[i] - x)
        done = np.abs(d) * bracket <= _EXCESS_TOL * (1.0 + np.abs(ac[i]))
        lo_i, hi_i = i[~up & ~done], i[up & ~done]
        d_hi[lo_i[last[lo_i] == -1]] *= 0.5
        d_lo[hi_i[last[hi_i] == 1]] *= 0.5
        x_lo[lo_i], d_lo[lo_i], n_lo[lo_i] = xc[lo_i], d[~up & ~done], nc[lo_i]
        x_hi[hi_i], d_hi[hi_i], n_hi[hi_i] = xc[hi_i], d[up & ~done], nc[hi_i]
        last[lo_i], last[hi_i] = -1, 1
        active = i[~done]
    return xc, cc, ac, nc


def _cell_polish(f: GridFunction, solve, z, paths):
    """Cyclic per-axis minimization of ``f(z) + A(z)`` around each row of z.

    ``solve(points, rows, warm)`` returns ``(A, dA, nodes)`` at ``points``
    (P, n) for the seeds ``rows``: the actions (P,), their derivatives in
    the point (P, n) and the paths, warm-started at ``warm``, paths of
    earlier points of the same seeds; ``paths`` holds one per row of z.

    Along an axis f is linear between grid nodes.  So on each axis the
    window [z - w, z + w] is cut at the nodes (:func:`_axis_breakpoints`)
    and one batch evaluates the cost and its slope at every breakpoint.  A
    cell whose end slopes bracket 0 holds an interior minimizer, found by
    :func:`_illinois`.  So does a cell where the slope at one end that a
    quadratic through both end costs and the other end's slope implies
    brackets 0 with that other slope: at a concave kink of the action the
    slope read at a breakpoint is a supergradient, not the slope inside
    the cell.  The winner is the least cost among the current
    point, the breakpoints and the cell minimizers, so a convex kink is
    returned as its node.  w is the largest grid spacing, shrunk by 0.4
    per sweep; nD runs up to three sweeps, and a seed stops after a sweep
    that moved it less than 1e-6 of that spacing.  Every seed's steps and
    stops depend on that seed alone, so a batch gives the answers of
    one-seed calls bit for bit.  Returns (points, costs, actions, path
    nodes).
    """
    z = np.array(z, dtype=float)
    paths = np.array(paths, dtype=float)
    S, n = z.shape
    cost, act = np.full(S, np.inf), np.full(S, np.nan)
    h_ref = float(np.max(f.spacing))
    width = h_ref
    live = np.arange(S)
    for _ in range(1 if n == 1 else 3):
        before = z[live].copy()
        for ax in range(n):

            def evaluate(seeds, x, warm):
                pts = z[seeds].copy()
                pts[:, ax] = x
                a, da, nodes = solve(pts, seeds, warm)
                fv = np.asarray(f(pts), dtype=float).reshape(-1)
                return fv + a, a, da[:, ax], nodes, fv

            owner, xb = _axis_breakpoints(f, ax, z[live, ax], width)
            seeds = live[owner]
            cb, ab, db, nb, fb = evaluate(seeds, xb, paths[seeds])
            # cells between consecutive breakpoints of one seed
            left = np.nonzero(owner[:-1] == owner[1:])[0]
            right = left + 1
            slope = (fb[right] - fb[left]) / (xb[right] - xb[left])
            d_lo, d_hi = slope + db[left], slope + db[right]
            # where the end slopes do not bracket 0, the slope at one end that
            # a quadratic through both costs and the other end's slope implies
            # may: the action is semiconcave, and at its kinks (a path resting
            # on a kink of the potential, tied minimizers) an end slope is a
            # supergradient, not the slope seen from inside the cell
            secant = (cb[right] - cb[left]) / (xb[right] - xb[left])
            beyond = 1e-9 * (1.0 + np.abs(secant))     # past rounding
            lo_q, hi_q = 2 * secant - d_hi, 2 * secant - d_lo
            d_lo = np.where((d_lo >= 0) & (d_hi > 0) & (lo_q < -beyond), lo_q, d_lo)
            d_hi = np.where((d_lo < 0) & (d_hi <= 0) & (hi_q > beyond), hi_q, d_hi)
            cells = np.nonzero((d_lo < 0) & (d_hi > 0))[0]
            c_seed, slope = seeds[left[cells]], slope[cells]

            def cell_evaluate(rows, x, warm):
                c, a, da, nodes, _ = evaluate(c_seed[rows], x, warm)
                return c, a, slope[rows] + da, nodes

            xc, cc, ac, nc = _illinois(
                cell_evaluate, xb[left[cells]], xb[right[cells]], d_lo[cells],
                d_hi[cells], nb[left[cells]], nb[right[cells]])

            # the least cost per seed: current point, breakpoints, cell minimizers
            cand_seed = np.concatenate([live, seeds, c_seed])
            cand_cost = np.concatenate([cost[live], cb, cc])
            order = np.lexsort((np.arange(len(cand_seed)), cand_cost, cand_seed))
            best = order[np.r_[True, np.diff(cand_seed[order]) != 0]]
            win = cand_seed[best]
            z[win, ax] = np.concatenate([z[live, ax], xb, xc])[best]
            cost[win] = cand_cost[best]
            act[win] = np.concatenate([act[live], ab, ac])[best]
            paths[win] = np.concatenate([paths[live], nb, nc])[best]
        moved = np.max(np.abs(z[live] - before), axis=1)
        live = live[moved > 1e-6 * h_ref]
        width *= _SWEEP_SHRINK
        if live.size == 0:
            break
    return z, cost, act, paths


# ---------------------------------------------------------------------------
# the localized search

@dataclass
class SearchResult:
    """One query's value and argument set, with one end momentum
    p = L_v(t, x, velocity) per argpoint: the Richardson pass's ``d_end``."""

    value: float
    arg: ArgBall
    momenta: np.ndarray            # (k, n)
    best_point: np.ndarray


def _distinct_basins(rows, points, gap: float) -> list:
    """Up to 6 of rows, in order, each farther than gap from those before.

    Greedy: the first remaining row is taken and drops every row within
    gap of its point, so each pass is one vectorised distance.
    """
    chosen = []
    while rows.size and len(chosen) < 6:
        chosen.append(rows[0])
        rows = rows[np.linalg.norm(points[rows] - points[rows[0]], axis=1) > gap]
    return chosen


def localized_convolution(model: LagrangianModel, f: GridFunction, t1: float,
                          t2, xs, radius, polish_window: Optional[float] = None):
    """Batched localized inf-convolution of f with the action kernel:
    value(x) = min_z f(z) + A_{t1,t2}(z, x), searched in the ball of ``radius``.

    ``t2`` and ``radius`` are scalars or (P,) arrays, one per row of ``xs``;
    a row's answer is the same either way.

    The scan ranks every grid node in the ball by f plus the action of the
    straight segment; those within 1 of their query's leader are re-scored
    with ``_COARSE_SEGMENTS``-segment paths.  The fine re-score, at
    ``PATH_SEGMENTS``, takes the candidates whose coarse cost is within
    window + m of the query's coarse best, m a margin per query.  m starts
    at 0; after each fine batch it becomes twice the spread (max - min) of
    fine - coarse cost over the query's fine-scored candidates, and the
    newly admitted candidates form the next batch, until none is admitted.
    A fine path does not depend on its batch, so the answer is that of a
    fine re-score of every candidate within 1 of its leader whenever the
    fine set holds every polish seed of that re-score.  The polish starts
    from the fine-scored candidates within ``polish_window`` (default
    max(5e-3, h^2 / (t2 - t1)), per row) of the best fine cost, at most six
    per query and more than two cells apart.  It is :func:`_cell_polish`: cell-wise line
    minimization along each axis, driven by the derivative of the action in
    the moving endpoint, each path warm-started from the seed's previous
    one.  Winners within ``TIE_TOL`` of the best are refined by Richardson
    extrapolation from ``PATH_SEGMENTS`` to twice that; the finer pass also
    gives each kept winner's end momentum.  A path of any pass that did not
    converge raises :class:`NoConvergence`.  Returns a list of
    :class:`SearchResult`, one per row of ``xs``.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    P, n = xs.shape
    t2_rows = np.broadcast_to(np.asarray(t2, dtype=float), (P,))
    if not np.all(t2_rows > t1):
        raise ValueError("need t2 > t1")
    radii = np.broadcast_to(np.asarray(radius, dtype=float), (P,))
    h_ref = float(np.max(f.spacing))
    if polish_window is None:
        polish_window = np.maximum(5e-3, h_ref ** 2 / (t2_rows - t1))
    window = np.broadcast_to(polish_window, (P,))

    def horizon(owner_idx):
        # a shared horizon stays a scalar: the paths then share one time row
        return t2 if np.ndim(t2) == 0 else t2_rows[owner_idx]

    cand_list = [_ball_candidates(f, xs[i], radii[i]) for i in range(P)]
    owners = np.concatenate([np.full(len(c), i) for i, c in enumerate(cand_list)])
    cand = np.vstack(cand_list)

    def action_batch(points, owner_idx, nseg, init=None):
        sol = minimize_paths(model, t1, horizon(owner_idx), points, xs[owner_idx],
                             segments=nseg, init_nodes=init)
        require_converged(sol)
        return sol

    f_vals = np.asarray(f(cand), dtype=float).reshape(-1)
    cost = f_vals + straight_line_actions(model, t1, horizon(owners), cand, xs[owners])

    # re-score the scan costs within 1 of each owner's leader, coarsely
    best_per = np.full(P, np.inf)
    np.minimum.at(best_per, owners, cost)
    keep = cost <= best_per[owners] + 1.0
    cand_k, owners_k, f_k = cand[keep], owners[keep], f_vals[keep]
    coarse = action_batch(cand_k, owners_k, _COARSE_SEGMENTS)["action"]
    best_coarse = np.full(P, np.inf)
    np.minimum.at(best_coarse, owners_k, f_k + coarse)

    # then finely, those within window + margin of the coarse best; the
    # margin grows to twice the spread of fine - coarse over the rows scored
    K = len(cand_k)
    fine = np.full(K, np.nan)
    fine_nodes = np.empty((K, PATH_SEGMENTS + 1, n))
    scored = np.zeros(K, dtype=bool)
    margin = np.zeros(P)
    while True:
        limit = best_coarse + window + margin
        rows = np.flatnonzero(~scored & (f_k + coarse <= limit[owners_k]))
        if rows.size == 0:
            break
        sol = action_batch(cand_k[rows], owners_k[rows], PATH_SEGMENTS)
        fine[rows], fine_nodes[rows] = sol["action"], sol["nodes"]
        scored[rows] = True
        hi, lo = np.full(P, -np.inf), np.full(P, np.inf)
        np.maximum.at(hi, owners_k[scored], (fine - coarse)[scored])
        np.minimum.at(lo, owners_k[scored], (fine - coarse)[scored])
        margin = 2.0 * (hi - lo)
    cand_k, owners_k, nodes_k = cand_k[scored], owners_k[scored], fine_nodes[scored]
    cost_acc = f_k[scored] + fine[scored]

    best_acc = np.full(P, np.inf)
    np.minimum.at(best_acc, owners_k, cost_acc)

    results: list[Optional[SearchResult]] = [None] * P
    # polish seeds: near-optimal candidates, cheapest first per owner,
    # thinned to distinct basins
    seed_rows = np.flatnonzero(cost_acc <= best_acc[owners_k] + window[owners_k])
    seed_rows = seed_rows[np.lexsort((cost_acc[seed_rows], owners_k[seed_rows]))]
    owner_ends = np.searchsorted(owners_k[seed_rows], np.arange(P + 1))

    seed_pos, seed_owner, seed_paths = [], [], []
    for i in range(P):
        chosen = _distinct_basins(seed_rows[owner_ends[i]:owner_ends[i + 1]], cand_k,
                                  2.0 * h_ref)
        for r in chosen:
            seed_pos.append(cand_k[r])
            seed_paths.append(nodes_k[r])
            seed_owner.append(i)
        if not chosen:
            # a constant path, moved onto the endpoints, is the straight line
            seed_pos.append(xs[i])
            seed_paths.append(np.broadcast_to(xs[i], nodes_k.shape[1:]))
            seed_owner.append(i)
    polished_owner = np.asarray(seed_owner, dtype=int)

    def solve(points, seeds, warm):
        sol_p = action_batch(points, polished_owner[seeds], PATH_SEGMENTS, init=warm)
        return sol_p["action"], sol_p["d_start"], sol_p["nodes"]

    pos, val, act1, nodes1 = _cell_polish(f, solve, np.asarray(seed_pos),
                                          np.asarray(seed_paths))

    # final assembly: Richardson-refined values for every near-tied winner,
    # batched across owners
    tied_rows, tied_owner = [], []
    for i in range(P):
        rows = np.where(polished_owner == i)[0]
        vals = val[rows]
        order = np.argsort(vals)
        rows, vals = rows[order], vals[order]
        for r, vv in zip(rows, vals):
            if vv <= vals[0] + TIE_TOL:
                tied_rows.append(int(r))
                tied_owner.append(i)
    tied_rows = np.asarray(tied_rows, dtype=int)
    tied_owner = np.asarray(tied_owner, dtype=int)
    pts = pos[tied_rows]
    sol2 = action_batch(pts, tied_owner, 2 * PATH_SEGMENTS,
                        init=_refine_nodes(nodes1[tied_rows]))
    a_ref = sol2["action"] + (sol2["action"] - act1[tied_rows]) / 3.0
    cost_final = np.asarray(f(pts), dtype=float).reshape(-1) + a_ref

    for i in range(P):
        rows = np.where(tied_owner == i)[0]
        vals = cost_final[rows]
        order = np.argsort(vals)
        rows, vals = rows[order], vals[order]
        keep = [r for r, v in zip(rows, vals) if v <= vals[0] + TIE_TOL]
        arg_pts = [pts[r].copy() for r in keep]
        arg = ArgBall(center=xs[i], radius=float(radii[i]), argpoints=arg_pts,
                      spacing=h_ref)
        results[i] = SearchResult(
            value=float(vals[0]), arg=arg, momenta=sol2["d_end"][keep],
            best_point=pts[rows[0]].copy())
    return results


# ---------------------------------------------------------------------------
# public operators

def lax_oleinik_minus(model: LagrangianModel, f: GridFunction, t1: float,
                      t2: float, x):
    """(T^- f)(x) = inf_z f(z) + A_{t1,t2}(z, x), searched in the a-priori ball."""
    xs = np.asarray(x, dtype=float).reshape(1, -1)
    radius = localization_radius(model.growth, f.lipschitz_estimate) * (t2 - t1)
    res = localized_convolution(model, f, t1, t2, xs, radius)[0]
    return res.value, res.arg


def discounted_lax_oleinik(problem: DiscountedProblem, v: GridFunction, t: float,
                           x):
    """Value of the discounted backward operator at one point.

    Computed through the evolutionary transform: exp(-lam t) times the
    inf-convolution of v with the rescaled-action kernel.
    """
    results = discounted_lax_oleinik_batch(problem, v, t,
                                           np.atleast_2d(np.asarray(x, dtype=float)))
    return results[0].value


def discounted_lax_oleinik_batch(problem: DiscountedProblem, v: GridFunction,
                                 t: float, xs, lip_bound: Optional[float] = None,
                                 polish_window: Optional[float] = None):
    """Batched discounted operator: the search on the lift ``to_evolutionary``
    with its values and end momenta (e^{lam t} L_v) scaled by e^{-lam t}, so
    the momenta are gradients of v itself."""
    if t <= 0:
        raise ValueError("need t > 0")
    if problem.lam * t > EXPONENT_CAP:
        raise ExponentOverflow(
            f"lam*t = {problem.lam * t:.3g} exceeds cap {EXPONENT_CAP:g}; "
            "compose shorter steps instead")
    lhat, _ = to_evolutionary(problem, horizon=t)
    K = v.lipschitz_estimate if lip_bound is None else max(lip_bound, v.lipschitz_estimate)
    radius = localization_radius(lhat.growth, K) * t
    results = localized_convolution(lhat, v, 0.0, t, xs, radius,
                                    polish_window=polish_window)
    scale = math.exp(-problem.lam * t)
    for r in results:
        r.value = scale * r.value
        r.momenta = scale * r.momenta
    return results
