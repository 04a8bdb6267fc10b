"""Grid-sampled scalar fields and the localized inf-convolution operator.

The operator searches the infimum of ``f(z) + A(z, x)`` only inside the
a-priori ball whose radius is the localization constant times the time
gap; that bound keeps the scan finite, and every :class:`ArgBall` a search
returns asserts that its argument points lie inside it.  (The
sup-convolution that moves a singularity forward is the argmax of
``singular._argmax_points``, which on a discounted field runs this
module's cell polish, :func:`_cell_polish`, on -phi.)

:func:`localized_convolution` is the one search, and each operator calls
it once on all its query points.  Every stage is one pass over the rows
of all queries, each row tagged with its owner, the query it belongs to,
and per-owner bests are grouped reductions: the grid nodes in each ball
(one index range per axis), a straight-segment scan, a two-level re-score
by the optimizing direct method, polish seeds thinned to distinct basins,
a cell-by-cell polish that uses that f is linear between grid nodes along
each axis, and Richardson-refined values of the near-tied winners, which
are the (possibly tied) argument set.  The only loop over queries builds
the returned :class:`SearchResult` list.

The scan and the coarse level of the re-score are pruned by branch and
bound: the model's growth bound L >= |v|^2/2 - c_T gives each candidate a
floor under its coarse action and under the action of its straight
segment (:func:`action_floor`).  The least scan cost among the rows whose
f plus floor is within 1 of their query's least bounds the query's scan
leader above, so a row whose f plus floor exceeds that bound plus 1 can
neither lead nor come within 1 of the leader, and its straight segment is
never scored.  A candidate whose f plus floor cannot come within reach of
the fine level is never solved coarsely.  The answer is the one of a scan
and a coarse re-score of every candidate.

The search runs through a :class:`ConvolutionPlan`, which holds the work
that does not depend on f: the candidates, their floors, the flat node
index of each candidate on a grid node, and the straight segments and
coarse and fine paths it has scored.  A search reads f at the candidates
on nodes from the node values and interpolates it only at the others
(ball centres off the nodes, and the rows of an axis whose window held no
node).  A one-shot call builds a plan and searches once;
:class:`DiscountedOperator`, which the discounted fixed-point iteration
applies once per sweep, keeps its plan, so a later sweep scores only the
straight segments and paths of candidates new to the scan and the
re-scores, and runs the polish and the Richardson pass.

Grids are axis-aligned boxes with multilinear interpolation.  A periodic
axis wraps node values, and the candidates are real-line representatives
near the query point; that is what makes discounted fixed-point iteration
possible on a single period, since the localization radii routinely exceed
any affordable non-periodic padding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from .action import (
    PATH_SEGMENTS,
    _refine_nodes,
    action_floor,
    minimize_paths,
    require_converged,
    straight_line_actions,
)
from .errors import BoundaryClipped, ConfigError, ExponentOverflow
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
        box = np.asarray(box, dtype=float).reshape(-1, 2)
        if np.isscalar(resolution):
            resolution = (int(resolution),) * len(box)
        grid = cls(box, np.zeros(resolution), periodic)
        pts = grid.nodes().reshape(grid.resolution + (grid.dimension,))
        return grid.with_values(np.asarray(fn(pts), dtype=float))

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

    def interpolation_weights(self, points):
        """The multilinear stencil of each point: (index, weight), both
        (K, 2^n) for the K = prod(shape[:-1]) points of ``points`` (..., n).

        Column c is the corner that takes the upper node on axis ax where
        bit ax of c is set; ``index`` is that node's flat index into
        ``values`` and ``weight`` its weight.  The weights are nonnegative
        and sum to 1.  A coordinate within 1e-9 cells of a node snaps to it,
        so a node's stencil puts its whole weight on that node.  Periodic
        axes wrap; on the others a point more than 1e-9 of the box width
        outside raises :class:`BoundaryClipped`, and one within is clipped.
        """
        flat = np.asarray(points, dtype=float).reshape(-1, self.dimension)
        idx0, frac = [], []
        for ax in range(self.dimension):
            a, b = self.box[ax]
            m = self.resolution[ax]
            u, _ = self._cell_coordinate(flat[:, ax], ax)
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
        K, corners = flat.shape[0], 1 << self.dimension
        index = np.empty((K, corners), dtype=np.intp)
        weight = np.empty((K, corners))
        for corner in range(corners):
            w, flat_index = np.ones(K), 0
            for ax in range(self.dimension):
                if corner >> ax & 1:
                    i = idx0[ax] + 1
                    if self.periodic[ax]:
                        i = i % self.resolution[ax]
                    else:
                        i = np.minimum(i, self.resolution[ax] - 1)
                    w = w * frac[ax]
                else:
                    i = idx0[ax]
                    w = w * (1.0 - frac[ax])
                flat_index = flat_index * self.resolution[ax] + i
            index[:, corner], weight[:, corner] = flat_index, w
        return index, weight

    def _cell_coordinate(self, x, ax: int):
        """(u, near): the coordinates x on axis ``ax`` in cells from the box's
        lower end, snapped to the node index where within 1e-9 cells of one
        (so nodes reproduce stored values), and where that was."""
        u = (x - self.box[ax, 0]) / self.spacing[ax]
        near = np.abs(u - np.round(u)) < 1e-9
        return np.where(near, np.round(u), u), near

    def node_index(self, points):
        """The flat index into ``values`` of the node each of ``points``
        (K, n) snaps to on every axis, -1 where one axis does not snap.  At
        those points the interpolant returns the node's value bit for bit,
        save -0.0, which it returns as 0.0.  Points are taken to lie in the
        box, or anywhere along a periodic axis."""
        index = np.zeros(len(points), dtype=np.intp)
        on = np.ones(len(points), dtype=bool)
        for ax, (m, per) in enumerate(zip(self.resolution, self.periodic)):
            u, near = self._cell_coordinate(points[:, ax], ax)
            i = np.where(near, u, 0).astype(np.intp)
            index = index * m + (i % m if per else np.clip(i, 0, m - 1))
            on &= near
        return np.where(on, index, -1)

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        squeeze = pts.ndim == 1
        pts = np.atleast_2d(pts)
        index, weight = self.interpolation_weights(pts)
        values = self.values.reshape(-1)
        out = np.zeros(len(index))
        for corner in range(index.shape[1]):
            out += weight[:, corner] * values[index[:, corner]]
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
        """Returns (grid, lam-or-None); a malformed file raises
        :class:`ConfigError` naming it."""
        header = {}
        values = []
        try:
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
        except KeyError as exc:
            raise ConfigError(f"grid file {path} has no {exc.args[0]} line") from exc
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"malformed grid file {path}: {exc}") from exc


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


def _ball_mesh(axes, centers, radii):
    """Each center, then the points of the product of its ``axes`` rows in its ball.

    ``axes`` holds one (P, W) array per axis: row i lists center i's
    coordinates on that axis in increasing order, NaN where it has none.
    Returns (owners, points): the points (K, n), each center followed by its
    product points (last axis fastest), and the center each belongs to.
    """
    P, n = centers.shape
    cols = [coords.reshape((P,) + (1,) * ax + (-1,) + (1,) * (n - ax - 1))
            for ax, coords in enumerate(axes)]
    # the squared offsets summed in axis order, as ``np.linalg.norm`` does
    sq = sum((col - centers[:, ax].reshape((P,) + (1,) * n)) ** 2
             for ax, col in enumerate(cols))
    inside = np.sqrt(sq) <= np.reshape(radii, (P,) + (1,) * n) + 1e-12
    keep = np.hstack([np.ones((P, 1), dtype=bool), inside.reshape(P, -1)])
    points = np.empty(keep.shape + (n,))        # per center: itself, then the product
    points[:, 0] = centers
    for ax, col in enumerate(cols):
        points[:, 1:, ax] = np.broadcast_to(col, inside.shape).reshape(P, -1)
    return np.nonzero(keep)[0], points[keep]


def _node_positions(grid: GridFunction, ax: int, m):
    """The coordinates on axis ``ax`` of the node indices m: on a periodic
    axis node m sits at ``axes()[ax][m % M] + (m // M) * period``; on the
    others m is clipped to the box's nodes.  Every node coordinate the
    search compares is built here, so equal nodes compare equal."""
    nodes = grid.axes()[ax]
    (a, b), M = grid.box[ax], grid.resolution[ax]
    if grid.periodic[ax]:
        return nodes[m % M] + (m // M) * (b - a)
    return nodes[np.clip(m, 0, M - 1)]


def _ball_candidates(grid: GridFunction, centers, radii):
    """Real-line candidates in the ball around each center, one pass for all.

    On each axis a center's candidates are the nodes in [c - r, c + r]: one
    range of node indices m.  On a periodic axis r is capped by
    :func:`periodic_radius_cap` and m is unbounded, node m sitting at
    ``nodes[m % M] + (m // M) * period``.  An axis whose window holds no
    node contributes the center coordinate, clipped to the box on a
    non-periodic axis.  Returns (owners, points) as :func:`_ball_mesh`.
    """
    axes = []
    for ax in range(grid.dimension):
        (a, b), M, per = grid.box[ax], grid.resolution[ax], grid.periodic[ax]
        c = centers[:, ax]
        r = np.minimum(radii, periodic_radius_cap(grid, ax))
        lo, hi = c - r, c + r
        if not per:
            out = np.flatnonzero((lo < a - 1e-9 * (b - a)) | (hi > b + 1e-9 * (b - a)))
            if out.size:
                raise BoundaryClipped(f"localization ball [{lo[out[0]]:.4g}, {hi[out[0]]:.4g}]"
                                      f" exits box [{a:.4g}, {b:.4g}] on axis {ax}")
            lo, hi = np.maximum(lo, a), np.minimum(hi, b)
        # a range of m that brackets every window, then the exact window test
        first = np.floor((lo - a) / grid.spacing[ax]).astype(int) - 1
        last = np.ceil((hi - a) / grid.spacing[ax]).astype(int) + 1
        m = first[:, None] + np.arange(np.max(last - first, initial=0) + 1)
        pos = _node_positions(grid, ax, m)
        ok = True if per else (m >= 0) & (m < M)
        ok = ok & (pos >= lo[:, None]) & (pos <= hi[:, None])
        empty = ~ok.any(axis=1)
        pos = np.where(ok, pos, np.nan)
        pos[empty, 0] = c[empty] if per else np.clip(c[empty], a, b)
        axes.append(pos)
    return _ball_mesh(axes, centers, radii)


# ---------------------------------------------------------------------------
# the cell-wise polish

_SECANT_STEPS = 8   # Illinois steps per cell; the last iterate then stands
_EXCESS_TOL = 1e-13  # a secant iterate stands once |slope| times its bracket,
                     # which bounds its cost excess in a convex cell, is below
                     # this times (1 + |A|)


def _axis_breakpoints(f: GridFunction, ax: int, center, width):
    """Window [c - w, c + w] around each center on axis ``ax`` (one w per
    center), clipped to the box if the axis is not periodic, cut at the
    grid nodes inside it.

    Returns (owner, x): the breakpoints in increasing order per center,
    window ends included, and the index of the center each belongs to.
    """
    h, a = f.spacing[ax], f.box[ax, 0]
    lo, hi = center - width, center + width
    if not f.periodic[ax]:
        lo = np.maximum(lo, a)
        hi = np.minimum(hi, f.box[ax, 1])
    first = np.floor((lo - a) / h).astype(int)
    nodes = _node_positions(f, ax, first[:, None]
                            + np.arange(1, int(2 * np.max(width) / h) + 3))
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


def _cell_polish(f: GridFunction, solve, z, paths, actions, gradients,
                 scale=1.0, width=0.0):
    """Cyclic per-axis minimization of ``s f(z) + A(z)`` around each row of z.

    Two searches call it: the convolution's polish (s = 1) and the argmax of
    ``singular._argmax_points`` on a field whose u(t, .) is a scaled grid
    interpolant, which minimizes -phi = -e^{lam t} v + A (s = -e^{lam t}).
    ``scale`` is s, a scalar or one per row of z.

    ``solve(points, rows, warm)`` returns ``(A, dA, nodes)`` at ``points``
    (P, n) for the seeds ``rows``: the actions (P,), their derivatives in
    the point (P, n) and the paths, warm-started at ``warm``, paths of
    earlier points of the same seeds.  ``paths``, ``actions`` and
    ``gradients`` hold that triple at each row of z; a breakpoint at a
    seed's starting point takes it instead of solving again (with the
    path as its own warm start, the solve would stop where it starts).

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
    returned as its node.  w starts at the largest grid spacing, or at
    ``width`` (a scalar or one per row) where that is wider, and shrinks by
    0.4 per sweep; nD runs up to three sweeps, and a seed stops after a sweep
    that moved it less than 1e-6 of that spacing.  Every seed's steps and
    stops depend on that seed alone, so a batch gives the answers of
    one-seed calls bit for bit.  Returns (points, costs, actions, path
    nodes).
    """
    z = np.array(z, dtype=float)
    paths = np.array(paths, dtype=float)
    z0, start = z.copy(), (np.asarray(actions), np.asarray(gradients), paths.copy())
    S, n = z.shape
    cost, act = np.full(S, np.inf), np.full(S, np.nan)
    h_ref = float(np.max(f.spacing))
    scale = np.broadcast_to(np.asarray(scale, dtype=float), (S,))
    width = np.maximum(h_ref, np.broadcast_to(np.asarray(width, dtype=float), (S,)))
    live = np.arange(S)
    for _ in range(1 if n == 1 else 3):
        before = z[live].copy()
        for ax in range(n):

            def evaluate(seeds, x, warm, own=None):
                pts = z[seeds].copy()
                pts[:, ax] = x
                if own is None:
                    a, da, nodes = solve(pts, seeds, warm)
                else:
                    a, da, nodes = (known[seeds] for known in start)
                    new = ~own
                    if new.any():
                        a[new], da[new], nodes[new] = solve(pts[new], seeds[new], warm[new])
                fv = scale[seeds] * np.asarray(f(pts), dtype=float).reshape(-1)
                return fv + a, a, da[:, ax], nodes, fv

            owner, xb = _axis_breakpoints(f, ax, z[live, ax], width[live])
            seeds = live[owner]
            own = (xb == z0[seeds, ax]) & np.all(z[seeds] == z0[seeds], axis=1)
            cb, ab, db, nb, fb = evaluate(seeds, xb, paths[seeds], own)
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


def _owner_min(owners, values, P: int):
    """The least of ``values`` per owner 0..P-1 (inf for an owner without rows)."""
    best = np.full(P, np.inf)
    np.minimum.at(best, owners, values)
    return best


def _near_best(owners, costs, tol, P: int):
    """The rows whose cost is within ``tol`` (a scalar or one per owner) of
    their owner's least, ordered by owner, then cost, then row."""
    limit = _owner_min(owners, costs, P) + np.broadcast_to(tol, (P,))
    rows = np.flatnonzero(costs <= limit[owners])
    return rows[np.lexsort((costs[rows], owners[rows]))]


def _distinct_basins(rows, owners, points, gap: float):
    """Up to 6 of each owner's rows, in order, each farther than gap from
    the rows of that owner taken before it; ``rows`` come grouped by owner.

    Each round takes every owner's first remaining row and drops that
    owner's rows within gap of its point, so a round is one vectorised
    distance.  Returns the rows taken, ordered by owner, then by round.
    """
    taken = []
    while rows.size and len(taken) < 6:
        o = owners[rows]
        first = np.concatenate(([True], o[1:] != o[:-1]))
        taken.append(rows[first])
        lead = taken[-1][np.cumsum(first) - 1]
        rows = rows[np.linalg.norm(points[rows] - points[lead], axis=1) > gap]
    taken = np.concatenate(taken) if taken else rows
    return taken[np.argsort(owners[taken], kind="stable")]


def _geometry(grid: GridFunction):
    """What a :class:`ConvolutionPlan` reads of a grid: everything but its values."""
    return grid.box.tobytes(), grid.resolution, grid.periodic


class ConvolutionPlan:
    """The part of the localized inf-convolution that does not depend on the
    data: :func:`localized_convolution`'s candidates and their path actions.

    Built once from the model, the grid geometry of ``grid`` (its values
    are not read), t1, t2, the query rows ``xs`` and ``radius``, it keeps
    the candidates of :func:`_ball_candidates`, the flat node index of each
    (:meth:`GridFunction.node_index`, -1 off the nodes) and the floor under
    each one's ``_COARSE_SEGMENTS`` action, which also lies under its
    straight-segment action (:func:`action_floor`).  It also keeps, as
    :meth:`search` computes them, the straight-segment action of every
    candidate scanned, the ``_COARSE_SEGMENTS`` action of every candidate
    re-scored coarsely and the ``PATH_SEGMENTS`` action, ``d_start`` and
    nodes of every candidate re-scored finely (NaN or unset until scored).
    A path does not depend on its batch and none of these depends on f, so
    a search over any data on the same grid returns what a fresh plan
    would, and what a plan with every candidate scored would, bit for bit.
    """

    def __init__(self, model: LagrangianModel, grid: GridFunction, t1: float, t2,
                 xs, radius, polish_window: Optional[float] = None):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        P, n = xs.shape
        t2_rows = np.broadcast_to(np.asarray(t2, dtype=float), (P,))
        if not np.all(t2_rows > t1):
            raise ValueError("need t2 > t1")
        self.model, self.t1, self.t2, self.t2_rows, self.xs = model, t1, t2, t2_rows, xs
        self.radii = np.broadcast_to(np.asarray(radius, dtype=float), (P,))
        self.geometry = _geometry(grid)
        self.h_ref = float(np.max(grid.spacing))
        if polish_window is None:
            polish_window = np.maximum(5e-3, self.h_ref ** 2 / (t2_rows - t1))
        self.window = np.broadcast_to(polish_window, (P,))
        self.owners, self.cand = _ball_candidates(grid, xs, self.radii)
        # each owner's rows are contiguous, and each owner has one (its center)
        self.starts = np.flatnonzero(np.diff(self.owners, prepend=-1))
        self.node = grid.node_index(self.cand)
        self.off_node = np.flatnonzero(self.node < 0)
        self.floor = action_floor(model, t1, self._horizon(self.owners), self.cand,
                                  xs[self.owners], _COARSE_SEGMENTS)
        # per candidate: its straight-segment and coarse actions (NaN until
        # scored) and the row of its fine path in the fine store (-1 until scored)
        self.scan = np.full(len(self.cand), np.nan)
        self.coarse = np.full(len(self.cand), np.nan)
        self.fine_slot = np.full(len(self.cand), -1)
        self.fine_action = np.empty(0)
        self.fine_grad = np.empty((0, n))
        self.fine_nodes = np.empty((0, PATH_SEGMENTS + 1, n))

    def _horizon(self, owner_idx):
        # a shared horizon stays a scalar: the paths then share one time row
        return self.t2 if np.ndim(self.t2) == 0 else self.t2_rows[owner_idx]

    def _paths(self, points, owner_idx, nseg, init=None):
        sol = minimize_paths(self.model, self.t1, self._horizon(owner_idx), points,
                             self.xs[owner_idx], segments=nseg, init_nodes=init)
        require_converged(sol)
        return sol

    def _scan(self, rows):
        """The straight-segment actions of the candidates ``rows``, scoring the
        unscored."""
        new = rows[np.isnan(self.scan[rows])]
        if new.size:
            self.scan[new] = straight_line_actions(
                self.model, self.t1, self._horizon(self.owners[new]), self.cand[new],
                self.xs[self.owners[new]])
        return self.scan[rows]

    def _coarse(self, rows):
        """The coarse actions of the candidates ``rows``, solving the unscored."""
        new = rows[np.isnan(self.coarse[rows])]
        if new.size:
            self.coarse[new] = self._paths(self.cand[new], self.owners[new],
                                           _COARSE_SEGMENTS)["action"]
        return self.coarse[rows]

    def _fine(self, rows):
        """(action, d_start, nodes) of the fine paths of the candidates
        ``rows``, solving the unscored."""
        new = rows[self.fine_slot[rows] < 0]
        if new.size:
            sol = self._paths(self.cand[new], self.owners[new], PATH_SEGMENTS)
            self.fine_slot[new] = len(self.fine_action) + np.arange(new.size)
            self.fine_action = np.concatenate([self.fine_action, sol["action"]])
            self.fine_grad = np.concatenate([self.fine_grad, sol["d_start"]])
            self.fine_nodes = np.concatenate([self.fine_nodes, sol["nodes"]])
        slot = self.fine_slot[rows]
        return self.fine_action[slot], self.fine_grad[slot], self.fine_nodes[slot]

    def _data(self, f: GridFunction):
        """f at the candidates: read at the nodes, interpolated elsewhere.  At
        a node the interpolant returns the node's value bit for bit, save
        -0.0, which it returns as 0.0; adding 0.0 does the same."""
        f_vals = f.values.reshape(-1)[self.node] + 0.0
        if self.off_node.size:
            f_vals[self.off_node] = f(self.cand[self.off_node])
        return f_vals

    def search(self, f: GridFunction):
        """The search of :func:`localized_convolution` over the data f, which
        must lie on the plan's grid.  The scan adds f at the candidates to
        their straight-segment actions, and it, the coarse and the fine
        re-scores score only the candidates they reach that the plan has not
        scored yet; the polish and the Richardson pass, which depend on f,
        run in full."""
        if _geometry(f) != self.geometry:
            raise ValueError("the data's grid is not the grid of the plan")
        xs, owners, cand, window = self.xs, self.owners, self.cand, self.window
        P = len(xs)
        f_vals = self._data(f)

        # the scan scores only the rows that can lead or come within 1 of the
        # leader.  Every straight-segment action is at least its floor, so the
        # floor cannot rule out a row whose f + floor is within 1 of its
        # owner's least, and the least scan cost U of those rows bounds the
        # leader above: a row with f + floor > U + 1 (past rounding) can do
        # neither, and its scan cost counts as inf
        low = f_vals + self.floor
        first = np.flatnonzero(low <= np.minimum.reduceat(low, self.starts)[owners] + 1.0)
        bound = _owner_min(owners[first], f_vals[first] + self._scan(first), P) + 1.0
        bound += 1e-12 * (1.0 + np.abs(bound))
        scanned = np.flatnonzero(low <= bound[owners])
        cost = f_vals[scanned] + self._scan(scanned)

        # the rows: the scan costs within 1 of each owner's leader.  A row is
        # re-scored coarsely once f + its floor is within window + margin of
        # its owner's coarse best (first guessed as the leader's scan cost),
        # and so is each owner's leader; its coarse action is inf until then
        leader = _owner_min(owners[scanned], cost, P)
        near = cost <= leader[owners[scanned]] + 1.0
        keep, cost = scanned[near], cost[near]
        owners_k, f_k, low = owners[keep], f_vals[keep], low[keep]
        coarse = np.full(len(keep), np.inf)
        lead = cost == leader[owners_k]
        best_coarse = leader

        # then finely, the rows whose coarse cost is within window + margin of
        # the coarse best; the margin grows to twice the spread of fine -
        # coarse over the rows scored.  A fine batch waits for a round that
        # admits no coarse row, so the coarse best it is measured from is
        # final, and a row it admits has f + floor <= f + coarse, so it was
        # solved coarsely.  A fine path does not depend on its batch, so the
        # answer is that of a fine re-score of every row whenever the fine
        # set holds every polish seed of that re-score
        fine = np.full(len(keep), np.nan)
        scored = np.zeros(len(keep), dtype=bool)
        margin = np.zeros(P)
        while True:
            limit = best_coarse + window + margin
            reach = (limit + 1e-12 * (1.0 + np.abs(limit)))[owners_k]
            new = np.flatnonzero(np.isinf(coarse) & (lead | (low <= reach)))
            if new.size:
                coarse[new] = self._coarse(keep[new])
                best_coarse = _owner_min(owners_k, f_k + coarse, P)
                continue
            rows = np.flatnonzero(~scored & (f_k + coarse <= limit[owners_k]))
            if rows.size == 0:
                break
            fine[rows] = self._fine(keep[rows])[0]
            scored[rows] = True
            spread = (fine - coarse)[scored]
            hi = -_owner_min(owners_k[scored], -spread, P)
            margin = 2.0 * (hi - _owner_min(owners_k[scored], spread, P))
        fine_k, grad_k, nodes_k = self._fine(keep[scored])
        cand_k, owners_k = cand[keep[scored]], owners_k[scored]
        cost_acc = f_k[scored] + fine_k

        # polish seeds: near-optimal candidates, cheapest first per owner,
        # thinned to distinct basins
        seeds = _distinct_basins(_near_best(owners_k, cost_acc, window, P), owners_k,
                                 cand_k, 2.0 * self.h_ref)
        seed_owner = owners_k[seeds]

        def solve(points, rows, warm):
            sol_p = self._paths(points, seed_owner[rows], PATH_SEGMENTS, init=warm)
            return sol_p["action"], sol_p["d_start"], sol_p["nodes"]

        pos, val, act1, nodes1 = _cell_polish(f, solve, cand_k[seeds], nodes_k[seeds],
                                              fine_k[seeds], grad_k[seeds])

        # Richardson-refined values for every near-tied winner, batched across
        # owners; the refined near-ties are the argument set
        tied = _near_best(seed_owner, val, TIE_TOL, P)
        tied_owner, pts = seed_owner[tied], pos[tied]
        sol2 = self._paths(pts, tied_owner, 2 * PATH_SEGMENTS,
                           init=_refine_nodes(nodes1[tied]))
        a_ref = sol2["action"] + (sol2["action"] - act1[tied]) / 3.0
        cost_final = np.asarray(f(pts), dtype=float).reshape(-1) + a_ref
        kept = _near_best(tied_owner, cost_final, TIE_TOL, P)
        per_query = np.split(kept, np.searchsorted(tied_owner[kept], np.arange(1, P)))
        return [SearchResult(value=float(cost_final[rows[0]]), momenta=sol2["d_end"][rows],
                             arg=ArgBall(center=x, radius=float(r),
                                         argpoints=list(pts[rows]), spacing=self.h_ref))
                for x, r, rows in zip(xs, self.radii, per_query)]


def localized_convolution(model: LagrangianModel, f: GridFunction, t1: float,
                          t2, xs, radius, polish_window: Optional[float] = None):
    """Batched localized inf-convolution of f with the action kernel:
    value(x) = min_z f(z) + A_{t1,t2}(z, x), searched in the ball of ``radius``.

    ``t2`` and ``radius`` are scalars or (P,) arrays, one per row of ``xs``;
    a row's answer is the same either way.  The stages are those of the
    module docstring, each commented in :meth:`ConvolutionPlan.search`.  The
    polish starts from the fine-scored rows within ``polish_window``
    (default max(5e-3, h^2 / (t2 - t1)), per row) of the best fine cost,
    and the polished winners within ``TIE_TOL`` of the best, refined by
    Richardson extrapolation from ``PATH_SEGMENTS`` to twice that, are the
    argument set; the finer pass gives each one's end momentum.  A path of
    any pass that did not converge raises :class:`NoConvergence`.  Returns
    one :class:`SearchResult` per row.  This is one plan's one search; a
    caller that applies the same kernel to several data on one grid keeps
    the plan instead.
    """
    return ConvolutionPlan(model, f, t1, t2, xs, radius, polish_window).search(f)


# ---------------------------------------------------------------------------
# public operators

def lax_oleinik_minus(model: LagrangianModel, f: GridFunction, t1: float,
                      t2: float, xs):
    """(T^- f)(x) = inf_z f(z) + A_{t1,t2}(z, x) at the rows x of xs (P, n),
    searched in the a-priori ball: one :class:`SearchResult` per row."""
    radius = localization_radius(model.growth, f.lipschitz_estimate) * (t2 - t1)
    return localized_convolution(model, f, t1, t2, xs, radius)


class DiscountedOperator:
    """The discounted backward operator of horizon t at the fixed rows of
    xs (P, n), to apply to one grid function after another.

    Applied to v, it is the search on the lift ``to_evolutionary`` (its
    ``lift``) in the ball of :meth:`radius`, with the values and end
    momenta (e^{lam t} L_v) scaled by e^{-lam t}, so the momenta are
    gradients of v itself.  The operator keeps its :class:`ConvolutionPlan`
    from one v to the next, all on the grid of the first, and builds a new
    one only when the radius changes.  So each v scores only the straight
    segments and paths of the candidates that no earlier v reached.
    """

    def __init__(self, problem: DiscountedProblem, t: float, xs,
                 lip_bound: Optional[float] = None):
        if t <= 0:
            raise ValueError("need t > 0")
        if problem.lam * t > EXPONENT_CAP:
            raise ExponentOverflow(
                f"lam*t = {problem.lam * t:.3g} exceeds cap {EXPONENT_CAP:g}; "
                "compose shorter steps instead")
        self.lift, _ = to_evolutionary(problem, horizon=t)
        self.t, self.xs, self.lip_bound = t, xs, lip_bound
        self.decay = math.exp(-problem.lam * t)
        self.plan, self._radius = None, None

    def radius(self, v: GridFunction) -> float:
        """The localization radius of K = max(``lip_bound``, Lip v), times t."""
        K = v.lipschitz_estimate
        if self.lip_bound is not None:
            K = max(self.lip_bound, K)
        return localization_radius(self.lift.growth, K) * self.t

    def scaled(self, results) -> list:
        """The lift's search results as the operator's: scaled by e^{-lam t}."""
        for r in results:
            r.value = self.decay * r.value
            r.momenta = self.decay * r.momenta
        return results

    def __call__(self, v: GridFunction) -> list:
        """One :class:`SearchResult` per row of xs."""
        radius = self.radius(v)
        if self.plan is None or radius != self._radius:
            self.plan = ConvolutionPlan(self.lift, v, 0.0, self.t, self.xs, radius)
            self._radius = radius
        return self.scaled(self.plan.search(v))


def discounted_lax_oleinik(problem: DiscountedProblem, v: GridFunction, t: float,
                           xs, polish_window: Optional[float] = None):
    """The discounted backward operator at the rows of xs (P, n), applied
    once: one :func:`localized_convolution` on the lift, scaled as
    :class:`DiscountedOperator` scales it.  One :class:`SearchResult` per row."""
    op = DiscountedOperator(problem, t, xs)
    return op.scaled(localized_convolution(op.lift, v, 0.0, t, xs, op.radius(v),
                                           polish_window=polish_window))
