"""Minimal-action computations: the batched direct method and regularity probes.

The least-action value between endpoints is computed by a direct method
(midpoint discretization of the curve, damped Newton on the stacked
interior nodes), refined by Richardson extrapolation in the segment
count.  The direct method is batched: many endpoint pairs are solved
simultaneously as independent tridiagonal systems, which is what makes
grid-wide inf-convolutions affordable.  Per axis the Newton matrix is the
kinetic block of the Hessian plus the potential's curvature (``L_xx``,
when the model has it); a path whose matrix is not positive definite
takes the kinetic block alone, which still gives a descent direction.
The pairs may share one time interval or each have its own: time nodes,
quadrature weights and midpoints are kept one row per path (a single row
that broadcasts when the interval is shared), and every sum runs along a
row, so a path's answer does not depend on the batch it was solved in.

Time quadrature uses exact per-segment weights when the Lagrangian is an
exponential-in-time rescaling of an autonomous one, so constant curves
integrate exactly under discounting.  Fundamental solutions, the direct
method with its endpoint derivatives extrapolated, live in ``singular``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSample, NoConvergence
from .model import LagrangianModel

PATH_SEGMENTS = 16  # segments of a discretized path unless a caller refines it
SCAN_SEGMENTS = 8   # segments of the straight-segment estimate that ranks candidates


# ---------------------------------------------------------------------------
# quadrature

def _time_rows(s, t, segments: int):
    """The uniform time nodes of [s, t], one row per horizon.

    ``s`` and ``t`` are scalars or (P,) arrays.  The result is (1, N+1) for
    scalar horizons, a row that broadcasts over any batch, else (P, N+1).
    Each row starts at exactly s and ends at exactly t.  The rows are
    C-contiguous: ``einsum`` sums a transposed view in another order than
    a one-row call.
    """
    times = np.linspace(s, t, segments + 1, axis=-1)
    return np.ascontiguousarray(times).reshape(-1, segments + 1)


def _quadrature(model: LagrangianModel, times):
    """Per-segment weights and the evaluation callables for the discrete action.

    ``times`` holds one row of nodes per path (R, N+1).  Returns (weights,
    mid_times, L, L_v, L_x, L_vv, L_xx), weights and mid_times (R, N); for
    exponential rescalings of autonomous models the weights integrate the
    time factor exactly and the callables are the autonomous ones.
    ``L_xx`` is None when the model has none.
    """
    mid = 0.5 * (times[:, 1:] + times[:, :-1])
    base = _integrand(model)
    if base is model:
        weights = np.diff(times, axis=-1)
    else:
        lam = model.exp_rate
        weights = (np.exp(lam * times[:, 1:]) - np.exp(lam * times[:, :-1])) / lam
    return weights, mid, base.L, base.L_v, base.L_x, base.L_vv, base.L_xx


def _integrand(model: LagrangianModel) -> LagrangianModel:
    """The model whose callables the quadrature evaluates: the autonomous
    base of an exponential rescaling, else the model itself."""
    if model.exp_rate is not None and model.base is not None:
        return model.base
    return model


def _rows(a, idx):
    """The rows idx of a per-path array; a one-row array broadcasts as is."""
    return a if len(a) == 1 else a[idx]


def _solve_tridiagonal(lower, diag, upper, rhs):
    """Thomas algorithm vectorized over the batch axis.

    Shapes: lower/upper (P, M-1), diag/rhs (P, M).  Overwrites nothing.
    Returns (solution, positive): ``positive`` (P,) is True where every
    pivot is > 0, which for a symmetric row holds exactly when its matrix
    is positive definite.  A row with a zero pivot has a meaningless
    solution and is flagged, not raised.
    """
    P, M = diag.shape
    cp = np.empty((P, M - 1)) if M > 1 else np.empty((P, 0))
    dp = np.empty((P, M))
    positive = diag[:, 0] > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / diag[:, 0]
        if M > 1:
            cp[:, 0] = upper[:, 0] * inv
        dp[:, 0] = rhs[:, 0] * inv
        for k in range(1, M):
            denom = diag[:, k] - lower[:, k - 1] * cp[:, k - 1]
            positive &= denom > 0
            inv = 1.0 / denom
            if k < M - 1:
                cp[:, k] = upper[:, k] * inv
            dp[:, k] = (rhs[:, k] - lower[:, k - 1] * dp[:, k - 1]) * inv
        out = np.empty((P, M))
        out[:, -1] = dp[:, -1]
        for k in range(M - 2, -1, -1):
            out[:, k] = dp[:, k] - cp[:, k] * out[:, k + 1]
    return out, positive


def straight_line_actions(model: LagrangianModel, s, t, starts, ends):
    """Discrete action of the straight segment between endpoint batches.

    Upper-bound flavored estimate used to rank candidates before the
    optimizing pass (``SCAN_SEGMENTS`` segments); exact for kinetic-only
    models.  ``s`` and ``t`` are scalars or (P,) arrays, as in
    :func:`minimize_paths`.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    times = _time_rows(s, t, SCAN_SEGMENTS)
    w, mid, L = _quadrature(model, times)[:3]
    s0, span = times[:, :1], times[:, -1:] - times[:, :1]
    frac = ((mid - s0) / span)[:, :, None]
    # (P, N, n) points along each straight segment
    pts = starts[:, None, :] + frac * (ends - starts)[:, None, :]
    vel = ((ends - starts) / span)[:, None, :]
    vel = np.broadcast_to(vel, pts.shape)
    lvals = L(mid, pts, vel)
    return np.einsum("pn,pn->p", lvals, w)


def action_floor(model: LagrangianModel, s, t, starts, ends, segments: int):
    """A lower bound on the discrete action of every ``segments``-segment
    path between the endpoint pairs, whatever its interior nodes.

    The action is sum_k w_k L(u_k) over the segments, w the quadrature
    weights and u_k the velocities, with sum_k u_k dt = D, the step dt and
    D = end - start.  The growth bound L >= |u|^2/2 - c_T of the model the
    quadrature evaluates makes it at least sum_k w_k (|u_k|^2/2 - c_T),
    whose least over those u is |D|^2 / (2 sum_k dt^2 / w_k) - c_T sum_k
    w_k.  No model callable is read.  ``s`` and ``t`` are as in
    :func:`minimize_paths`.

    The floor also lies below the action of the straight segment, as
    :func:`straight_line_actions` computes it at any segment count.  Its
    velocities all equal D / (t - s), so the growth bound puts it at or
    above (|D|^2 / (2 (t - s)^2) - c_T) W, W the sum of its weights.  The
    weights integrate the time factor exactly, so W is sum_k w_k at every
    segment count (up to rounding), and Cauchy-Schwarz, (t - s)^2 =
    (sum_k dt)^2 <= W sum_k dt^2 / w_k, puts that bound at or above the floor.
    """
    times = _time_rows(s, t, segments)
    w = _quadrature(model, times)[0]
    dt = (times[:, -1:] - times[:, :1]) / segments
    gap = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    return (np.sum(gap * gap, axis=-1) / (2.0 * np.sum(dt * dt / w, axis=-1))
            - _integrand(model).growth.c_T * np.sum(w, axis=-1))


def minimize_paths(model: LagrangianModel, s, t, starts, ends,
                   segments: int = PATH_SEGMENTS, init_nodes=None):
    """Batched direct method for least action between endpoint pairs.

    ``starts`` and ``ends`` are (P, n), one row per pair.  ``s`` and ``t``
    are scalars, the interval [s, t] of every pair, or (P,) arrays, one
    interval per pair; a pair's answer is the same either way.
    Returns a dict with stacked node arrays, actions, stationarity
    residuals, a convergence mask, the time nodes (``"times"``: (N+1,) for
    a shared interval, else (P, N+1)) and the derivatives ``d_start``,
    ``d_end`` (P, n) of the discrete action with respect to the two
    endpoints.  By the envelope theorem these are the
    partial derivatives at the minimizing nodes:
    ``w[0]·(½L_x − L_v/dt)`` on the first segment and
    ``w[-1]·(½L_x + L_v/dt)`` on the last.  ``init_nodes`` is a warm start;
    it is moved affinely onto the given endpoints.  A path needs at least
    2 segments, so that it has an interior node.

    The Newton matrix is tridiagonal per axis: the kinetic block
    ``a = w·L_vv/dt²`` of each segment plus the potential's curvature
    ``b = ¼·w·L_xx`` at its midpoint, both read on the diagonal of the
    model's (n, n) matrices.  For a mechanical model (L_vv constant, no
    mixed v-x term) that is the full Hessian of the discrete action, and
    Newton converges quadratically.  A path and axis whose matrix has a
    pivot <= 0 (the curvature makes it indefinite, as on long horizons of
    a concave potential) re-solves with the kinetic block alone, a descent
    direction; so does every path of a model without ``L_xx``.  The choice
    is made per path, so its answer does not depend on its batch.

    A path iterates until the max-norm of its interior gradient is at most
    1e-9 (1 + |A|); ``converged`` allows 100 times that.  A backtracking
    line search (up to 12 halvings) accepts a step that lowers the action
    by more than rounding, 1e-14 (1 + |A|), or one that changes it by no
    more than rounding and lowers the interior gradient's max-norm; near
    the minimum a good step moves the action by less than rounding.  A path
    whose every halving does neither stops where it stands.  Each iteration
    evaluates the model and solves only on the paths still iterating.  A
    path that meets the tolerance where it starts takes no Newton step, and
    one that took a kinetic-only step may have ended where its curvature
    is still indefinite, so the pivots of both are tested at the end: with
    ``L_xx``, a matrix that is not positive definite marks a saddle, which
    is reported as not converged.
    """
    grad_tol, max_iter = 1e-9, 60
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    ends = np.atleast_2d(np.asarray(ends, dtype=float))
    P, n = starts.shape
    N = int(segments)
    if N < 2:
        raise ValueError("a path needs at least 2 segments")
    times = _time_rows(s, t, N)
    dt = (times[:, -1:] - times[:, :1]) / N     # (R, 1)
    w, mid, L, L_v, L_x, L_vv, L_xx = _quadrature(model, times)

    frac = np.linspace(0.0, 1.0, N + 1)[None, :, None]
    if init_nodes is not None:
        W = np.array(init_nodes, dtype=float)
        W += ((1 - frac) * (starts - W[:, 0])[:, None, :]
              + frac * (ends - W[:, -1])[:, None, :])
    else:
        W = starts[:, None, :] * (1 - frac) + ends[:, None, :] * frac
    W[:, 0] = starts
    W[:, -1] = ends

    def segments_of(nodes, rows):
        """Midpoint times, midpoints and velocities of the segments of rows."""
        vel = (nodes[:, 1:] - nodes[:, :-1]) / _rows(dt, rows)[:, :, None]
        return _rows(mid, rows), 0.5 * (nodes[:, 1:] + nodes[:, :-1]), vel

    def action_of(nodes, rows):
        # a per-row sum: a matrix-vector product would round a row
        # differently depending on how many rows share the batch
        return np.einsum("pn,pn->p", L(*segments_of(nodes, rows)), _rows(w, rows))

    def derivatives(nodes, rows):
        """(g, d_start, d_end): the action's gradient in the interior nodes
        and its derivatives in the two end nodes."""
        seg = segments_of(nodes, rows)
        dtc = _rows(dt, rows)[:, :, None]
        lx = np.asarray(L_x(*seg), dtype=float)
        lv = np.asarray(L_v(*seg), dtype=float)
        wc = _rows(w, rows)[:, :, None]
        left = wc * (0.5 * lx - lv / dtc)     # a segment's derivative in its left node
        right = wc * (0.5 * lx + lv / dtc)    # and in its right node
        return right[:, :-1] + left[:, 1:], left[:, 0], right[:, -1]

    def grad_norm(g):
        return np.max(np.abs(g), axis=(1, 2))

    def newton_systems(nodes, rows):
        """Per axis, the kinetic tridiagonal (off, diag) and, when the model
        has ``L_xx``, the one with the curvature added (else None)."""
        seg = segments_of(nodes, rows)
        lvv = np.asarray(L_vv(*seg), dtype=float)
        lxx = None if L_xx is None else np.asarray(L_xx(*seg), dtype=float)
        wl, dtl = _rows(w, rows), _rows(dt, rows)
        for ax in range(n):
            a = wl * lvv[:, :, ax, ax] / dtl ** 2     # (R, N)
            diag = a[:, :-1] + a[:, 1:]
            off = -a[:, 1:-1]
            if lxx is None:
                yield off, diag, None
            else:
                b = 0.25 * wl * lxx[:, :, ax, ax]
                yield off, diag, (off + b[:, 1:-1], diag + b[:, :-1] + b[:, 1:])

    every = slice(None)
    times_out = times[0] if np.ndim(s) == np.ndim(t) == 0 else times
    act = action_of(W, every)
    live = np.arange(P)     # paths still iterating
    stepped = np.zeros(P, dtype=bool)
    fallback = np.zeros(P, dtype=bool)      # took a kinetic-only step
    for _ in range(max_iter):
        g, _, _ = derivatives(W if live.size == P else W[live], live)
        gi = grad_norm(g)
        open_ = gi > grad_tol * (1.0 + np.abs(act[live]))
        live, g, gi = live[open_], g[open_], gi[open_]
        if not live.size:
            break
        stepped[live] = True
        # one tridiagonal per axis: kinetic block plus curvature
        step = np.empty_like(g)
        for ax, (off, diag, full) in enumerate(newton_systems(W[live], live)):
            if full is None:
                sol, _ = _solve_tridiagonal(off, diag, off, g[:, :, ax])
            else:
                sol, positive = _solve_tridiagonal(full[0], full[1], full[0], g[:, :, ax])
                bad = np.flatnonzero(~positive)
                if bad.size:
                    fallback[live[bad]] = True
                    sol[bad], _ = _solve_tridiagonal(off[bad], diag[bad], off[bad],
                                                     g[bad, :, ax])
            step[:, :, ax] = -sol
        # backtracking line search, re-evaluating only the paths still
        # rejected; ``pending`` indexes ``live``
        pending = np.arange(live.size)
        alpha = np.ones(live.size)
        for _ in range(12):
            rows = live[pending]
            trial = W[rows]
            trial[:, 1:-1] += alpha[pending, None, None] * step[pending]
            act_trial = action_of(trial, rows)
            scale = 1.0 + np.abs(act[rows])
            rounding = 1e-14 * scale
            better = act_trial <= act[rows] - rounding
            # a step whose action change is rounding counts if it lowers the gradient
            flat = np.flatnonzero(~better & (np.abs(act_trial - act[rows]) <= rounding))
            if flat.size:
                g_flat, _, _ = derivatives(trial[flat], rows[flat])
                better[flat] = grad_norm(g_flat) < gi[pending[flat]]
            ok = pending[better]
            W[live[ok], 1:-1] += alpha[ok, None, None] * step[ok]
            act[live[ok]] = act_trial[better]
            pending = pending[~better]
            if pending.size == 0:
                break
            alpha[pending] *= 0.5
        # a path no halving moved stands at a numerical stationary point
        live = np.delete(live, pending)

    act = action_of(W, every)
    g, d_start, d_end = derivatives(W, every)
    grad_inf = grad_norm(g)
    converged = grad_inf <= 100 * grad_tol * (1.0 + np.abs(act))
    # a path that stopped before any Newton step never had its pivots
    # tested, and one that took a kinetic-only step stepped past a failed
    # test; an indefinite matrix there marks a saddle, not a minimum
    rest = np.flatnonzero(~stepped | fallback)
    if L_xx is not None and rest.size:
        for _, _, (off, diag) in newton_systems(W[rest], rest):
            positive = _solve_tridiagonal(off, diag, off, np.zeros_like(diag))[1]
            converged[rest[~positive]] = False
    return {"nodes": W, "action": act, "grad_inf": grad_inf, "converged": converged,
            "times": times_out, "d_start": d_start, "d_end": d_end}


def require_converged(sol):
    """Raise :class:`NoConvergence` if a path of ``sol``, a
    :func:`minimize_paths` result, did not converge."""
    bad = np.flatnonzero(~sol["converged"])
    if bad.size:
        raise NoConvergence(
            f"{bad.size} of {sol['converged'].size} paths did not converge "
            f"(worst grad_inf {float(np.max(sol['grad_inf'][bad])):.3g})")


def _refine_nodes(W):
    """Insert midpoints: warm start for a doubled segment count."""
    P, M, n = W.shape
    out = np.empty((P, 2 * M - 1, n))
    out[:, ::2] = W
    out[:, 1::2] = 0.5 * (W[:, 1:] + W[:, :-1])
    return out


def refined_action(model: LagrangianModel, s, t, starts, ends,
                   segments: int = PATH_SEGMENTS):
    """Richardson-extrapolated least action for endpoint batches.

    Solves at ``segments`` and twice that, from the coarse nodes with
    midpoints inserted, and removes the leading quadratic discretization
    error from the action and its derivatives in both end points.  ``s``
    and ``t`` are as in :func:`minimize_paths`.  A path of either pass that
    did not converge raises :class:`NoConvergence`.  Returns (A, d_start, d_end).
    """
    first = minimize_paths(model, s, t, starts, ends, segments=segments)
    require_converged(first)
    second = minimize_paths(model, s, t, starts, ends, segments=2 * segments,
                            init_nodes=_refine_nodes(first["nodes"]))
    require_converged(second)
    return tuple(second[key] + (second[key] - first[key]) / 3.0
                 for key in ("action", "d_start", "d_end"))


# ---------------------------------------------------------------------------
# regularity constants

@dataclass
class ConvexityConstants:
    """Sampled second-difference bounds of the action on a space-time cone."""

    c0: float                      # upper bound: semiconcavity in (t, y)
    c1: float                      # lower bound: semiconvexity in (t, y)
    c2: float                      # spatial uniform-convexity modulus
    c3: float                      # time modulus of the endpoint gradient
    slope: float                   # cone slope the constants were sampled on

    def __post_init__(self):
        if not (self.c2 <= self.c0 + 1e-12):
            raise ValueError("spatial convexity modulus exceeded the concavity bound")


def estimate_constants(model: LagrangianModel, s: float, x, T: float,
                       lam_slope: float) -> ConvexityConstants:
    """Probe second differences of A on the cone of apex (s, x) and slope lam_slope.

    ``c0`` is the largest (t, y)-second-difference ratio, ``c1`` the largest
    negative one (floored at 1e-8), ``c2`` the smallest spatial ratio, and
    ``c3`` the largest time increment of the endpoint gradient, all scaled
    by (t - s) as in the cone estimates they feed.

    The probes run along the first two coordinate axes.  Each of the three
    cone heights t probes at t, t + h and t - h, over every direction and
    offset, and all of them share one :func:`refined_action` batch with one
    end time per row.  The paths to (t, y) and (t + h, y) serve both the
    temporal second difference and ``c3``, whose endpoint gradient is the
    batch's ``d_end``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.size
    height = T - s
    if height <= 0 or lam_slope <= 0:
        raise ValueError("degenerate cone")

    dirs = np.eye(n)[:2]
    offsets = [(d, rho) for d in dirs for rho in (0.15, 0.45)]
    m = len(offsets)
    levels, ends, end_times = [], [], []
    for frac in np.linspace(0.45, 0.95, 3):
        t = s + frac * height
        dt_cone = t - s
        h = 0.2 * dt_cone
        radius = lam_slope * dt_cone
        ys = np.array([x + rho * radius * d for d, rho in offsets])
        zs = np.array([0.25 * radius * d for d, _ in offsets])
        levels.append((dt_cone, h, zs))
        # seven blocks of m rows per level, in the order the ratios read them
        for block, t_at in ((ys + zs, t), (ys - zs, t), (ys, t), (ys + zs, t + h),
                            (ys, t + h), (ys - zs, t - h), (ys, t - h)):
            ends.append(block)
            end_times.append(np.full(m, t_at))
    ends = np.concatenate(ends)
    actions, _, d_end = refined_action(model, s, np.concatenate(end_times),
                                       np.broadcast_to(x, ends.shape), ends)
    blocks = actions.reshape(len(levels), 7, m)
    end_duals = d_end.reshape(len(levels), 7, m, n)

    ratios_c0, ratios_c1, ratios_c2, ratios_c3 = [], [], [], []
    seen_signal = False
    for k, (dt_cone, h, zs) in enumerate(levels):
        plus_t, minus_t, a_c, plus_th, a_th, minus_tmh, a_tmh = blocks[k]
        zz = np.sum(zs * zs, axis=1)
        spatial = (plus_t + minus_t - 2 * a_c) * dt_cone / zz
        mixed = (plus_th + minus_tmh - 2 * a_c) * dt_cone / (h * h + zz)
        temporal = (a_th + a_tmh - 2 * a_c) * dt_cone / (h * h)
        rs = np.concatenate([spatial, mixed, temporal])
        if np.max(np.abs(rs)) > 1e-12:
            seen_signal = True
        ratios_c2.extend(spatial)
        ratios_c0.extend(rs)
        ratios_c1.extend(-rs)
        # endpoint-gradient increment in time: blocks (ys, t + h) and (ys, t)
        ratios_c3.extend(np.linalg.norm(end_duals[k, 4] - end_duals[k, 2], axis=1)
                         * dt_cone / h)

    if not seen_signal:
        raise DegenerateSample("all second-difference probes vanished")
    c2 = float(min(ratios_c2))
    c0 = float(max(max(ratios_c0), c2))
    c1 = float(max(max(ratios_c1), 1e-8))
    c3 = float(max(max(ratios_c3), 1e-12))
    return ConvexityConstants(c0=c0, c1=c1, c2=c2, c3=c3, slope=lam_slope)
