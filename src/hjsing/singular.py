"""Characteristics and singularity machinery: fundamental solutions,
reachable gradients, propagation, cut times, retraction.

Characteristics have one integrator, :func:`_characteristic_flow`: the
flows at the problem's lam (the lam = 0 flows of its lift
``to_evolutionary``, with p scaled by e^{lam t}) run in one batched
Dormand-Prince loop per call, each row with its own steps, and a row with
a stop margin stops at its root by Brent's method.  Both are written here,
with scipy's tableau and step rules, so no path of this module loads scipy.
:func:`fundamental_solution` is the direct method alone: the least action
and its derivatives in both end points and the end time, Richardson-
extrapolated from a 64- and a 128-segment path.

A field enters this layer through four methods (``solver.ValueField``):
``values``, ``certificate_search``, ``domain`` and ``action_lagrangian``.
A point of the value field is singular when its reachable-gradient set has
more than one element.  Those gradients are the end momenta
p = L_v(t, x, velocity) of the distinct minimizers of the backward
representation, which ``certificate_search`` returns as the action's
derivative in the end point (``d_end``).  Singularities are continued
forward by the ball-constrained argmax of u(t, .) - A_{t1,t}(x1, .): on a
short enough step the objective is strictly concave on the localization
ball, so the maximizer is unique and moves the singularity.  It is located by
a lattice scan of the ball, then the same scan zoomed onto the best node
one axis at a time; the search needs no derivatives.  Chaining steps
across growing annuli, with the step budget recomputed on each annulus,
yields a curve of any requested length.

For discounted problems the same machinery runs on the exponential lift
u(t, x) = e^{lam t} v(x); forward calibrated flow plus the singular
continuation give the homotopy that retracts the complement of the
numerical Aubry set onto the singular set.  Cut times and the Aubry test
integrate the calibrated characteristics of all their points in one
batched loop per call, each row stopping at its own break time; a row's
span equals a one-point run (:func:`cut_time`, as the homotopy uses) bit
for bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .action import (
    ConvexityConstants,
    _refine_nodes,
    estimate_constants,
    minimize_paths,
    require_converged,
)
from .errors import (
    BlowUp,
    ConcavityFailure,
    InvalidProblem,
    NoConvergence,
    NoMinimizer,
    NonUniqueArgmax,
    ScheduleStall,
)
from .laxoleinik import (
    _SWEEP_SHRINK,
    TIE_TOL,
    GridFunction,
    _ball_mesh,
    _distinct_basins,
    periodic_radius_cap,
)
from .model import DiscountedProblem, HamiltonianModel, LagrangianModel
from .solver import DiscountedField

logger = logging.getLogger(__name__)

_MERGE_TOL = 1e-4       # momenta this close are one limiting gradient
SINGULAR_TOL = 1e-2     # a reachable-gradient set wider than this is singular
CALIB_TOL = 1e-3        # calibration defect (per unit of 1 + t) that cuts a flow
_LATTICE_NODES = 49     # argmax scan nodes per axis of the ball
_ROOT_TOL = 4 * np.finfo(float).eps   # break-time roots: Brent's xtol and rtol
_ESCAPE = 1e6           # a characteristic with |x| or |p| beyond this escaped
_RTOL, _ATOL = 1e-9, 1e-11   # characteristic integration tolerances
# scipy's RK45 step-size rule (scipy.integrate._ivp.rk), applied per row
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
# step attempts of one characteristic-flow loop per unit of max(1, horizon); the
# most measured is 58 (61 attempts to horizon 1.06), so a loop past this
# budget is stuck, like a row chattering across a kink of the potential
_FLOW_STEPS_PER_UNIT = 500


# ---------------------------------------------------------------------------
# reachable gradients

@dataclass
class ReachableGradientSet:
    """Limiting gradients at a point, one per distinct minimizer.

    ``momenta`` holds the gradients p, one row each: the end momenta of the
    minimizers that ``certificate_search`` found, merged within
    ``_MERGE_TOL``.  For a discounted field they are gradients of v itself.
    """

    momenta: np.ndarray             # (k, n)
    diameter: float


def _merge_momenta(momenta):
    """Drop momenta within _MERGE_TOL of an earlier one.

    Returns (indices of the kept rows, the largest pairwise distance among
    them).
    """
    keep = _distinct_basins(np.arange(len(momenta)), momenta, _MERGE_TOL)
    kept = momenta[keep]
    return keep, float(np.max(np.linalg.norm(kept[:, None] - kept[None], axis=-1)))


def reachable_gradients_batch(field, t, xs) -> list:
    """Reachable-gradient sets at the rows of xs, from one batched search.

    Distinct minimizers of the backward representation are collected from a
    full scan of the localization ball plus polish of the near-tied basins
    (``field.certificate_search``).  ``t`` is one time for every row or a
    (P,) array of per-row times; the batch gives the same sets as one
    search per point.  Each minimizer's end momentum, which the search
    returns, is a limiting gradient; momenta within ``_MERGE_TOL`` merge.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    sets = []
    for x, res in zip(xs, field.certificate_search(t, xs)):
        if not len(res.momenta):
            raise NoMinimizer(f"no minimizing trajectory found at {x}")
        keep, diam = _merge_momenta(res.momenta)
        sets.append(ReachableGradientSet(momenta=res.momenta[keep], diameter=diam))
    return sets


def reachable_gradients(field, t: float, x) -> ReachableGradientSet:
    """Reachable gradients at (t, x) (or at x for discounted fields).

    The one-point case of :func:`reachable_gradients_batch`.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return reachable_gradients_batch(field, t, x[None, :])[0]


def is_singular(field, model, t: float, x):
    """(flag, certificate): singular iff the reachable set is wider than SINGULAR_TOL.

    ``model`` is not used; it stays in the signature for existing callers,
    which may pass None.
    """
    cert = reachable_gradients(field, t, x)
    return cert.diameter > SINGULAR_TOL, cert


# ---------------------------------------------------------------------------
# one propagation step

@dataclass
class StepResult:
    t_step: float
    times: np.ndarray               # ladder times, increasing, start excluded
    points: np.ndarray              # maximizer positions at the ladder times
    certificates: list              # ReachableGradientSet or None per point
    constants: ConvexityConstants


def _lattice(center, radius, lo, hi, axis=None):
    """The center, then _LATTICE_NODES per axis over the ball clipped to [lo, hi].

    With ``axis`` given only that coordinate moves: the nodes spread over
    the segment [c - radius, c + radius] of that axis, clipped.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    axes = []
    for ax in range(center.size):
        if axis is not None and ax != axis:
            axes.append(center[ax:ax + 1])
            continue
        a = max(center[ax] - radius, lo[ax])
        b = min(center[ax] + radius, hi[ax])
        axes.append(np.linspace(a, b, _LATTICE_NODES))
    return _ball_mesh(axes, center, radius)


def _argmax_objective(field, action_model, t1: float, x1, ts, ys):
    """phi(y) = u(t, y) - A_{t1,t}(x1, y) on a batch of y, t one per row;
    a path that did not converge raises :class:`NoConvergence`."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    sol = minimize_paths(action_model, t1, ts, np.broadcast_to(x1, ys.shape), ys)
    require_converged(sol)
    u_vals = field.values(ts, ys)
    return u_vals - sol["action"]


def _scan(field, action_model, t1, x1, ts, lattices):
    """phi on every lattice, lattice j at time ts[j]: one objective batch."""
    sizes = [len(c) for c in lattices]
    vals = _argmax_objective(field, action_model, t1, x1,
                             np.repeat(ts, sizes), np.concatenate(lattices))
    return np.split(vals, np.cumsum(sizes)[:-1])


def _argmax_points(field, action_model, t1, x1, times, radii):
    """Maximize phi over the ball of each time; returns (ys, phis, scans, scan_vals).

    ``times`` and ``radii`` are (k,); ``ys`` is (k, n), ``phis`` (k,), and
    ``scans``/``scan_vals`` hold each time's lattice and its objective.  One
    objective batch scans the lattices of every time, which pick the seeds
    (the leading basin, and a runner-up if clearly separated).  The zoom
    then rescans each axis in turn around every seed: 5 rounds, one batch
    each, on a segment whose half-width starts at one scan spacing and
    shrinks to one zoom spacing per round; the current point stays a
    candidate and the first maximum wins ties.  That is one sweep of 5
    batches in 1D and two sweeps of 5n in nD, the width times
    ``_SWEEP_SHRINK`` from one sweep to the next.  Within a time the first
    seed wins ties.
    """
    n = x1.size
    scans = [_lattice(x1, r, *field.domain(t)) for t, r in zip(times, radii)]
    scan_vals = _scan(field, action_model, t1, x1, times, scans)

    h_polish = np.maximum(radii / (_LATTICE_NODES - 1), 1e-4)
    seeds, seed_time = [], []
    for j, (cand, vals) in enumerate(zip(scans, scan_vals)):
        order = np.argsort(-vals)
        chosen = [cand[order[0]]]
        for idx in order[1:]:
            if vals[idx] < vals[order[0]] - 10 * TIE_TOL:
                break
            if np.linalg.norm(cand[idx] - chosen[0]) > 3 * h_polish[j]:
                chosen.append(cand[idx])
                break
        seeds += chosen
        seed_time += [j] * len(chosen)
    seed_time = np.asarray(seed_time)
    seed_t = times[seed_time]
    domains = [field.domain(t) for t in seed_t]

    z = np.array(seeds, dtype=float)
    phi = np.empty(len(z))
    width = 2 * h_polish[seed_time]
    for _ in range(2 if n > 1 else 1):
        for ax in range(n):
            w = width
            for _ in range(5):      # the last spacing is 24^-5 of the scan's
                cands = [_lattice(y, wi, *dom, axis=ax)
                         for y, wi, dom in zip(z, w, domains)]
                for i, (cand, vals) in enumerate(zip(
                        cands, _scan(field, action_model, t1, x1, seed_t, cands))):
                    best = int(np.argmax(vals))
                    z[i], phi[i] = cand[best], vals[best]
                w = w * (2.0 / (_LATTICE_NODES - 1))
        width = width * _SWEEP_SHRINK

    ys = np.empty((len(times), n))
    phis = np.empty(len(times))
    for j in range(len(times)):
        rows = np.flatnonzero(seed_time == j)
        best = rows[int(np.argmax(phi[rows]))]
        ys[j], phis[j] = z[best], phi[best]
    return ys, phis, scans, scan_vals


def estimate_semiconcavity(field, t: float, x, scales) -> float:
    """Largest positive second-difference ratio of u(t, .) near x.

    Every scale and axis is probed in one ``field.values`` batch.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.size
    probes, steps = [], []
    for scale in scales:
        for ax in range(n):
            z = np.zeros(n)
            z[ax] = scale
            probes += [x + z, x - z, x]
            steps.append(scale)
    vals = field.values(t, np.array(probes)).reshape(-1, 3)
    ratios = (vals[:, 0] + vals[:, 1] - 2 * vals[:, 2]) / np.square(steps)
    return max(0.0, float(np.max(ratios)))


def propagation_step(field, t1: float, x1, T: float,
                     constants: Optional[ConvexityConstants] = None,
                     step_cap: Optional[float] = None, certify: bool = True) -> StepResult:
    """One ball-constrained argmax step of the singular continuation.

    The step budget is the ratio of the action's spatial convexity modulus
    to twice the local semiconcavity of u (with a 1.5 safety divisor),
    clamped to ``step_cap``.  For each of 4 ladder times the maximizer of
    u(t, .) - A_{t1,t}(x1, .) over the ball of radius lambda_2(T)(t - t1)
    is located, its strict-concavity margin checked, and (optionally) its
    singularity certificate computed.  An attempt shares its objective
    batches among the ladder times: one lattice scan, the zoom's 5 per axis
    and sweep (5 in 1D, 20 in 2D), one batch of concavity probes and, once
    every check has passed, one certificate batch.  The checks run in
    ladder order; a concavity or uniqueness failure halves the step, up to
    6 times.
    """
    ladder, max_halvings = 4, 6
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    action_model = field.action_lagrangian(T)
    lam2 = field.lambda2(T)
    h_grid = float(np.max(field.u0.spacing))
    radius_cap = min(periodic_radius_cap(field.u0, ax)
                     for ax in range(field.u0.dimension))

    if constants is None:
        span = min(T - t1, step_cap or (T - t1))
        slope = min(lam2, radius_cap / span)
        constants = estimate_constants(action_model, t1, x1, t1 + span, slope)
    if constants.c2 <= 0:
        raise ConcavityFailure(
            f"action not uniformly convex on the cone: c2 = {constants.c2:.3g} "
            f"<= 0 at t1 = {t1:.4g}, cone slope {constants.slope:.3g}")
    scales = [2 * h_grid, 4 * h_grid, 8 * h_grid]
    c_loc = max(estimate_semiconcavity(field, t1, x1, scales), 1e-8)
    t_step = constants.c2 / (2.0 * c_loc) / 1.5
    cap = step_cap if step_cap is not None else (T - t1)
    t_step = min(t_step, cap)
    if t_step < 1e-6:
        raise ScheduleStall(f"step budget {t_step:.3g} underflowed at t = {t1:.4g}")

    probe_scales = (2 * h_grid, 8 * h_grid)
    for attempt in range(max_halvings + 1):
        times = t1 + t_step * np.arange(1, ladder + 1) / ladder
        radii = np.minimum(lam2 * (times - t1), radius_cap)
        points, phis, scans, scan_vals = _argmax_points(field, action_model, t1, x1,
                                                        times, radii)
        # concavity probes y + z and y - z of every ladder time and scale, one batch
        z = np.zeros((len(probe_scales), x1.size))
        z[:, 0] = probe_scales
        probes = points[:, None, None, :] + np.stack([z, -z], axis=1)
        probe_vals = _argmax_objective(
            field, action_model, t1, x1, np.repeat(times, 2 * len(probe_scales)),
            probes.reshape(-1, x1.size)).reshape(ladder, len(probe_scales), 2)
        try:
            for j, t in enumerate(times):
                y, phi, cand, vals = points[j], phis[j], scans[j], scan_vals[j]
                # near-tied distant maxima mean the argmax is not unique
                far = np.linalg.norm(cand - y, axis=1) > max(4 * h_grid, 0.05 * radii[j])
                if np.any(vals[far] >= phi - 1e-9):
                    raise NonUniqueArgmax(f"tied maximizers at t = {t:.4g}")
                margin_req = constants.c2 / (t - t1) - c_loc
                if margin_req <= 0:
                    raise ConcavityFailure("no concavity margin at this step size")
                for scale, pair in zip(probe_scales, probe_vals[j]):
                    second = float(pair.sum() - 2 * phi)
                    allowed = -0.25 * margin_req * scale * scale
                    if second > allowed:
                        raise ConcavityFailure(
                            f"objective second difference {second:.3g} above "
                            f"{allowed:.3g} at t = {t:.4g}")
        except (ConcavityFailure, NonUniqueArgmax) as exc:
            if attempt < max_halvings:
                t_step *= 0.5
                if t_step < 1e-6:
                    raise ScheduleStall("step halved below 1e-6") from exc
                continue
            if not isinstance(exc, NonUniqueArgmax):
                raise
            logger.warning("argmax stayed tied after %d halvings; taking the "
                           "maximizer closest to the previous point", max_halvings)
            prev = points[j - 1] if j > 0 else x1
            order = np.argsort(np.linalg.norm(cand - prev, axis=1))
            tied = [k for k in order if vals[k] >= phi - 1e-9]
            points[j] = cand[tied[0]]
            times, points = times[: j + 1], points[: j + 1]
        certs = (reachable_gradients_batch(field, times, points) if certify
                 else [None] * len(times))
        return StepResult(t_step=t_step, times=times, points=points,
                          certificates=certs, constants=constants)
    raise ScheduleStall("unreachable")


# ---------------------------------------------------------------------------
# global trace

@dataclass
class SingularCurve:
    """Time-stamped singular curve with its step sizes and schedule."""

    times: np.ndarray
    points: np.ndarray
    step_sizes: np.ndarray
    schedule: list                  # (annulus_index, t_i, k_i)
    certificates: list              # ReachableGradientSet or None, per point
    localization_ok: bool = True

    @property
    def certificate_diameters(self):
        return np.array([c.diameter if c is not None else np.nan
                         for c in self.certificates])

    def speeds(self):
        dx = np.linalg.norm(np.diff(self.points, axis=0), axis=1)
        dt = np.diff(self.times)
        return dx / dt


def trace_singular_curve(field, t0: float, x, T_total: float, block: float = 1.0,
                         certify: bool = True,
                         require_singular: bool = True) -> SingularCurve:
    """Concatenate propagation steps until the curve covers [t0, T_total].

    On the i-th annulus the step size is recomputed from constants probed
    on the cone of horizon t0 + i*block (never larger than the previous
    annulus's) and repeated up to floor(budget / t_i) times; no step runs
    past T_total.  The schedule records (i, t_i, k_i), k_i the steps that
    ran on the annulus.  The ball-radius localization
    |x(s) - x| <= lambda_2 * (s - t0) is checked for every recorded point.
    The start point's certificate is computed only when ``certify`` or
    ``require_singular`` reads it; otherwise it is None like the others.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    cert0 = None
    if certify or require_singular:
        flag, cert0 = is_singular(field, None, t0, x)
        if require_singular and not flag:
            raise InvalidProblem(
                f"start point {x} has reachable diameter {cert0.diameter:.3g} "
                f"<= {SINGULAR_TOL:g}; pass require_singular=False to override")

    times = [t0]
    points = [x.copy()]
    steps = [0.0]
    certs = [cert0]
    schedule = []
    loc_ok = True

    h_grid = float(np.max(field.u0.spacing))
    t_cur = t0
    x_cur = x.copy()
    t_prev_annulus = np.inf
    i = 0
    spent = 0.0
    while t_cur < T_total - 1e-12 and i < 64:
        i += 1
        T_i = t0 + i * block
        budget = (T_i - t0) - spent
        lam2_i = field.lambda2(T_i)

        def record(step):
            nonlocal t_cur, x_cur, spent, loc_ok
            for j in range(len(step.times)):
                times.append(float(step.times[j]))
                points.append(step.points[j].copy())
                steps.append(step.t_step)
                certs.append(step.certificates[j])
                drift = float(np.linalg.norm(step.points[j] - x))
                if drift > lam2_i * (step.times[j] - t0) + h_grid + 1e-9:
                    loc_ok = False
            t_cur = float(step.times[-1])
            x_cur = step.points[-1].copy()
            spent = t_cur - t0

        # first step of the annulus also fixes its step size t_i
        step = propagation_step(field, t_cur, x_cur, T_i,
                                step_cap=min(block, t_prev_annulus, T_total - t_cur),
                                certify=certify)
        t_i = min(step.t_step, t_prev_annulus)
        t_prev_annulus = t_i
        record(step)
        k_i = 1
        for _ in range(int(math.floor(budget / t_i)) - 1):
            if t_cur >= T_total - 1e-12:
                break
            step = propagation_step(field, t_cur, x_cur, T_i,
                                    constants=step.constants,
                                    step_cap=min(t_i, T_total - t_cur),
                                    certify=certify)
            record(step)
            k_i += 1
        schedule.append((i, t_i, k_i))
        if t_cur >= T_total - 1e-12:
            break
    if t_cur < T_total - 1e-6:
        raise ScheduleStall(
            f"trace stalled at t = {t_cur:.4g} before T_total = {T_total:.4g}")
    return SingularCurve(times=np.array(times), points=np.array(points),
                         step_sizes=np.array(steps), schedule=schedule,
                         certificates=certs, localization_ok=loc_ok)


def lipschitz_certificate(curve: SingularCurve, constants: ConvexityConstants,
                          K_T: float) -> dict:
    """Check every difference quotient of the curve against the C-bound.

    The bound combines the constants of the action kernel with the uniform
    time-derivative modulus K_T of the field.
    """
    margin = 0.1  # relative slack of the bound
    c1, c2, c3 = constants.c1, constants.c2, constants.c3
    c4 = c3 / c2 + (K_T + math.sqrt(c1 + K_T)) / (2.0 * c1)
    quotients = curve.speeds()
    max_q = float(np.max(quotients)) if quotients.size else 0.0
    return {
        "c4": float(c4),
        "max_quotient": max_q,
        "passed": bool(max_q <= c4 * (1.0 + margin)),
        "margin": margin,
        "K_T": K_T,
    }


# ---------------------------------------------------------------------------
# fundamental solution

def fundamental_solution(model: LagrangianModel, s: float, t: float, x, y):
    """Least action A between (s, x) and (t, y) with its derivatives.

    The direct method solves the minimizing path at 64 segments, then at
    128 from the coarse nodes with midpoints inserted; a path of either
    pass that did not converge raises :class:`NoConvergence`.  The value
    and both endpoint derivatives are Richardson-extrapolated from the
    pair.  Returns (A, (D_x A, D_y A, D_t A)): D_x A and D_y A extrapolate
    ``d_start`` and ``d_end`` of :func:`minimize_paths`, and
    D_t A = -H(t, y, D_y A).
    """
    if not t > s:
        raise ValueError("need t > s")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))

    coarse = minimize_paths(model, s, t, x[None, :], y[None, :], segments=64)
    require_converged(coarse)
    fine = minimize_paths(model, s, t, x[None, :], y[None, :], segments=128,
                          init_nodes=_refine_nodes(coarse["nodes"]))
    require_converged(fine)
    value, dxa, dya = (fine[key][0] + (fine[key][0] - coarse[key][0]) / 3.0
                       for key in ("action", "d_start", "d_end"))
    dta = -float(model.hamiltonian.H(t, y, dya))
    return float(value), (dxa, dya, dta)


# ---------------------------------------------------------------------------
# characteristics, calibrated flow, cut time, Aubry candidates

def _interp_gradient(v: GridFunction, x):
    """Centred-difference gradient of the interpolant at x, (n,) or (P, n)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = np.empty_like(x)
    for ax in range(v.dimension):
        e = np.zeros(v.dimension)
        e[ax] = v.spacing[ax]
        g[..., ax] = (v(x + e) - v(x - e)) / (2 * v.spacing[ax])
    return g


def _row_sums(a):
    """Sums over the last axis, one column at a time: a row's sum never
    depends on the rows batched with it."""
    out = a[..., 0]
    for j in range(1, a.shape[-1]):
        out = out + a[..., j]
    return out


def _rms(a):
    """Root mean square of each row, as scipy's step-size norm."""
    return np.sqrt(_row_sums(a * a) / a.shape[-1])


def _nonzero(coefs):
    """(j, c_j) for the nonzero coefs, c_j a Python float."""
    return [(j, float(c)) for j, c in enumerate(coefs) if c]


# Dormand-Prince 5(4) as scipy's RK45 tabulates it (scipy.integrate._ivp.rk):
# nodes C, stage matrix A, weights B, error weights E of the order-4 estimate
# and the quartic dense output P (Shampine's optimal c_6), one row per stage.
# True division gives the doubles of scipy's arrays.
_DP_TABLEAU_C = [0, 1/5, 3/10, 4/5, 8/9, 1]
_DP_TABLEAU_A = [
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
]
_DP_TABLEAU_B = [35/384, 0, 500/1113, 125/192, -2187/6784, 11/84]
_DP_TABLEAU_E = [-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40]
_DP_TABLEAU_P = [
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
]
_DP_ERROR_ORDER = 4
# the same tableau without its zeros
_DP_A = [(float(c), _nonzero(a[:s]))
         for s, (c, a) in enumerate(zip(_DP_TABLEAU_C, _DP_TABLEAU_A)) if s]
_DP_B, _DP_E = _nonzero(_DP_TABLEAU_B), _nonzero(_DP_TABLEAU_E)
_DP_P = [_nonzero(col) for col in zip(*_DP_TABLEAU_P)]
_ERROR_EXPONENT = -1.0 / (_DP_ERROR_ORDER + 1)


def _combine(pairs, stages):
    """sum_j c_j stages[j] over the (j, c_j) pairs, as elementwise
    multiply-adds: a BLAS contraction may sum in an order that depends on
    the batch."""
    (j, c), *rest = pairs
    out = c * stages[j]
    for j, c in rest:
        out += c * stages[j]
    return out


def _initial_steps(rhs, t, y, f, direction, interval, max_step):
    """scipy's initial step size (Hairer, Norsett and Wanner, Sec. II.4), per row."""
    scale = _ATOL + np.abs(y) * _RTOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), interval)
        f1 = rhs(t + direction * h0, y + (direction * h0)[:, None] * f)
        d2 = _rms((f1 - f) / scale) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** -_ERROR_EXPONENT)
    return np.minimum(np.minimum(100 * h0, h1), min(interval, max_step))


def _brent_root(f, a: float, b: float) -> float:
    """A root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    A port of scipy's ``brentq`` (scipy/optimize/Zeros/brentq.c) with
    xtol = rtol = _ROOT_TOL and its 100 iterations: it evaluates f at the
    same points and returns the same root.  A bracket without a sign change,
    or no convergence in 100 iterations, raises :class:`NoConvergence`.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise NoConvergence(f"no sign change on [{xpre:.17g}, {xcur:.17g}]: "
                            f"f = {fpre:.3g}, {fcur:.3g}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):       # keep the point of least |f| in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_ROOT_TOL + _ROOT_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:            # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                       # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # brentq.c divides by zero to inf or nan, which fails the
                # step test below and bisects
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:                       # the interpolation step is too long: bisect
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise NoConvergence(f"no root to {_ROOT_TOL:.3g} on [{a:.17g}, {b:.17g}] "
                        "in 100 iterations")


# The benchmark tracer (hjbench/tracer.py) wraps this name to count ODE
# solver calls, so it stays; nothing calls it, and every ``singular.ode``
# count reads 0.  It goes when the tracer drops that wrap.
solve_ivp = None


def _characteristic_flow(ham: HamiltonianModel, lam: float, states, horizon: float,
                         direction: int = +1, margin=None):
    """Integrate the characteristics x' = H_p, p' = -H_x - lam p,
    a' = e^{lam t} (<p, H_p> - H) of the rows of ``states``, (R, 2n+1)
    states (x, p, a) at t = 0, until each row stops or reaches
    t = direction * horizon.

    Every row carries its own time, step size and error norm in one batched
    Dormand-Prince 5(4) loop: scipy's RK45 tableau, tolerances, initial
    step and step-size rule, with steps of at most min(horizon / 20, 0.25).
    Stage sums are elementwise, so a row's tau and end state do not depend
    on its batch.  ``margin(t, Y, rows)``, if given, is the stop margin of
    the batch rows ``rows`` at times t and states Y; after each accepted
    step a row whose margin is <= 0 gets tau at the root of its own step's
    dense interpolant and stops there.  A row at the horizon stops.  A live
    row with |x| or |p| above _ESCAPE raises :class:`BlowUp`; a row whose
    step underflows, NaN right-hand sides included, raises
    :class:`NoConvergence`, and so does a loop that takes more than
    _FLOW_STEPS_PER_UNIT step attempts per unit of max(1, horizon).

    Returns (tau, ends): tau (R,) the stop times, clamped at horizon; ends
    (R, 2n+1) each row's state at direction * min(tau, horizon).
    """
    y0 = y = np.array(states, dtype=float, ndmin=2)
    R, n = y.shape[0], (y.shape[1] - 1) // 2
    bound = float(direction * horizon)
    clip = np.minimum if direction > 0 else np.maximum
    max_step = min(abs(horizon) / 20, 0.25)

    def rhs(t, Y):
        X, P = Y[:, :n], Y[:, n:2 * n]
        hp = np.asarray(ham.H_p(t, X, P)).reshape(X.shape)
        hx = np.asarray(ham.H_x(t, X, P)).reshape(X.shape)
        h = np.asarray(ham.H(t, X, P)).reshape(-1)
        da = np.exp(lam * t) * (_row_sums(P * hp) - h)
        return np.concatenate([hp, -hx - lam * P, da[:, None]], axis=1)

    def stop_time(row, t_old, y_old, step, stages):
        """Root of a row's margin on its step's dense interpolant, with the
        state there."""
        Q = [_combine(col, stages) for col in _DP_P]

        def state(s):
            x = (s - t_old) / step
            acc, power = 0.0, 1.0
            for q in Q:
                power = power * x
                acc = acc + q * power
            return y_old + step * acc

        root = _brent_root(lambda s: margin(np.array([s]), state(s)[None, :], row)[0],
                           t_old, t_old + step)
        return root, state(root)

    # the live rows: their indices, times, states, slopes and step sizes, and
    # whether their last attempt was rejected
    rows = np.arange(R)
    t = np.zeros(R)
    f = rhs(t, y)
    h_abs = _initial_steps(rhs, t, y, f, direction, abs(horizon), max_step)
    rejected = np.zeros(R, dtype=bool)
    tau, ends = np.full(R, abs(horizon)), np.empty_like(y)
    budget, attempts = _FLOW_STEPS_PER_UNIT * max(1.0, abs(horizon)), 0
    while rows.size:
        attempts += 1
        if attempts > budget:
            slowest = int(np.argmin(np.abs(t)))
            raise NoConvergence(f"characteristic integration took {attempts - 1} steps; "
                                f"the row from x = {y0[rows[slowest], :n]} is at "
                                f"t = {t[slowest]:.4g}")
        min_step = 10 * np.abs(np.spacing(t))
        h = np.where(rejected, h_abs, np.minimum(np.maximum(h_abs, min_step), max_step))
        if (h < min_step).any():
            raise NoConvergence("characteristic integration failed: step size underflow "
                                f"at t = {t[h < min_step][0]:.4g}")
        t_new = clip(t + direction * h, bound)
        step = t_new - t
        col = step[:, None]
        stages = [f]
        for c, a in _DP_A:
            stages.append(rhs(t + c * step, y + col * _combine(a, stages)))
        y_new = y + col * _combine(_DP_B, stages)
        stages.append(rhs(t_new, y_new))
        scale = _ATOL + np.maximum(np.abs(y), np.abs(y_new)) * _RTOL
        error = _rms(col * _combine(_DP_E, stages) / scale)
        ok = error < 1.0
        # error 0 grows by _MAX_FACTOR, a NaN error shrinks by _MIN_FACTOR
        factor = _SAFETY * np.maximum(error, 1e-300) ** _ERROR_EXPONENT
        factor = np.where(ok, np.minimum(np.where(rejected, 1.0, _MAX_FACTOR), factor),
                          np.fmax(_MIN_FACTOR, factor))
        h_abs, rejected = np.abs(step) * factor, ~ok
        t_old, y_old = t, y
        t = np.where(ok, t_new, t)
        y = np.where(ok[:, None], y_new, y)
        f = np.where(ok[:, None], stages[-1], f)

        broke = np.zeros(rows.size, dtype=bool) if margin is None else margin(t, y, rows) <= 0.0
        for j in broke.nonzero()[0]:
            root, ends[rows[j]] = stop_time(rows[j:j + 1], t_old[j], y_old[j], step[j],
                                            [k[j] for k in stages])
            tau[rows[j]] = abs(root)
        escaped = ~broke & (np.abs(y[:, :2 * n]).max(axis=1) > _ESCAPE)
        if escaped.any():
            raise BlowUp(f"characteristic escaped at t = {t[escaped][0]:.4g}")
        done = broke | (t == bound)
        if done.any():
            arrived = done & ~broke
            ends[rows[arrived]] = y[arrived]
            rows, t, y, f, h_abs, rejected = (
                a[~done] for a in (rows, t, y, f, h_abs, rejected))
    return tau, ends


def _calibrated_flow(problem: DiscountedProblem, v: GridFunction, xs, p0,
                     horizon: float, direction: int = +1):
    """Integrate the discounted characteristics of the rows of xs from the
    momenta p0, each until its calibration defect breaks or it reaches the
    horizon.

    The defect of the calibration identity on [0, t] is monitored in its
    discounted normalization,

        v(gamma(t)) - e^{-lam t} v(x) - int_0^t e^{lam (s-t)} L ds,

    which keeps grid interpolation error from being amplified by
    e^{lam t}; the raw identity detects the same break points but can
    never hold to horizon on sampled data.  direction=-1 runs the backward
    test, where the raw form is already stable and is used as is.  A row
    whose margin CALIB_TOL (1 + |t|) - |defect| is <= 0 stops there, in
    :func:`_characteristic_flow`, which integrates all rows in one batched
    loop.

    Returns (tau, ends): tau (R,) the first violation times, clamped at
    horizon; ends (R, 2n+1) each row's state (x, p, running integral) at
    min(tau, horizon).
    """
    lam = problem.lam
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    R, n = xs.shape
    v0 = v(xs)

    def margin(t, Y, rows):
        raw = np.exp(lam * t) * v(Y[:, :n]) - v0[rows] - Y[:, 2 * n]
        return CALIB_TOL * (1.0 + np.abs(t)) - np.abs(raw * np.exp(-lam * np.maximum(t, 0.0)))

    states = np.column_stack([xs, np.reshape(p0, (R, n)), np.zeros(R)])
    return _characteristic_flow(problem.hamiltonian, lam, states, horizon, direction, margin)


def _forward_spans(problem: DiscountedProblem, v: GridFunction, pts, horizon: float):
    """(tau, ends) for the rows of pts.

    One batched operator call gives the certificates of all rows; a row
    whose reachable set is wider than ``SINGULAR_TOL`` is cut (tau = 0, its
    end state NaN).  The others run the forward calibrated flow in one
    batched loop; ends holds their states (x, p, running integral) at
    min(tau, horizon).
    """
    field = DiscountedField(problem, v)
    certs = reachable_gradients_batch(field, 0.0, pts)
    cut = np.array([cert.diameter > SINGULAR_TOL for cert in certs])
    tau, ends = np.zeros(len(pts)), np.full((len(pts), 2 * pts.shape[1] + 1), np.nan)
    if not cut.all():
        uncut = pts[~cut]
        tau[~cut], ends[~cut] = _calibrated_flow(problem, v, uncut,
                                                 _interp_gradient(v, uncut), horizon, +1)
    return tau, ends


def cut_time(problem: DiscountedProblem, v: GridFunction, x, horizon: float):
    """Forward calibration span tau(x); horizon stands in for +infinity.

    Returns (tau, end): tau is clamped at horizon, and end is the state
    (x, p, running integral) of the calibrated flow at tau, or None at a
    cut point (tau = 0).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    tau, ends = _forward_spans(problem, v, x[None, :], horizon)
    return float(tau[0]), None if tau[0] == 0.0 else ends[0]


@dataclass
class CutTimeField:
    """Sampled cut times with the continuous majorant used by the retraction."""

    tau: GridFunction
    alpha: GridFunction

    def __post_init__(self):
        if not np.all(self.alpha.values > self.tau.values):
            raise ValueError("majorant must exceed tau everywhere")
        if np.any(self.tau.values < 0):
            raise ValueError("cut times must be nonnegative")


def _mollified_majorant(tau_values: np.ndarray) -> np.ndarray:
    """Per-axis 3-node max then 3-node average, plus 0.1."""
    padded = tau_values
    for ax in range(tau_values.ndim):
        up = np.roll(padded, -1, axis=ax)
        dn = np.roll(padded, 1, axis=ax)
        # edge rolls wrap; for the majorant that only ever raises values
        padded = np.maximum(np.maximum(up, dn), padded)
    out = padded.copy()
    for ax in range(tau_values.ndim):
        up = np.roll(padded, -1, axis=ax)
        dn = np.roll(padded, 1, axis=ax)
        out = (up + dn + padded) / 3.0
        padded = out
    return np.maximum(out, tau_values) + 0.1


def cut_times(problem: DiscountedProblem, v: GridFunction, nodes,
              horizon: float) -> np.ndarray:
    """Cut times at the queried points.

    The singularity certificates of all points come from one batched
    operator call; the forward calibrated flows of the points that are not
    cut run in one batched loop (see :func:`_calibrated_flow`), where each
    row keeps its own steps.  So each tau equals the single-point
    :func:`cut_time` bit for bit.
    """
    pts = np.atleast_2d(np.asarray(nodes, dtype=float))
    return _forward_spans(problem, v, pts, horizon)[0]


def cut_time_field(problem: DiscountedProblem, v: GridFunction,
                   horizon: float) -> CutTimeField:
    """Cut times on the whole grid plus the mollified strict majorant."""
    taus = cut_times(problem, v, v.nodes(), horizon)
    tau_vals = taus.reshape(v.resolution)
    alpha_vals = _mollified_majorant(tau_vals)
    tau_grid = GridFunction(v.box, tau_vals, v.periodic)
    alpha_grid = GridFunction(v.box, alpha_vals, v.periodic)
    return CutTimeField(tau=tau_grid, alpha=alpha_grid)


def aubry_candidates(field, horizon: float, nodes=None, forward_tau=None):
    """Grid nodes that stay calibrated to the horizon in both time directions.

    Only defined for discounted fields; evolutionary fields raise
    :class:`InvalidProblem`.  ``forward_tau`` (per queried node) is the
    forward span, from :func:`cut_times` when not given; a cut node has
    tau = 0 and is never a candidate.  The backward flows of the nodes
    whose forward span reaches the horizon run in one batched loop; each
    backward span equals a one-node run bit for bit.  Returns (points,
    mask-over-queried-nodes).
    """
    if not isinstance(field, DiscountedField):
        raise InvalidProblem("the Aubry set is defined for discounted problems only")
    problem, v = field.problem, field.v
    pts = v.nodes() if nodes is None else np.atleast_2d(nodes)
    if forward_tau is None:
        forward_tau = cut_times(problem, v, pts, horizon)
    forward_tau = np.asarray(forward_tau, dtype=float).reshape(-1)
    if forward_tau.shape[0] != len(pts):
        raise ValueError("forward_tau must align with the queried nodes")
    mask = np.zeros(len(pts), dtype=bool)
    reach = np.flatnonzero(forward_tau >= horizon)
    if reach.size:
        tau_b, _ = _calibrated_flow(problem, v, pts[reach], _interp_gradient(v, pts[reach]),
                                    horizon, -1)
        mask[reach] = tau_b >= horizon
    return pts[mask], mask


# ---------------------------------------------------------------------------
# homotopy / retraction

def homotopy(field, x, s: float):
    """F(x, s): calibrated flow while it lasts, singular continuation after.

    For s = 0 this is x exactly; once the flow's calibration defect breaks
    (at the cut time), the point continues along the traced singular curve.
    Only defined for discounted fields.
    """
    if not isinstance(field, DiscountedField):
        raise InvalidProblem("the retraction homotopy runs on discounted fields")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if s <= 0.0:
        return x.copy()
    tau_hit, end = cut_time(field.problem, field.v, x, s)
    y_hit = x if end is None else end[:x.size].copy()
    if tau_hit >= s:
        return y_hit
    t_start = 1.0 + tau_hit
    span = s - tau_hit
    if span <= 1e-6:
        return y_hit
    # unit annulus blocks, capped by the span so the ladder reaches exactly s
    curve = trace_singular_curve(field, t_start, y_hit, t_start + span,
                                 block=min(1.0, span),
                                 certify=False, require_singular=False)
    idx = int(np.searchsorted(curve.times, t_start + span + 1e-12, side="right") - 1)
    return curve.points[max(idx, 1 if len(curve.times) > 1 else 0)].copy()


def retraction(field, model, cut_field: CutTimeField, x, s: float):
    """G(x, s) = F(x, s * alpha(x)) with the continuous majorant alpha.

    ``model`` is not used; it stays in the signature for existing callers,
    which may pass None.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if s <= 0.0:
        return x.copy()
    alpha = float(cut_field.alpha(x))
    return homotopy(field, x, s * alpha)
