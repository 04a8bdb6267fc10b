"""Problem data: Lagrangians, Hamiltonians, growth bounds, Legendre transform.

Callable conventions
--------------------
All model callables are vectorized over leading axes:

* ``L(s, x, v)`` with ``x, v`` of shape ``(..., n)`` returns shape ``(...)``;
  ``s`` is a scalar or an array broadcastable to ``(...)``.
* ``L_v``/``L_x`` return ``(..., n)``, ``L_vv`` returns ``(..., n, n)``,
  ``L_t`` returns ``(...)``.  The Hamiltonian side mirrors this with
  ``H, H_p, H_x, H_t``.

Growth bounds (``GrowthData``) store the sandwich
``theta_upper(|v|) >= L >= theta_lower(|v|) - c_T`` for one horizon,
together with the time-derivative envelope ``|L_t| <= ct1(T) + ct2(T) L``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ExponentOverflow, NoConvergence, NotConvex

EXPONENT_CAP = 40.0

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_SWEEP_SHRINK = 0.4  # golden_polish half-width factor from one sweep to the next


# ---------------------------------------------------------------------------
# batched golden-section search

def golden_polish(cost: Callable, seeds, half_width, sweeps: int,
                  iters: int):
    """Cyclic per-axis golden-section minimization around a batch of seeds.

    ``seeds`` is (P, n).  A sweep visits the axes in order; on each axis the
    bracket [z - w, z + w] of every seed shrinks ``iters`` times and the
    coordinate moves to the bracket midpoint.  ``w`` starts at
    ``half_width``, a scalar or one width per seed (P,), and is multiplied
    by ``_SWEEP_SHRINK`` after each sweep.
    Each iteration makes one call ``cost(points (2P, n)) -> (2P,)``: rows
    ``:P`` are the left interior points, rows ``P:`` the right ones, and
    ties keep the left bracket.  Returns (points (P, n), costs (P,)), the
    costs from one last call on the returned points.

    It needs no derivatives; its callers are :func:`convex_conjugate`, the
    step-length fallback of :func:`legendre` and the argmax polish of
    ``singular._argmax_points``.  ``laxoleinik.localized_convolution``
    polishes cell by cell with endpoint derivatives instead.
    """
    z = np.array(seeds, dtype=float)
    P, n = z.shape
    width = half_width
    for _ in range(sweeps):
        for ax in range(n):
            lo = z[:, ax] - width
            hi = z[:, ax] + width
            for _ in range(iters):
                a = hi - _INV_PHI * (hi - lo)
                b = lo + _INV_PHI * (hi - lo)
                trial = np.concatenate([z, z])
                trial[:P, ax] = a
                trial[P:, ax] = b
                c = cost(trial)
                left = c[:P] <= c[P:]
                hi = np.where(left, b, hi)
                lo = np.where(left, lo, a)
            z[:, ax] = 0.5 * (lo + hi)
        width = width * _SWEEP_SHRINK
    return z, np.asarray(cost(z), dtype=float)


# ---------------------------------------------------------------------------
# convex conjugates of growth functions

def convex_conjugate(theta: Callable, s: float) -> float:
    """sup_{r >= 0} (r*s - theta(r)), located by a doubling ladder + golden search.

    ``theta`` must be superlinear so the supremum is attained, and accept
    arrays of radii.  The ladder fixes the bracket [0, r_max] that
    :func:`golden_polish` then shrinks.
    """
    s = float(s)
    # double r until the objective has clearly passed its peak
    r_max, best, worse = 1.0, -float(theta(0.0)), 0
    for _ in range(80):
        val = s * r_max - float(theta(r_max))
        if val <= best:
            worse += 1
            if worse >= 3:
                break
        else:
            best, worse = val, 0
        r_max *= 2.0
    # 60 shrinks leave a bracket of r_max * 3e-13
    half = 0.5 * r_max
    _, cost = golden_polish(lambda r: theta(r[:, 0]) - s * r[:, 0],
                            [[half]], half, sweeps=1, iters=60)
    return float(max(-cost[0], -float(theta(0.0))))


@dataclass
class GrowthData:
    """Growth sandwich and time-derivative envelope for one horizon."""

    c_T: float
    theta_lower: Callable
    theta_upper: Callable
    ct1: Callable = lambda T: 0.0
    ct2: Callable = lambda T: 0.0
    theta_lower_conjugate: Optional[Callable] = None
    horizon: float = 1.0

    def __post_init__(self):
        if self.c_T < 0:
            raise ValueError("c_T must be >= 0")
        if self.theta_lower_conjugate is None:
            theta = self.theta_lower
            self.theta_lower_conjugate = lambda s: convex_conjugate(theta, s)

    def validate(self) -> dict:
        """Spot-check ordering, superlinearity, and the Fenchel inequality
        on 65 radii in [0, 64]."""
        r_max, samples = 64.0, 65
        r = np.linspace(0.0, r_max, samples)
        lower = np.array([float(self.theta_lower(t)) for t in r])
        upper = np.array([float(self.theta_upper(t)) for t in r])
        order_margin = float(np.min(upper - lower))
        ladder = np.geomspace(1.0, r_max, 12)
        ratios = np.array([float(self.theta_lower(t)) / t for t in ladder])
        superlinear = bool(np.all(np.diff(ratios[len(ratios) // 2:]) > -1e-12))
        s_grid = np.linspace(0.0, r_max / 4.0, 17)
        fenchel = min(
            float(self.theta_lower(rr)) + float(self.theta_lower_conjugate(ss)) - rr * ss
            for rr in r[:: max(1, samples // 16)]
            for ss in s_grid
        )
        return {
            "order_margin": order_margin,
            "superlinear": superlinear,
            "fenchel_margin": fenchel,
            "ok": order_margin >= -1e-9 and superlinear and fenchel >= -1e-7,
        }


def quadratic_growth() -> GrowthData:
    """Default bounds theta_lower = theta_upper = r^2/2, c_T = 0."""
    return GrowthData(
        c_T=0.0,
        theta_lower=lambda r: 0.5 * r * r,
        theta_upper=lambda r: 0.5 * r * r,
        theta_lower_conjugate=lambda s: 0.5 * s * s,
    )


# ---------------------------------------------------------------------------
# model containers

@dataclass
class HamiltonianModel:
    dimension: int
    H: Callable
    H_p: Callable
    H_x: Callable
    H_t: Callable
    name: str = ""


@dataclass
class LagrangianModel:
    dimension: int
    L: Callable
    L_v: Callable
    L_x: Callable
    L_t: Callable
    L_vv: Callable
    growth: GrowthData
    time_dependent: bool = False
    name: str = ""
    # companion Hamiltonian (same dynamics), if known in closed form
    hamiltonian: Optional[HamiltonianModel] = None
    # set when L(s,x,v) = exp(exp_rate*s) * base.L(x,v); quadrature exploits it
    exp_rate: Optional[float] = None
    base: Optional["LagrangianModel"] = None


@dataclass
class DiscountedProblem:
    """lambda v + H(x, Dv) = 0 with its Lagrangian side and growth constants."""

    lam: float
    lagrangian: LagrangianModel
    hamiltonian: HamiltonianModel
    c1: float
    c2: float
    theta1: Callable
    theta2: Callable
    name: str = ""

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("discount rate must be positive")

    def validate_growth(self, x_samples, v_samples) -> float:
        """Worst margin of theta2(|v|)+c2 >= L >= theta1(|v|)-c1 over samples."""
        x = np.asarray(x_samples, dtype=float)
        v = np.asarray(v_samples, dtype=float)
        speed = np.linalg.norm(v, axis=-1)
        lval = self.lagrangian.L(0.0, x, v)
        upper = np.array([float(self.theta2(s)) for s in speed]) + self.c2 - lval
        lower = lval - np.array([float(self.theta1(s)) for s in speed]) + self.c1
        return float(min(upper.min(), lower.min()))


# ---------------------------------------------------------------------------
# Legendre transform

def _assert_convex(mat):
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise NotConvex("velocity Hessian is not positive definite") from None


def legendre(model: LagrangianModel, s: float, x, p, max_iter: int = 100):
    """Invert L_v(s,x,.) = p; returns (v_star, h_value).

    ``h_value = <p, v_star> - L(s, x, v_star)`` is the Hamiltonian.  Damped
    Newton on the strictly convex dual objective; when plain backtracking
    stalls, :func:`golden_polish` searches the step length on [0, 1].
    """
    tol = 1e-10
    x = np.atleast_1d(np.asarray(x, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    v = p.copy()  # exact for unit-mass kinetic energy, decent start generally

    def objective(vv):
        return float(model.L(s, x, vv) - vv @ p)

    f_cur = objective(v)
    for _ in range(max_iter):
        grad = np.atleast_1d(np.asarray(model.L_v(s, x, v), dtype=float)) - p
        if float(np.linalg.norm(grad)) <= tol * (1.0 + float(np.linalg.norm(p))):
            return v, float(p @ v - model.L(s, x, v))
        hess = np.atleast_2d(np.asarray(model.L_vv(s, x, v), dtype=float))
        _assert_convex(hess)
        step = -np.linalg.solve(hess, grad)
        alpha, improved = 1.0, False
        for _ in range(30):
            trial = objective(v + alpha * step)
            if trial < f_cur:
                v, f_cur, improved = v + alpha * step, trial, True
                break
            alpha *= 0.5
        if not improved:
            def line_cost(a):
                vv = v + a * step
                return model.L(s, np.broadcast_to(x, vv.shape), vv) - vv @ p

            pos, cost = golden_polish(line_cost, [[0.5]], 0.5, sweeps=1, iters=60)
            alpha, trial = float(pos[0, 0]), float(cost[0])
            if trial >= f_cur:
                raise NoConvergence("Legendre line search stalled")
            v, f_cur = v + alpha * step, trial
    raise NoConvergence(f"Legendre root-find did not reach {tol:g} in {max_iter} iterations")


def hamiltonian_from_lagrangian(model: LagrangianModel) -> HamiltonianModel:
    """Hamiltonian callables obtained pointwise through the Legendre transform.

    Slow path (one root-find per evaluation); catalog models carry closed
    forms instead.
    """

    def _each(s, x, p, pick):
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        if x.ndim == 1:
            v, h = legendre(model, float(np.asarray(s).reshape(())), x, p)
            return v if pick == "v" else h
        flat_x = x.reshape(-1, x.shape[-1])
        flat_p = p.reshape(-1, p.shape[-1])
        ss = np.broadcast_to(np.asarray(s, dtype=float), x.shape[:-1]).reshape(-1)
        vals = [legendre(model, float(ss[i]), flat_x[i], flat_p[i]) for i in range(len(flat_x))]
        if pick == "v":
            return np.array([v for v, _ in vals]).reshape(x.shape)
        return np.array([h for _, h in vals]).reshape(x.shape[:-1])

    def H(s, x, p):
        return _each(s, x, p, "h")

    def H_p(s, x, p):
        return _each(s, x, p, "v")

    def H_x(s, x, p):
        return -np.asarray(model.L_x(s, np.asarray(x, dtype=float), _each(s, x, p, "v")))

    def H_t(s, x, p):
        return -np.asarray(model.L_t(s, np.asarray(x, dtype=float), _each(s, x, p, "v")))

    return HamiltonianModel(model.dimension, H, H_p, H_x, H_t,
                            name=f"legendre({model.name})")


# ---------------------------------------------------------------------------
# discounted -> evolutionary transform

def _time_weight(lam, s, trailing: int):
    """exp(lam*s) shaped to broadcast against arrays with `trailing` extra axes."""
    w = np.exp(lam * np.asarray(s, dtype=float))
    if w.ndim == 0:
        return float(w)
    return w.reshape(w.shape + (1,) * trailing)


def to_evolutionary(problem: DiscountedProblem, horizon: float = 1.0):
    """Time-dependent models (L_hat, H_hat) equivalent to the discounted problem.

    ``L_hat(t,x,v) = exp(lam*t) L(x,v)`` and
    ``H_hat(t,x,p) = exp(lam*t) H(x, exp(-lam*t) p)``; growth data is
    rescaled for the requested horizon.  Raises :class:`ExponentOverflow`
    when ``lam*horizon`` exceeds the exponent cap.
    """
    lam = problem.lam
    if lam * horizon > EXPONENT_CAP:
        raise ExponentOverflow(
            f"lam*horizon = {lam * horizon:.3g} exceeds cap {EXPONENT_CAP:g}")
    L0, H0 = problem.lagrangian, problem.hamiltonian
    scale_T = math.exp(lam * horizon)

    lhat = LagrangianModel(
        dimension=L0.dimension,
        L=lambda s, x, v: _time_weight(lam, s, 0) * L0.L(s, x, v),
        L_v=lambda s, x, v: _time_weight(lam, s, 1) * L0.L_v(s, x, v),
        L_x=lambda s, x, v: _time_weight(lam, s, 1) * L0.L_x(s, x, v),
        L_t=lambda s, x, v: lam * _time_weight(lam, s, 0) * L0.L(s, x, v),
        L_vv=lambda s, x, v: _time_weight(lam, s, 2) * L0.L_vv(s, x, v),
        growth=GrowthData(
            c_T=scale_T * problem.c1,
            theta_lower=problem.theta1,
            theta_upper=lambda r: scale_T * (problem.theta2(r) + problem.c2),
            ct1=lambda T: 2.0 * lam * math.exp(lam * T) * problem.c1,
            ct2=lambda T: lam,
            horizon=horizon,
        ),
        time_dependent=True,
        name=f"discount-transform({problem.name})",
        exp_rate=lam,
        base=L0,
    )

    def hhat(s, x, p):
        w = _time_weight(lam, s, 0)
        wp = _time_weight(lam, s, 1)
        return w * H0.H(s, x, np.asarray(p, dtype=float) / wp)

    def hhat_p(s, x, p):
        wp = _time_weight(lam, s, 1)
        return H0.H_p(s, x, np.asarray(p, dtype=float) / wp)

    def hhat_x(s, x, p):
        wp = _time_weight(lam, s, 1)
        return wp * H0.H_x(s, x, np.asarray(p, dtype=float) / wp)

    def hhat_t(s, x, p):
        w = _time_weight(lam, s, 0)
        wp = _time_weight(lam, s, 1)
        scaled = np.asarray(p, dtype=float) / wp
        hp = H0.H_p(s, x, scaled)
        return lam * w * (H0.H(s, x, scaled) - np.sum(hp * scaled, axis=-1))

    hmodel = HamiltonianModel(H0.dimension, hhat, hhat_p, hhat_x, hhat_t,
                              name=f"discount-transform({problem.name})")
    lhat.hamiltonian = hmodel
    return lhat, hmodel


# ---------------------------------------------------------------------------
# empirical Tonelli verification

@dataclass
class TonelliReport:
    min_eigenvalue: float
    lower_growth_margin: float
    upper_growth_margin: float
    time_derivative_margin: float
    samples: int
    tolerance: float = 1e-9
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = (
            self.min_eigenvalue > 0
            and self.lower_growth_margin >= -self.tolerance
            and self.upper_growth_margin >= -self.tolerance
            and self.time_derivative_margin >= -self.tolerance
        )

    def as_dict(self):
        return {
            "min_eigenvalue": self.min_eigenvalue,
            "lower_growth_margin": self.lower_growth_margin,
            "upper_growth_margin": self.upper_growth_margin,
            "time_derivative_margin": self.time_derivative_margin,
            "samples": self.samples,
            "passed": self.passed,
        }


def check_tonelli(model: LagrangianModel, box, horizon: float, samples: int = 200,
                  speed_cap: float = 8.0, seed: int = 0) -> TonelliReport:
    """Sample the box and a velocity ball; report worst-case condition margins."""
    box = np.asarray(box, dtype=float)
    if box.ndim == 1:
        box = box[None, :]
    n = model.dimension
    if box.shape != (n, 2) or np.any(box[:, 1] < box[:, 0]):
        raise ValueError("box must be (n, 2) with min <= max per axis")
    samples = max(1, int(samples))
    rng = np.random.default_rng(seed)
    x = box[:, 0] + rng.random((samples, n)) * (box[:, 1] - box[:, 0])
    v = rng.uniform(-speed_cap, speed_cap, size=(samples, n))
    v[0] = 0.0
    times = rng.random(samples) * horizon if model.time_dependent else np.zeros(samples)

    lvv = np.asarray(model.L_vv(times, x, v), dtype=float).reshape(samples, n, n)
    eigs = np.linalg.eigvalsh(lvv)
    lval = np.asarray(model.L(times, x, v), dtype=float)
    speed = np.linalg.norm(v, axis=-1)

    g = model.growth
    lower = np.array([float(g.theta_lower(r)) for r in speed])
    upper = np.array([float(g.theta_upper(r)) for r in speed])
    lower_margin = float(np.min(lval - (lower - g.c_T)))
    upper_margin = float(np.min(upper - lval))

    lt = np.abs(np.asarray(model.L_t(times, x, v), dtype=float))
    envelope = g.ct1(horizon) + g.ct2(horizon) * lval
    time_margin = float(np.min(envelope - lt))

    return TonelliReport(
        min_eigenvalue=float(eigs.min()),
        lower_growth_margin=lower_margin,
        upper_growth_margin=upper_margin,
        time_derivative_margin=time_margin,
        samples=samples,
    )
