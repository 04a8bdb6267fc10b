"""Problem data: Lagrangians, Hamiltonians, growth bounds, Legendre transform.

Callable conventions
--------------------
All model callables are vectorized over leading axes:

* ``L(s, x, v)`` with ``x, v`` of shape ``(..., n)`` returns shape ``(...)``;
  ``s`` is a scalar or an array broadcastable to ``(...)``.
* ``L_v``/``L_x`` return ``(..., n)``, ``L_vv`` returns ``(..., n, n)``,
  ``L_t`` returns ``(...)``.  The Hamiltonian side mirrors this with
  ``H, H_p, H_x, H_t``.
* ``L_xx``, the potential's curvature, is optional (``None`` when a model
  has no closed form).  It returns ``(..., n, n)`` like ``L_vv``; the direct
  method reads only the diagonal of either.
* ``HamiltonianModel.switching``, also optional, returns ``(..., m)`` from
  ``x``: switching functions whose zero sets hold every point where H or
  H_x is not smooth.  A model that sets it takes ``branch=`` in ``H``,
  ``H_p`` and ``H_x``, a ``(..., m)`` array of +-1 that picks the smooth
  piece on the side where each switching function has that sign, extended
  across its zero set.  Without ``branch`` they evaluate each point on its
  own piece, with a one-sided convention on the zero sets.  The
  characteristic flow freezes the branch over each step and switches it
  at the located crossing (``singular._characteristic_flow``).
* Every ``LagrangianModel`` carries a Hamiltonian: a closed form when the
  constructor gets one, else the Legendre transform, whose ``legendre``
  inverts ``L_v = p`` for a whole (..., n) batch in one damped Newton run.
  Callers pass batches; no caller loops over points.

Growth bounds (``GrowthData``) are four numbers: the sandwich
``|v|^2/2 - c_T <= L <= scale |v|^2/2 + offset`` and the time-derivative
envelope ``|L_t| <= 2 rate c_T + rate L``.
Time-independent models have scale 1 and rate 0; the exponential lift of a
discounted problem over a horizon T multiplies c_T, offset and scale by
exp(lam T) and sets rate = lam.  The conjugates are closed forms:
``theta_lower^*(s) = s^2/2`` and ``theta_upper^*(s) = s^2/(2 scale) - offset``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ExponentOverflow, NoConvergence, NotConvex

EXPONENT_CAP = 40.0
LEGENDRE_ITERATIONS = 100   # Newton iterations of the Legendre root-find
TONELLI_SAMPLES = 200       # (x, v) samples of check_tonelli
TONELLI_SPEED_CAP = 8.0     # check_tonelli samples velocities in [-cap, cap]^n


# ---------------------------------------------------------------------------
# growth bounds

@dataclass
class GrowthData:
    """|v|^2/2 - c_T <= L <= scale |v|^2/2 + offset and |L_t| <= rate (2 c_T + L)."""

    c_T: float = 0.0
    offset: float = 0.0
    scale: float = 1.0
    rate: float = 0.0

    def __post_init__(self):
        if self.c_T < 0:
            raise ValueError("c_T must be >= 0")

    def upper(self, r):
        """theta_upper(r) = scale r^2/2 + offset."""
        return 0.5 * self.scale * r * r + self.offset


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
    # x -> (..., m) switching functions; set, H, H_p and H_x take ``branch``
    switching: Optional[Callable] = None


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
    # the curvature in x, (..., n, n); unset, Newton uses the kinetic block alone
    L_xx: Optional[Callable] = None
    # companion Hamiltonian (same dynamics); unset, the Legendre transform
    hamiltonian: Optional[HamiltonianModel] = None
    # set when L(s,x,v) = exp(exp_rate*s) * base.L(x,v); quadrature exploits it
    exp_rate: Optional[float] = None
    base: Optional["LagrangianModel"] = None

    def __post_init__(self):
        if self.hamiltonian is None:
            self.hamiltonian = hamiltonian_from_lagrangian(self)


@dataclass
class DiscountedProblem:
    """lambda v + H(x, Dv) = 0 with its Lagrangian side.

    The growth offsets |v|^2/2 - c1 <= L <= |v|^2/2 + c2 are read from the
    Lagrangian's growth data.
    """

    lam: float
    lagrangian: LagrangianModel
    hamiltonian: HamiltonianModel
    name: str = ""

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("discount rate must be positive")

    @property
    def c1(self) -> float:
        return self.lagrangian.growth.c_T

    @property
    def c2(self) -> float:
        return self.lagrangian.growth.offset


# ---------------------------------------------------------------------------
# Legendre transform

def _assert_convex(mat):
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise NotConvex("velocity Hessian is not positive definite") from None


def legendre(model: LagrangianModel, s, x, p):
    """Invert L_v(s,x,.) = p for every row of a batch; returns (v_star, h_value).

    ``x`` and ``p`` broadcast to a batch (..., n) and ``s`` to (...).
    ``v_star`` has the batch's shape and ``h_value = <p, v_star> - L(s, x,
    v_star)``, the Hamiltonian, its leading shape; an (n,) call returns an
    (n,) array and a float.  Damped Newton on the strictly convex dual
    objective, all rows at once, each row stopping on its own.  When no
    backtracking step lowers a row's objective, the row is at its rounding
    floor (finite-difference models reach it before the gradient
    tolerance): it counts as converged if its Newton step is below
    1e-8 (1 + |v|), else it raises.  A row whose velocity Hessian is not
    positive definite raises :class:`NotConvex`; a row still open after
    ``LEGENDRE_ITERATIONS`` iterations raises :class:`NoConvergence`.
    """
    tol = 1e-10
    x = np.atleast_1d(np.asarray(x, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    shape = np.broadcast_shapes(x.shape, p.shape)
    n = shape[-1]
    P = np.broadcast_to(p, shape).reshape(-1, n)
    X = np.broadcast_to(x, shape).reshape(-1, n)
    S = np.broadcast_to(np.asarray(s, dtype=float), shape[:-1]).reshape(-1)
    V = P.copy()  # exact for unit-mass kinetic energy, decent start generally

    def objective(rows, vv):
        return model.L(S[rows], X[rows], vv) - np.sum(vv * P[rows], axis=-1)

    live = np.arange(len(P))
    f_cur = objective(live, V)
    for _ in range(LEGENDRE_ITERATIONS):
        grad = np.asarray(model.L_v(S[live], X[live], V[live]), dtype=float) - P[live]
        open_ = (np.linalg.norm(grad, axis=-1)
                 > tol * (1.0 + np.linalg.norm(P[live], axis=-1)))
        live, grad = live[open_], grad[open_]
        if not live.size:
            break
        hess = np.asarray(model.L_vv(S[live], X[live], V[live]), dtype=float)
        _assert_convex(hess)
        step = -np.linalg.solve(hess, grad[..., None])[..., 0]
        alpha = np.ones(len(live))
        search = np.arange(len(live))
        for _ in range(30):
            rows = live[search]
            trial_v = V[rows] + alpha[search, None] * step[search]
            trial = objective(rows, trial_v)
            better = trial < f_cur[rows]
            V[rows[better]], f_cur[rows[better]] = trial_v[better], trial[better]
            search = search[~better]
            alpha[search] *= 0.5
            if not search.size:
                break
        stalled = V[live[search]]
        if np.any(np.linalg.norm(step[search], axis=-1)
                  > 1e-8 * (1.0 + np.linalg.norm(stalled, axis=-1))):
            raise NoConvergence("Legendre line search stalled")
        live = np.delete(live, search)
    if live.size:
        raise NoConvergence(
            f"Legendre root-find did not reach {tol:g} in {LEGENDRE_ITERATIONS} "
            "iterations")
    h = np.sum(P * V, axis=-1) - model.L(S, X, V)
    if len(shape) == 1:
        return V[0], float(h[0])
    return V.reshape(shape), h.reshape(shape[:-1])


def hamiltonian_from_lagrangian(model: LagrangianModel) -> HamiltonianModel:
    """Hamiltonian callables through the batched Legendre transform.

    The four callables share one ``legendre`` solve per (s, x, p): the last
    inputs and their solution are kept, and a call with inputs
    ``np.array_equal`` to them reuses it, so a characteristic's right-hand
    side (H_p, H_x and H on the same rows) inverts L_v once.  Catalog
    models carry closed forms instead.
    """
    last = {}

    def solved(s, x, p):
        key = tuple(np.array(a, dtype=float) for a in (s, x, p))
        if not last or not all(map(np.array_equal, last["key"], key)):
            last["key"], last["out"] = key, legendre(model, s, x, p)
        return last["out"]

    return HamiltonianModel(
        model.dimension,
        H=lambda s, x, p: solved(s, x, p)[1],
        H_p=lambda s, x, p: solved(s, x, p)[0].copy(),
        H_x=lambda s, x, p: -np.asarray(model.L_x(s, x, solved(s, x, p)[0])),
        H_t=lambda s, x, p: -np.asarray(model.L_t(s, x, solved(s, x, p)[0])),
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
    ``H_hat(t,x,p) = exp(lam*t) H(x, exp(-lam*t) p)``; the x and v
    derivatives of L_hat, ``L_xx`` included when L has one, are exp(lam*t)
    times L's.  The growth offsets and the upper quadratic are rescaled by
    exp(lam*horizon), and rate = lam.  Raises :class:`ExponentOverflow`
    when ``lam*horizon`` exceeds the exponent cap.
    """
    lam = problem.lam
    if lam * horizon > EXPONENT_CAP:
        raise ExponentOverflow(
            f"lam*horizon = {lam * horizon:.3g} exceeds cap {EXPONENT_CAP:g}")
    L0, H0 = problem.lagrangian, problem.hamiltonian
    scale_T = math.exp(lam * horizon)

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
    lhat = LagrangianModel(
        dimension=L0.dimension,
        L=lambda s, x, v: _time_weight(lam, s, 0) * L0.L(s, x, v),
        L_v=lambda s, x, v: _time_weight(lam, s, 1) * L0.L_v(s, x, v),
        L_x=lambda s, x, v: _time_weight(lam, s, 1) * L0.L_x(s, x, v),
        L_t=lambda s, x, v: lam * _time_weight(lam, s, 0) * L0.L(s, x, v),
        L_vv=lambda s, x, v: _time_weight(lam, s, 2) * L0.L_vv(s, x, v),
        L_xx=None if L0.L_xx is None
        else lambda s, x, v: _time_weight(lam, s, 2) * L0.L_xx(s, x, v),
        growth=GrowthData(c_T=scale_T * problem.c1, offset=scale_T * problem.c2,
                          scale=scale_T, rate=lam),
        time_dependent=True,
        name=f"discount-transform({problem.name})",
        exp_rate=lam,
        base=L0,
        hamiltonian=hmodel,
    )
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


def check_tonelli(model: LagrangianModel, box, horizon: float,
                  seed: int = 0) -> TonelliReport:
    """Sample the box and a velocity cube; report worst-case condition margins."""
    box = np.asarray(box, dtype=float)
    if box.ndim == 1:
        box = box[None, :]
    n = model.dimension
    if box.shape != (n, 2) or np.any(box[:, 1] < box[:, 0]):
        raise ValueError("box must be (n, 2) with min <= max per axis")
    samples = TONELLI_SAMPLES
    rng = np.random.default_rng(seed)
    x = box[:, 0] + rng.random((samples, n)) * (box[:, 1] - box[:, 0])
    v = rng.uniform(-TONELLI_SPEED_CAP, TONELLI_SPEED_CAP, size=(samples, n))
    v[0] = 0.0
    times = rng.random(samples) * horizon if model.time_dependent else np.zeros(samples)

    lvv = np.asarray(model.L_vv(times, x, v), dtype=float).reshape(samples, n, n)
    eigs = np.linalg.eigvalsh(lvv)
    lval = np.asarray(model.L(times, x, v), dtype=float)
    speed = np.linalg.norm(v, axis=-1)

    g = model.growth
    lower_margin = float(np.min(lval - (0.5 * speed * speed - g.c_T)))
    upper_margin = float(np.min(g.upper(speed) - lval))

    # for a lift, 2 rate c_T holds up to the lift's own horizon
    lt = np.abs(np.asarray(model.L_t(times, x, v), dtype=float))
    envelope = 2.0 * g.rate * g.c_T + g.rate * lval
    time_margin = float(np.min(envelope - lt))

    return TonelliReport(
        min_eigenvalue=float(eigs.min()),
        lower_growth_margin=lower_margin,
        upper_growth_margin=upper_margin,
        time_derivative_margin=time_margin,
        samples=samples,
    )
