"""Built-in model catalog and expression-defined models.

Keys
----
``free_particle``
    kinetic energy alone, any dimension.
``pendulum``
    L = v^2/2 + cos x, H = p^2/2 - cos x (1D).
``sine_kink``
    L = v^2/2 + f(x) with f = cos(x)^2/2 - |sin x| (1D).  The potential has
    kinks at multiples of pi, where its derivative is the right-hand one;
    its Hamiltonian declares the switching function sin x, and on branch
    sigma = +-1 reads |sin x| as sigma sin x.  Pass ``eps > 0`` to smooth
    |.| into sqrt(.^2+eps^2)-eps, with no switching function.
``double_well``
    L = v^2/2 + (x^2-1)^2/4 (1D).  The upper growth bound is only valid on
    the bounded box |x| <= 2, which is all the grid solvers use.

User models come in as expression strings: either a full Lagrangian in
``(s, x, v)`` or a mechanical potential ``V(x)`` meaning L = |v|^2/2 - V.
Expression partials are central finite differences with step 1e-6, second
derivatives with step 1e-4.  A potential's model carries ``L_xx``; a full
Lagrangian expression does not, so its direct method uses the kinetic
block alone.  A Lagrangian expression starts with the placeholder growth
offsets c_T = offset = 0 and a potential with offsets sampled from V; the
command line replaces either with the config's ``c1``/``c2`` and requires
``c1`` for an expression.  Every problem reads its growth constants from
its Lagrangian's ``GrowthData``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .expressions import scalar_field
from .model import (
    DiscountedProblem,
    GrowthData,
    HamiltonianModel,
    LagrangianModel,
)

FD_STEP = 1e-6


def _eye_like(x, dimension):
    shape = np.asarray(x).shape[:-1] + (dimension, dimension)
    out = np.zeros(shape)
    out[...] = np.eye(dimension)
    return out


def _kinetic(v):
    """|v|^2/2 over the last axis.  The squares are summed one column at a
    time, in place, so a row's value does not depend on its batch and no
    (..., n) array of squares is made: a scan's velocities are its largest
    batch."""
    v = np.asarray(v, dtype=float)
    out = v[..., 0] * v[..., 0]
    for j in range(1, v.shape[-1]):
        out += v[..., j] * v[..., j]
    out *= 0.5
    return out


def free_particle(dimension: int = 1) -> LagrangianModel:
    """L = |v|^2/2 with H = |p|^2/2."""
    n, name = dimension, f"free_particle_{dimension}d"
    return LagrangianModel(
        dimension=n,
        L=lambda s, x, v: _kinetic(v),
        L_v=lambda s, x, v: np.asarray(v, dtype=float).copy(),
        L_x=lambda s, x, v: np.zeros_like(np.asarray(x, dtype=float)),
        L_t=lambda s, x, v: np.zeros(np.asarray(v, dtype=float).shape[:-1]),
        L_vv=lambda s, x, v: _eye_like(v, n),
        growth=GrowthData(),
        name=name,
        hamiltonian=HamiltonianModel(
            dimension=n,
            H=lambda s, x, p: _kinetic(p),
            H_p=lambda s, x, p: np.asarray(p, dtype=float).copy(),
            H_x=lambda s, x, p: np.zeros_like(np.asarray(x, dtype=float)),
            H_t=lambda s, x, p: np.zeros(np.asarray(p, dtype=float).shape[:-1]),
            name=name,
        ),
    )


def mechanical(f, f_grad, name: str, f_min: float, f_max: float, *,
               f_hess=None, switching=None) -> LagrangianModel:
    """1D model L = v^2/2 + f(x), H = p^2/2 - f(x); f bounded in [f_min, f_max].

    ``f_hess``, the second derivative of f, gives the model its ``L_xx``.
    ``switching``, a function of x whose zeros hold every kink of f, gives
    the Hamiltonian its ``switching``; f and f_grad then take a second
    argument, the branch (+-1 per point), and evaluate the smooth piece of
    f on the side where ``switching`` has that sign.
    """

    def on_branch(fn, x, branch):
        x = np.asarray(x, dtype=float)[..., 0]
        return fn(x) if branch is None else fn(x, np.asarray(branch, dtype=float)[..., 0])

    def L(s, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        return 0.5 * v[..., 0] ** 2 + f(x[..., 0])

    def L_x(s, x, v):
        x = np.asarray(x, dtype=float)
        return f_grad(x[..., 0])[..., None]

    def L_xx(s, x, v):
        x = np.asarray(x, dtype=float)
        return f_hess(x[..., 0])[..., None, None]

    return LagrangianModel(
        dimension=1,
        L=L,
        L_v=lambda s, x, v: np.asarray(v, dtype=float).copy(),
        L_x=L_x,
        L_t=lambda s, x, v: np.zeros(np.asarray(v, dtype=float).shape[:-1]),
        L_vv=lambda s, x, v: _eye_like(v, 1),
        L_xx=None if f_hess is None else L_xx,
        growth=GrowthData(c_T=max(0.0, -f_min), offset=max(0.0, f_max)),
        name=name,
        hamiltonian=HamiltonianModel(
            dimension=1,
            H=lambda s, x, p, branch=None: 0.5 * np.asarray(p, dtype=float)[..., 0] ** 2
            - on_branch(f, x, branch),
            H_p=lambda s, x, p, branch=None: np.asarray(p, dtype=float).copy(),
            H_x=lambda s, x, p, branch=None: -on_branch(f_grad, x, branch)[..., None],
            H_t=lambda s, x, p: np.zeros(np.asarray(p, dtype=float).shape[:-1]),
            name=name,
            switching=None if switching is None
            else lambda x: switching(np.asarray(x, dtype=float)[..., 0])[..., None],
        ),
    )


def pendulum() -> LagrangianModel:
    """L = v^2/2 + cos x (1D), so H = p^2/2 - cos x."""
    return mechanical(np.cos, lambda x: -np.sin(x), "pendulum", f_min=-1.0, f_max=1.0,
                      f_hess=lambda x: -np.cos(x))


def sine_kink(eps: float = 0.0) -> LagrangianModel:
    """L = v^2/2 + cos(x)^2/2 - |sin x| (1D), optionally smoothed near the kinks.

    With eps = 0 the Hamiltonian's switching function is sin x, whose zeros
    are the kinks; on branch sigma, |sin x| is sigma sin x.  With eps > 0
    the potential is smooth and there is none.
    """
    if eps < 0:
        raise ValueError("eps must be >= 0")

    if eps == 0.0:
        def smooth_abs(u, branch=None):
            return np.abs(u) if branch is None else branch * u

        def smooth_abs_d(u, branch=None):
            # the right-hand slope at the kink, not sign(0) = 0: a path
            # resting on the kink at 0, a maximum of f, is not stationary
            return np.where(u < 0, -1.0, 1.0) if branch is None else branch

        def smooth_abs_dd(u):
            return np.zeros_like(u)   # the kinks' point masses are left out
    else:
        def smooth_abs(u):
            return np.sqrt(u * u + eps * eps) - eps

        def smooth_abs_d(u):
            return u / np.sqrt(u * u + eps * eps)

        def smooth_abs_dd(u):
            return eps * eps / (u * u + eps * eps) ** 1.5

    def f(x, *branch):
        return 0.5 * np.cos(x) ** 2 - smooth_abs(np.sin(x), *branch)

    def f_grad(x, *branch):
        sin, cos = np.sin(x), np.cos(x)
        return -cos * sin - smooth_abs_d(sin, *branch) * cos

    def f_hess(x):
        sin, cos = np.sin(x), np.cos(x)
        return (-np.cos(2.0 * x) + smooth_abs_d(sin) * sin
                - smooth_abs_dd(sin) * cos * cos)

    name = "sine_kink" if eps == 0.0 else f"sine_kink(eps={eps:g})"
    return mechanical(f, f_grad, name, f_min=-1.0, f_max=0.5, f_hess=f_hess,
                      switching=np.sin if eps == 0.0 else None)


def double_well() -> LagrangianModel:
    """L = v^2/2 + (x^2-1)^2/4 (1D); upper growth bound valid on |x| <= 2."""
    cap = (2.0 ** 2 - 1.0) ** 2 / 4.0

    def f(x):
        return (x * x - 1.0) ** 2 / 4.0

    def f_grad(x):
        return x * (x * x - 1.0)

    return mechanical(f, f_grad, "double_well", f_min=0.0, f_max=cap,
                      f_hess=lambda x: 3.0 * x * x - 1.0)


def lagrangian_from_expression(expr: str, dimension: int = 1) -> LagrangianModel:
    """Model whose L is an expression of (s, x, v); partials by central
    differences.

    Its growth offsets c_T = offset = 0 are placeholders, not bounds
    derived from L: set ``growth`` before the model meets the localized
    search, whose ball radius and action floor trust c_T.
    """
    L = scalar_field(expr, dimension)
    h = FD_STEP

    def L_v(s, x, v):
        v = np.asarray(v, dtype=float)
        cols = []
        for i in range(dimension):
            dv = np.zeros_like(v)
            dv[..., i] = h
            cols.append((L(s, x, v + dv) - L(s, x, v - dv)) / (2 * h))
        return np.stack(cols, axis=-1)

    def L_x(s, x, v):
        x = np.asarray(x, dtype=float)
        cols = []
        for i in range(dimension):
            dx = np.zeros_like(x)
            dx[..., i] = h
            cols.append((L(s, x + dx, v) - L(s, x - dx, v)) / (2 * h))
        return np.stack(cols, axis=-1)

    def L_t(s, x, v):
        s = np.asarray(s, dtype=float)
        return (L(s + h, x, v) - L(s - h, x, v)) / (2 * h)

    def L_vv(s, x, v):
        v = np.asarray(v, dtype=float)
        # second differences with a wider step so the quotient stays stable
        hh = 1e-4
        out = np.zeros(v.shape[:-1] + (dimension, dimension))
        base = L(s, x, v)
        for i in range(dimension):
            ei = np.zeros_like(v)
            ei[..., i] = hh
            out[..., i, i] = (L(s, x, v + ei) + L(s, x, v - ei) - 2 * base) / hh ** 2
            for j in range(i + 1, dimension):
                ej = np.zeros_like(v)
                ej[..., j] = hh
                cross = (L(s, x, v + ei + ej) - L(s, x, v + ei - ej)
                         - L(s, x, v - ei + ej) + L(s, x, v - ei - ej)) / (4 * hh ** 2)
                out[..., i, j] = cross
                out[..., j, i] = cross
        return out

    return LagrangianModel(
        dimension=dimension,
        L=L, L_v=L_v, L_x=L_x, L_t=L_t, L_vv=L_vv,
        growth=GrowthData(),
        name=f"expr({expr})",
    )


def lagrangian_from_potential(expr: str) -> LagrangianModel:
    """Mechanical model L = v^2/2 - V(x) from a 1D potential expression.

    The growth offsets come from sampling V on 4097 points of [-10, 10];
    a V that is not finite at one of them raises :class:`ConfigError`.
    """
    V = scalar_field(expr, 1)
    h = FD_STEP

    def f(x):
        return -V(0.0, np.asarray(x, dtype=float)[..., None], np.zeros_like(x)[..., None])

    def f_grad(x):
        x = np.asarray(x, dtype=float)
        return (f(x + h) - f(x - h)) / (2 * h)

    def f_hess(x):
        # the wider step of lagrangian_from_expression's L_vv
        x, hh = np.asarray(x, dtype=float), 1e-4
        return (f(x + hh) + f(x - hh) - 2 * f(x)) / hh ** 2

    probe = np.linspace(-10.0, 10.0, 4097)
    fvals = f(probe)
    bad = ~np.isfinite(fvals)
    if bad.any():
        raise ConfigError(f"potential V = {expr} is not finite at x = {probe[bad][0]:.6g}")
    return mechanical(f, f_grad, f"potential({expr})",
                      f_min=float(fvals.min()), f_max=float(fvals.max()), f_hess=f_hess)


_LAGRANGIANS = {
    "free_particle": free_particle,
    "pendulum": pendulum,
    "sine_kink": sine_kink,
    "double_well": double_well,
}


def lagrangian_by_key(key: str, dimension: int = 1, **kwargs) -> LagrangianModel:
    if key not in _LAGRANGIANS:
        raise ConfigError(f"unknown model key {key!r}; known: {sorted(_LAGRANGIANS)}")
    if key == "free_particle":
        return free_particle(dimension=dimension, **kwargs)
    if dimension != 1:
        raise ConfigError(f"model {key!r} is one-dimensional")
    return _LAGRANGIANS[key](**kwargs)


def discounted_problem(key: str, lam: float) -> DiscountedProblem:
    """Discounted problem for a catalog key."""
    model = lagrangian_by_key(key)
    return DiscountedProblem(lam=lam, lagrangian=model,
                             hamiltonian=model.hamiltonian, name=key)


def discounted_from_model(model: LagrangianModel, lam: float) -> DiscountedProblem:
    """Wrap a time-independent model as a discounted problem; its growth
    offsets are the model's."""
    return DiscountedProblem(
        lam=lam,
        lagrangian=model,
        hamiltonian=model.hamiltonian,
        name=model.name,
    )
