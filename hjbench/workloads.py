"""The three benchmark workloads: seeded inputs, library calls, closed-form oracles.

Each workload is built from a seed by :func:`build` and run any number of
times through its ``run()`` method.  The seed only generates inputs; the
library receives nothing but those inputs.  ``run()`` returns a
:class:`RepResult` that counts operations attempted and failed and the
largest error against the workload's oracle.  An operation fails if it
raises :class:`hjsing.NumericsError` or misses its oracle tolerance; the
failure is counted and the repetition goes on.

The oracles are closed forms only, never the library's own search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hjsing import NumericsError, catalog
from hjsing.laxoleinik import GridFunction
from hjsing.singular import aubry_candidates, cut_time_field, is_singular, retraction
from hjsing.solver import DiscountedField, solve_discounted, solve_evolutionary


@dataclass
class RepResult:
    """Outcome of one repetition of a workload."""

    attempted: int = 0
    failed: int = 0
    err_max: float = 0.0           # over the oracle-checked outputs only
    checked: int = 0               # outputs that reached an oracle check

    def op(self, passed: bool):
        self.attempted += 1
        self.failed += 0 if passed else 1

    def error(self, err: float, tol: float) -> bool:
        """Record one oracle error; returns whether it meets the tolerance."""
        self.checked += 1
        self.err_max = max(self.err_max, float(err))
        return bool(err <= tol)


# ---------------------------------------------------------------------------
# discounted-1d: the paper's discounted fixed point, the commonest use

class DiscountedSineKink:
    """solve_discounted(sine_kink, lam=1) on a phase-shifted periodic grid."""

    name = "discounted-1d"
    nodes = 128
    tol = 1e-3
    oracle_tol = 5e-3              # as in test_sine_kink_solution

    def __init__(self, rng: np.random.Generator):
        self.problem = catalog.discounted_problem("sine_kink", lam=1.0)
        h = 4 * np.pi / self.nodes
        self.phase = float(rng.uniform(0.0, h))
        self.box = [(self.phase - 2 * np.pi, self.phase + 2 * np.pi)]
        self.models = [self.problem.lagrangian]
        self.hamiltonians = [self.problem.hamiltonian]
        self.report = None

    def describe(self) -> dict:
        return {"phase": self.phase}

    def run(self) -> RepResult:
        out = RepResult()
        try:
            v, self.report = solve_discounted(self.problem, self.box, self.nodes,
                                              tol=self.tol)
        except NumericsError:
            out.op(False)
            return out
        x = v.nodes()[:, 0]
        err = float(np.max(np.abs(v.values.reshape(-1) + np.abs(np.sin(x)))))
        out.op(out.error(err, self.oracle_tol))
        return out


# ---------------------------------------------------------------------------
# evolve-2d: the only two-dimensional path, with tied minimizers on kink lines

class EvolveKink2D:
    """solve_evolutionary(free_particle(2)) of u0 = -|x1-c1| - |x2-c2| at t = 1."""

    name = "evolve-2d"
    t = 1.0
    data_nodes = 49
    data_box = [(-6.0, 6.0), (-6.0, 6.0)]
    out_nodes = 9
    out_box = [(-1.5, 1.5), (-1.5, 1.5)]
    oracle_tol = 1e-3              # as in test_kink_initial_data

    def __init__(self, rng: np.random.Generator):
        self.model = catalog.free_particle(2)
        # |ci| < h/2, stratified so that every seed polishes the same mix: the
        # kink x1 = c1 passes close enough to the output nodes on x1 = 0 that
        # their two minimizers cost nearly the same (2|c1| < h^2/t, the
        # polish window); the kink x2 = c2 stays clear of that window
        h = 12.0 / (self.data_nodes - 1)
        sign = rng.choice([-1.0, 1.0], size=2)
        self.offset = sign * np.array([rng.uniform(0.0, 0.08 * h),
                                       rng.uniform(0.2 * h, 0.5 * h)])
        c = self.offset
        self.u0 = GridFunction.from_callable(
            lambda p: -np.abs(p[..., 0] - c[0]) - np.abs(p[..., 1] - c[1]),
            self.data_box, self.data_nodes)
        self.models = [self.model]
        self.hamiltonians = [self.model.hamiltonian]

    def describe(self) -> dict:
        return {"offset": [float(c) for c in self.offset]}

    def run(self) -> RepResult:
        out = RepResult()
        try:
            (u,) = solve_evolutionary(self.model, self.u0, [self.t], self.out_box,
                                      self.out_nodes)
        except NumericsError:
            out.op(False)
            return out
        x = u.nodes()
        c = self.offset
        exact = -np.abs(x[:, 0] - c[0]) - np.abs(x[:, 1] - c[1]) - self.t
        err = float(np.max(np.abs(u.values.reshape(-1) - exact)))
        out.op(out.error(err, self.oracle_tol))
        return out


# ---------------------------------------------------------------------------
# cutlocus-1d: cut times, Aubry candidates and retractions on the exact solution

def sine_kink_cut_time(x, horizon: float) -> np.ndarray:
    """Closed-form forward calibration span of -|sin x|, clamped at the horizon.

    The characteristic from x runs to the nearest kink (a multiple of pi) in
    time log(sec d + tan d), d the distance to that kink.
    """
    x = np.asarray(x, dtype=float)
    d = np.abs(x - np.pi * np.round(x / np.pi))
    return np.minimum(np.log(1.0 / np.cos(d) + np.tan(d)), horizon)


class CutLocusSineKink:
    """The singular pipeline of ``hjsing cutlocus`` on v = -|sin x|, without the solve."""

    name = "cutlocus-1d"
    nodes = 32
    horizon = 6.0
    oracle_tol = 5e-2              # on tau, as in test_characteristic_travel_time
    # retraction points lie at a distance d from the nearest kink, two strata
    # of d on each side of the Aubry point pi/2.  From d = 1.28 or so up to
    # pi/2, retraction raises ScheduleStall (a negative step budget); that
    # band is probed separately in traced runs, see band_failures().
    kink_distance = (0.15, 1.15)
    band_distance = (1.35, 1.5)

    def __init__(self, rng: np.random.Generator):
        self.problem = catalog.discounted_problem("sine_kink", lam=1.0)
        # one period of the pi-periodic problem; a coarser grid collapses
        # the off-node cut times
        self.v = GridFunction.from_callable(lambda p: -np.abs(np.sin(p[..., 0])),
                                            [(0.0, np.pi)], self.nodes, periodic=True)
        self.cell = np.pi / self.nodes
        # stratified so that every seed mixes short and long retractions
        lo, hi = self.kink_distance
        edges = np.linspace(lo, hi, 3)
        d = edges[:-1] + rng.uniform(0.0, 1.0, size=(2, 2)) * np.diff(edges)
        self.points = np.concatenate([d[0], np.pi - d[1]])
        self.band_point = float(rng.uniform(*self.band_distance))
        self.models = [self.problem.lagrangian]
        self.hamiltonians = [self.problem.hamiltonian]
        self.cut_field = None

    def describe(self) -> dict:
        return {"retraction_points": [float(x) for x in self.points],
                "band_point": self.band_point}

    def run(self) -> RepResult:
        out = RepResult()
        field = DiscountedField(self.problem, self.v)
        try:
            ctf = cut_time_field(self.problem, self.v, self.horizon)
        except NumericsError:
            for _ in range(2 + len(self.points)):
                out.op(False)
            return out
        self.cut_field = ctf
        x = self.v.nodes()[:, 0]
        exact = sine_kink_cut_time(x, self.horizon)
        err = float(np.max(np.abs(ctf.tau.values.reshape(-1) - exact)))
        out.op(out.error(err, self.oracle_tol))

        try:
            pts, _ = aubry_candidates(field, self.horizon,
                                      forward_tau=ctf.tau.values.reshape(-1))
            near = np.abs(pts[:, 0] - 0.5 * np.pi) <= self.cell + 1e-12
            out.op(len(pts) > 0 and bool(np.all(near)))
        except NumericsError:
            out.op(False)

        lag = self.problem.lagrangian
        for x0 in self.points:
            try:
                g1 = retraction(field, lag, ctf, [x0], 1.0)
                flag, _ = is_singular(field, lag, 0.0, g1)
            except NumericsError:
                out.op(False)
                continue
            # the singular set of -|sin x| is the kinks at multiples of pi
            d = abs(float(g1[0]) - np.pi * round(float(g1[0]) / np.pi))
            out.op(flag and d <= self.cell)
        return out

    def band_failures(self) -> int:
        """1 if the retraction of the band point fails, else 0.

        Not part of run(): in the band next to the Aubry point retraction
        raises ScheduleStall, and the timed workload has to pass.  The count
        shows that defect until it is fixed.  Call after run().
        """
        if self.cut_field is None:
            return 1
        field = DiscountedField(self.problem, self.v)
        try:
            retraction(field, self.problem.lagrangian, self.cut_field,
                       [self.band_point], 1.0)
        except NumericsError:
            return 1
        return 0


WORKLOADS = {w.name: w for w in (DiscountedSineKink, EvolveKink2D, CutLocusSineKink)}


def build(name: str, seed: int):
    """The named workload with its inputs generated from ``seed``."""
    return WORKLOADS[name](np.random.default_rng(seed))
