import dataclasses
import json
import math

import numpy as np
import pytest

from hjsing import (
    GridFunction,
    bounds_K,
    catalog,
    errors,
    laxoleinik,
    model,
    residual_check,
    solve_discounted,
    solve_evolutionary,
    solver,
)
from hjsing.laxoleinik import discounted_lax_oleinik

from .test_action import _sine_kink_2d
from .test_laxoleinik import eager_scan


class TestBoundsK:
    def test_zero_constants(self, counterexample_problem):
        assert bounds_K(counterexample_problem) == (0.0, 0.0)

    def test_offset_kinetic(self):
        m = catalog.mechanical(lambda x: np.ones_like(x),
                               lambda x: np.zeros_like(x), "k+1", 1.0, 1.0)
        prob = catalog.discounted_from_model(m, lam=1.0)
        assert bounds_K(prob) == (0.0, 1.0)

    def test_formula(self, free_particle_1d):
        lagrangian = dataclasses.replace(
            free_particle_1d, growth=model.GrowthData(c_T=4.0, offset=6.0))
        prob = model.DiscountedProblem(
            lam=2.0, lagrangian=lagrangian,
            hamiltonian=free_particle_1d.hamiltonian)
        assert bounds_K(prob) == (2.0, 3.0)


class TestSolveDiscounted:
    def test_counterexample_zero_solution(self, counterexample_problem):
        v, _ = solve_discounted(counterexample_problem, [(-2.0, 2.0)], 65,
                                tol=1e-3)
        assert float(np.max(np.abs(v.values))) <= 1e-3
        # unique bounded Lipschitz solution is 0; -x^2/2 solves the equation
        # pointwise but the bounded iteration never produces it
        parabola = v.with_values(-0.5 * v.nodes()[:, 0].reshape(v.resolution) ** 2)
        rep = residual_check(counterexample_problem, parabola, samples=33,
                             tol=1e-3)
        assert rep.sup_residual <= 1e-3
        assert float(np.max(np.abs(v.values - parabola.values))) > 1.0

    def test_constant_fixed_point(self):
        m = catalog.mechanical(lambda x: np.ones_like(x),
                               lambda x: np.zeros_like(x), "k+1", 1.0, 1.0)
        prob = catalog.discounted_from_model(m, lam=1.0)
        v, report = solve_discounted(prob, [(-2.0, 2.0)], 65, tol=1e-4)
        np.testing.assert_allclose(v.values, 1.0, atol=2e-4)

    def test_sine_kink_solution(self, sine_problem):
        v, report = solve_discounted(sine_problem, [(-2 * np.pi, 2 * np.pi)],
                                     128, tol=1e-3)
        x = v.nodes()[:, 0]
        assert float(np.max(np.abs(v.values - (-np.abs(np.sin(x)))))) <= 5e-3
        assert report.K1 == 1.0 and report.K2 == 0.5
        assert report.iterations <= 3

    def test_three_sweeps_on_shifted_grids(self, sine_problem):
        # the grids of the discounted-1d benchmark: 128 nodes on two periods,
        # shifted by a phase in [0, h) drawn from seeds 1-10; plain value
        # iteration took 4 convolution sweeps on each
        h = 4 * np.pi / 128
        for seed in range(1, 11):
            phase = float(np.random.default_rng(seed).uniform(0.0, h))
            v, report = solve_discounted(
                sine_problem, [(phase - 2 * np.pi, phase + 2 * np.pi)], 128, tol=1e-3)
            x = v.nodes()[:, 0]
            assert report.iterations <= 3
            assert len(report.policy_passes) == report.iterations
            assert float(np.max(np.abs(v.values + np.abs(np.sin(x))))) <= 5e-3

    def test_sweeps_reuse_the_path_work(self, sine_problem, monkeypatch):
        # no candidate's straight segment is scanned twice, and the floor lets
        # few through (4,128 of the plan's 17,126 candidates on this grid); a
        # sweep after the first solves coarse paths only for the candidates
        # new to the re-score (2,184 coarse rows in sweep 1, then 56 and 0)
        scans, coarse, plans = [], [], []
        scan, paths = laxoleinik.straight_line_actions, laxoleinik.minimize_paths
        search = laxoleinik.ConvolutionPlan.search

        def counting_scan(*args, **kwargs):
            scans.append(len(args[3]))
            return scan(*args, **kwargs)

        def counting_paths(*args, **kwargs):
            if kwargs.get("segments") == laxoleinik._COARSE_SEGMENTS:
                coarse[-1] += len(args[3])
            return paths(*args, **kwargs)

        def sweep(plan, f):
            coarse.append(0)
            plans.append(plan)
            return search(plan, f)

        monkeypatch.setattr(laxoleinik, "straight_line_actions", counting_scan)
        monkeypatch.setattr(laxoleinik, "minimize_paths", counting_paths)
        monkeypatch.setattr(laxoleinik.ConvolutionPlan, "search", sweep)
        _, report = solve_discounted(sine_problem, [(-2 * np.pi, 2 * np.pi)], 128,
                                     tol=1e-3)
        assert report.iterations == len(coarse) == 3
        assert all(plan is plans[0] for plan in plans)
        scanned = np.count_nonzero(~np.isnan(plans[0].scan))
        assert sum(scans) == scanned <= 0.3 * len(plans[0].cand)
        assert all(rows <= 0.25 * coarse[0] for rows in coarse[1:])

    def test_torus_2d(self):
        # L = |v|^2/2 + f(x1) + f(x2), lam = 1: v = -|sin x1| - |sin x2|;
        # plain value iteration took 5 convolution sweeps
        problem = catalog.discounted_from_model(_sine_kink_2d(curvature=True), lam=1.0)
        v, report = solve_discounted(problem, [(0.0, np.pi), (0.0, np.pi)], 16,
                                     tol=1e-3)
        x = v.nodes()
        exact = -np.abs(np.sin(x[:, 0])) - np.abs(np.sin(x[:, 1]))
        assert report.iterations <= 3
        assert float(np.max(np.abs(v.values.reshape(-1) - exact))) <= 5e-3

    def test_bracket_and_monotone_iterates(self, sine_problem):
        k1, k2 = bounds_K(sine_problem)
        v = GridFunction.from_callable(lambda p: np.full(p.shape[:-1], -k1),
                                       [(-2 * np.pi, 2 * np.pi)], 96,
                                       periodic=True)
        nodes = v.nodes()
        lip_cap = (0.5 + sine_problem.c2
                   + sine_problem.lam * max(k1, k2))
        prev = v.values.reshape(-1)
        changes = []
        operator = laxoleinik.DiscountedOperator(sine_problem, 1.0, nodes, lip_bound=lip_cap)
        for _ in range(5):
            new = np.array([r.value for r in operator(v)])
            assert np.min(new - prev) >= -1e-9        # nodewise nondecreasing
            assert np.min(new) >= -k1 - 1e-6
            assert np.max(new) <= k2 + 1e-6
            changes.append(float(np.max(np.abs(new - prev))))
            v = v.with_values(new.reshape(v.resolution))
            prev = new
        # geometric decay at the contraction rate (grid slack absorbed)
        for a, b in zip(changes, changes[1:]):
            assert b <= math.exp(-sine_problem.lam) * a + 1e-4

    def test_uniqueness_from_upper_start(self, sine_problem):
        # iterate from the upper bracket; same fixed point within 2 tol
        tol = 1e-3
        v_lo, _ = solve_discounted(sine_problem, [(-2 * np.pi, 2 * np.pi)], 96,
                                   tol=tol)
        k1, k2 = bounds_K(sine_problem)
        v = GridFunction.from_callable(lambda p: np.full(p.shape[:-1], k2),
                                       [(-2 * np.pi, 2 * np.pi)], 96,
                                       periodic=True)
        nodes = v.nodes()
        for _ in range(12):
            new = np.array([r.value for r in discounted_lax_oleinik(
                sine_problem, v, 1.0, nodes)])
            change = float(np.max(np.abs(new - v.values.reshape(-1))))
            v = v.with_values(new.reshape(v.resolution))
            if change <= tol * (1 - math.exp(-1)):
                break
        assert float(np.max(np.abs(v.values - v_lo.values))) <= 2 * tol

    def test_fixed_point_lipschitz_bound(self, sine_problem):
        v, _ = solve_discounted(sine_problem, [(-2 * np.pi, 2 * np.pi)], 128,
                                tol=1e-3)
        bound = (0.5 + sine_problem.c2
                 + sine_problem.lam * float(np.max(np.abs(v.values))))
        assert v.lipschitz_estimate <= bound + 1e-6

    def test_report_serializes(self, counterexample_problem):
        _, report = solve_discounted(counterexample_problem, [(-2.0, 2.0)], 65,
                                     tol=1e-3)
        text = report.as_json()
        assert '"iterations"' in text and '"K1"' in text
        payload = json.loads(text)
        passes = payload["policy_passes"]
        assert len(passes) == len(payload["sup_changes"]) == payload["iterations"]
        assert passes[-1] == 0 and all(isinstance(k, int) and k >= 0 for k in passes)

    def test_stop_below_rounding_raises(self):
        # |v| <= K1 = 1/lam: the stop 1e-3 (1 - e^-lam) is 8.6 ulps of 1e6 at
        # lam = 1e-6, which solves, and below one ulp of 1e7 (1.9e-9) at 1e-7
        box = [(-np.pi, np.pi)]
        solve_discounted(catalog.discounted_problem("sine_kink", lam=1e-6), box, 16)
        with pytest.raises(errors.NoConvergence, match="ulps"):
            solve_discounted(catalog.discounted_problem("sine_kink", lam=1e-7), box, 16)


class TestSolveEvolutionary:
    def test_zero_initial_data(self, free_particle_1d):
        u0 = GridFunction.from_callable(lambda p: 0.0 * p[..., 0],
                                        [(-8.0, 8.0)], 257)
        slices = solve_evolutionary(free_particle_1d, u0, [0.5, 1.0],
                                    [(-2.0, 2.0)], 65)
        for s in slices:
            assert float(np.max(np.abs(s.values))) <= 1e-12

    def test_kink_initial_data(self, hopf_kink_field):
        slices = solve_evolutionary(hopf_kink_field.model, hopf_kink_field.u0,
                                    [0.5, 1.0, 2.0], [(-4.0, 4.0)], 257)
        for t, s in zip([0.5, 1.0, 2.0], slices):
            x = s.nodes()[:, 0]
            err = np.max(np.abs(s.values - (-np.abs(x) - t / 2)))
            assert err <= 1e-3

    def test_shock_location(self, shock_field):
        slices = solve_evolutionary(shock_field.model, shock_field.u0,
                                    [1.0], [(-3.0, 3.0)], 513)
        s = slices[0]
        x = s.nodes()[:, 0]
        # the two affine branches -x - t/2 and 2x - 2t cross at x = t/2
        kinks = np.abs(np.diff(s.values, n=2)) / s.spacing[0] ** 2
        x_star = x[1 + int(np.argmax(kinks))]
        assert abs(x_star - 0.5) <= 2 * s.spacing[0]

    def test_coarse_rescore_pruned_by_the_floor(self, monkeypatch):
        # of the candidates within 1 of their scan leader, the coarse
        # re-score solves only those whose action floor could reach the
        # coarse best: 786 of 10,735 rows on these inputs, where it solved
        # every one before the floor
        kept, coarse = [], []
        search, paths = laxoleinik.ConvolutionPlan.search, laxoleinik.minimize_paths

        def counting_search(plan, f):
            cost = f(plan.cand) + eager_scan(plan)
            leader = laxoleinik._owner_min(plan.owners, cost, len(plan.xs))
            kept.append(int(np.sum(cost <= leader[plan.owners] + 1.0)))
            return search(plan, f)

        def counting_paths(*args, **kwargs):
            if kwargs.get("segments") == laxoleinik._COARSE_SEGMENTS:
                coarse.append(len(args[3]))
            return paths(*args, **kwargs)

        monkeypatch.setattr(laxoleinik.ConvolutionPlan, "search", counting_search)
        monkeypatch.setattr(laxoleinik, "minimize_paths", counting_paths)
        c = (0.01, -0.1)
        u0 = GridFunction.from_callable(
            lambda p: -np.abs(p[..., 0] - c[0]) - np.abs(p[..., 1] - c[1]),
            [(-6.0, 6.0), (-6.0, 6.0)], 49)
        (u,) = solve_evolutionary(catalog.free_particle(2), u0, [1.0],
                                  [(-1.5, 1.5), (-1.5, 1.5)], 9)
        x = u.nodes()
        exact = -np.abs(x[:, 0] - c[0]) - np.abs(x[:, 1] - c[1]) - 1.0
        assert float(np.max(np.abs(u.values.reshape(-1) - exact))) <= 1e-3
        assert sum(coarse) <= 0.1 * sum(kept)

    def test_scan_pruned_by_the_floor(self, monkeypatch):
        # on the inputs above the scan scores 10,851 of 34,478 candidates, and
        # f is interpolated at 1,438 points: ball centres and the points of
        # the polish and the Richardson pass.  The other candidates sit on
        # nodes, whose values the search reads
        candidates, scanned, interpolated = [], [], []
        init, scan = laxoleinik.ConvolutionPlan.__init__, laxoleinik.straight_line_actions
        call = GridFunction.__call__

        def counting_init(plan, *args, **kwargs):
            init(plan, *args, **kwargs)
            candidates.append(len(plan.cand))

        def counting_scan(*args, **kwargs):
            scanned.append(len(args[3]))
            return scan(*args, **kwargs)

        def counting_call(grid, points):
            interpolated.append(np.size(points) // grid.dimension)
            return call(grid, points)

        monkeypatch.setattr(laxoleinik.ConvolutionPlan, "__init__", counting_init)
        monkeypatch.setattr(laxoleinik, "straight_line_actions", counting_scan)
        monkeypatch.setattr(GridFunction, "__call__", counting_call)
        c = (0.01, -0.1)
        u0 = GridFunction.from_callable(
            lambda p: -np.abs(p[..., 0] - c[0]) - np.abs(p[..., 1] - c[1]),
            [(-6.0, 6.0), (-6.0, 6.0)], 49)
        solve_evolutionary(catalog.free_particle(2), u0, [1.0],
                           [(-1.5, 1.5), (-1.5, 1.5)], 9)
        assert sum(scanned) <= 0.35 * sum(candidates)
        assert sum(interpolated) <= 0.05 * sum(candidates)

    def test_requires_increasing_times(self, hopf_kink_field):
        with pytest.raises(ValueError):
            solve_evolutionary(hopf_kink_field.model, hopf_kink_field.u0,
                               [1.0, 0.5], [(-2.0, 2.0)], 65)


class TestResidualCheck:
    def test_zero_field(self, counterexample_problem):
        v = GridFunction.from_callable(lambda p: 0.0 * p[..., 0],
                                       [(-2.0, 2.0)], 65, periodic=True)
        rep = residual_check(counterexample_problem, v, tol=1e-6)
        assert rep.sup_residual == 0.0
        assert rep.passed

    def test_sine_solution(self, sine_problem, sine_exact_grid):
        rep = residual_check(sine_problem, sine_exact_grid, samples=256,
                             tol=5e-3)
        assert rep.sup_residual <= 5e-3
        assert rep.unstable_points > 0          # kinks detected
        assert rep.subsolution_margin <= 5e-3   # kink subsolution test passes

    def test_evolutionary_kink_field(self, hopf_kink_field):
        rep = residual_check(hopf_kink_field.model, hopf_kink_field,
                             times=[0.8], samples=40, tol=1e-3)
        assert rep.sup_residual <= 1e-3
        assert rep.stable_points > 0

    def test_rejects_unknown_target(self):
        with pytest.raises(errors.InvalidProblem):
            residual_check(object(), object())

    def test_2d_mixed_periodic(self):
        # periodic in x1 only: picks within 2 nodes of the x2 edges have no
        # stencil; kinks along both axes take the subsolution hull test
        problem = catalog.discounted_from_model(catalog.free_particle(2), lam=1.0)
        v = GridFunction.from_callable(
            lambda p: (-np.abs(np.sin(p[..., 0])) + 0.25 * np.cos(p[..., 1])
                       - 0.5 * np.abs(p[..., 1] - 0.3)),
            [(-np.pi, np.pi), (-2.0, 2.0)], (24, 17), periodic=(True, False))
        rep = residual_check(problem, v, samples=120, tol=1e-2)
        assert (rep.stable_points, rep.unstable_points) == (74, 62)
        assert rep.sup_residual == pytest.approx(1.5366627968437339, rel=1e-12)
        assert rep.subsolution_margin == pytest.approx(0.5578466547056906, rel=1e-12)


class TestFields:
    def test_discounted_lift(self, sine_problem, sine_exact_grid):
        field = solver.DiscountedField(sine_problem, sine_exact_grid)
        x = np.array([0.7])
        expected = math.exp(0.5) * float(sine_exact_grid(x))
        assert field.values(0.5, [x])[0] == pytest.approx(expected)

    def test_evolutionary_repeated_rows_searched_once(self, hopf_kink_field, monkeypatch):
        rows = []
        search = solver.lax_oleinik_minus

        def counting(model, f, t1, t2, xs, *args, **kwargs):
            rows.append(np.array(xs))
            return search(model, f, t1, t2, xs, *args, **kwargs)

        monkeypatch.setattr(solver, "lax_oleinik_minus", counting)
        # rows equal to 12 digits are one row; a time of 0 reads u0
        xs = [[0.3], [0.5], [0.3], [0.3 + 1e-14], [0.5], [0.3]]
        vals = hopf_kink_field.values(0.7, xs)
        assert len(rows) == 1
        np.testing.assert_array_equal(rows[0], [[0.3], [0.5]])
        assert vals[0] == vals[2] == vals[3] == vals[5] and vals[1] == vals[4]
        assert vals[0] == pytest.approx(-0.3 - 0.35, abs=1e-6)
        assert hopf_kink_field.values(0.7, [[0.3]])[0] == vals[0]
        vals = hopf_kink_field.values(np.array([0.7, 0.0, 0.7, 0.5]), [[0.3]] * 4)
        assert len(rows) == 3
        np.testing.assert_array_equal(rows[2], [[0.3], [0.3]])
        assert vals[0] == vals[2] and vals[1] == float(hopf_kink_field.u0(np.array([0.3])))

    def test_transform_consistency(self, sine_problem, sine_exact_grid):
        # the exponential lift of v solves the transformed initial-value
        # problem: one-shot fields from v agree with e^{lam t} v
        lhat, _ = model.to_evolutionary(sine_problem, horizon=1.0)
        field = solver.EvolutionaryField(lhat, sine_exact_grid)
        xs = np.linspace(-2.0, 2.0, 9)[:, None]
        for t in (0.5, 1.0):
            lifted = math.exp(sine_problem.lam * t) * np.array(
                [float(sine_exact_grid(x)) for x in xs])
            computed = field.values(t, xs)
            assert float(np.max(np.abs(computed - lifted))) <= 5e-3
