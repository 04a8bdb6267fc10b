import math

import numpy as np
import pytest

from hjsing import (
    HamiltonianModel,
    action,
    catalog,
    errors,
    estimate_constants,
    fundamental_solution,
    model,
    singular,
)
from hjsing.action import minimize_paths, straight_line_actions

from .oracles import discrete_least_action, free_action


def characteristic(hmodel, x, p, times):
    """The lam = 0 characteristic from (x, p) at t = 0: its states (x, p, a)
    at each of ``times``, one integrator run per time, (len(times), 2n+1)."""
    y0 = np.concatenate([x, p, [0.0]])[None, :]
    return np.array([singular._characteristic_flow(hmodel, 0.0, y0, t)[1][0] for t in times])


def nan_where(lagrangian, monkeypatch, where):
    """Make L NaN at the points x, (..., n), where ``where(x)`` holds: a
    path through them has no finite action, so it cannot converge."""
    L = lagrangian.L
    monkeypatch.setattr(lagrangian, "L",
                        lambda s, x, v: np.where(where(np.asarray(x)), np.nan, L(s, x, v)))


def pivot_tests(monkeypatch):
    """The ``positive`` flags of every tridiagonal solve from now on."""
    solves = []
    solve = action._solve_tridiagonal

    def recording(*args):
        out = solve(*args)
        solves.append(out[1])
        return out

    monkeypatch.setattr(action, "_solve_tridiagonal", recording)
    return solves


def on_paths_of(segments):
    """A ``nan_where`` test that holds on every path of ``segments`` segments."""
    return lambda x: x.ndim == 3 and x.shape[1] == segments


class TestHamiltonianFlow:
    def test_free_particle_line(self, free_particle_1d):
        ends = characteristic(free_particle_1d.hamiltonian, [0.0], [1.0], [0.5, 1.0, 1.5, 2.0])
        assert ends[-1, 0] == pytest.approx(2.0, abs=1e-10)
        np.testing.assert_allclose(ends[:, 1], 1.0, atol=1e-12)
        assert ends[-1, 2] == pytest.approx(1.0, abs=1e-9)  # integral of v^2/2

    def test_pendulum_energy_drift(self):
        ham = catalog.pendulum().hamiltonian
        times = np.linspace(0.5, 10.0, 20)
        ends = characteristic(ham, [0.1], [0.0], times)
        e0 = float(ham.H(0.0, np.array([0.1]), np.array([0.0])))
        energies = ham.H(times, ends[:, :1], ends[:, 1:2])
        assert np.max(np.abs(energies - e0)) <= 1e-8
        assert e0 == pytest.approx(-math.cos(0.1))

    def test_rescaled_energy_law(self, counterexample_problem):
        # dE/ds = -L_t along the flow of the exponentially rescaled model,
        # verified in integrated form against Gauss-Legendre quadrature
        lhat, hhat = model.to_evolutionary(counterexample_problem, horizon=2.0)
        nodes, weights = np.polynomial.legendre.leggauss(12)
        times = np.append(1.0 + nodes, 2.0)
        ends = characteristic(hhat, [0.2], [0.7], times)
        xs, ps = ends[:, :1], ends[:, 1:2]
        vs = hhat.H_p(times, xs, ps)
        integral = np.dot(weights, lhat.L_t(times, xs, vs)[:-1])
        energies = hhat.H(times, xs, ps)
        e0 = float(hhat.H(0.0, np.array([0.2]), np.array([0.7])))
        assert abs(energies[-1] - e0 + integral) <= 1e-6

    def test_blow_up(self):
        # inverted quadratic potential: exponential escape
        unstable = HamiltonianModel(
            dimension=1,
            H=lambda s, x, p: 0.5 * p[..., 0] ** 2 - x[..., 0] ** 2,
            H_p=lambda s, x, p: np.asarray(p, dtype=float).copy(),
            H_x=lambda s, x, p: -2.0 * np.asarray(x, dtype=float),
            H_t=lambda s, x, p: np.zeros(np.asarray(p).shape[:-1]),
        )
        with pytest.raises(errors.BlowUp):
            characteristic(unstable, [1.0], [1.0], [30.0])


class TestFundamentalSolution:
    def test_free_particle_closed_form(self, free_particle_1d):
        val, _ = fundamental_solution(free_particle_1d, 0.0, 1.0, [0.0], [1.0])
        assert val == pytest.approx(0.5, abs=1e-9)
        # straight-line minimizer
        sol = minimize_paths(free_particle_1d, 0.0, 1.0, [[0.0]], [[1.0]])
        velocities = np.diff(sol["nodes"][0, :, 0]) / np.diff(sol["times"])
        np.testing.assert_allclose(velocities, 1.0, atol=1e-7)

    def test_stationary_point_zero_action(self, free_particle_1d):
        val, _ = fundamental_solution(free_particle_1d, 0.0, 1.5, [0.7], [0.7])
        assert abs(val) <= 1e-12

    @pytest.mark.parametrize("stacked", [True, False])
    def test_exponential_weight_closed_form(self, counterexample_problem, stacked):
        # minimizer x = C (1 - e^{-t}), C = 1 / (1 - e^{-1}); closed-form
        # action C / 2; the path is the same alone or batched with another
        lhat, _ = model.to_evolutionary(counterexample_problem, horizon=1.0)
        c = 1.0 / (1.0 - math.exp(-1.0))
        val, _ = fundamental_solution(lhat, 0.0, 1.0, [0.0], [1.0])
        assert val == pytest.approx(c / 2.0, abs=1e-8)
        starts, ends = ([[0.0], [0.5]], [[1.0], [-0.3]]) if stacked else ([[0.0]], [[1.0]])
        sol = minimize_paths(lhat, 0.0, 1.0, starts, ends)
        nodes = sol["nodes"][0, :, 0]
        assert nodes[0] == pytest.approx(0.0, abs=1e-12)
        assert nodes[-1] == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(nodes, c * (1.0 - np.exp(-sol["times"])), rtol=0, atol=1e-9)

    def test_against_descent_oracle(self, sine_problem):
        # independent gradient-descent least action for the kinked potential
        def L(xm, vm):
            return 0.5 * vm ** 2 + 0.5 * np.cos(xm) ** 2 - np.abs(np.sin(xm))

        oracle, _ = discrete_least_action(L, 0.0, 1.0, 0.3, 1.4)
        val, _ = fundamental_solution(sine_problem.lagrangian, 0.0, 1.0,
                                      [0.3], [1.4])
        assert val == pytest.approx(oracle, abs=5e-5)

    def test_2d_free_particle(self):
        fp2 = catalog.free_particle(2)
        val, _ = fundamental_solution(fp2, 0.2, 1.7, [0.0, 1.0], [2.0, 0.0])
        assert val == pytest.approx(free_action(0.2, 1.7, [0.0, 1.0], [2.0, 0.0]),
                                    abs=1e-9)
        nodes = minimize_paths(fp2, 0.2, 1.7, [[0.0, 1.0]], [[2.0, 0.0]])["nodes"][0]
        np.testing.assert_allclose(nodes[0], [0.0, 1.0], atol=1e-12)

    def test_endpoint_pinning_and_residual(self, sine_problem):
        sol = minimize_paths(sine_problem.lagrangian, 0.0, 1.0, [[0.5]], [[1.0]])
        nodes = sol["nodes"][0]
        assert abs(nodes[0][0] - 0.5) <= 1e-12
        assert abs(nodes[-1][0] - 1.0) <= 1e-12
        assert sol["grad_inf"][0] <= 1e-7

    def test_requires_increasing_times(self, free_particle_1d):
        with pytest.raises(ValueError):
            fundamental_solution(free_particle_1d, 1.0, 1.0, [0.0], [1.0])

    @pytest.mark.parametrize("segments", [64, 128])
    def test_unconverged_path_raises(self, free_particle_1d, monkeypatch, segments):
        # a path of either pass of the direct method that does not converge
        # fails the call instead of being extrapolated from
        nan_where(free_particle_1d, monkeypatch, on_paths_of(segments))
        with pytest.raises(errors.NoConvergence):
            fundamental_solution(free_particle_1d, 0.0, 1.0, [0.0], [1.0])

    def test_saddle_raises(self):
        # the path resting on the pendulum's potential maximum is stationary
        # but, for T > pi, not a minimum
        with pytest.raises(errors.NoConvergence):
            fundamental_solution(catalog.pendulum(), 0.0, 8.0, [0.0], [0.0])


class TestActionGradients:
    def test_free_particle_values(self, free_particle_1d):
        _, (dxa, dya, dta) = fundamental_solution(free_particle_1d, 0.0, 1.0, [0.0], [1.0])
        assert dxa[0] == pytest.approx(-1.0, abs=1e-8)
        assert dya[0] == pytest.approx(1.0, abs=1e-8)
        assert dta == pytest.approx(-0.5, abs=1e-8)

    def test_coincident_endpoints(self, free_particle_1d):
        _, (dxa, dya, dta) = fundamental_solution(free_particle_1d, 0.0, 1.0, [0.4], [0.4])
        np.testing.assert_allclose(dxa, 0.0, atol=1e-10)
        np.testing.assert_allclose(dya, 0.0, atol=1e-10)
        assert dta == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("key", ["pendulum", "sine_kink"])
    def test_matches_finite_differences(self, key):
        m = catalog.lagrangian_by_key(key)
        rng = np.random.default_rng(hash(key) % 2 ** 31)
        for _ in range(4):
            x = rng.uniform(0.3, 1.2, size=1)
            y = x + rng.uniform(0.2, 0.8, size=1)
            _, (dxa, dya, dta) = fundamental_solution(m, 0.0, 1.0, x, y)
            h = 1e-5
            fd_y = (fundamental_solution(m, 0.0, 1.0, x, y + h)[0]
                    - fundamental_solution(m, 0.0, 1.0, x, y - h)[0]) / (2 * h)
            fd_x = (fundamental_solution(m, 0.0, 1.0, x + h, y)[0]
                    - fundamental_solution(m, 0.0, 1.0, x - h, y)[0]) / (2 * h)
            fd_t = (fundamental_solution(m, 0.0, 1.0 + h, x, y)[0]
                    - fundamental_solution(m, 0.0, 1.0 - h, x, y)[0]) / (2 * h)
            assert abs(fd_y - dya[0]) <= 1e-4 * (1 + abs(fd_y))
            assert abs(fd_x - dxa[0]) <= 1e-4 * (1 + abs(fd_x))
            assert abs(fd_t - dta) <= 1e-4 * (1 + abs(fd_t))


class TestEnergyIdentity:
    def test_autonomous_conservation(self, sine_problem):
        # an autonomous minimizer keeps its energy: H at the start momentum
        # -D_x A equals H at the end momentum D_y A
        x, y = np.array([0.4]), np.array([1.1])
        _, (dxa, dya, _) = fundamental_solution(sine_problem.lagrangian, 0.0, 1.0, x, y)
        ham = sine_problem.lagrangian.hamiltonian
        assert abs(float(ham.H(0.0, x, -dxa)) - float(ham.H(1.0, y, dya))) <= 1e-8

    def test_value_symmetry_reversible(self):
        pend = catalog.pendulum()
        a_fw, _ = fundamental_solution(pend, 0.0, 1.0, [0.2], [1.0])
        a_bw, _ = fundamental_solution(pend, 0.0, 1.0, [1.0], [0.2])
        assert a_fw == pytest.approx(a_bw, abs=1e-8)


class TestBatchedPaths:
    def test_matches_single_solutions(self, sine_problem):
        m = sine_problem.lagrangian
        starts = np.array([[0.0], [0.5], [1.0]])
        ends = np.array([[1.0], [1.5], [0.2]])
        sol = minimize_paths(m, 0.0, 1.0, starts, ends, segments=32)
        for k in range(3):
            ref, _ = fundamental_solution(m, 0.0, 1.0, starts[k], ends[k])
            assert sol["action"][k] == pytest.approx(ref, abs=2e-4)

    def test_straight_line_upper_bound(self, sine_problem):
        m = sine_problem.lagrangian
        starts = np.array([[0.0]])
        ends = np.array([[2.0]])
        cheap = straight_line_actions(m, 0.0, 1.0, starts, ends)
        tight, _ = fundamental_solution(m, 0.0, 1.0, [0.0], [2.0])
        assert cheap[0] >= tight - 1e-6

    def test_one_segment_rejected(self, sine_problem):
        with pytest.raises(ValueError, match="at least 2 segments"):
            minimize_paths(sine_problem.lagrangian, 0.0, 1.0, [[0.0]], [[1.0]], segments=1)

    def test_saddle_not_converged(self):
        # a path stationary where it starts takes no Newton step; on the
        # potential's maximum for T > pi its matrix is indefinite: a saddle,
        # whose gradient is 0
        with pytest.raises(errors.NoConvergence, match=r"worst grad_inf 0\)"):
            minimize_paths(catalog.pendulum(), 0, 8, [[0.0]], [[0.0]])
        short = minimize_paths(catalog.pendulum(), 0, 1, [[0.0]], [[0.0]])
        assert short["grad_inf"][0] == 0.0

    def test_saddle_after_kinetic_steps_not_converged(self):
        # T = 4 > pi: the straight line across the potential's maximum has an
        # indefinite matrix, so the path steps with the kinetic block alone
        # and stops at a stationary point where it is still indefinite
        with pytest.raises(errors.NoConvergence) as failure:
            minimize_paths(catalog.pendulum(), 0, 4, [[0.05]], [[-0.05]])
        assert float(str(failure.value).split("grad_inf ")[1].rstrip(")")) <= 1e-8

    def test_path_on_a_kink_leaves_it(self):
        # the potential's kink at 0 is a maximum; a path resting on it read
        # the slope sign(0) = 0 there and stopped at once
        m = catalog.sine_kink()
        on_zero = minimize_paths(m, 0.0, 0.5625, [[0.0]], [[0.0]])
        on_pi = minimize_paths(m, 0.0, 0.5625, [[np.pi]], [[np.pi]])
        assert on_zero["action"][0] < 0.5 * 0.5625 - 1e-3    # resting costs f(0) T
        assert on_zero["action"][0] == pytest.approx(on_pi["action"][0], abs=1e-10)

    @pytest.mark.parametrize("rows", [1, 5])
    @pytest.mark.parametrize("key", ["sine_kink", "sine_kink_lift", "free_particle_2d"])
    def test_per_row_horizons_match_scalar_calls(self, key, rows):
        # a batch with one interval per row answers, bit for bit, what one
        # call per row with that interval answers
        if key == "free_particle_2d":
            m = catalog.free_particle(2)
        else:
            m = catalog.sine_kink()
            if key == "sine_kink_lift":
                problem = catalog.discounted_from_model(m, lam=1.0)
                m, _ = model.to_evolutionary(problem, horizon=2.0)
        rng = np.random.default_rng(rows)
        s = rng.uniform(0.0, 0.5, size=rows)
        t = s + rng.uniform(0.2, 1.5, size=rows)
        starts = rng.uniform(-1.0, 1.0, size=(rows, m.dimension))
        ends = starts + rng.uniform(-1.5, 1.5, size=(rows, m.dimension))
        batch = minimize_paths(m, s, t, starts, ends)
        cheap = straight_line_actions(m, s, t, starts, ends)
        assert batch["times"].shape == (rows, action.PATH_SEGMENTS + 1)
        for k in range(rows):
            one = minimize_paths(m, s[k], t[k], starts[k:k + 1], ends[k:k + 1])
            for name in ("action", "nodes", "d_start", "d_end"):
                np.testing.assert_array_equal(batch[name][k], one[name][0])
            np.testing.assert_array_equal(batch["times"][k], one["times"])
            np.testing.assert_array_equal(
                cheap[k], straight_line_actions(m, s[k], t[k], starts[k:k + 1],
                                                ends[k:k + 1])[0])


def _sine_kink_2d(curvature: bool = False):
    """L = |v|^2/2 + f(x1) + f(x2), f the kinked potential of ``sine_kink``;
    with ``curvature`` the model carries its ``L_xx``."""
    sk = catalog.sine_kink()

    def L_xx(s, x, v):
        out = np.zeros(np.shape(x) + (2,))
        out[..., 0, 0] = sk.L_xx(s, x[..., :1], v[..., :1])[..., 0, 0]
        out[..., 1, 1] = sk.L_xx(s, x[..., 1:], v[..., 1:])[..., 0, 0]
        return out

    def L(s, x, v):
        zero = np.zeros(np.shape(x)[:-1] + (1,))
        return (0.5 * np.sum(np.asarray(v) ** 2, axis=-1)
                + sk.L(s, x[..., :1], zero) + sk.L(s, x[..., 1:], zero))

    def L_x(s, x, v):
        return np.concatenate([sk.L_x(s, x[..., :1], v[..., :1]),
                               sk.L_x(s, x[..., 1:], v[..., 1:])], axis=-1)

    return model.LagrangianModel(
        dimension=2, L=L, L_v=lambda s, x, v: np.asarray(v, dtype=float).copy(),
        L_x=L_x, L_t=lambda s, x, v: np.zeros(np.shape(v)[:-1]),
        L_vv=lambda s, x, v: np.broadcast_to(np.eye(2), np.shape(v) + (2,)),
        L_xx=L_xx if curvature else None,
        growth=model.GrowthData(c_T=2.0, offset=1.0), name="sine_kink_2d")


class TestEndpointDerivatives:
    @pytest.mark.parametrize("segments", [16, 32])
    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("key", ["free_particle", "sine_kink", "sine_kink_lift"])
    def test_match_central_differences(self, key, dimension, segments):
        if key == "free_particle":
            m = catalog.free_particle(dimension)
        else:
            m = catalog.sine_kink() if dimension == 1 else _sine_kink_2d()
            if key == "sine_kink_lift":
                # exponential quadrature weights
                problem = catalog.discounted_from_model(m, lam=1.0)
                m, _ = model.to_evolutionary(problem, horizon=1.0)
        rng = np.random.default_rng(10 * dimension + segments)
        # endpoints and paths stay inside (0, pi), clear of the kinks
        starts = rng.uniform(0.3, 1.2, size=(3, dimension))
        ends = starts + rng.uniform(0.2, 0.8, size=(3, dimension))
        sol = minimize_paths(m, 0.0, 1.0, starts, ends, segments=segments)
        h = 1e-6
        for moved, key_d in ((0, "d_start"), (1, "d_end")):
            for ax in range(dimension):
                shifted = []
                for step in (h, -h):
                    pair = [starts.copy(), ends.copy()]
                    pair[moved][:, ax] += step
                    shifted.append(minimize_paths(m, 0.0, 1.0, *pair,
                                                  segments=segments)["action"])
                fd = (shifted[0] - shifted[1]) / (2 * h)
                # relative as in verify's action-gradient check: to 1 + |fd|
                assert np.all(np.abs(sol[key_d][:, ax] - fd) <= 1e-6 * (1 + np.abs(fd)))


class TestNewtonStop:
    @pytest.mark.parametrize("segments", [4, 16])
    @pytest.mark.parametrize("key", ["sine_kink", "sine_kink_lift"])
    def test_reaches_gradient_tolerance(self, key, segments):
        # the 2D paths of TestEndpointDerivatives: near their minimum a good
        # Newton step moves the action by less than rounding, so a line
        # search on the action alone froze them near grad_inf 6e-8, inside
        # the 100x slack of ``converged`` but above the loop's own stop test
        m = _sine_kink_2d()
        if key == "sine_kink_lift":
            problem = catalog.discounted_from_model(m, lam=1.0)
            m, _ = model.to_evolutionary(problem, horizon=1.0)
        rng = np.random.default_rng(20 + segments)
        starts = rng.uniform(0.3, 1.2, size=(3, 2))
        ends = starts + rng.uniform(0.2, 0.8, size=(3, 2))
        sol = minimize_paths(m, 0.0, 1.0, starts, ends, segments=segments)
        assert np.all(sol["grad_inf"] <= 1e-9 * (1 + np.abs(sol["action"])))


class TestCurvatureNewton:
    @pytest.mark.parametrize("segments", [4, 16])
    def test_few_iterations(self, segments, monkeypatch):
        # with the potential's curvature in the Newton matrix, paths of the
        # sine-kink lift converge quadratically: the kinetic block alone
        # took 12 iterations at both segment counts
        m0 = catalog.sine_kink()
        lift, _ = model.to_evolutionary(catalog.discounted_from_model(m0, lam=1.0),
                                        horizon=1.0)
        rng = np.random.default_rng(0)
        starts = rng.uniform(-2.0, 2.0, size=(200, 1))
        ends = starts + rng.uniform(-1.5, 1.5, size=(200, 1))
        calls = []
        L_vv = m0.L_vv
        monkeypatch.setattr(m0, "L_vv", lambda *a: calls.append(1) or L_vv(*a))
        sol = minimize_paths(lift, 0.0, 1.0, starts, ends, segments=segments)
        assert np.all(sol["converged"])
        assert len(calls) <= 5

    def test_indefinite_horizon_falls_back(self, monkeypatch):
        # T = 8 > pi: the pendulum's curvature makes the full matrix
        # indefinite on the straight lines, and those rows take the kinetic
        # block; with it alone Newton stopped two rows at grad_inf 1.7e-5
        # and 5.5e-7
        solves = pivot_tests(monkeypatch)
        pend = catalog.pendulum()
        starts, ends = [[0.1], [2.0], [-1.0]], [[0.2], [2.5], [3.0]]
        sol = minimize_paths(pend, 0.0, 8.0, starts, ends, segments=16)
        assert np.all(sol["grad_inf"] <= 1e-9 * (1 + np.abs(sol["action"])))
        assert not np.all(np.concatenate(solves))
        for k in range(3):
            # the same midpoint discretization, minimized by L-BFGS
            ref, _ = discrete_least_action(lambda x, v: 0.5 * v ** 2 + np.cos(x),
                                           0.0, 8.0, starts[k], ends[k], n_nodes=17)
            assert sol["action"][k] == pytest.approx(ref, abs=1e-8)

    def test_2d_curvature_same_minimum(self):
        # per axis the curvature joins the kinetic tridiagonal; the minimum
        # is the kinetic-only one
        kinetic, full = _sine_kink_2d(), _sine_kink_2d(curvature=True)
        rng = np.random.default_rng(5)
        starts = rng.uniform(0.3, 1.2, size=(4, 2))
        ends = starts + rng.uniform(0.2, 0.8, size=(4, 2))
        a = minimize_paths(kinetic, 0.0, 1.0, starts, ends)
        b = minimize_paths(full, 0.0, 1.0, starts, ends)
        assert np.all(b["converged"])
        np.testing.assert_allclose(b["action"], a["action"], atol=1e-12)
        np.testing.assert_allclose(b["nodes"], a["nodes"], atol=1e-8)


    def test_2d_stacked_sweep_matches_one_row_runs(self, monkeypatch):
        # the rows of every path and axis share one sweep; on the 6-long
        # horizon from x1 = 0.1, where f is concave, the first axis takes
        # the kinetic block and the second keeps its curvature
        solves = pivot_tests(monkeypatch)
        m = _sine_kink_2d(curvature=True)
        starts = np.array([[0.3, 1.2], [0.5, 0.9], [0.1, 1.4], [1.0, 1.0]])
        ends = np.array([[0.8, 1.6], [1.1, 1.5], [0.3, 1.7], [1.3, 0.4]])
        t = np.array([1.0, 1.5, 6.0, 0.7])
        batch = minimize_paths(m, 0.0, t, starts, ends)
        np.testing.assert_array_equal(solves[0], [True] * 4 + [False, True] + [True] * 2)
        for k in range(4):
            one = minimize_paths(m, 0.0, t[k], starts[k:k + 1], ends[k:k + 1])
            for name in ("action", "nodes", "grad_inf", "d_start", "d_end"):
                np.testing.assert_array_equal(batch[name][k], one[name][0])


class TestStoppingIterate:
    @pytest.mark.parametrize("case", ["sine_kink", "sine_kink_warm", "pendulum",
                                      "free_particle_2d"])
    def test_values_are_those_of_the_returned_nodes(self, case, monkeypatch):
        # a run from the returned nodes stops where it starts, after one
        # action and one gradient evaluation: its values are those of the
        # nodes, and the first run returned the same without evaluating
        # the model after its loop
        rng = np.random.default_rng(3)
        T, init = 1.0, None
        if case == "free_particle_2d":
            m = catalog.free_particle(2)
            starts = rng.uniform(-1.0, 1.0, size=(6, 2))
            ends = starts + rng.uniform(-1.5, 1.5, size=(6, 2))
        elif case == "pendulum":
            # T = 8 > pi: the straight lines take kinetic-only steps
            m, T = catalog.pendulum(), 8.0
            starts, ends = np.array([[0.1], [2.0], [-1.0]]), np.array([[0.2], [2.5], [3.0]])
        else:
            m = catalog.sine_kink()
            starts = rng.uniform(-2.0, 2.0, size=(8, 1))
            ends = starts + rng.uniform(-1.5, 1.5, size=(8, 1))
            if case == "sine_kink_warm":
                coarse = minimize_paths(m, 0.0, T, starts, ends, segments=8)
                init = action._refine_nodes(coarse["nodes"])
        assert m.L_xx is not None or case == "free_particle_2d"
        first = minimize_paths(m, 0.0, T, starts, ends, init_nodes=init)
        calls = {"L": 0, "L_x": 0}

        def counting(name, f):
            def counted(*args):
                calls[name] += 1
                return f(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(m, name, counting(name, getattr(m, name)))
        again = minimize_paths(m, 0.0, T, starts, ends, init_nodes=first["nodes"])
        for name in ("action", "grad_inf", "d_start", "d_end", "nodes"):
            np.testing.assert_array_equal(again[name], first[name])
        assert calls == {"L": 1, "L_x": 1}


class TestTridiagonal:
    @pytest.mark.parametrize("M", [1, 2, 3, 15, 31])
    def test_matches_dense_solve_and_eigenvalues(self, M):
        # diagonally dominant rows, each diagonal entry of random sign: a
        # row is positive definite exactly when every sign is +; then rows
        # whose first or a middle pivot is 0, which are indefinite
        rng = np.random.default_rng(M)
        P = 40
        off = rng.uniform(-1.0, 1.0, size=(P, M - 1))
        reach = np.zeros((P, M))
        reach[:, 1:] += np.abs(off)
        reach[:, :-1] += np.abs(off)
        sign = np.where(rng.uniform(size=(P, M)) < 0.8 ** (1.0 / M), 1.0, -1.0)
        diag = sign * (reach + rng.uniform(0.5, 2.0, size=(P, M)))
        rhs = rng.normal(size=(P, M))
        # a first pivot of 0, and for M >= 3 a second one, 1 - 1 * 1
        special = [(np.full(M - 1, 1.0), np.r_[0.0, np.ones(M - 1)])]
        if M >= 3:
            special.append((np.r_[1.0, np.full(M - 2, 2.0)], np.r_[1.0, 1.0, np.full(M - 2, 5.0)]))
        off = np.vstack([off] + [o for o, _ in special])
        diag = np.vstack([diag] + [d for _, d in special])
        rhs = np.vstack([rhs, rhs[:len(special)]])
        copies = [a.copy() for a in (off, diag, rhs)]
        sol, positive = action._solve_tridiagonal(off, diag, rhs)
        for a, kept in zip((off, diag, rhs), copies):
            np.testing.assert_array_equal(a, kept)
        dense = np.array([np.diag(d) + np.diag(o, 1) + np.diag(o, -1)
                          for o, d in zip(off, diag)])
        np.testing.assert_array_equal(positive, np.linalg.eigvalsh(dense).min(axis=1) > 0)
        assert 0 < np.count_nonzero(positive[:P]) < P
        assert not np.any(positive[P:])
        np.testing.assert_allclose(sol[:P], np.linalg.solve(dense[:P], rhs[:P, :, None])[..., 0],
                                   rtol=1e-10, atol=1e-12)


class TestConstants:
    def test_free_particle_spatial_modulus(self, free_particle_1d):
        constants = estimate_constants(free_particle_1d, 0.0, [0.0], 1.0, 2.0)
        # second spatial difference of |x-y|^2/(2 dt) is exactly |z|^2/dt
        assert constants.c2 == pytest.approx(1.0, abs=5e-2)
        assert constants.c0 >= constants.c2
        assert constants.c1 > 0 and constants.c3 > 0

    def test_degenerate_cone_rejected(self, free_particle_1d):
        with pytest.raises(ValueError):
            estimate_constants(free_particle_1d, 1.0, [0.0], 1.0, 1.0)

    def test_one_probe_batch_per_end_time(self, free_particle_1d, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return minimize_paths(*args, **kwargs)

        monkeypatch.setattr(action, "minimize_paths", counting)
        estimate_constants(free_particle_1d, 0.0, [0.0], 1.0, 2.0)
        # one refined_action over every level and end time: two solves
        assert len(calls) == 2

    @pytest.mark.parametrize("segments", [16, 32])
    def test_unconverged_probe_raises(self, free_particle_1d, monkeypatch, segments):
        # neither Richardson pass of the probes may use an unconverged path
        nan_where(free_particle_1d, monkeypatch, on_paths_of(segments))
        with pytest.raises(errors.NoConvergence):
            estimate_constants(free_particle_1d, 0.0, [0.0], 1.0, 2.0)
