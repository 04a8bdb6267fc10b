import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import RK45, solve_ivp
from scipy.optimize import brentq

from hjsing import (
    GridFunction,
    action,
    aubry_candidates,
    catalog,
    cut_time,
    cut_time_field,
    cut_times,
    errors,
    estimate_constants,
    homotopy,
    is_singular,
    laxoleinik,
    model,
    propagation_step,
    reachable_gradients,
    reachable_gradients_batch,
    retraction,
    singular,
    solver,
    trace_singular_curve,
)
from hjsing.action import minimize_paths
from hjsing.model import DiscountedProblem, GrowthData, HamiltonianModel, LagrangianModel
from hjsing.singular import CutTimeField, _argmax_points

from .oracles import sine_kink_cut_time, shock_speed
from .test_action import nan_where


@pytest.fixture(scope="module")
def sine_field(sine_problem, sine_exact_grid):
    return solver.DiscountedField(sine_problem, sine_exact_grid)


class TestReachableGradients:
    def test_kink_pair(self, hopf_kink_field, free_particle_1d):
        rg = reachable_gradients(hopf_kink_field, 1.0, [0.0])
        momenta = sorted(float(p[0]) for p in rg.momenta)
        np.testing.assert_allclose(momenta, [-1.0, 1.0], atol=1e-6)
        assert rg.diameter == pytest.approx(2.0, abs=1e-6)

    def test_one_sided_point(self, hopf_kink_field, free_particle_1d):
        rg = reachable_gradients(hopf_kink_field, 1.0, [2.0])
        assert len(rg.momenta) == 1
        assert rg.momenta[0][0] == pytest.approx(-1.0, abs=1e-6)
        assert rg.diameter == 0.0

    def test_smooth_field_matches_scan_gradient(self, free_particle_1d):
        # u0 = -cos x stays smooth for t < 1; the lone reachable gradient is
        # (x - z*)/t with z* from a dense scan of the Hopf-Lax objective
        u0 = GridFunction.from_callable(lambda p: -np.cos(p[..., 0]),
                                        [(-np.pi, np.pi)], 512, periodic=True)
        field = solver.EvolutionaryField(free_particle_1d, u0)
        t, x = 0.5, 0.3
        z = np.linspace(-np.pi, np.pi, 400001)
        z_star = z[np.argmin(-np.cos(z) + (x - z) ** 2 / (2 * t))]
        rg = reachable_gradients(field, t, [x])
        assert len(rg.momenta) == 1
        # the argmin of the interpolated objective sits within one cell of
        # the true one, so the momentum is accurate to the grid-spacing scale
        assert rg.momenta[0][0] == pytest.approx((x - z_star) / t,
                                                 abs=float(u0.spacing[0]))

    def test_discounted_kink(self, sine_field, sine_problem):
        rg = reachable_gradients(sine_field, 0.0, [0.0])
        momenta = sorted(float(p[0]) for p in rg.momenta)
        np.testing.assert_allclose(momenta, [-1.0, 1.0], atol=5e-3)

    def test_is_singular_flags(self, hopf_kink_field, free_particle_1d):
        flag, cert = is_singular(hopf_kink_field, free_particle_1d, 1.0, [0.0])
        assert flag and cert.diameter > 1.9
        flag, cert = is_singular(hopf_kink_field, free_particle_1d, 1.0, [2.0])
        assert not flag


@pytest.fixture(scope="module")
def period_field(sine_problem):
    """-|sin x| on one period, 32 nodes: the setting of ``hjsing cutlocus``."""
    v = GridFunction.from_callable(lambda p: -np.abs(np.sin(p[..., 0])),
                                   [(0.0, np.pi)], 32, periodic=True)
    return solver.DiscountedField(sine_problem, v)


@pytest.fixture(scope="module")
def period_cut_field(period_field, sine_problem):
    return cut_time_field(sine_problem, period_field.v, horizon=6.0)


class TestBatchedCertificates:
    def test_discounted_batch_matches_points(self, period_field, sine_problem):
        xs = np.vstack([period_field.v.nodes(), [[0.3], [np.pi / 2]]])
        batch = reachable_gradients_batch(period_field, 0.0, xs)
        assert len(batch) == len(xs)
        for x, cert in zip(xs, batch):
            one = reachable_gradients(period_field, 0.0, x)
            np.testing.assert_array_equal(cert.momenta, one.momenta)
            assert cert.diameter == one.diameter

    def test_evolutionary_batch_matches_points(self, hopf_kink_field,
                                               free_particle_1d):
        xs = np.array([[0.0], [2.0], [-0.7]])
        batch = reachable_gradients_batch(hopf_kink_field, 1.0, xs)
        for x, cert in zip(xs, batch):
            one = reachable_gradients(hopf_kink_field, 1.0, x)
            np.testing.assert_array_equal(cert.momenta, one.momenta)
            assert cert.diameter == one.diameter

    def test_cut_times_match_cut_time(self, period_field, sine_problem):
        nodes = period_field.v.nodes()
        taus, ends = singular._forward_spans(sine_problem, period_field.v, nodes, horizon=6.0)
        np.testing.assert_array_equal(
            cut_times(sine_problem, period_field.v, nodes, horizon=6.0), taus)
        for x, tau, end in zip(nodes, taus, ends):
            tau_one, end_one = cut_time(sine_problem, period_field.v, x, horizon=6.0)
            assert tau_one == tau
            if end_one is None:
                assert tau == 0.0 and np.isnan(end).all()
            else:
                np.testing.assert_array_equal(end_one, end)

    def test_backward_spans_match_one_node_runs(self, period_field, sine_problem):
        # nine nodes reach the horizon 1.5 forward; their backward flows
        # reach it too, and at horizon 6 all but the Aubry node break
        v = period_field.v
        nodes = v.nodes()
        reach = nodes[cut_times(sine_problem, v, nodes, horizon=1.5) >= 1.5]
        p0 = singular._interp_gradient(v, reach)
        for horizon in (1.5, 6.0):
            taus, ends = singular._calibrated_flow(sine_problem, v, reach, p0, horizon, -1)
            assert len(reach) == 9 and np.sum(taus < horizon) == (0 if horizon == 1.5 else 8)
            for r in range(len(reach)):
                tau_one, end_one = singular._calibrated_flow(
                    sine_problem, v, reach[r:r + 1], p0[r:r + 1], horizon, -1)
                assert tau_one[0] == taus[r]
                np.testing.assert_array_equal(end_one[0], ends[r])


class TestPropagationStep:
    def test_stationary_kink(self, hopf_kink_field, free_particle_1d):
        step = propagation_step(hopf_kink_field, 0.5, [0.0],
                                1.5)
        assert np.max(np.abs(step.points)) <= 1e-6   # symmetry holds it at 0
        assert all(c.diameter > 1.9 for c in step.certificates)

    def test_shock_speed(self, shock_field, free_particle_1d):
        step = propagation_step(shock_field, 0.5, [0.25], 1.5)
        speeds = np.diff(np.concatenate([[0.25], step.points[:, 0]])) \
            / np.diff(np.concatenate([[0.5], step.times]))
        target = shock_speed(2.0, -1.0)
        assert np.max(np.abs(speeds - target)) <= 5e-2

    def test_discounted_symmetric_kink(self, sine_field, sine_problem):
        step = propagation_step(sine_field, 1.0,
                                [0.0], 2.0)
        assert np.max(np.abs(step.points)) <= 1e-2   # even symmetry about 0

    def test_schedule_stall_guard(self, hopf_kink_field, free_particle_1d):
        with pytest.raises(errors.ScheduleStall):
            propagation_step(hopf_kink_field, 0.5, [0.0],
                             1.5, step_cap=1e-8)

    @staticmethod
    def _spoil_argmax(monkeypatch, spoil, attempts):
        """Route ``_argmax_points`` through ``spoil(phis, scan_vals)`` on the
        first ``attempts`` calls; returns the ladder span of every call."""
        original = singular._argmax_points
        spans = []

        def spoiled(field, action_model, t1, x1, times, radii):
            ys, phis, scans, scan_vals = original(field, action_model, t1, x1, times, radii)
            spans.append(times[-1] - t1)
            if len(spans) <= attempts:
                phis, scan_vals = spoil(phis, scan_vals)
            return ys, phis, scans, scan_vals

        monkeypatch.setattr(singular, "_argmax_points", spoiled)
        return spans

    @staticmethod
    def _tie(phis, scan_vals):
        # every lattice node as high as the maximizer, the distant ones too
        return phis, [np.maximum(vals, phi) for vals, phi in zip(scan_vals, phis)]

    @staticmethod
    def _flatten(phis, scan_vals):
        # a maximizer 1 below its probes: no tie, but a convex second difference
        return phis - 1.0, [np.full_like(vals, -np.inf) for vals in scan_vals]

    @pytest.mark.parametrize("spoil", ["_tie", "_flatten"],
                             ids=["non-unique", "concavity"])
    def test_failed_attempt_halves_the_step(self, sine_field, monkeypatch, spoil):
        spans = self._spoil_argmax(monkeypatch, getattr(self, spoil), attempts=1)
        step = propagation_step(sine_field, 1.0, [0.0], 2.0, certify=False)
        assert len(spans) == 2
        assert step.t_step == pytest.approx(spans[0] / 2, rel=1e-12)
        assert step.times[-1] - 1.0 == pytest.approx(spans[0] / 2, rel=1e-12)

    def test_tie_after_the_last_halving_raises(self, sine_field, monkeypatch):
        spans = self._spoil_argmax(monkeypatch, self._tie, attempts=math.inf)
        with pytest.raises(errors.NonUniqueArgmax):
            propagation_step(sine_field, 1.0, [0.0], 2.0, certify=False)
        assert len(spans) == 7      # the first attempt and 6 halvings

    @pytest.mark.parametrize("kind, start, bound", [
        ("discounted", (1.0, [0.0], 2.0), 12),
        ("evolutionary", (0.5, [0.25], 1.5), 55),
    ], ids=["discounted", "evolutionary"])
    def test_few_direct_method_batches(self, sine_field, shock_field, monkeypatch,
                                       kind, start, bound):
        # the ladder times share the lattice scan, the polish or the zoom,
        # the probes and the certificates, and an evolutionary field searches all the
        # times of a batch at once; one batch per ladder time would need more
        # a fresh shock field, whose value cache earlier tests have not filled
        field = (sine_field if kind == "discounted"
                 else solver.EvolutionaryField(shock_field.model, shock_field.u0))
        calls = []

        def counting(original):
            def wrapper(*args, **kwargs):
                calls.append(args[2])
                return original(*args, **kwargs)
            return wrapper

        for module in (action, laxoleinik, singular):
            monkeypatch.setattr(module, "minimize_paths", counting(module.minimize_paths))
        propagation_step(field, *start, certify=True)
        assert len(calls) <= bound


def test_unconverged_objective_raises(sine_field, monkeypatch):
    # L is NaN on the path to y = 0.2 alone
    nan_where(sine_field.problem.lagrangian, monkeypatch, lambda x: x[..., 0] > 0.15)
    ys = np.array([[0.0], [0.1], [0.2]])
    with pytest.raises(errors.NoConvergence):
        singular._argmax_objective(sine_field, sine_field.action_lagrangian(1.5), 1.0,
                                   np.zeros(1), np.full(3, 1.5), ys)


def max_difference_quotient(curve):
    """The largest |x(s') - x(s)| / (s' - s) over consecutive curve points."""
    dx = np.linalg.norm(np.diff(curve.points, axis=0), axis=1)
    return float(np.max(dx / np.diff(curve.times)))


class TestTrace:
    def test_stationary_kink_curve(self, hopf_kink_field, free_particle_1d):
        curve = trace_singular_curve(hopf_kink_field, 0.5,
                                     [0.0], 3.0)
        assert float(np.max(np.abs(curve.points))) <= 1e-2
        assert np.all(curve.certificate_diameters[1:] >= 1.9)
        assert curve.times[-1] >= 3.0 - 1e-9
        assert max_difference_quotient(curve) <= 1e-6

    def test_shock_curve(self, shock_field, free_particle_1d, monkeypatch):
        rows = []
        search = solver.lax_oleinik_minus

        def counting(model, f, t1, t2, xs, polish_window=None):
            if polish_window is None:           # a value search, not a certificate
                rows.append(len(xs))
            return search(model, f, t1, t2, xs, polish_window)

        monkeypatch.setattr(solver, "lax_oleinik_minus", counting)
        curve = trace_singular_curve(shock_field, 0.5,
                                     [0.25], 2.0)
        err = np.max(np.abs(curve.points[:, 0] - curve.times / 2))
        assert err <= 5e-2
        assert max_difference_quotient(curve) == pytest.approx(0.5, abs=5e-2)
        # the zoom searches no node of the lattice its seed won again; the
        # start of each of the 7 later steps is searched for its semiconcavity
        # probe.  2,288 rows were searched when a per-field memo served both
        assert sum(rows) <= 2288 + 7

    def test_discounted_trace_stays_at_kink(self, sine_field, sine_problem):
        curve = trace_singular_curve(sine_field, 1.0,
                                     [np.pi], 2.5)
        assert float(np.max(np.abs(curve.points - np.pi))) <= 1e-2

    def test_rejects_smooth_start(self, hopf_kink_field, free_particle_1d):
        with pytest.raises(errors.InvalidProblem):
            trace_singular_curve(hopf_kink_field, 0.5, [2.0],
                                 1.5)

    @pytest.mark.parametrize("T_total", [1.7, 2.0, 2.3])
    def test_ends_on_horizon(self, hopf_kink_field, T_total):
        # the last step of a block is clipped to the horizon, not run past it,
        # and the schedule counts the steps that ran, 4 ladder points each
        curve = trace_singular_curve(hopf_kink_field, 0.5, [0.0], T_total)
        assert curve.times[-1] == T_total
        assert 4 * sum(k for _, _, k in curve.schedule) == len(curve.times) - 1

    def test_continuity_in_start_point(self, shock_field, free_particle_1d):
        delta = 1e-3
        c1 = trace_singular_curve(shock_field, 0.5,
                                  [0.25], 1.2)
        c2 = trace_singular_curve(shock_field, 0.5,
                                  [0.25 + delta], 1.2, certify=False)
        # compare at the common ladder times of the first block
        n = min(len(c1.times), len(c2.times))
        gap = np.max(np.abs(c1.points[:n, 0] - c2.points[:n, 0]))
        assert gap <= 50 * delta + 1e-6

    def test_exclusion_certificate(self, hopf_kink_field, free_particle_1d):
        # the step's dual momentum lies in the superdifferential but away
        # from every reachable gradient at the new point
        step = propagation_step(hopf_kink_field, 0.5, [0.0],
                                1.5)
        t = float(step.times[-1])
        y = step.points[-1]
        sol = minimize_paths(free_particle_1d, 0.5, t, np.array([[0.0]]),
                             y[None, :], segments=32)
        nodes = sol["nodes"][0]
        dt = (t - 0.5) / 32
        vel_end = (3 * nodes[-1] - 4 * nodes[-2] + nodes[-3]) / (2 * dt)
        p_step = float(free_particle_1d.L_v(t, y, vel_end)[0])
        cert = step.certificates[-1]
        momenta = cert.momenta[:, 0]
        lo, hi = momenta.min(), momenta.max()
        assert lo - 1e-6 <= p_step <= hi + 1e-6       # inside the hull
        assert np.min(np.abs(momenta - p_step)) > 1e-4  # not a reachable one


class TestStepMapRegularity:
    def test_lipschitz_ratio(self, shock_field, free_particle_1d):
        # |y(x1) - y(x2)| <= (2 C0 / C2) |x1 - x2| for nearby starts
        lam2 = shock_field.lambda2(1.5)
        constants = estimate_constants(free_particle_1d, 0.5, [0.25], 1.5,
                                       min(lam2, 4.0))
        t1, t = 0.5, 0.75
        radius = min(lam2, 4.0) * (t - t1)
        ys = []
        for x1 in ([0.25], [0.27]):
            (y,), _, _, _ = _argmax_points(shock_field, free_particle_1d, t1,
                                           np.array(x1), np.array([t]),
                                           np.array([radius]))
            ys.append(y[0])
        ratio = abs(ys[1] - ys[0]) / 0.02
        assert ratio <= 2 * constants.c0 / constants.c2 * 1.1


class TestArgmax:
    def test_unique_max_on_solution_field(self, hopf_kink_field, free_particle_1d):
        # u(1, y) = -|y| - 1/2 on the kink field: from x1 = 0 at t1 = 0 the
        # maximizer of u(1, y) - |y|^2/2 is y = 0, unique on the lattice
        h = float(hopf_kink_field.u0.spacing[0])
        (y,), (phi,), (cand,), (vals,) = _argmax_points(
            hopf_kink_field, free_particle_1d, 0.0, np.array([0.0]), np.array([1.0]),
            np.array([hopf_kink_field.lambda2(1.0)]))
        assert abs(y[0]) <= 1e-6
        assert phi == pytest.approx(-0.5, abs=1e-6)
        far = np.abs(cand[:, 0] - y[0]) > 4 * h
        assert not np.any(vals[far] >= phi - 1e-9)

    def test_off_lattice_maximizer(self, shock_field, free_particle_1d):
        # from the shock at (0.5, 0.25) the maximizer is the shock at t/2,
        # which no lattice node hits: the zoom has to reach it
        ts = np.array([0.6, 0.8, 1.0, 1.3])
        ys, _, _, _ = _argmax_points(shock_field, free_particle_1d, 0.5,
                                     np.array([0.25]), ts,
                                     shock_field.lambda2(1.5) * (ts - 0.5))
        assert np.max(np.abs(ys[:, 0] - ts / 2)) <= 1e-6

    def test_runner_up_seed_is_polished(self, counterexample_problem, monkeypatch):
        # v = cos 4x is symmetric about x1 = pi/4, so the scan's best node and
        # its mirror tie; both go to the cell polish
        v = GridFunction.from_callable(lambda p: np.cos(4 * p[..., 0]),
                                       [(0.0, 2 * np.pi)], 256, periodic=True)
        field = solver.DiscountedField(counterexample_problem, v)
        seeds = []
        polish = singular._cell_polish

        def recording(grid, solve, z, *args, **kwargs):
            seeds.append(z[:, 0].copy())
            return polish(grid, solve, z, *args, **kwargs)

        monkeypatch.setattr(singular, "_cell_polish", recording)
        (y,), _, _, _ = _argmax_points(field, field.action_lagrangian(2.0), 1.0,
                                       np.array([np.pi / 4]), np.array([2.0]),
                                       np.array([0.9]))
        assert len(seeds) == 1
        np.testing.assert_allclose(seeds[0], [0.035, 1.535], atol=1e-3)
        assert abs(y[0] - 0.035) <= float(v.spacing[0])

    @pytest.mark.parametrize("x1, node", [(0.05, 0.0), (1.0, None)],
                             ids=["kink", "interior"])
    def test_discounted_polish_beats_a_dense_lattice(self, period_field, x1, node):
        # on a discounted field the argmax polishes cell by cell: its phi is at
        # least the best of 4,001 points across the seed's window; from 0.05
        # the maximizer is the concave kink of v at the node 0, exactly, and
        # from 1.0 it lies inside a cell
        h = float(period_field.v.spacing[0])
        t1, t, radius = 1.0, 1.25, 0.3
        action_model = period_field.action_lagrangian(2.0)
        (y,), (phi,), (cand,), (vals,) = _argmax_points(
            period_field, action_model, t1, np.array([x1]), np.array([t]),
            np.array([radius]))
        seed = cand[np.argmax(vals), 0]
        width = max(h, 2 * radius / (singular._LATTICE_NODES - 1))
        ys = np.linspace(seed - width, seed + width, 4001)[:, None]
        dense, _ = singular._argmax_objective(period_field, action_model, t1,
                                              np.array([x1]), np.full(len(ys), t), ys)
        assert phi >= dense.max() - 1e-12
        if node is None:
            assert abs(y[0] / h - round(y[0] / h)) > 1e-3
        else:
            assert y[0] == node


class TestCutTime:
    def test_characteristic_travel_time(self, sine_problem, sine_exact_grid):
        tau, flow = cut_time(sine_problem, sine_exact_grid, [np.pi / 4],
                             horizon=6.0)
        assert tau == pytest.approx(sine_kink_cut_time(np.pi / 4), abs=5e-2)
        assert tau == pytest.approx(math.log(1 + math.sqrt(2)), abs=5e-2)
        assert flow is not None and tau < 6.0

    def test_stationary_point_clamps(self, sine_problem, sine_exact_grid):
        tau, flow = cut_time(sine_problem, sine_exact_grid, [np.pi / 2],
                             horizon=6.0)
        assert tau == 6.0 and flow is not None

    def test_kink_is_cut_point(self, sine_problem, sine_exact_grid):
        tau, flow = cut_time(sine_problem, sine_exact_grid, [0.0], horizon=6.0)
        assert tau == 0.0 and flow is None

    def test_margin_read_after_accepted_steps_only(self, sine_problem, monkeypatch):
        # the flow from 0.406 on the cutlocus-1d grid rejects a step on its
        # way to the kink at 0 (14 attempts, 13 taken); a rejected row has
        # not moved, so its margin is not read
        v = GridFunction.from_callable(lambda p: -np.abs(np.sin(p[..., 0])),
                                       [(0.0, np.pi)], 32, periodic=True)
        stages, reads = [], []
        flow = singular._characteristic_flow

        def recording(ham, lam, states, horizon, direction, margin):
            def h_p(*args, **kwargs):
                stages.append(1)
                return ham.H_p(*args, **kwargs)

            def read(t, Y, rows):
                out = margin(t, Y, rows)
                reads.append((float(t[0]), float(out[0])))
                return out

            return flow(dataclasses.replace(ham, H_p=h_p), lam, states, horizon,
                        direction, read)

        monkeypatch.setattr(singular, "_characteristic_flow", recording)
        cut_time(sine_problem, v, [0.406], horizon=6.0)
        # the loop's reads run to the first non-positive margin; the break
        # time's root search reads after it.  Every attempt costs six
        # right-hand sides, after two for the initial step
        loop = reads[:next(i for i, (_, m) in enumerate(reads) if m <= 0) + 1]
        attempts = (len(stages) - 2) // 6
        assert all(t1 < t2 for (t1, _), (t2, _) in zip(loop, loop[1:]))
        assert len(loop) < attempts

    def test_zero_solution_clamps_everywhere(self, counterexample_problem):
        v = GridFunction.from_callable(lambda p: 0.0 * p[..., 0],
                                       [(-2.0, 2.0)], 33, periodic=True)
        for x in (-1.0, 0.0, 0.7):
            tau, flow = cut_time(counterexample_problem, v, [x], horizon=5.0)
            assert tau == 5.0 and flow is not None


@pytest.fixture(scope="module")
def coarse_field(sine_problem):
    v = GridFunction.from_callable(lambda p: -np.abs(np.sin(p[..., 0])),
                                   [(-2 * np.pi, 2 * np.pi)], 64,
                                   periodic=True)
    return cut_time_field(sine_problem, v, horizon=6.0)


class TestCutTimeField:

    def test_majorant_strict(self, coarse_field):
        assert np.all(coarse_field.alpha.values > coarse_field.tau.values)
        assert np.all(coarse_field.tau.values >= 0)

    def test_invariant_enforced(self, coarse_field):
        with pytest.raises(ValueError):
            CutTimeField(tau=coarse_field.tau, alpha=coarse_field.tau)

    def test_export(self, tmp_path, coarse_field):
        coarse_field.tau.write(tmp_path / "tau.grid")
        tau, _ = GridFunction.read(tmp_path / "tau.grid")
        np.testing.assert_array_equal(tau.values, coarse_field.tau.values)

    def test_semicontinuity_proxy(self, sine_problem, sine_exact_grid):
        # coarse tau never exceeds the max over nearby fine samples by more
        # than tolerance (upper semicontinuity direction)
        from hjsing.singular import cut_times
        coarse_nodes = np.linspace(0.3, 2.8, 9)[:, None]
        fine_nodes = np.linspace(0.3, 2.8, 17)[:, None]
        coarse_vals = cut_times(sine_problem, sine_exact_grid, coarse_nodes,
                                horizon=6.0)
        fine_vals = cut_times(sine_problem, sine_exact_grid, fine_nodes,
                              horizon=6.0)
        for i, tau_c in enumerate(coarse_vals):
            children = fine_vals[max(0, 2 * i - 1): 2 * i + 2]
            assert tau_c - np.max(children) <= 0.1


class TestHomotopyRetraction:
    def test_identity_at_zero(self, sine_field, sine_problem):
        x = np.array([0.9])
        out = homotopy(sine_field, x, 0.0)
        np.testing.assert_array_equal(out, x)

    def test_reaches_kink(self, sine_field, sine_problem):
        out = homotopy(sine_field, [np.pi / 4], 1.2)
        assert abs(out[0]) <= 1e-2

    def test_continuation_certifies_nothing(self, sine_field, monkeypatch):
        # s runs past the cut time, so the uncertified singular continuation
        # runs: the one certificate search is the cut test of the start point
        calls = []
        search = solver.DiscountedField.certificate_search

        def counted(self, t, xs):
            calls.append(len(xs))
            return search(self, t, xs)

        monkeypatch.setattr(solver.DiscountedField, "certificate_search", counted)
        out = homotopy(sine_field, [np.pi / 4], 1.2)
        assert abs(out[0]) <= 1e-2
        assert calls == [1]

    def test_singular_start_stays(self, sine_field, sine_problem):
        out = homotopy(sine_field, [0.0], 0.5)
        assert abs(out[0]) <= 1e-2

    def test_retraction_uses_majorant(self, sine_field, sine_problem):
        # the majorant needs the grid fine enough that the mollifier bump
        # covers the between-node variation of tau near the start point
        v256 = GridFunction.from_callable(lambda p: -np.abs(np.sin(p[..., 0])),
                                          [(-2 * np.pi, 2 * np.pi)], 256,
                                          periodic=True)
        ctf = cut_time_field(sine_problem, v256, horizon=6.0)
        x = np.array([np.pi / 4])
        g0 = retraction(sine_field, sine_problem.lagrangian, ctf, x, 0.0)
        np.testing.assert_array_equal(g0, x)
        assert float(ctf.alpha(x)) > float(ctf.tau(x))
        g1 = retraction(sine_field, sine_problem.lagrangian, ctf, x, 1.0)
        assert abs(g1[0]) <= 1e-2

    def test_evolutionary_rejected(self, hopf_kink_field, free_particle_1d):
        with pytest.raises(errors.InvalidProblem):
            homotopy(hopf_kink_field, [0.0], 0.5)

    def test_band_point_retracts_to_a_kink(self, period_field, period_cut_field,
                                           sine_problem):
        # near the Aubry point pi/2 the cone of the first continuation step
        # straddles a kink of the potential and probes c2 < 0; on half its
        # span the action is convex, so the step halves the span and goes on
        g1 = retraction(period_field, sine_problem.lagrangian, period_cut_field,
                        [1.44], 1.0)
        cell = float(period_field.v.spacing[0])
        assert abs(g1[0] - np.pi * round(g1[0] / np.pi)) <= cell
        flag, _ = is_singular(period_field, None, 0.0, g1)
        assert flag


class TestAubryCandidates:
    def test_zero_solution_all_candidates(self, counterexample_problem):
        v = GridFunction.from_callable(lambda p: 0.0 * p[..., 0],
                                       [(-2.0, 2.0)], 17, periodic=True)
        field = solver.DiscountedField(counterexample_problem, v)
        tau = cut_times(counterexample_problem, v, v.nodes(), horizon=5.0)
        pts, mask = aubry_candidates(field, horizon=5.0, forward_tau=tau)
        assert mask.all()

    def test_sine_candidates_at_stationary_points(self, sine_field, sine_problem):
        v = sine_field.v
        tau = cut_times(sine_problem, v, v.nodes(), horizon=6.0)
        pts, mask = aubry_candidates(sine_field, horizon=6.0, forward_tau=tau)
        assert len(pts) > 0
        h = float(v.spacing[0])
        targets = np.array([-3 * np.pi / 2, -np.pi / 2, np.pi / 2, 3 * np.pi / 2])
        for p in pts[:, 0]:
            assert np.min(np.abs(p - targets)) <= h + 1e-9

    def test_evolutionary_rejected(self, hopf_kink_field):
        with pytest.raises(errors.InvalidProblem):
            aubry_candidates(hopf_kink_field, horizon=5.0, forward_tau=[])


def _escape_problem():
    """H = p^2/2 + p g(x) with g(x) = x^3 - x and lam = 1.

    v = 0 solves lam v + H(x, v') = 0; its characteristics keep p = 0 and
    follow x' = g(x), along which L = (x' - g(x))^2 / 2 = 0, so they stay
    calibrated with defect 0.  From x in (-1, 1) they settle at 0; from
    x = 2 they blow up at t = log(4/3) / 2 = 0.1438.
    """
    def g(x):
        return x ** 3 - x

    def dg(x):
        return 3.0 * x ** 2 - 1.0

    ham = HamiltonianModel(
        dimension=1,
        H=lambda s, x, p: 0.5 * p[..., 0] ** 2 + p[..., 0] * g(x[..., 0]),
        H_p=lambda s, x, p: p + g(x),
        H_x=lambda s, x, p: p * dg(x),
        H_t=lambda s, x, p: np.zeros(np.shape(p)[:-1]),
    )
    lag = LagrangianModel(
        dimension=1,
        L=lambda s, x, v: 0.5 * (v[..., 0] - g(x[..., 0])) ** 2,
        L_v=lambda s, x, v: v - g(x),
        L_x=lambda s, x, v: -(v - g(x)) * dg(x),
        L_t=lambda s, x, v: np.zeros(np.shape(v)[:-1]),
        L_vv=lambda s, x, v: np.ones(np.shape(v) + (1,)),
        growth=GrowthData(),
        hamiltonian=ham,
    )
    return DiscountedProblem(1.0, lag, ham)


def _count_root_batches(monkeypatch):
    """The rows of every call of the flow's batched root driver."""
    batches = []
    original = singular._brent_roots

    def counting(g, a, b, g_a, g_b):
        batches.append(len(a))
        return original(g, a, b, g_a, g_b)

    monkeypatch.setattr(singular, "_brent_roots", counting)
    return batches


class TestStackedFlow:
    """All rows of a cut-time or Aubry query run in one batched loop."""

    @staticmethod
    def count_flows(monkeypatch):
        """(rows, horizon, direction) of every calibrated-flow loop."""
        calls = []
        original = singular._calibrated_flow

        def counting(problem, v, xs, p0, horizon, direction=+1):
            calls.append((len(xs), horizon, direction))
            return original(problem, v, xs, p0, horizon, direction)

        monkeypatch.setattr(singular, "_calibrated_flow", counting)
        return calls

    def test_cut_time_field_calls(self, period_field, sine_problem, monkeypatch):
        # the 31 uncut nodes run in one forward loop.  Each step is evaluated
        # on its row's branch of the potential, so a step across a kink
        # passes error control and the crossing is located, not stepped
        # around: 365 batched right-hand sides (584 with the steps
        # collapsing at the kinks; bounds only go down)
        rhs_calls = []
        ham = sine_problem.hamiltonian

        def counting_hp(s, x, p, **kwargs):
            rhs_calls.append(len(x))
            return ham.H_p(s, x, p, **kwargs)

        problem = DiscountedProblem(sine_problem.lam, sine_problem.lagrangian,
                                    dataclasses.replace(ham, H_p=counting_hp))
        calls = self.count_flows(monkeypatch)
        cut_time_field(problem, period_field.v, horizon=6.0)
        assert calls == [(31, 6.0, +1)]
        assert len(rhs_calls) <= 450

    def test_breaks_in_one_step_match_one_row_runs(self, period_field, sine_problem,
                                                   monkeypatch):
        # without switching functions the driver roots only breaks; on the
        # cutlocus grid up to three rows break in one step, and each is
        # rooted as if it ran alone
        plain = DiscountedProblem(sine_problem.lam, sine_problem.lagrangian,
                                  dataclasses.replace(sine_problem.hamiltonian,
                                                      switching=None))
        v = period_field.v
        nodes = v.nodes()[1:]                   # the node at 0 is a cut point
        p0 = singular._interp_gradient(v, nodes)
        batches = _count_root_batches(monkeypatch)
        taus, ends = singular._calibrated_flow(plain, v, nodes, p0, 6.0)
        assert max(batches) >= 2
        for r in range(len(nodes)):
            tau_one, end_one = singular._calibrated_flow(plain, v, nodes[r:r + 1],
                                                         p0[r:r + 1], 6.0)
            assert tau_one[0] == taus[r]
            np.testing.assert_array_equal(end_one[0], ends[r])

    def test_aubry_one_backward_call(self, counterexample_problem, monkeypatch):
        v = GridFunction.from_callable(lambda p: 0.0 * p[..., 0],
                                       [(-2.0, 2.0)], 17, periodic=True)
        field = solver.DiscountedField(counterexample_problem, v)
        tau = cut_times(counterexample_problem, v, v.nodes(), horizon=5.0)
        calls = self.count_flows(monkeypatch)
        _, mask = aubry_candidates(field, horizon=5.0, forward_tau=tau)
        assert mask.all()
        assert [call for call in calls if call[2] == -1] == [(17, 5.0, -1)]

    def test_escaping_row_blows_up(self):
        problem = _escape_problem()
        v = GridFunction.from_callable(lambda p: 0.0 * p[..., 0],
                                       [(-4.0, 4.0)], 16, periodic=True)
        bounded = np.array([[0.0], [0.5], [-0.5]])
        np.testing.assert_array_equal(cut_times(problem, v, bounded, horizon=1.0), 1.0)
        with pytest.raises(errors.BlowUp):
            cut_times(problem, v, np.vstack([bounded, [[2.0]]]), horizon=1.0)

    def test_frozen_row_cannot_escape(self):
        # a dip of v at 3.5 breaks the row from 2 on its way out (t = 0.085),
        # before it would escape; it stops there, with its state at the break
        problem = _escape_problem()
        v = GridFunction.from_callable(lambda p: -0.1 * (np.abs(p[..., 0] - 3.5) < 0.1),
                                       [(-4.0, 4.0)], 16, periodic=True)
        pts = np.array([[0.0], [0.5], [-0.5], [2.0]])
        tau, ends = singular._forward_spans(problem, v, pts, horizon=1.0)
        alone, _ = cut_time(problem, v, pts[3], horizon=1.0)
        assert 0.0 < alone < 0.14
        assert tau[3] == alone
        np.testing.assert_array_equal(tau[:3], 1.0)
        x_end = ends[:, 0]
        assert 3.0 <= x_end[3] <= 3.5
        assert np.max(np.abs(x_end[:3])) <= 0.5

    def test_failed_run_raises(self):
        # H_p turns NaN past |x| = 3, on the way of the row from 2 to its
        # blow-up: the step size underflows before the state reaches the
        # escape bound, and the run must fail instead of reaching the horizon
        problem = _escape_problem()
        ham = problem.hamiltonian

        def nan_past_3(s, x, p):
            return np.where(np.abs(x) >= 3.0, np.nan, ham.H_p(s, x, p))

        problem = DiscountedProblem(problem.lam, problem.lagrangian,
                                    dataclasses.replace(ham, H_p=nan_past_3))
        v = GridFunction.from_callable(lambda p: 0.0 * p[..., 0],
                                       [(-4.0, 4.0)], 16, periodic=True)
        with pytest.raises(errors.NoConvergence):
            cut_times(problem, v, [[0.0], [0.5], [2.0]], horizon=1.0)

    def test_chattering_row_exhausts_the_step_budget(self, sine_problem):
        # x = 0 is a kink of sine_kink's potential, where v's gradient is 0:
        # the backward flow from it chatters across the kink, each step
        # ending at a crossing about 1e-13 after it starts, and only the step
        # budget (500 attempts at horizon 1) ends the loop; H_p stops a loop
        # that runs far past it
        ham = sine_problem.hamiltonian
        rhs_rows = []

        def bounded_hp(s, x, p, **kwargs):
            rhs_rows.append(len(x))
            if len(rhs_rows) > 20_000:
                raise RuntimeError("the calibrated flow ran past its step budget")
            return ham.H_p(s, x, p, **kwargs)

        problem = DiscountedProblem(sine_problem.lam, sine_problem.lagrangian,
                                    dataclasses.replace(ham, H_p=bounded_hp))
        v = GridFunction.from_callable(lambda p: -np.abs(np.sin(p[..., 0])),
                                       [(0.0, np.pi)], 16, periodic=True)
        field = solver.DiscountedField(problem, v)
        with pytest.raises(errors.NoConvergence, match="took 500 steps"):
            # only the node at 0 reaches the horizon forward
            aubry_candidates(field, 1.0, forward_tau=np.eye(16)[0])


class TestKinkCrossings:
    """Steps on the row's branch of the potential, switched at located crossings."""

    @staticmethod
    def piecewise(y, T):
        """sine_kink's characteristic (lam = 1) from y at t = 0 to T by
        DOP853 at rtol 1e-12, restarted on the far piece at each kink."""
        def rhs(t, y, branch):
            x, p, _ = y
            h = 0.5 * p * p - 0.5 * math.cos(x) ** 2 + branch * math.sin(x)
            h_x = math.cos(x) * (math.sin(x) + branch)
            return [p, -h_x - p, math.exp(t) * (p * p - h)]

        def leaves(t, y, branch):
            return branch * math.sin(y[0])
        leaves.terminal, leaves.direction = True, -1
        t, branch = 0.0, -1.0 if math.sin(y[0]) < 0 else 1.0
        while True:
            sol = solve_ivp(rhs, (t, T), y, args=(branch,), rtol=1e-12, atol=1e-14,
                            events=leaves, method="DOP853")
            t, y, branch = sol.t[-1], sol.y[:, -1], -branch
            if sol.status == 0:
                return y

    def test_same_flow_as_without_switching(self, period_field, sine_problem):
        # the cutlocus-1d grid: the flows that step across the kinks break
        # when the flows that step around them do, at the same points.  In
        # p, whose slope jumps at a kink, the flows around them end up to
        # 2.2e-7 off a piecewise reference, which those across them meet
        plain = DiscountedProblem(sine_problem.lam, sine_problem.lagrangian,
                                  dataclasses.replace(sine_problem.hamiltonian,
                                                      switching=None))
        v, nodes = period_field.v, period_field.v.nodes()
        tau, ends = singular._forward_spans(sine_problem, v, nodes, horizon=6.0)
        tau_0, ends_0 = singular._forward_spans(plain, v, nodes, horizon=6.0)
        np.testing.assert_allclose(tau, tau_0, rtol=0, atol=1e-8)
        np.testing.assert_allclose(ends[:, [0, 2]], ends_0[:, [0, 2]], rtol=0, atol=1e-8)
        p0 = singular._interp_gradient(v, nodes)[:, 0]
        for i in np.flatnonzero(tau > 0):
            ref = self.piecewise([nodes[i, 0], p0[i], 0.0], tau[i])
            assert np.all(np.abs(ends[i] - ref) <= 1e-8 * (1 + np.abs(ref)))

    @pytest.mark.parametrize("direction", [+1, -1])
    def test_stacked_rows_match_single_rows(self, direction):
        # rows that cross the kinks at different times, no margin
        ham = catalog.sine_kink().hamiltonian
        y0 = np.column_stack([[0.3, 2.9, -0.4, 1.2], [-1.0, 1.0, 0.8, -2.0], np.zeros(4)])
        tau, ends = singular._characteristic_flow(ham, 1.0, y0, 2.0, direction)
        switch_times = set()
        for r in range(4):
            calls = []

            def h_x(s, x, p, branch):
                calls.append((float(np.ravel(s)[0]), float(branch[0, 0])))
                return ham.H_x(s, x, p, branch=branch)

            tau_one, end_one = singular._characteristic_flow(
                dataclasses.replace(ham, H_x=h_x), 1.0, y0[r:r + 1], 2.0, direction)
            assert tau_one[0] == tau[r]
            np.testing.assert_array_equal(end_one[0], ends[r])
            switch_times |= {t for (t, b), (_, b_prev) in zip(calls[1:], calls) if b != b_prev}
        assert len(switch_times) >= 4


    def test_row_starting_on_a_kink(self):
        # from x = 0, on branch +1 (a zero is on it), the row leaves its
        # branch at once: it switches at the start of its first step, not at
        # that step's end
        ham = catalog.sine_kink().hamiltonian
        y0 = [0.0, -0.5, 0.0]
        _, ends = singular._characteristic_flow(ham, 1.0, [y0], 1.0)
        ref = self.piecewise(y0, 1.0)
        assert np.all(np.abs(ends[0] - ref) <= 1e-8 * (1 + np.abs(ref)))

    def test_crossings_in_one_step_match_one_row_runs(self, monkeypatch):
        # x -> -x, p -> -p is a symmetry of sine_kink: mirrored rows take the
        # same steps and cross the kinks in the same ones; without a margin
        # the driver roots only crossings
        ham = catalog.sine_kink().hamiltonian
        y0 = np.array([[0.3, -1.0, 0.0], [-0.3, 1.0, 0.0]])
        batches = _count_root_batches(monkeypatch)
        tau, ends = singular._characteristic_flow(ham, 1.0, y0, 2.0)
        assert max(batches) == 2
        for r in range(2):
            tau_one, end_one = singular._characteristic_flow(ham, 1.0, y0[r:r + 1], 2.0)
            assert tau_one[0] == tau[r]
            np.testing.assert_array_equal(end_one[0], ends[r])
        np.testing.assert_array_equal(ends[1, :2], -ends[0, :2])


def _bracketed(draw, f, a):
    """A bracket [a, b] with b in [-12, 12] on which f changes sign, in either
    order (backward flows search a reversed step)."""
    b = draw(st.floats(-12.0, 12.0).filter(lambda b: f(b) * f(a) < 0))
    return (a, b) if draw(st.booleans()) else (b, a)


@st.composite
def _root_problems(draw):
    """(f, a, b): a smooth cubic, a kinked |x - c| - d or a piecewise-linear
    interpolant like the flow's margin, with a sign change on [a, b]."""
    kind = draw(st.sampled_from(["cubic", "kink", "interpolant"]))
    coef = st.floats(-10.0, 10.0)
    if kind == "cubic":
        roots = sorted(draw(st.lists(coef, min_size=3, max_size=3)))
        scale = draw(st.floats(0.1, 10.0))

        def f(x):
            return scale * (x - roots[0]) * (x - roots[1]) * (x - roots[2])
    elif kind == "kink":
        c, d = draw(coef), draw(st.floats(1e-3, 5.0))

        def f(x):
            return abs(x - c) - d
        return (f, *_bracketed(draw, f, c + d * draw(st.floats(-0.99, 0.99))))
    else:
        knots = np.sort(draw(st.lists(coef, min_size=3, max_size=12, unique=True)))
        values = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=len(knots),
                                        max_size=len(knots))))
        values[0], values[-1] = abs(values[0]) + 1e-3, -abs(values[-1]) - 1e-3

        def f(x):
            return np.interp(x, knots, values)
    return (f, *_bracketed(draw, f, draw(st.floats(-12.0, 12.0).filter(lambda a: f(a) != 0))))


class TestScipyPorts:
    """The calibrated flow's Dormand-Prince tableau is scipy's RK45, and its
    batched root driver runs scipy's brentq on every row, written out so the
    library never imports scipy."""

    def test_tableau_is_rk45(self):
        for ours, theirs in [(singular._DP_TABLEAU_C, RK45.C), (singular._DP_TABLEAU_A, RK45.A),
                             (singular._DP_TABLEAU_B, RK45.B), (singular._DP_TABLEAU_E, RK45.E),
                             (singular._DP_TABLEAU_P, RK45.P)]:
            assert np.array_equal(ours, theirs)
        assert singular._DP_ERROR_ORDER == RK45.error_estimator_order

    @settings(max_examples=300, deadline=None)
    @given(problems=st.lists(_root_problems(), min_size=1, max_size=6))
    def test_brent_roots_step_as_brentq(self, problems):
        # each row of a batch evaluates g where brentq evaluates f, after the
        # two ends, and returns its root; a triple root can keep both from
        # converging in 100 iterations
        fs, a, b = zip(*problems)
        expected = []
        for f, lo, hi in problems:
            points = []

            def counted(x, f=f, points=points):
                points.append(x)
                return f(x)
            root, report = brentq(counted, lo, hi, xtol=singular._ROOT_TOL,
                                  rtol=singular._ROOT_TOL, full_output=True, disp=False)
            expected.append((root, report.converged, points))
        evaluations = [[] for _ in problems]

        def g(rows, s):
            for r, x in zip(rows, s):
                evaluations[r].append(x)
            return np.array([fs[r](x) for r, x in zip(rows, s)])

        g_a, g_b = [f(x) for f, x in zip(fs, a)], [f(x) for f, x in zip(fs, b)]
        if all(converged for _, converged, _ in expected):
            root, far, g_root = singular._brent_roots(g, a, b, g_a, g_b)
            for f, (want, _, _), x, y, g_x in zip(fs, expected, root, far, g_root):
                assert x == want and g_x == f(x)
                # unless g is 0 there, the far end brackets the root within
                # the tolerance
                assert g_x == 0 or ((f(y) < 0) != (g_x < 0)
                                    and abs(y - x) <= singular._ROOT_TOL * (1 + abs(x)))
        else:
            with pytest.raises(errors.NoConvergence, match="100 iterations"):
                singular._brent_roots(g, a, b, g_a, g_b)
        for r, (_, _, points) in enumerate(expected):
            assert evaluations[r] == points[2:]

    def test_brent_roots_need_a_sign_change(self):
        with pytest.raises(errors.NoConvergence, match="no sign change"):
            singular._brent_roots(lambda rows, s: s - 1.0, [0.0, 2.0], [3.0, 3.0],
                                  [-1.0, 1.0], [2.0, 2.0])

    def test_a_zero_end_is_the_root(self):
        # as in brentq, without evaluating g; the other end is the far end
        root, far, g_root = singular._brent_roots(lambda rows, s: s - 1.0, [1.0, -2.0, 0.0],
                                                  [3.0, 1.0, 3.0], [0.0, -3.0, -1.0],
                                                  [2.0, 0.0, 2.0])
        for a, b in [(1.0, 3.0), (-2.0, 1.0), (0.0, 3.0)]:
            assert brentq(lambda x: x - 1.0, a, b, xtol=singular._ROOT_TOL,
                          rtol=singular._ROOT_TOL) == 1.0
        np.testing.assert_array_equal(root, 1.0)
        np.testing.assert_array_equal(far[:2], [3.0, -2.0])
        np.testing.assert_array_equal(g_root, 0.0)


class TestCharacteristics:
    """The one integrator of x' = H_p, p' = -H_x - lam p and the running action."""

    TIMES = np.linspace(0.25, 2.0, 8)

    @staticmethod
    def states(x0, p0):
        return np.column_stack([x0, p0, np.zeros(len(x0))])

    def sampled(self, ham, lam, y0):
        """(x, p, running integral) per row and ladder time, (rows, times),
        from one integrator run per time."""
        Y = np.stack([singular._characteristic_flow(ham, lam, y0, t)[1] for t in self.TIMES],
                     axis=-1)
        return Y[:, 0], Y[:, 1], Y[:, 2]

    def test_discounted_flow_is_the_lifted_flow(self):
        # the paper's reduction: the lam-form characteristic of a discounted
        # H is the lam = 0 characteristic of its lift, with p_hat = e^{lam t} p
        problem = catalog.discounted_problem("pendulum", lam=1.0)
        _, hhat = model.to_evolutionary(problem, horizon=2.0)
        y0 = self.states([0.3, -1.0, 2.0], [0.5, 1.0, -0.2])
        x, p, a = self.sampled(problem.hamiltonian, 1.0, y0)
        x_l, p_hat, a_l = self.sampled(hhat, 0.0, y0)
        np.testing.assert_allclose(x, x_l, rtol=0, atol=1e-8)
        assert np.all(np.abs(np.exp(self.TIMES) * p - p_hat) <= 1e-8 * (1 + np.abs(p_hat)))
        np.testing.assert_allclose(a, a_l, rtol=0, atol=1e-8)

    def test_stacked_rows_match_single_rows(self):
        problem = catalog.discounted_problem("pendulum", lam=1.0)
        y0 = self.states([0.3, -1.0, 2.0], [0.5, 1.0, -0.2])
        stacked = np.stack(self.sampled(problem.hamiltonian, 1.0, y0))
        for r in range(3):
            alone = np.stack(self.sampled(problem.hamiltonian, 1.0, y0[r:r + 1]))
            np.testing.assert_allclose(stacked[:, r], alone[:, 0], rtol=0, atol=1e-8)
