import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjsing import catalog, errors, expressions, model


class TestLegendre:
    def test_zero_momentum(self, free_particle_1d):
        v, h = model.legendre(free_particle_1d, 0.0, [0.0], [0.0])
        assert v[0] == 0.0
        assert h == 0.0

    def test_quadratic_self_conjugate(self, free_particle_1d):
        v, h = model.legendre(free_particle_1d, 0.0, [0.3], [2.0])
        np.testing.assert_allclose(v, [2.0], atol=1e-12)
        np.testing.assert_allclose(h, 2.0, atol=1e-12)

    def test_cosh_model(self):
        m = catalog.lagrangian_from_expression("cosh(v) - 1", 1)
        v, h = model.legendre(m, 0.0, [0.0], [1.0])
        # root of sinh(v) = 1 plus direct evaluation
        v_star = math.asinh(1.0)
        np.testing.assert_allclose(v[0], v_star, atol=1e-6)
        np.testing.assert_allclose(h, v_star - (math.sqrt(2.0) - 1.0), atol=1e-6)

    def test_round_trip(self, sine_problem):
        rng = np.random.default_rng(3)
        m = sine_problem.lagrangian
        for _ in range(15):
            x = rng.uniform(-3, 3, size=1)
            v = rng.normal(size=1) * 2
            p = np.atleast_1d(m.L_v(0.0, x, v))
            v_back, _ = model.legendre(m, 0.0, x, p)
            np.testing.assert_allclose(v_back, v, atol=1e-8)

    def test_round_trip_finite_difference_model(self):
        # the central-difference L_v of an expression model is noisy at the
        # gradient tolerance, so the line search stalls at the solution
        m = catalog.lagrangian_from_expression("v^2/2 + cos(x)", 1)
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(200):
            x = rng.uniform(-np.pi, np.pi, size=1)
            v = rng.normal(scale=3.0, size=1)
            v_back, _ = model.legendre(m, 0.0, x, np.atleast_1d(m.L_v(0.0, x, v)))
            worst = max(worst, float(np.max(np.abs(v_back - v))))
        assert worst <= 1e-7

    def test_not_convex_raises(self):
        m = catalog.lagrangian_from_expression("v^2/2 - abs(v)^3", 1)
        with pytest.raises(errors.NotConvex):
            model.legendre(m, 0.0, [0.0], [8.0])

    def test_iteration_cap_raises(self, monkeypatch):
        m = catalog.lagrangian_from_expression("cosh(v) - 1", 1)
        monkeypatch.setattr(model, "LEGENDRE_ITERATIONS", 2)
        with pytest.raises(errors.NoConvergence):
            model.legendre(m, 0.0, [0.0], [30.0])

    def test_batch_equals_rows_1d(self):
        m = catalog.lagrangian_from_expression("cosh(v) + v^2/2 + sin(x + s)*v", 1)
        rng = np.random.default_rng(6)
        s = rng.uniform(0.0, 1.0, 16)
        x = rng.uniform(-3.0, 3.0, (16, 1))
        p = rng.normal(scale=3.0, size=(16, 1))
        v, h = model.legendre(m, s, x, p)
        rows = [model.legendre(m, float(s[i]), x[i], p[i]) for i in range(16)]
        assert v.shape == (16, 1) and h.shape == (16,)
        assert np.array_equal(v, np.array([vi for vi, _ in rows]))
        assert np.array_equal(h, np.array([hi for _, hi in rows]))
        assert all(isinstance(hi, float) for _, hi in rows)

    def test_batch_matches_rows_2d_coupled(self):
        m = catalog.lagrangian_from_expression(
            "cosh(v1) + v2^2/2 + 0.3*v1*v2 + cos(x1)*v2", 2)
        rng = np.random.default_rng(7)
        x = rng.uniform(-3.0, 3.0, (3, 4, 2))
        p = rng.normal(scale=2.0, size=(3, 4, 2))
        v, h = model.legendre(m, 0.0, x, p)
        assert v.shape == (3, 4, 2) and h.shape == (3, 4)
        for i, j in np.ndindex(3, 4):
            vi, hi = model.legendre(m, 0.0, x[i, j], p[i, j])
            np.testing.assert_allclose(v[i, j], vi, rtol=0, atol=1e-8)
            np.testing.assert_allclose(h[i, j], hi, rtol=0, atol=1e-8)

    def test_batch_with_one_nonconvex_row_raises(self):
        m = catalog.lagrangian_from_expression("v^2/2 - abs(v)^3", 1)
        model.legendre(m, 0.0, [[0.0], [0.0]], [[0.02], [0.01]])
        with pytest.raises(errors.NotConvex):
            model.legendre(m, 0.0, [[0.0], [0.0], [0.0]], [[0.02], [8.0], [0.01]])

    def test_batch_with_one_row_past_cap_raises(self, monkeypatch):
        m = catalog.lagrangian_from_expression("cosh(v) - 1", 1)
        monkeypatch.setattr(model, "LEGENDRE_ITERATIONS", 2)
        model.legendre(m, 0.0, [0.0], [0.0])
        with pytest.raises(errors.NoConvergence):
            model.legendre(m, 0.0, [[0.0], [0.0]], [[0.0], [30.0]])

    def test_hamiltonian_batch_is_one_solve(self):
        # a batch is one Newton run: L_v once per iteration, not once per row
        m = catalog.lagrangian_from_expression("v^2/2 + cos(x)", 1)
        calls = []
        L_v = m.L_v
        m.L_v = lambda s, x, v: calls.append(len(v)) or L_v(s, x, v)
        rng = np.random.default_rng(8)
        p = rng.normal(size=(32, 1))
        v = m.hamiltonian.H_p(0.0, rng.uniform(-3.0, 3.0, (32, 1)), p)
        np.testing.assert_allclose(v, p, atol=1e-7)
        assert len(calls) <= 4


    def test_hamiltonian_callables_share_one_solve(self):
        # a characteristic's right-hand side asks H_p, H_x and H at the same
        # rows: one Legendre solve between them, answers unchanged
        m = catalog.lagrangian_from_expression("v^2/2 + cos(x)", 1)
        rng = np.random.default_rng(9)
        x, p = rng.uniform(-3.0, 3.0, (16, 1)), rng.normal(size=(16, 1))
        v_ref, h_ref = model.legendre(m, 0.5, x, p)
        calls = []
        L_vv = m.L_vv
        m.L_vv = lambda s, x, v: calls.append(len(v)) or L_vv(s, x, v)
        H = m.hamiltonian
        hp = H.H_p(0.5, x, p)
        per_solve = len(calls)
        hx, h = H.H_x(0.5, x, p), H.H(0.5, x, p)
        assert len(calls) == per_solve
        np.testing.assert_array_equal(hp, v_ref)
        np.testing.assert_array_equal(h, h_ref)
        np.testing.assert_array_equal(hx, -m.L_x(0.5, x, v_ref))
        hp[:] = 0.0                     # the caller owns what it gets
        np.testing.assert_array_equal(H.H_p(0.5, x, p), v_ref)
        H.H(0.5, x, p + 1.0)            # new inputs solve again
        assert len(calls) > per_solve


def _fd_curvature(m, x, h):
    """Central differences of L_x in x: the diagonal of L_xx."""
    v = np.zeros_like(x)
    return (m.L_x(0.0, x + h, v) - m.L_x(0.0, x - h, v)) / (2 * h)


class TestCurvature:
    rng = np.random.default_rng(12)
    clear_of_kinks = (rng.uniform(0.2, np.pi - 0.2, (40, 1))
                      * rng.choice([-1.0, 1.0], (40, 1)))
    everywhere = np.linspace(-4.0, 4.0, 81)[:, None]

    @pytest.mark.parametrize("key, points, h, tol", [
        ("pendulum", "everywhere", 1e-5, 1e-8),
        ("double_well", "everywhere", 1e-5, 1e-8),
        ("sine_kink", "clear_of_kinks", 1e-5, 1e-8),
        ("sine_kink_eps", "everywhere", 1e-5, 1e-6),
        # a finite-difference L_x, differenced again with a wider step
        ("potential", "everywhere", 1e-3, 1e-5),
    ])
    def test_matches_central_differences(self, key, points, h, tol):
        m = {"pendulum": catalog.pendulum,
             "double_well": catalog.double_well,
             "sine_kink": catalog.sine_kink,
             "sine_kink_eps": lambda: catalog.sine_kink(eps=0.1),
             "potential": lambda: catalog.lagrangian_from_potential(
                 "0.3*x^2 - cos(2*x)")}[key]()
        x = getattr(self, points)
        lxx = m.L_xx(0.0, x, np.zeros_like(x))
        assert lxx.shape == (len(x), 1, 1)
        fd = _fd_curvature(m, x, h)
        np.testing.assert_array_less(np.abs(lxx[:, :, 0] - fd), tol * (1 + np.abs(fd)))

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_sine_kink_derivatives_pinned(self, eps):
        # L_x and L_xx of sine_kink, bit for bit the expressions that took
        # sin and cos once per use: at the kinks (multiples of pi, +-0
        # included) and away from them
        if eps == 0.0:
            def d(u):
                return np.where(u < 0, -1.0, 1.0)

            def dd(u):
                return np.zeros_like(u)
        else:
            def d(u):
                return u / np.sqrt(u * u + eps * eps)

            def dd(u):
                return eps * eps / (u * u + eps * eps) ** 1.5
        kinks = np.pi * np.arange(-3, 4)
        x = np.concatenate([[0.0, -0.0], kinks, np.nextafter(kinks, np.inf),
                            np.nextafter(kinks, -np.inf),
                            np.random.default_rng(5).uniform(-10.0, 10.0, 2001)])
        grad = -np.cos(x) * np.sin(x) - d(np.sin(x)) * np.cos(x)
        hess = (-np.cos(2.0 * x) + d(np.sin(x)) * np.sin(x)
                - dd(np.sin(x)) * np.cos(x) * np.cos(x))
        m = catalog.sine_kink(eps=eps)
        pts = x[:, None]
        assert np.array_equal(m.L_x(0.0, pts, pts)[:, 0], grad)
        assert np.array_equal(m.L_xx(0.0, pts, pts)[:, 0, 0], hess)

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_free_particle_sums_pinned(self, dimension):
        # L and H of free_particle sum |v|^2 column by column, bit for bit
        # the sums of np.sum: +-0, subnormals and large entries included
        rng = np.random.default_rng(dimension)
        special = np.array([0.0, -0.0, 5e-324, 1e-300, 1e150, -1e153, 3.0, -7.5])
        v = np.concatenate([rng.choice(special, (64, 8, dimension)),
                            rng.standard_normal((64, 8, dimension)) * 1e3])
        m = catalog.free_particle(dimension)
        expected = 0.5 * np.sum(v ** 2, axis=-1)
        x = np.zeros_like(v)
        assert np.array_equal(m.L(0.0, x, v), expected)
        assert np.array_equal(m.hamiltonian.H(0.0, x, v), expected)

    def test_lift_carries_exponential_factor(self, sine_problem):
        lhat, _ = model.to_evolutionary(sine_problem, horizon=2.0)
        s = np.array([0.0, 0.7, 1.9])
        x, v = np.array([[0.4], [1.3], [-2.2]]), np.array([[0.1], [-0.5], [2.0]])
        base = sine_problem.lagrangian.L_xx(s, x, v)
        np.testing.assert_allclose(lhat.L_xx(s, x, v),
                                   np.exp(s)[:, None, None] * base, rtol=1e-15)
        h = 1e-5
        fd = (lhat.L_x(s, x + h, v) - lhat.L_x(s, x - h, v)) / (2 * h)
        np.testing.assert_allclose(lhat.L_xx(s, x, v)[:, :, 0], fd, rtol=1e-7)

    def test_absent_without_closed_form(self, counterexample_problem):
        assert catalog.free_particle(2).L_xx is None
        assert catalog.lagrangian_from_expression("v^2/2 + cos(x)", 1).L_xx is None
        lhat, _ = model.to_evolutionary(counterexample_problem, horizon=1.0)
        assert lhat.L_xx is None


class TestSwitching:
    """Switching functions and the branch keyword of the Hamiltonian callables."""

    def test_own_branch_is_the_default(self):
        # off the kinks, the branch of a point's own sign picks the piece the
        # default evaluation reads, bit for bit
        ham = catalog.sine_kink().hamiltonian
        rng = np.random.default_rng(13)
        x = rng.uniform(-10.0, 10.0, (4, 64, 1))
        p = rng.normal(size=(4, 64, 1))
        s = ham.switching(x)
        assert s.shape == (4, 64, 1) and np.all(s != 0.0)
        branch = np.sign(s)
        for fn in (ham.H, ham.H_p, ham.H_x):
            assert np.array_equal(fn(0.0, x, p, branch=branch), fn(0.0, x, p))

    def test_branch_extends_its_piece_across_the_kink(self):
        # on branch +1, |sin x| reads sin x also left of the kink at 0
        ham = catalog.sine_kink().hamiltonian
        x, p = np.array([[-0.1], [0.1]]), np.array([[0.3], [-0.2]])
        up = np.ones((2, 1))
        h = 0.5 * p[:, 0] ** 2 - 0.5 * np.cos(x[:, 0]) ** 2 + np.sin(x[:, 0])
        hx = np.cos(x) * np.sin(x) + np.cos(x)
        np.testing.assert_allclose(ham.H(0.0, x, p, branch=up), h, rtol=1e-15)
        np.testing.assert_allclose(ham.H_x(0.0, x, p, branch=up), hx, rtol=1e-15)
        assert ham.H(0.0, x[:1], p[:1]) != ham.H(0.0, x[:1], p[:1], branch=up[:1])

    @pytest.mark.parametrize("make", [
        catalog.pendulum, catalog.double_well, catalog.free_particle,
        lambda: catalog.free_particle(2), lambda: catalog.sine_kink(eps=0.1),
        lambda: catalog.lagrangian_from_expression("v^2/2 + cos(x)", 1),
    ], ids=["pendulum", "double_well", "free_particle", "free_particle_2d",
            "sine_kink_eps", "expression"])
    def test_smooth_models_have_none(self, make):
        assert make().hamiltonian.switching is None


class TestEvolutionaryTransform:
    def test_identity_at_t0(self, counterexample_problem):
        lhat, _ = model.to_evolutionary(counterexample_problem, horizon=1.0)
        v = np.array([1.3])
        assert lhat.L(0.0, np.array([0.2]), v) == pytest.approx(0.5 * 1.3 ** 2)

    def test_hamiltonian_rescale(self, counterexample_problem):
        _, hhat = model.to_evolutionary(counterexample_problem, horizon=1.0)
        t = math.log(2.0)
        p = np.array([1.7])
        # e^t H(x, e^{-t} p) = p^2/4 for the quadratic Hamiltonian at t = ln 2
        assert hhat.H(t, np.array([0.0]), p) == pytest.approx(1.7 ** 2 / 4.0)

    def test_lagrangian_rescale(self):
        prob = catalog.discounted_problem("free_particle", lam=2.0)
        lhat, _ = model.to_evolutionary(prob, horizon=1.0)
        v = np.array([0.8])
        expected = math.e ** 2 * 0.5 * 0.8 ** 2
        assert lhat.L(1.0, np.array([0.0]), v) == pytest.approx(expected)

    def test_time_derivative_is_rate_times_value(self, sine_problem):
        lhat, _ = model.to_evolutionary(sine_problem, horizon=1.0)
        x, v = np.array([0.7]), np.array([-0.4])
        lval = lhat.L(0.6, x, v)
        assert lhat.L_t(0.6, x, v) == pytest.approx(sine_problem.lam * lval)

    def test_overflow(self, sine_problem):
        with pytest.raises(errors.ExponentOverflow):
            model.to_evolutionary(sine_problem, horizon=50.0)

    def test_legendre_consistency(self, sine_problem):
        # Legendre transform of L_hat matches H_hat at random samples
        lhat, hhat = model.to_evolutionary(sine_problem, horizon=1.0)
        rng = np.random.default_rng(11)
        for _ in range(8):
            t = rng.uniform(0, 1)
            x = rng.uniform(-3, 3, size=1)
            p = rng.normal(size=1)
            _, h_val = model.legendre(lhat, t, x, p)
            assert h_val == pytest.approx(float(hhat.H(t, x, p)), abs=1e-8)


class TestGrowthData:
    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            model.GrowthData(c_T=-1.0)


class TestCheckTonelli:
    def test_free_particle_passes(self, free_particle_1d):
        report = model.check_tonelli(free_particle_1d, [(-2.0, 2.0)], horizon=1.0)
        assert report.passed
        assert report.min_eigenvalue == pytest.approx(1.0)

    def test_cubic_velocity_fails_convexity(self):
        m = catalog.lagrangian_from_expression("v^2/2 - abs(v)^3", 1)
        report = model.check_tonelli(m, [(-1.0, 1.0)], horizon=1.0)
        assert not report.passed
        assert report.min_eigenvalue < 0  # 1 - 6|v| changes sign at |v| = 1/6

    def test_transformed_model_passes(self, counterexample_problem):
        lhat, _ = model.to_evolutionary(counterexample_problem, horizon=1.0)
        report = model.check_tonelli(lhat, [(-2.0, 2.0)], horizon=1.0)
        assert report.passed
        # L_t = lam L exactly, so the envelope ct1 + ct2*L is tight
        assert report.time_derivative_margin >= -1e-9

    def test_catalog_problems_pass(self):
        # every key's growth constants, on a box where they hold, and the
        # rescaled constants of a lift at two horizons
        for key in ("free_particle", "pendulum", "sine_kink", "double_well"):
            m = catalog.lagrangian_by_key(key)
            box = [(-2.0, 2.0)] if key == "double_well" else [(-7.0, 7.0)]
            report = model.check_tonelli(m, box, horizon=1.0)
            assert report.passed, (key, report.as_dict())
        problem = catalog.discounted_problem("sine_kink", lam=1.0)
        for horizon in (0.5, 2.0):
            lhat, _ = model.to_evolutionary(problem, horizon=horizon)
            report = model.check_tonelli(lhat, [(-7.0, 7.0)], horizon=horizon)
            assert report.passed, (horizon, report.as_dict())


class TestDiscountedProblem:
    def test_rejects_nonpositive_rate(self, free_particle_1d):
        with pytest.raises(ValueError):
            model.DiscountedProblem(lam=0.0, lagrangian=free_particle_1d,
                                    hamiltonian=free_particle_1d.hamiltonian)


_VARIABLES = ("s", "x", "v", "x1", "v1")
_UNARY = sorted(set(expressions._FUNCTIONS) - {"min", "max"})


def _allowed_expressions():
    """Expressions inside the parser's whitelist: numbers, bound names, the
    arithmetic operators and the whitelisted functions."""
    leaves = st.one_of(st.sampled_from(_VARIABLES + ("pi", "e")),
                       st.floats(0.0, 100.0).map(repr))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "^", "**"]), inner)
            .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(st.sampled_from(["-", "+"]), inner).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(st.sampled_from(_UNARY), inner).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(st.sampled_from(["min", "max"]), inner, inner)
            .map(lambda t: f"{t[0]}({t[1]}, {t[2]})"),
        )

    return st.recursive(leaves, extend, max_leaves=6)


# one construct outside the whitelist, around an allowed expression {a}
_FORBIDDEN = {
    "attribute": "({a}).real",
    "subscript": "({a})[0]",
    "lambda": "(lambda q: {a})",
    "comparison": "({a} < {a})",
    "boolean-op": "({a} and {a})",
    "conditional": "({a} if {a} else {a})",
    "comprehension": "[{a} for q in x]",
    "starred-arg": "sin(*[{a}])",
    "keyword-arg": "max({a}, out={a})",
    "call-eval": "eval({a})",
    "call-getattr": "getattr({a})",
    "call-open": "open({a})",
    "call-dunder": "__import__({a})",
    "unbound-name": "({a} + y)",
    "unbound-axis": "({a} + x4)",
    "dunder-name": "({a} * __builtins__)",
    "dunder-alone": "__class__",
}

# allowed contexts the construct is spliced into, around another expression {c}
_CONTEXTS = ["({b} + {c})", "({c} * {b})", "cos({b})", "max({c}, {b})", "-({b})",
             "({b}) ^ {c}"]


def _must_not_run(*args, **kwargs):
    raise AssertionError("compile_expression evaluated its input")


class TestExpressionWhitelist:
    @pytest.mark.parametrize("bad", list(_FORBIDDEN.values()), ids=list(_FORBIDDEN))
    @settings(max_examples=10, deadline=None)
    @given(a=_allowed_expressions(),
           contexts=st.lists(st.tuples(st.sampled_from(_CONTEXTS), _allowed_expressions()),
                             max_size=3))
    def test_rejects_constructs_outside_the_whitelist(self, a, bad, contexts):
        allowed, spliced = a, bad.format(a=a)
        for context, c in contexts:
            allowed = context.format(b=allowed, c=c)
            spliced = context.format(b=spliced, c=c)
        spies = {name: _must_not_run for name in expressions._FUNCTIONS}
        binops = {op: _must_not_run for op in expressions._BINOPS}
        with mock.patch.dict(expressions._FUNCTIONS, spies), \
                mock.patch.dict(expressions._BINOPS, binops):
            expressions.compile_expression(allowed, _VARIABLES)
            with pytest.raises(errors.ConfigError):
                expressions.compile_expression(spliced, _VARIABLES)
