import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hjsing import (
    ArgBall,
    GridFunction,
    catalog,
    discounted_lax_oleinik,
    errors,
    lax_oleinik_minus,
    laxoleinik,
    localization_radius,
    model,
    solution_lipschitz_bound,
)
from hjsing.action import PATH_SEGMENTS
from hjsing.laxoleinik import (
    _cell_polish,
    _ball_candidates,
    _distinct_basins,
    localized_convolution,
)

from .oracles import hopf_lax_brute
from .test_action import _sine_kink_2d


@pytest.fixture(scope="module")
def neg_abs_grid():
    return GridFunction.from_callable(lambda p: -np.abs(p[..., 0]),
                                      [(-8.0, 8.0)], 1025)


class TestGridFunction:
    def test_nodes_reproduced_exactly(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(19, 23))
        g = GridFunction([(-1.0, 1.0), (0.0, 2.0)], vals)
        nodes = g.nodes()
        np.testing.assert_array_equal(g(nodes).reshape(19, 23), vals)

    def test_periodic_wraps(self):
        g = GridFunction.from_callable(lambda p: np.sin(p[..., 0]),
                                       [(0.0, 2 * np.pi)], 64, periodic=True)
        assert g([0.0]) == pytest.approx(g([2 * np.pi]), abs=1e-14)
        assert g([-0.3]) == pytest.approx(g([2 * np.pi - 0.3]), abs=1e-12)

    def test_out_of_box_raises(self, neg_abs_grid):
        with pytest.raises(errors.BoundaryClipped):
            neg_abs_grid([9.0])

    def test_lipschitz_estimate(self, neg_abs_grid):
        assert neg_abs_grid.lipschitz_estimate == pytest.approx(1.0)

    def test_interpolation_bound_wraps_periodic_axis(self):
        # the kink of -|sin x| sits on node 0 of [0, pi): its second
        # difference wraps around to the last node
        g = GridFunction.from_callable(lambda p: -np.abs(np.sin(p[..., 0])),
                                       [(0.0, np.pi)], 32, periodic=True)
        kink = 2 * math.sin(np.pi / 32) / 8
        assert g.interpolation_error_bound() == pytest.approx(kink, rel=1e-12)

    @staticmethod
    def corner_loop_reference(g, pts):
        """Multilinear interpolation corner by corner, as ``__call__`` did
        before it read ``interpolation_weights``."""
        idx0, frac = [], []
        for ax in range(g.dimension):
            u = (pts[:, ax] - g.box[ax, 0]) / g.spacing[ax]
            u = np.where(np.abs(u - np.round(u)) < 1e-9, np.round(u), u)
            m = g.resolution[ax]
            if g.periodic[ax]:
                u = np.mod(u, m)
                i0 = np.floor(u).astype(int) % m
            else:
                u = np.clip(u, 0.0, m - 1)
                i0 = np.minimum(np.floor(u).astype(int), m - 2)
            idx0.append(i0)
            frac.append(u - i0)
        out = np.zeros(len(pts))
        for corner in range(1 << g.dimension):
            weight, index = np.ones(len(pts)), []
            for ax in range(g.dimension):
                if corner >> ax & 1:
                    i = idx0[ax] + 1
                    i = i % g.resolution[ax] if g.periodic[ax] else np.minimum(
                        i, g.resolution[ax] - 1)
                    weight = weight * frac[ax]
                else:
                    i = idx0[ax]
                    weight = weight * (1.0 - frac[ax])
                index.append(i)
            out += weight * g.values[tuple(index)]
        return out

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "box"])
    def test_interpolation_weights(self, dimension, periodic):
        # queries on nodes, off nodes and at the right edge of the box (on a
        # periodic axis that edge wraps to node 0), and beyond the period
        rng = np.random.default_rng(10 * dimension + periodic)
        for _ in range(20):
            lo = rng.uniform(-3.0, 1.0, size=dimension)
            box = np.stack([lo, lo + rng.uniform(0.5, 4.0, size=dimension)], axis=1)
            res = tuple(int(m) for m in rng.integers(2, 12, size=dimension))
            g = GridFunction(box, rng.normal(size=res), periodic=periodic)
            span = box[:, 1] - box[:, 0]
            off = box[:, 0] + rng.uniform(0.0, 1.0, size=(30, dimension)) * span
            edge = off[:5].copy()
            edge[:, -1] = box[-1, 1]
            queries = [g.nodes(), off, edge, box[:, 1][None]]
            if periodic:
                queries.append(off + rng.integers(-2, 3, size=(30, dimension)) * span)
            pts = np.concatenate(queries)
            index, weight = g.interpolation_weights(pts)
            assert index.shape == weight.shape == (len(pts), 2 ** dimension)
            assert np.all(weight >= 0.0)
            np.testing.assert_allclose(weight.sum(axis=1), 1.0, rtol=0, atol=1e-15)
            assert np.all((index >= 0) & (index < g.values.size))
            combined = np.zeros(len(pts))
            for corner in range(2 ** dimension):
                combined += weight[:, corner] * g.values.reshape(-1)[index[:, corner]]
            got = g(pts)
            assert np.array_equal(got, combined)
            assert np.array_equal(got, self.corner_loop_reference(g, pts))
            np.testing.assert_array_equal(got[:g.values.size], g.values.reshape(-1))

    def test_values_read_only(self, neg_abs_grid):
        with pytest.raises(ValueError):
            neg_abs_grid.values[0] = 3.0

    def test_with_values_recomputes_lipschitz(self, neg_abs_grid):
        doubled = neg_abs_grid.with_values(2.0 * neg_abs_grid.values)
        assert doubled.lipschitz_estimate == pytest.approx(2.0)

    def test_file_round_trip(self, tmp_path, neg_abs_grid):
        path = tmp_path / "f.grid"
        neg_abs_grid.write(path, lam=1.5, comments=["example"])
        back, lam = GridFunction.read(path)
        assert lam == 1.5
        np.testing.assert_array_equal(back.values, neg_abs_grid.values)
        np.testing.assert_array_equal(back.box, neg_abs_grid.box)

    def test_file_round_trip_periodic_2d(self, tmp_path):
        g = GridFunction.from_callable(
            lambda p: np.cos(p[..., 0]) * np.sin(p[..., 1]),
            [(0.0, 2 * np.pi), (0.0, 2 * np.pi)], (32, 16),
            periodic=(True, False))
        path = tmp_path / "g.grid"
        g.write(path)
        back, lam = GridFunction.read(path)
        assert lam is None
        assert back.periodic == (True, False)
        np.testing.assert_array_equal(back.values, g.values)


class TestArgBall:
    def test_rejects_far_argpoints(self):
        with pytest.raises(ValueError):
            ArgBall(center=[0.0], radius=1.0, argpoints=[np.array([2.0])])

    def test_accepts_with_spacing_slack(self):
        ball = ArgBall(center=[0.0], radius=1.0, argpoints=[np.array([1.05])],
                       spacing=0.1)
        assert len(ball.argpoints) == 1


class TestLocalizationRadius:
    def test_formula_quadratic(self):
        g = model.GrowthData()
        assert localization_radius(g, 1.0) == pytest.approx(2.0)
        assert localization_radius(g, 0.0) == pytest.approx(0.5)

    def test_formula_with_offsets(self):
        g = model.GrowthData(c_T=3.0, offset=1.0)
        assert localization_radius(g, 0.0) == pytest.approx(4.5)

    def test_rejects_bad_arguments(self):
        g = model.GrowthData()
        with pytest.raises(ValueError):
            localization_radius(g, -0.5)


class TestSolutionLipschitzBound:
    def test_free_particle_chain(self):
        g = model.GrowthData()
        # F1 = theta*(1) + theta_upper(1) = 1; F2 = theta*(F1) + |conj(F1)| = 1
        assert solution_lipschitz_bound(g, 1.0, 1.0) == pytest.approx(
            math.hypot(1.0, 1.0), abs=1e-6)

    def test_zero_lip_chain(self):
        g = model.GrowthData()
        f1 = 0.5
        f2 = 0.5 * f1 ** 2 + 0.5 * f1 ** 2
        assert solution_lipschitz_bound(g, 1.0, 0.0) == pytest.approx(
            math.hypot(f1, f2), abs=1e-6)

    def test_monotone_in_lip(self):
        g = model.GrowthData()
        values = [solution_lipschitz_bound(g, 1.0, k) for k in (0.0, 0.5, 1.0, 2.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))


def _quadratic_action(xs, metric):
    """``solve`` for _cell_polish: A = (z - x)^T M (z - x) / 2 around each
    seed's own x, computed entry by entry so each row is exact whatever
    the batch."""
    (m00, m01), (_, m11) = metric

    def solve(points, rows, warm):
        d = points - xs[rows]
        if d.shape[1] == 1:
            return 0.5 * m00 * d[:, 0] ** 2, m00 * d, points[:, None, :]
        a = 0.5 * (m00 * d[:, 0] ** 2 + 2 * m01 * d[:, 0] * d[:, 1]
                   + m11 * d[:, 1] ** 2)
        da = np.stack([m00 * d[:, 0] + m01 * d[:, 1],
                       m01 * d[:, 0] + m11 * d[:, 1]], axis=1)
        return a, da, points[:, None, :]

    return solve


class TestCellPolish:
    def polish(self, f, xs, seeds, metric=((1.0, 0.0), (0.0, 1.0)), solve=None):
        xs = np.asarray(xs, dtype=float)
        seeds = np.asarray(seeds, dtype=float)
        solve = solve or _quadratic_action(xs, metric)
        a, da, paths = solve(seeds, np.arange(len(seeds)), None)
        return _cell_polish(f, solve, seeds, paths, a, da)

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_seed_node_not_solved_again(self, dimension):
        # seeds on grid nodes: the first batch holds every breakpoint of the
        # first axis but each seed's own node, whose path the seed brings
        rng = np.random.default_rng(dimension)
        f = GridFunction([(-2.0, 2.0)] * dimension,
                         rng.uniform(-0.5, 0.5, (33,) * dimension))
        nodes = f.nodes()
        seeds = nodes[rng.choice(len(nodes), size=5, replace=False)]
        xs = seeds + rng.uniform(-0.3, 0.3, size=seeds.shape)
        quadratic = _quadratic_action(xs, ((1.0, 0.4), (0.4, 1.0)))
        batches = []

        def solve(points, rows, warm):
            batches.append(len(points))
            return quadratic(points, rows, warm)

        self.polish(f, xs, seeds, solve=solve)
        owner, xb = laxoleinik._axis_breakpoints(f, 0, seeds[:, 0], 0.125)
        assert all(z in xb[owner == i] for i, z in enumerate(seeds[:, 0]))
        assert batches[1] == len(xb) - len(seeds)      # batches[0]: the seeds

    def test_seeds_on_shifted_nodes_are_breakpoints(self):
        # the cutlocus-1d grid: a search's candidates include nodes shifted
        # by whole periods, and a seed on one is recognised by exact
        # equality with its breakpoint, so both build node coordinates alike
        f = GridFunction.from_callable(lambda p: -np.abs(np.sin(p[..., 0])),
                                       [(0.0, np.pi)], 32, periodic=True)
        nodes = f.nodes()
        _, cand = _ball_candidates(f, nodes, np.full(len(nodes), 4.0))
        assert cand.min() < 0.0 and cand.max() >= np.pi
        owner, xb = laxoleinik._axis_breakpoints(f, 0, cand[:, 0], float(f.spacing[0]))
        assert all(z in xb[owner == i] for i, z in enumerate(cand[:, 0]))

    def test_interior_minimizer(self):
        # f(z) = 0.3 z: min of 0.3 z + (z - x)^2 / 2 at z = x - 0.3, inside a cell
        f = GridFunction.from_callable(lambda p: 0.3 * p[..., 0], [(-2.0, 2.0)], 41)
        z, cost, act, _ = self.polish(f, [[0.837]], [[0.5]])
        assert abs(z[0, 0] - 0.537) <= 1e-10
        assert cost[0] == pytest.approx(0.3 * 0.537 + 0.045, abs=1e-12)
        assert act[0] == pytest.approx(0.045, abs=1e-12)

    def test_convex_kink_is_its_node(self):
        # f = |z - 1/2| (spacing 1/8); the slopes of f + (z - 0.6)^2 / 2 are
        # -1.1 left of the kink and 0.9 right of it
        f = GridFunction.from_callable(lambda p: np.abs(p[..., 0] - 0.5),
                                       [(-2.0, 2.0)], 33)
        z, _, _, _ = self.polish(f, [[0.6]], [[0.55]])
        assert z[0, 0] == 0.5

    def test_non_periodic_box_clamps_window(self):
        # unconstrained min of z + (z - 0.05)^2 / 2 at -0.95, outside [0, 2]
        f = GridFunction.from_callable(lambda p: p[..., 0], [(0.0, 2.0)], 17)
        z, cost, _, _ = self.polish(f, [[0.05]], [[0.0625]])
        assert z[0, 0] == 0.0
        assert cost[0] == pytest.approx(0.5 * 0.05 ** 2, abs=1e-15)

    def test_batch_matches_single_seeds(self):
        # bilinear random data and a coupled metric: the seeds need different
        # numbers of sweeps, and each stops on its own
        rng = np.random.default_rng(3)
        f = GridFunction([(-2.0, 2.0), (-2.0, 2.0)], rng.uniform(-0.5, 0.5, (17, 17)))
        xs = rng.uniform(-1.0, 1.0, size=(6, 2))
        seeds = xs + rng.uniform(-0.3, 0.3, size=(6, 2))
        metric = ((1.0, 0.6), (0.6, 1.0))
        batch = self.polish(f, xs, seeds, metric)
        for k in range(len(xs)):
            one = self.polish(f, xs[k:k + 1], seeds[k:k + 1], metric)
            for got, want in zip(one, batch):
                assert np.array_equal(got[0], want[k])


class TestDistinctBasins:
    @staticmethod
    def loop_reference(rows, points, gap):
        chosen = []
        for r in rows:
            if all(np.linalg.norm(points[r] - points[c]) > gap for c in chosen):
                chosen.append(r)
            if len(chosen) >= 6:
                break
        return chosen

    def test_matches_loop(self):
        # coarse coordinates make exact distance ties with the gap; random
        # owners, each owner's rows thinned alone
        rng = np.random.default_rng(0)
        for _ in range(300):
            k, n = int(rng.integers(0, 40)), int(rng.integers(1, 3))
            points = np.round(rng.normal(size=(k + 5, n)) * 2.0, 1)
            owners = rng.integers(0, 4, size=k + 5)
            rows = rng.permutation(k + 5)[:k]
            rows = rows[np.argsort(owners[rows], kind="stable")]   # grouped
            got = _distinct_basins(rows, owners, points, 0.5)
            want = [r for i in range(4)
                    for r in self.loop_reference(rows[owners[rows] == i], points, 0.5)]
            assert [int(r) for r in got] == want


class TestBallCandidates:
    @staticmethod
    def loop_reference(grid, center, radius):
        """One query: per axis the shifted node copies in the window, then
        the product's points in the ball, the center first."""
        axes = []
        for ax, nodes in enumerate(grid.axes()):
            a, b = grid.box[ax]
            r = min(radius, laxoleinik.periodic_radius_cap(grid, ax))
            lo, hi = center[ax] - r, center[ax] + r
            if grid.periodic[ax]:
                span = b - a
                shifted = np.concatenate([nodes + k * span for k in range(
                    math.floor((lo - a) / span) - 1, math.ceil((hi - a) / span) + 1)])
                pos = np.unique(shifted[(shifted >= lo) & (shifted <= hi)])
                fallback = center[ax]
            else:
                pos = nodes[(nodes >= max(lo, a)) & (nodes <= min(hi, b))]
                fallback = min(max(center[ax], a), b)
            axes.append(pos if pos.size else np.array([fallback]))
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(center))
        keep = np.linalg.norm(pts - center, axis=1) <= radius + 1e-12
        return np.vstack([center[None, :], pts[keep]])

    def test_matches_loop(self):
        # random 1D and 2D grids, periodic or not, radii from below half a
        # cell to several periods
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(1, 3))
            res = tuple(int(m) for m in rng.integers(3, 12, size=n))
            periodic = tuple(bool(q) for q in rng.integers(0, 2, size=n))
            grid = GridFunction(np.column_stack([np.zeros(n), rng.uniform(0.5, 3.0, n)]),
                                np.zeros(res), periodic=periodic)
            P = int(rng.integers(1, 6))
            frac = np.where(periodic, rng.uniform(-2, 3, (P, n)), rng.uniform(0, 1, (P, n)))
            centers = frac * grid.box[:, 1]
            radii = rng.uniform(0.0, 0.5, P) ** 2 * np.where(all(periodic), 40.0, 1.0)
            # window ends on nodes: centers on nodes, radii whole cells
            on_node = rng.integers(0, 2, P).astype(bool)
            centers[on_node] = np.round(centers[on_node] / grid.spacing) * grid.spacing
            radii[on_node] = rng.integers(0, 4, on_node.sum()) * grid.spacing[0]
            inside = np.all(periodic | ((centers - radii[:, None] >= 0)
                                        & (centers + radii[:, None] <= grid.box[:, 1])), axis=1)
            centers, radii = centers[inside], radii[inside]
            if not len(centers):
                continue
            owners, points = _ball_candidates(grid, centers, radii)
            want = [self.loop_reference(grid, c, r) for c, r in zip(centers, radii)]
            np.testing.assert_array_equal(owners, np.repeat(np.arange(len(want)),
                                                            [len(w) for w in want]))
            np.testing.assert_array_equal(points, np.vstack(want))

    def test_empty_windows_below_half_a_cell(self):
        # axis 0 periodic on [0, 1) (nodes 0, 1/4, 1/2, 3/4), axis 1 on [0, 1]
        # (5 nodes); radius 0.1 < h/2: an axis whose window holds no node
        # contributes the center coordinate, and each center comes first
        grid = GridFunction([(0.0, 1.0), (0.0, 1.0)], np.zeros((4, 5)),
                            periodic=(True, False))
        centers = np.array([[0.5, 0.5], [0.6, 0.5], [0.6, 0.6], [0.625, 0.375],
                            [0.625, 0.3], [0.95, 0.5]])
        owners, points = _ball_candidates(grid, centers, np.full(6, 0.1))
        expected = [
            [[0.5, 0.5]],          # both windows hold the node
            [[0.5, 0.5]],          # at distance 0.1: on the sphere
            [],                    # (0.5, 0.5) is sqrt(2)/10 away
            [[0.625, 0.375]],      # both windows empty: the center itself
            [[0.625, 0.25]],       # axis 0 empty
            [[1.0, 0.5]],          # periodic representative of node 0
        ]
        np.testing.assert_array_equal(owners, np.repeat(np.arange(6),
                                                        [1 + len(e) for e in expected]))
        want = np.concatenate([np.vstack([c] + e) for c, e in zip(centers, expected)])
        np.testing.assert_array_equal(points, want)

    def test_one_pass_per_search(self, sine_problem, monkeypatch):
        # every query's candidates come from one grouped call
        calls = []
        original = laxoleinik._ball_candidates

        def counting(grid, centers, radii):
            calls.append(len(centers))
            return original(grid, centers, radii)

        monkeypatch.setattr(laxoleinik, "_ball_candidates", counting)
        v = GridFunction.from_callable(lambda p: -np.abs(np.sin(p[..., 0])),
                                       [(-2 * np.pi, 2 * np.pi)], 32, periodic=True)
        discounted_lax_oleinik(sine_problem, v, 1.0, v.nodes())
        fp2 = catalog.free_particle(2)
        grid = GridFunction.from_callable(lambda p: -np.abs(p[..., 0]) - np.abs(p[..., 1]),
                                          [(-4.0, 4.0), (-4.0, 4.0)], 33)
        lax_oleinik_minus(fp2, grid, 0.0, 0.5, [[0.0, 0.3], [1.0, -0.5], [0.2, 0.2]])
        assert calls == [32, 3]


class TestMinusOperator:
    def test_zero_data_stationary(self, free_particle_1d):
        grid = GridFunction.from_callable(lambda p: 0.0 * p[..., 0],
                                          [(-8.0, 8.0)], 513)
        (res,) = lax_oleinik_minus(free_particle_1d, grid, 0.0, 1.0, [[0.3]])
        assert abs(res.value) <= 1e-12
        assert len(res.arg.argpoints) == 1
        assert res.arg.argpoints[0][0] == pytest.approx(0.3, abs=1e-9)

    def test_neg_abs_tied_minimizers(self, free_particle_1d, neg_abs_grid):
        (res,) = lax_oleinik_minus(free_particle_1d, neg_abs_grid, 0.0, 1.0, [[0.0]])
        assert res.value == pytest.approx(-0.5, abs=1e-9)
        pts = sorted(float(p[0]) for p in res.arg.argpoints)
        np.testing.assert_allclose(pts, [-1.0, 1.0], atol=1e-6)

    def test_linear_data(self, free_particle_1d):
        grid = GridFunction.from_callable(lambda p: p[..., 0], [(-8.0, 8.0)], 1025)
        (res,) = lax_oleinik_minus(free_particle_1d, grid, 0.0, 1.0, [[0.5]])
        assert res.value == pytest.approx(0.0, abs=1e-9)       # x - 1/2
        assert res.arg.argpoints[0][0] == pytest.approx(-0.5, abs=1e-6)

    def test_matches_brute_force(self, free_particle_1d, neg_abs_grid):
        for x in (0.3, 1.2, -2.0):
            ref, _ = hopf_lax_brute(lambda z: -np.abs(z), 1.0, x, -8, 8)
            (res,) = lax_oleinik_minus(free_particle_1d, neg_abs_grid, 0.0, 1.0, [[x]])
            assert res.value == pytest.approx(ref, abs=1e-6)

    def test_boundary_clipped(self, free_particle_1d, neg_abs_grid):
        with pytest.raises(errors.BoundaryClipped):
            lax_oleinik_minus(free_particle_1d, neg_abs_grid, 0.0, 1.0, [[7.5]])

    def test_2d_operator(self):
        fp2 = catalog.free_particle(2)
        grid = GridFunction.from_callable(
            lambda p: -np.abs(p[..., 0]) - 0.5 * np.abs(p[..., 1]),
            [(-6.0, 6.0), (-6.0, 6.0)], (97, 97))
        (res,) = lax_oleinik_minus(fp2, grid, 0.0, 0.5, [[0.0, 2.0]])
        # separable Hopf-Lax: min over each axis independently
        vx, _ = hopf_lax_brute(lambda z: -np.abs(z), 0.5, 0.0, -6, 6)
        vy, _ = hopf_lax_brute(lambda z: 0.5 * -np.abs(z), 0.5, 2.0, -6, 6)
        assert res.value == pytest.approx(vx + vy, abs=1e-4)
        # each query's search is independent of the others in its batch, and
        # the actions are summed row by row, so batching changes no bit,
        # with one horizon for the batch or one per row
        xs = np.array([[0.0, 2.0], [0.03, -1.0], [1.1, 0.0]])
        lam1 = localization_radius(fp2.growth, grid.lipschitz_estimate)
        for t2 in (0.5, np.array([0.5, 0.3, 0.7])):
            assert_rows_match_single_calls(fp2, grid, t2, xs, lam1 * t2)

    def test_batch_matches_single_rows(self, sine_problem, sine_exact_grid):
        # the operator searches all its rows in one kernel call
        lhat, _ = model.to_evolutionary(sine_problem, horizon=1.0)
        xs = np.array([[0.3], [1.0], [-2.0], [0.0], [np.pi]])
        batch = lax_oleinik_minus(lhat, sine_exact_grid, 0.0, 0.75, xs)
        for x, res in zip(xs, batch):
            (one,) = lax_oleinik_minus(lhat, sine_exact_grid, 0.0, 0.75, x[None, :])
            assert res.value == one.value
            np.testing.assert_array_equal(res.arg.argpoints, one.arg.argpoints)
            np.testing.assert_array_equal(res.momenta, one.momenta)
        radius = batch[0].arg.radius
        assert radius == localization_radius(
            lhat.growth, sine_exact_grid.lipschitz_estimate) * 0.75
        assert_rows_match_single_calls(lhat, sine_exact_grid, 0.75, xs, radius)

    def test_per_row_horizons_exponential_quadrature(self, sine_problem,
                                                     sine_exact_grid):
        # the lift of sine_kink weights its segments by e^{lam t}
        lhat, _ = model.to_evolutionary(sine_problem, horizon=1.0)
        lam1 = localization_radius(lhat.growth, sine_exact_grid.lipschitz_estimate)
        t2 = np.array([0.5, 1.0, 0.75, 1.0])
        xs = np.array([[0.3], [1.0], [-2.0], [0.0]])
        assert_rows_match_single_calls(lhat, sine_exact_grid, t2, xs, lam1 * t2)


def assert_rows_match_single_calls(lagrangian, grid, t2, xs, radius):
    """A batch with per-row (or shared) horizons and radii gives each row's
    one-query answer bit for bit."""
    batch = localized_convolution(lagrangian, grid, 0.0, t2, xs, radius)
    rows = np.broadcast_to(t2, len(xs)), np.broadcast_to(radius, len(xs))
    for x, t, r, res in zip(xs, *rows, batch):
        (one,) = localized_convolution(lagrangian, grid, 0.0, float(t), x[None, :],
                                       float(r))
        assert res.value == one.value
        np.testing.assert_array_equal(res.arg.argpoints, one.arg.argpoints)
        np.testing.assert_array_equal(res.momenta, one.momenta)


class TestDiscountedOperator:
    @pytest.mark.parametrize("case", ["sine_kink_128", "torus_8x8"])
    def test_kept_operator_matches_one_shot_calls(self, sine_problem, case):
        # one operator applied to three data in turn reuses its plan's
        # paths, and builds a new plan for a fourth whose Lipschitz constant
        # raises the radius; each answer equals a fresh call's bit for bit
        if case == "sine_kink_128":
            problem = sine_problem
            v = GridFunction.from_callable(lambda p: -np.abs(np.sin(p[..., 0])),
                                           [(-2 * np.pi, 2 * np.pi)], 128, periodic=True)
        else:
            problem = catalog.discounted_from_model(_sine_kink_2d(curvature=True), lam=1.0)
            v = GridFunction.from_callable(
                lambda p: -np.abs(np.sin(p[..., 0])) - np.abs(np.sin(p[..., 1])),
                [(0.0, np.pi)] * 2, 8, periodic=True)
        x = v.nodes()
        data = [v, v.with_values(v.values + 0.05 * np.sin(3 * x[:, 0]).reshape(v.resolution)),
                v.with_values(v.values + 0.3), v.with_values(3 * v.values)]
        operator = laxoleinik.DiscountedOperator(problem, 1.0, x, lip_bound=2.0)
        plans = []
        for w in data:
            kept = operator(w)
            plans.append(operator.plan)
            fresh = laxoleinik.DiscountedOperator(problem, 1.0, x, lip_bound=2.0)(w)
            for a, b in zip(kept, fresh):
                assert a.value == b.value
                np.testing.assert_array_equal(a.arg.argpoints, b.arg.argpoints)
                np.testing.assert_array_equal(a.momenta, b.momenta)
        assert plans[0] is plans[1] is plans[2] is not plans[3]
        other = GridFunction(v.box, np.zeros(tuple(m + 1 for m in v.resolution)), True)
        with pytest.raises(ValueError):
            operator.plan.search(other)

    def test_zero_fixed_point(self, counterexample_problem):
        v = GridFunction.from_callable(lambda p: 0.0 * p[..., 0],
                                       [(-2.0, 2.0)], 65, periodic=True)
        for t in (0.5, 1.0):
            (res,) = discounted_lax_oleinik(counterexample_problem, v, t, [[0.3]])
            assert abs(res.value) <= 1e-12

    def test_offset_kinetic_closed_form(self):
        m = catalog.mechanical(lambda x: np.ones_like(x),
                               lambda x: np.zeros_like(x),
                               "kinetic_plus_one", 1.0, 1.0)
        prob = catalog.discounted_from_model(m, lam=1.0)
        v0 = GridFunction.from_callable(lambda p: 0.0 * p[..., 0],
                                        [(-4.0, 4.0)], 129, periodic=True)
        for t in (0.5, 1.0, 2.0):
            (res,) = discounted_lax_oleinik(prob, v0, t, [[0.5]])
            assert res.value == pytest.approx(1.0 - math.exp(-t), abs=1e-10)
        v1 = GridFunction.from_callable(lambda p: 1.0 + 0.0 * p[..., 0],
                                        [(-4.0, 4.0)], 129, periodic=True)
        (res,) = discounted_lax_oleinik(prob, v1, 1.0, [[0.5]])
        assert res.value == pytest.approx(1.0)

    def test_few_direct_method_batches(self, sine_problem, monkeypatch):
        # one batch re-scores the scan, the polish makes one batch per axis
        # sweep plus its secant steps, one more refines the winners; a polish
        # of fixed-count iterations would need more
        calls = []
        original = laxoleinik.minimize_paths

        def counting(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(laxoleinik, "minimize_paths", counting)
        v = GridFunction.from_callable(lambda p: -np.abs(np.sin(p[..., 0])),
                                       [(-2 * np.pi, 2 * np.pi)], 128, periodic=True)
        discounted_lax_oleinik(sine_problem, v, 1.0, v.nodes())
        assert len(calls) <= 12

    def test_few_fine_paths(self, sine_problem, monkeypatch):
        # the coarse re-score picks the rows of the fine one: 908 paths at
        # PATH_SEGMENTS (3,124 when every scan candidate within 1 of its
        # leader was re-scored at that count); the bound allows 25 % more
        paths = []
        original = laxoleinik.minimize_paths

        def counting(*args, **kwargs):
            if kwargs.get("segments", PATH_SEGMENTS) == PATH_SEGMENTS:
                paths.append(len(args[3]))
            return original(*args, **kwargs)

        monkeypatch.setattr(laxoleinik, "minimize_paths", counting)
        v = GridFunction.from_callable(lambda p: -np.abs(np.sin(p[..., 0])),
                                       [(-2 * np.pi, 2 * np.pi)], 128, periodic=True)
        discounted_lax_oleinik(sine_problem, v, 1.0, v.nodes())
        assert sum(paths) <= 1135

    @pytest.mark.parametrize("segments", [laxoleinik._COARSE_SEGMENTS, PATH_SEGMENTS,
                                          2 * PATH_SEGMENTS])
    def test_unconverged_path_raises(self, free_particle_1d, neg_abs_grid, segments,
                                     monkeypatch):
        # coarse, fine, polish and Richardson passes: none uses an
        # unconverged path
        original = laxoleinik.minimize_paths

        def one_unconverged(*args, **kwargs):
            sol = original(*args, **kwargs)
            if kwargs.get("segments", PATH_SEGMENTS) == segments:
                sol["converged"] = sol["converged"].copy()
                sol["converged"][0] = False
            return sol

        monkeypatch.setattr(laxoleinik, "minimize_paths", one_unconverged)
        with pytest.raises(errors.NoConvergence):
            lax_oleinik_minus(free_particle_1d, neg_abs_grid, 0.0, 1.0, [[0.3]])

    def test_exponent_cap(self, counterexample_problem):
        v = GridFunction.from_callable(lambda p: 0.0 * p[..., 0],
                                       [(-2.0, 2.0)], 65, periodic=True)
        with pytest.raises(errors.ExponentOverflow):
            discounted_lax_oleinik(counterexample_problem, v, 50.0, [[0.0]])


def _periodic_grids():
    """Node values in [-1, 1] of a small 1D periodic grid on [0, 2 pi)."""
    return st.integers(8, 24).flatmap(
        lambda m: arrays(float, m, elements=st.floats(-1.0, 1.0)))


_PROPERTY = settings(max_examples=20, deadline=None)


class TestOperatorProperties:
    """Invariants of T^- that a search pruned too hard would break."""

    box = [(0.0, 2 * np.pi)]

    @_PROPERTY
    @given(f=_periodic_grids(), bump=st.floats(0.0, 1.0), t=st.floats(0.25, 1.0),
           x=st.floats(0.0, 2 * np.pi), data=st.data())
    def test_monotone(self, f, bump, t, x, data):
        raise_by = data.draw(arrays(float, f.size, elements=st.floats(0.0, bump)))
        lower = GridFunction(self.box, f, periodic=True)
        upper = lower.with_values(f + raise_by)
        m = catalog.sine_kink()
        (tf,) = lax_oleinik_minus(m, lower, 0.0, t, [[x]])
        (tg,) = lax_oleinik_minus(m, upper, 0.0, t, [[x]])
        assert tf.value <= tg.value + 1e-12          # rounding, as in test_monotonicity

    @_PROPERTY
    @given(f=_periodic_grids(), c=st.floats(-10.0, 10.0), t=st.floats(0.25, 1.0),
           x=st.floats(0.0, 2 * np.pi))
    def test_constant_shift(self, f, c, t, x):
        grid = GridFunction(self.box, f, periodic=True)
        m = catalog.sine_kink()
        (tf,) = lax_oleinik_minus(m, grid, 0.0, t, [[x]])
        (shifted,) = lax_oleinik_minus(m, grid.with_values(f + c), 0.0, t, [[x]])
        assert abs(shifted.value - (tf.value + c)) <= 1e-12 * (1 + abs(c))

    @_PROPERTY
    @given(f=_periodic_grids(), c=st.floats(-1.0, 1.0), bump=st.floats(0.0, 1.0),
           t=st.floats(0.25, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    # f has one node 1e-19 off zero and f + 1 is constant: at the query on
    # the kink at 0, the path resting on the kink (not a minimum) was taken
    # for the one and a cheaper path beside it found for the other
    @example(f=np.array([0.0, -1.08260402e-19] + [0.0] * 6), c=1.0, bump=0.0, t=0.5,
             seed=0)
    def test_discounted_contraction(self, sine_problem, f, c, bump, t, seed):
        # the data differ by a shift plus noise, so the bound is nearly tight
        noise = np.random.default_rng(seed).uniform(-bump, bump, f.size)
        grid = GridFunction(self.box, f, periodic=True)
        other = grid.with_values(f + c + noise)
        nodes = grid.nodes()
        tf = np.array([r.value for r in
                       discounted_lax_oleinik(sine_problem, grid, t, nodes)])
        tg = np.array([r.value for r in
                       discounted_lax_oleinik(sine_problem, other, t, nodes)])
        bound = math.exp(-sine_problem.lam * t) * np.max(np.abs(other.values - f))
        assert np.max(np.abs(tf - tg)) <= bound + 1e-12 * (1 + bound)


def eager_scan(plan):
    """The straight-segment action of every candidate of ``plan``, in one batch."""
    return laxoleinik.straight_line_actions(
        plan.model, plan.t1, plan._horizon(plan.owners), plan.cand, plan.xs[plan.owners])


def assert_floor_prunes_safely(plan, f):
    """Search f, then coarse-score every candidate within 1 of its scan
    leader: the floor lies below each coarse action, and every row whose
    coarse cost is within its query's window of the best was fine-scored."""
    plan.search(f)
    P, owners = len(plan.xs), plan.owners
    f_vals = f(plan.cand).reshape(-1)
    cost = f_vals + eager_scan(plan)
    keep = np.flatnonzero(cost <= laxoleinik._owner_min(owners, cost, P)[owners] + 1.0)
    coarse = plan._coarse(keep)
    assert np.all(plan.floor[keep] <= coarse + 1e-12 * (1.0 + np.abs(coarse)))
    total = f_vals[keep] + coarse
    best = laxoleinik._owner_min(owners[keep], total, P)
    near = total <= (best + plan.window)[owners[keep]]
    assert np.all(plan.fine_slot[keep[near]] >= 0)


class TestCoarseFloor:
    """The growth floor of the coarse action, which prunes the coarse
    re-score, never cuts a row that the fine re-score needs."""

    box = [(0.0, 2 * np.pi)]

    @_PROPERTY
    @given(f=_periodic_grids(), t=st.sampled_from([0.2, 0.33, 0.5, 1.0]),
           xs=st.lists(st.floats(0.0, 2 * np.pi), min_size=1, max_size=4))
    def test_discounted(self, sine_problem, f, t, xs):
        v = GridFunction(self.box, f, periodic=True)
        op = laxoleinik.DiscountedOperator(sine_problem, t, np.array(xs)[:, None])
        plan = laxoleinik.ConvolutionPlan(op.lift, v, 0.0, t, op.xs, op.radius(v))
        assert_floor_prunes_safely(plan, v)

    @_PROPERTY
    @given(f=_periodic_grids(), key=st.sampled_from(["sine_kink", "pendulum"]),
           t=st.floats(0.05, 0.6),
           xs=st.lists(st.floats(0.0, 2 * np.pi), min_size=1, max_size=4))
    def test_evolutionary(self, f, key, t, xs):
        m = catalog.lagrangian_by_key(key)
        grid = GridFunction(self.box, f, periodic=True)
        radius = localization_radius(m.growth, grid.lipschitz_estimate) * t
        plan = laxoleinik.ConvolutionPlan(m, grid, 0.0, t, np.array(xs)[:, None], radius)
        assert_floor_prunes_safely(plan, grid)

    @_PROPERTY
    @given(f=st.integers(6, 12).flatmap(
               lambda m: arrays(float, (m, m), elements=st.floats(-1.0, 1.0))),
           t=st.floats(0.1, 1.0),
           xs=st.lists(st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 4.0)),
                       min_size=1, max_size=4))
    def test_free_particle_2d(self, f, t, xs):
        m = catalog.free_particle(2)
        grid = GridFunction([(0.0, 4.0), (0.0, 4.0)], f, periodic=True)
        radius = localization_radius(m.growth, grid.lipschitz_estimate) * t
        plan = laxoleinik.ConvolutionPlan(m, grid, 0.0, t, np.array(xs), radius)
        assert_floor_prunes_safely(plan, grid)


def assert_scan_prunes_safely(plan, f):
    """Search f: the floor lies below every straight-segment action, every
    candidate within 1 of its eager scan leader was scanned, as it was
    scored eagerly, and the lazy leader is the eager one."""
    plan.search(f)
    P, owners = len(plan.xs), plan.owners
    f_vals, scan = f(plan.cand).reshape(-1), eager_scan(plan)
    assert np.all(plan.floor <= scan + 1e-12 * (1.0 + np.abs(scan)))
    eager = f_vals + scan
    leader = laxoleinik._owner_min(owners, eager, P)
    near = np.flatnonzero(eager <= leader[owners] + 1.0)
    assert not np.any(np.isnan(plan.scan[near]))
    scanned = np.flatnonzero(~np.isnan(plan.scan))
    np.testing.assert_array_equal(plan.scan[scanned], scan[scanned])
    lazy = laxoleinik._owner_min(owners[scanned], f_vals[scanned] + plan.scan[scanned], P)
    np.testing.assert_array_equal(lazy, leader)


@st.composite
def _floor_cases(draw):
    """A plan and its data from each of TestCoarseFloor's families: discounted
    1D, evolutionary sine_kink or pendulum, free particle 2D."""
    family = draw(st.sampled_from(["discounted", "sine_kink", "pendulum", "free_particle"]))
    if family == "free_particle":
        f = draw(st.integers(6, 12).flatmap(
            lambda m: arrays(float, (m, m), elements=st.floats(-1.0, 1.0))))
        xs = np.array(draw(st.lists(st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 4.0)),
                                    min_size=1, max_size=4)))
        grid = GridFunction([(0.0, 4.0), (0.0, 4.0)], f, periodic=True)
        m, t = catalog.free_particle(2), draw(st.floats(0.1, 1.0))
    else:
        grid = GridFunction([(0.0, 2 * np.pi)], draw(_periodic_grids()), periodic=True)
        xs = np.array(draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=1, max_size=4)))
        xs = xs[:, None]
    if family == "discounted":
        t = draw(st.sampled_from([0.2, 0.33, 0.5, 1.0]))
        op = laxoleinik.DiscountedOperator(catalog.discounted_problem("sine_kink", lam=1.0),
                                           t, xs)
        return laxoleinik.ConvolutionPlan(op.lift, grid, 0.0, t, xs, op.radius(grid)), grid
    if family != "free_particle":
        m, t = catalog.lagrangian_by_key(family), draw(st.floats(0.05, 0.6))
    radius = localization_radius(m.growth, grid.lipschitz_estimate) * t
    return laxoleinik.ConvolutionPlan(m, grid, 0.0, t, xs, radius), grid


def _all_scanned(plan):
    plan._scan(np.arange(len(plan.cand)))
    return plan


def assert_same_results(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.value == b.value
        np.testing.assert_array_equal(np.array(a.arg.argpoints), np.array(b.arg.argpoints))
        np.testing.assert_array_equal(a.momenta, b.momenta)


class TestLazyScan:
    """The scan scores only the rows its floor lets through, and the search
    reads f at the candidates on nodes from the node values."""

    @settings(max_examples=60, deadline=None)       # four families share them
    @given(case=_floor_cases())
    def test_scan_keeps_every_row_near_the_leader(self, case):
        assert_scan_prunes_safely(*case)

    def test_rows_at_exactly_1_above_the_leader(self):
        # the free particle's floor is its straight-segment action, and it
        # rounds above it on some rows: data that put such a row's scan cost
        # at exactly 1 above the leader's need the rounding allowance
        m = catalog.free_particle(1)
        grid = GridFunction([(0.0, 2 * np.pi)], np.full(64, 5.0), periodic=True)
        for t in (0.3, 1.0 / 3.0, 0.7):
            plan = laxoleinik.ConvolutionPlan(m, grid, 0.0, t, [[0.0]], 1.0)
            scan = eager_scan(plan)
            f_k = 1.0 - scan
            tight = np.flatnonzero((plan.node > 0) & (f_k + scan == 1.0)
                                   & (f_k + plan.floor > 1.0))
            if tight.size:
                break
        assert tight.size
        values = grid.values.copy()
        values[0], values[plan.node[tight[0]]] = 0.0, f_k[tight[0]]
        assert_scan_prunes_safely(plan, grid.with_values(values))

    def test_search_as_with_every_row_scanned(self):
        c = (0.01, -0.1)
        u0 = GridFunction.from_callable(
            lambda p: -np.abs(p[..., 0] - c[0]) - np.abs(p[..., 1] - c[1]),
            [(-6.0, 6.0), (-6.0, 6.0)], 49)
        m = catalog.free_particle(2)
        xs = GridFunction([(-1.5, 1.5)] * 2, np.zeros((5, 5))).nodes()
        radius = localization_radius(m.growth, u0.lipschitz_estimate)
        lazy, eager = (laxoleinik.ConvolutionPlan(m, u0, 0.0, 1.0, xs, radius)
                       for _ in range(2))
        assert_same_results(lazy.search(u0), _all_scanned(eager).search(u0))
        assert np.any(np.isnan(lazy.scan))

    def test_discounted_reuse_as_with_every_row_scanned(self, sine_problem):
        # two data on one plan: the second search scans the rows the first
        # left out and it now needs
        v1 = GridFunction.from_callable(lambda p: -np.abs(np.sin(p[..., 0])),
                                        [(-2 * np.pi, 2 * np.pi)], 64, periodic=True)
        v2 = v1.with_values(np.roll(v1.values, 5) + 0.1 * np.cos(v1.nodes()[:, 0]))
        lazy, eager = (laxoleinik.DiscountedOperator(sine_problem, 0.5, v1.nodes(),
                                                     lip_bound=2.0) for _ in range(2))
        eager.plan = _all_scanned(laxoleinik.ConvolutionPlan(
            eager.lift, v1, 0.0, 0.5, eager.xs, eager.radius(v1)))
        eager._radius = eager.radius(v1)
        unscanned = []
        for v in (v1, v2):
            assert_same_results(lazy(v), eager(v))
            unscanned.append(np.count_nonzero(np.isnan(lazy.plan.scan)))
        assert not np.any(np.isnan(eager.plan.scan))          # the pre-scanned plan, kept
        assert unscanned[0] > unscanned[1] > 0

    @pytest.mark.parametrize("periodic", [True, False])
    def test_node_read_is_the_interpolant(self, periodic):
        # -0.0 and 0.0 among the data, which the interpolant returns as 0.0;
        # the balls reach the edges of the non-periodic axes and wrap the
        # periodic one (node indices outside [0, M))
        values = np.arange(30.0).reshape(6, 5) - 12.0
        values[[0, 1, 4], [0, 2, 3]] = -0.0
        values[5, 1] = 0.0
        if periodic:
            box, xs = [(0.0, 3.0), (-1.0, 1.0)], [[0.0, 0.0], [2.5, 0.5], [1.3, -0.7]]
        else:
            box, xs = [(0.0, 2.5), (-1.0, 1.0)], [[1.0, 0.0], [2.0, 0.5], [1.3, -0.7]]
        grid = GridFunction(box, values, periodic=(periodic, False))
        plan = laxoleinik.ConvolutionPlan(catalog.free_particle(2), grid, 0.0, 1.0, xs,
                                          [1.0, 0.5, 0.3])
        got, want = plan._data(grid), grid(plan.cand)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        on = plan.node >= 0
        assert np.count_nonzero(on) >= len(plan.cand) - len(xs)
        raw = grid.values.reshape(-1)[plan.node[on]]
        assert np.any((raw == 0.0) & np.signbit(raw))
        assert np.any(on & (np.abs(plan.cand[:, 1]) == 1.0))
        if periodic:
            x = plan.cand[on, 0]
            assert np.any(x < 0.0) and np.any(x >= 3.0)
        else:
            assert np.any(on & (plan.cand[:, 0] == 2.5))


def _grid_files():
    """A grid of one or two axes, its periodic flags and an optional lambda."""
    def grid(resolution):
        n = len(resolution)
        return st.tuples(
            arrays(float, resolution, elements=st.floats(-1e6, 1e6)),
            st.lists(st.tuples(st.floats(-100.0, 100.0), st.floats(0.1, 50.0)),
                     min_size=n, max_size=n),
            st.lists(st.booleans(), min_size=n, max_size=n),
            st.none() | st.floats(1e-3, 40.0))
    return st.lists(st.integers(2, 9), min_size=1, max_size=2).map(tuple).flatmap(grid)


class TestGridFileProperties:
    @_PROPERTY
    @given(case=_grid_files())
    def test_write_read_round_trip(self, case):
        values, corners, periodic, lam = case
        box = [(lo, lo + width) for lo, width in corners]
        grid = GridFunction(box, values, periodic=tuple(periodic))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.grid")
            grid.write(path, lam=lam, comments=["round trip"])
            back, lam_back = GridFunction.read(path)
        np.testing.assert_array_equal(back.values, grid.values)
        np.testing.assert_array_equal(back.box, grid.box)
        assert back.periodic == grid.periodic
        assert lam_back == lam


class TestOperatorInvariants:
    def test_queries_on_kinks(self, sine_problem):
        # 0 and pi are kinks of the potential, where the action A(., x) has
        # a concave kink at z = x: the slope the polish reads there is one
        # side's, or neither's
        box = [(0.0, 2 * np.pi)]
        zero = GridFunction(box, np.zeros(8), periodic=True)
        tilted = zero.with_values(0.01 * np.sin(zero.nodes()[:, 0]))
        xs = [[0.0], [np.pi]]
        tz = np.array([r.value for r in
                       discounted_lax_oleinik(sine_problem, zero, 0.5, xs)])
        tt = np.array([r.value for r in
                       discounted_lax_oleinik(sine_problem, tilted, 0.5, xs)])
        # the potential and the data are pi-periodic
        assert tz[0] == pytest.approx(tz[1], abs=1e-12)
        assert np.max(np.abs(tz - tt)) <= math.exp(-0.5) * 0.01

    def test_minimizer_beside_a_kink_query(self):
        # the minimizer lies in the cell left of the query on the kink at 0,
        # where the slope read at the query's own node is the right side's
        box = [(0.0, 2 * np.pi)]
        f = np.array([0.0625, 1.0] + [0.0] * 9)
        lower = GridFunction(box, f, periodic=True)
        upper = lower.with_values(f + np.r_[0.0625, np.zeros(10)])
        m = catalog.sine_kink()
        (tf,) = lax_oleinik_minus(m, lower, 0.0, 0.5625, [[0.0]])
        (tg,) = lax_oleinik_minus(m, upper, 0.0, 0.5625, [[0.0]])
        assert tf.value <= tg.value + 1e-12
        assert all(z[0] < 0 for z in tf.arg.argpoints)

    def test_localization_records(self, free_particle_1d, neg_abs_grid):
        (res,) = lax_oleinik_minus(free_particle_1d, neg_abs_grid, 0.0, 1.0, [[0.0]])
        arg = res.arg
        assert arg.argpoints
        for z in arg.argpoints:
            dist = float(np.linalg.norm(z - arg.center))
            assert dist <= arg.radius + arg.spacing + 1e-9

    def test_monotonicity(self, sine_problem):
        box = [(-2 * np.pi, 2 * np.pi)]
        f = GridFunction.from_callable(lambda p: -np.abs(np.sin(p[..., 0])),
                                       box, 128, periodic=True)
        g = f.with_values(f.values + 0.25)
        nodes = f.nodes()
        tf = np.array([r.value for r in
                       discounted_lax_oleinik(sine_problem, f, 1.0, nodes)])
        tg = np.array([r.value for r in
                       discounted_lax_oleinik(sine_problem, g, 1.0, nodes)])
        assert np.all(tg >= tf - 1e-12)

    def test_contraction(self, sine_problem):
        box = [(-2 * np.pi, 2 * np.pi)]
        base = GridFunction.from_callable(lambda p: 0.0 * p[..., 0], box, 96,
                                          periodic=True)
        nodes = base.nodes()
        rng = np.random.default_rng(7)
        lam = sine_problem.lam
        for _ in range(5):
            f = base.with_values(np.sin(nodes[:, 0] * rng.integers(1, 4))
                                 * rng.uniform(0.2, 1.0))
            g = base.with_values(np.cos(nodes[:, 0] * rng.integers(1, 4))
                                 * rng.uniform(0.2, 1.0))
            tf = np.array([r.value for r in
                           discounted_lax_oleinik(sine_problem, f, 1.0, nodes)])
            tg = np.array([r.value for r in
                           discounted_lax_oleinik(sine_problem, g, 1.0, nodes)])
            lhs = float(np.max(np.abs(tf - tg)))
            rhs = math.exp(-lam) * float(np.max(np.abs(f.values - g.values)))
            eps = f.interpolation_error_bound() + g.interpolation_error_bound()
            assert lhs <= rhs + 2 * eps

    def test_semigroup_composition(self, sine_problem, sine_exact_grid):
        v = sine_exact_grid
        nodes = v.nodes()
        one = np.array([r.value for r in
                        discounted_lax_oleinik(sine_problem, v, 1.0, nodes)])
        half = np.array([r.value for r in
                         discounted_lax_oleinik(sine_problem, v, 0.5, nodes)])
        v_half = v.with_values(half.reshape(v.resolution))
        two_halves = np.array([r.value for r in
                               discounted_lax_oleinik(sine_problem, v_half, 0.5, nodes)])
        eps = 2 * v.interpolation_error_bound() + 1e-4
        assert float(np.max(np.abs(two_halves - one))) <= 2 * eps

    def test_initial_momentum_matches_data_gradient(self, free_particle_1d):
        # smooth data: the minimizer's starting momentum is the data gradient
        grid = GridFunction.from_callable(lambda p: 0.3 * np.sin(p[..., 0]),
                                          [(-9.0, 9.0)], 2049)
        res = localized_convolution(free_particle_1d, grid, 0.0, 1.0,
                                    np.array([[0.7]]), radius=2.0)[0]
        # the free particle's momentum is constant along the path, so the
        # end momentum is the starting one
        z = res.arg.argpoints[0][0]
        assert abs(res.momenta[0, 0] - 0.3 * math.cos(z)) <= 1e-3

    def test_dominated_inequality_for_fixed_point(self, sine_problem,
                                                  sine_exact_grid):
        # e^{lam b} v(gamma(b)) <= e^{lam a} v(gamma(a)) + discounted action
        lam = sine_problem.lam
        L = sine_problem.lagrangian.L
        v = sine_exact_grid
        rng = np.random.default_rng(1)
        for _ in range(10):
            a,b = 0.0, rng.uniform(0.5, 2.0)
            x0 = rng.uniform(-3, 3)
            amp = rng.uniform(-1, 1)
            ts = np.linspace(a, b, 801)
            gamma = x0 + amp * np.sin(ts)
            dgamma = amp * np.cos(ts)
            integrand = np.exp(lam * ts) * L(ts, gamma[:, None], dgamma[:, None])
            lhs = math.exp(lam * b) * float(v([gamma[-1]]))
            rhs = (math.exp(lam * a) * float(v([gamma[0]]))
                   + np.trapezoid(integrand, ts))
            assert lhs <= rhs + 1e-3
