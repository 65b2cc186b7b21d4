"""Partition refiners: dual clustering, ranging sweeps, hyperplane cuts."""
import dataclasses
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from adaptpart import lp as lplib
from adaptpart import refiners
from adaptpart.engine import SolverConfig, run
from adaptpart.errors import ValidationError
from adaptpart.instances import (cvar_document, document_to_model, document_to_space,
                                 lands_document)
from adaptpart.lp import StandardLp
from adaptpart.model import Realization, RecourseModel
from adaptpart.refiners import (DualClusteringRefiner, HyperplaneRefiner,
                                RangingRefiner, RefineContext,
                                dual_switch_hyperplanes, group_scenarios_by_dual,
                                refiner_by_name, rhs_dual_breakpoints)
from adaptpart.spaces import DiscreteSpace, GaussianTechnologySpace, UniformRhsSpace

from _generators import (portfolio_map, random_discrete_space, random_first_stage_point,
                         random_recourse_model)
from _oracles import grid_dual_breakpoints


def shortage_model() -> RecourseModel:
    """min y s.t. y >= d - x, y >= 0: dual is 1 when demand binds, else 0."""
    return RecourseModel(
        c=np.array([0.1]), A=np.array([[1.0]]), b=np.array([10.0]), senses=("<=",),
        W=np.array([[1.0]]), q=np.array([1.0]), recourse_senses=(">=",))


def shortage_space(lo: float, hi: float) -> UniformRhsSpace:
    """Demand d = xi uniform on [lo, hi] for shortage_model (h = 0, T = 1)."""
    return UniformRhsSpace(shortage_model(), [0.0], [[1.0]], 0, lo, hi)


def shortage_scenarios(demands) -> DiscreteSpace:
    """Equally likely demands d for shortage_model (h = d, T = 1)."""
    n = len(demands)
    return DiscreteSpace(shortage_model(), np.full(n, 1.0 / n), [[d] for d in demands],
                         np.ones((n, 1, 1)))


def two_piece_model() -> RecourseModel:
    """Recourse whose dual switches once as the random rhs of row 1 grows.

    min y0 + 3 y1  s.t.  y0 <= 2,  y0 + y1 >= xi.
    For xi <= 2 the cheap variable covers everything (marginal value 1);
    beyond 2 the expensive one takes over (marginal value 3).
    """
    return RecourseModel(
        c=np.array([0.0]), A=np.array([[1.0]]), b=np.array([1.0]), senses=("<=",),
        W=np.array([[1.0, 0.0], [1.0, 1.0]]), q=np.array([1.0, 3.0]),
        recourse_senses=("<=", ">="))


def two_piece_space() -> UniformRhsSpace:
    """xi uniform on [0, 4] at row 1 of two_piece_model (h = (2, xi), T = 0)."""
    return UniformRhsSpace(two_piece_model(), [2.0, 0.0], np.zeros((2, 1)), 1, 0.0, 4.0)


def last_row_walk(W, q, senses, h_base, lo=0.0, hi=4.0):
    """(model, space): recourse min q.y : W y (senses) h with the last
    component of h uniform on [lo, hi], T = 0 and a trivial first stage."""
    model = RecourseModel(c=np.array([0.0]), A=np.array([[1.0]]), b=np.array([1.0]),
                          senses=("<=",), W=np.array(W, dtype=float), q=np.array(q, dtype=float),
                          recourse_senses=tuple(senses))
    m = len(senses)
    return model, UniformRhsSpace(model, h_base, np.zeros((m, 1)), m - 1, lo, hi)


def recourse_value_highs(model, space, x_bar, xi) -> float:
    """Q(x_bar, xi) from SciPy's HiGHS, apart from the package's LP kernel."""
    from scipy.optimize import linprog

    real = space.realization_at(xi)
    rhs = real.h - real.T @ x_bar
    senses = np.array(model.recourse_senses)
    le, ge, eq = senses == "<=", senses == ">=", senses == "="
    res = linprog(model.q, A_ub=np.vstack([model.W[le], -model.W[ge]]),
                  b_ub=np.concatenate([rhs[le], -rhs[ge]]),
                  A_eq=model.W[eq] if eq.any() else None, b_eq=rhs[eq] if eq.any() else None,
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return float(res.fun)


def two_row_pair():
    """The tail-risk portfolio with a second recourse row 1 z2 >= 0.25 - T[1] x
    that has no random entry, so its cut has a zero normal."""
    doc = cvar_document(pool_size=2000)
    params = doc["uncertainty"]["parameters"]
    del params["cvar"]
    doc["recourse"] = {"W": [[1.0, 0.0], [0.0, 1.0]], "q": [10.0, 1.0],
                       "senses": [">=", ">="]}
    params["h_base"] = [0.0, 0.25]
    params["T_base"] = [[0.5, 0.3, 1.0], [0.2, -0.4, 0.0]]
    model = document_to_model(doc)
    return model, document_to_space(doc, model)


def context_for(model, space, x_bar):
    return RefineContext(model=model, space=space,
                         partition=space.trivial_partition(),
                         x_bar=np.asarray(x_bar, dtype=float))


def first_fit_reference(indices, duals, tol):
    """Plain first-fit over members in increasing index, one fit per member."""
    order = np.argsort(np.asarray(indices))
    groups, reps = [], []
    for k in order:
        lam = np.asarray(duals[k], dtype=float)
        for g, rep in zip(groups, reps):
            if np.all(np.abs(lam - rep) <= tol + tol * np.abs(rep)):
                g.append(int(indices[k]))
                break
        else:
            groups.append([int(indices[k])])
            reps.append(lam)
    return groups


def repetitive_duals(rng, n, tol):
    """Duals drawn from a few representatives: exact repeats, copies moved
    within tol, copies moved just beyond it, and signed zeros, inf and NaN."""
    reps = [np.array([0.0, 1.0, -2.5]), np.array([0.0, 1.0 + 0.9 * tol, -2.5]),
            np.array([0.0, 1.0 + 1.8 * tol, -2.5]), np.array([0.0, 0.0, 0.0]),
            np.array([3.0, -0.0, 0.0])]
    duals = []
    for _ in range(n):
        lam = reps[rng.integers(len(reps))].copy()
        kind = rng.integers(6)
        j = rng.integers(lam.size)
        if kind == 1:
            lam[j] += rng.uniform(-0.9, 0.9) * tol * (1.0 + abs(lam[j]))
        elif kind == 2:
            lam[j] += rng.choice([-3.0, 3.0]) * tol * (1.0 + abs(lam[j]))
        elif kind == 3:
            lam = np.where(lam == 0.0, -lam, lam)
        elif kind == 4 and rng.random() < 0.2:
            lam[j] = rng.choice([np.inf, -np.inf, np.nan])
        duals.append(lam)
    return duals


class TestDualGrouping:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_plain_first_fit(self, seed):
        rng = np.random.default_rng(seed)
        tol = refiners.DUAL_TOL
        n = int(rng.integers(1, 400))
        duals = repetitive_duals(rng, n, tol)
        indices = rng.permutation(3 * n)[:n]
        with np.errstate(invalid="ignore"):  # inf - inf in the comparisons
            assert group_scenarios_by_dual(indices, duals) == \
                first_fit_reference(indices, duals, tol)
            assert group_scenarios_by_dual(indices, dict(enumerate(duals)), tol=10 * tol) == \
                first_fit_reference(indices, duals, 10 * tol)

    def test_grouping_tolerance(self):
        duals = {0: np.array([0.0]), 1: np.array([0.0 + 5e-7]), 2: np.array([1.0])}
        groups = group_scenarios_by_dual((0, 1, 2), duals, tol=1e-6)
        assert sorted(map(sorted, groups)) == [[0, 1], [2]]

    def test_clustering_on_shortage_duals(self):
        model = shortage_model()
        demands = [1.0, 1.5, 3.0]
        space = shortage_scenarios(demands)
        ctx = context_for(model, space, [2.0])  # demands 1, 1.5 slack; 3 binds
        refiner = DualClusteringRefiner()
        part = refiner.refine(ctx)
        sizes = sorted(len(c.geometry.indices) for c in part)
        assert sizes == [1, 2]
        binding = part if len(part) == 2 else []
        singleton = next(c for c in binding if len(c.geometry.indices) == 1)
        assert list(singleton.geometry.indices) == [2]

    def test_refine_is_idempotent_at_fixed_point(self):
        rng = np.random.default_rng(11)
        model, T = random_recourse_model(rng)
        space = random_discrete_space(rng, model, T, n_scenarios=8)
        x_bar = np.minimum(model.x_upper, 0.3)
        refiner = DualClusteringRefiner()
        ctx = context_for(model, space, x_bar)
        part1 = refiner.refine(ctx)
        ctx2 = RefineContext(model=model, space=space, partition=part1,
                             x_bar=ctx.x_bar)
        part2 = refiner.refine(ctx2)
        assert part2 is part1

    def test_children_cover_parent(self):
        rng = np.random.default_rng(12)
        model, T = random_recourse_model(rng)
        space = random_discrete_space(rng, model, T, n_scenarios=12)
        ctx = context_for(model, space, np.minimum(model.x_upper, 0.5))
        part = DualClusteringRefiner().refine(ctx)
        members = sorted(i for c in part for i in c.geometry.indices)
        alive = [i for i in range(12) if space.weights[i] > 0.0]
        assert members == alive


class TestRanging:
    def test_breakpoint_matches_grid_oracle(self):
        model = two_piece_model()
        space = two_piece_space()
        x_bar = np.array([0.0])
        bps = rhs_dual_breakpoints(model, space, x_bar)
        assert len(bps) == 1
        assert bps[0] == pytest.approx(2.0, abs=1e-6)

        def make_lp(xi):
            real = Realization(np.array([2.0, xi]), np.zeros((2, 1)))
            rhs = real.h - real.T @ x_bar
            return StandardLp(model.q, model.W, rhs, model.recourse_senses)

        grid = np.linspace(0.0, 4.0, 401)
        _, oracle_bps = grid_dual_breakpoints(make_lp, 1, grid)
        assert len(oracle_bps) == 1
        assert abs(bps[0] - oracle_bps[0]) <= (grid[1] - grid[0])

    def test_breakpoint_shifts_with_incumbent(self):
        model = shortage_model()
        space = shortage_space(0.0, 5.0)
        for xv in (1.0, 2.5, 4.0):
            bps = rhs_dual_breakpoints(model, space, np.array([xv]))
            assert len(bps) == 1
            # dual switches where demand crosses capacity: xi - x = 0
            assert bps[0] == pytest.approx(xv, abs=1e-6)

    def test_refiner_splits_cell_at_breakpoint(self):
        model = two_piece_model()
        space = two_piece_space()
        ctx = context_for(model, space, [0.0])
        part = RangingRefiner().refine(ctx)
        los = sorted(c.geometry.lo for c in part)
        his = sorted(c.geometry.hi for c in part)
        npt.assert_allclose(los, [0.0, 2.0], atol=1e-6)
        npt.assert_allclose(his, [2.0, 4.0], atol=1e-6)

    def test_historical_boundaries_accumulate(self):
        model = shortage_model()
        space = shortage_space(0.0, 5.0)
        refiner = RangingRefiner()
        part = space.trivial_partition()
        edges = set()
        for xv in (2.0, 3.0, 1.0):
            ctx = RefineContext(model=model, space=space, partition=part,
                                x_bar=np.array([xv]))
            part = refiner.refine(ctx)
            edges.add(xv)
            los = sorted(c.geometry.lo for c in part)
            expected = sorted({0.0} | edges)
            npt.assert_allclose(los, expected, atol=1e-6)

    def test_one_sweep_serves_every_cell(self, monkeypatch):
        model = shortage_model()
        space = shortage_space(0.0, 5.0)
        part = space.split_cell(space.trivial_partition()[0], (1.0, 3.0))
        assert len(part) == 3
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return rhs_dual_breakpoints(*args, **kwargs)

        monkeypatch.setattr(refiners, "rhs_dual_breakpoints", counting)
        ctx = RefineContext(model=model, space=space, partition=part,
                            x_bar=np.array([2.0]))
        refined = RangingRefiner().refine(ctx)
        assert len(calls) == 1
        npt.assert_allclose(sorted(c.geometry.lo for c in refined),
                            [0.0, 1.0, 2.0, 3.0], atol=1e-6)

    def test_no_breakpoint_means_identity(self):
        model = shortage_model()
        space = shortage_space(0.0, 5.0)
        part = space.trivial_partition()
        ctx = RefineContext(model=model, space=space, partition=part,
                            x_bar=np.array([9.0]))
        assert RangingRefiner().refine(ctx) is part

    def test_cached_bases_answer_the_probes(self):
        # the walk solves only at lo, where a cached basis answers a repeat
        doc = lands_document()
        model = document_to_model(doc)
        space = document_to_space(doc, model)
        x_bar = np.array([1.875, 4.0417, 3.6458, 2.4375])
        bases = lplib.BasisCache(model.q, model.W, model.recourse_senses)
        first = rhs_dual_breakpoints(model, space, x_bar, bases)
        assert len(first) == 4
        solves = bases.solves
        assert rhs_dual_breakpoints(model, space, x_bar, bases) == first
        assert bases.solves == solves

    def test_tight_energy_run_reuses_bases(self):
        doc = lands_document()
        model = document_to_model(doc)
        space = document_to_space(doc, model)
        result = run(model, space, refiner_by_name("auto", space), SolverConfig(epsilon=1e-9))
        assert result.stats["lp_solves"] <= 16
        assert len(result.records) == 13
        assert len(result.partition) == 45

    def test_narrow_segment_is_kept(self):
        # y1 <= 1e-8 prices a segment 1e-8 wide between the cheap y0 and y2
        model, space = last_row_walk([[1, 0, 0], [0, 1, 0], [1, 1, 1]], [1, 2, 3],
                                     ("<=", "<=", ">="), [2.0, 1e-8, 0.0])
        bps = rhs_dual_breakpoints(model, space, np.zeros(1))
        assert bps == pytest.approx([2.0, 2.00000001], rel=1e-12, abs=0.0)

    def test_two_rows_blocking_at_one_point(self):
        # two copies of y0 <= 2 reach zero slack together at xi = 2
        model, space = last_row_walk([[1, 0], [1, 0], [1, 1]], [1, 3],
                                     ("<=", "<=", ">="), [2.0, 2.0, 0.0])
        bases = lplib.BasisCache(model.q, model.W, model.recourse_senses)
        bps = rhs_dual_breakpoints(model, space, np.zeros(1), bases)
        assert bps == pytest.approx([2.0], rel=1e-12)
        assert bases.solves == 1

    def test_duplicated_equality_row(self):
        # y0 + s = 2 twice: the simplex drops one copy, and the walk pivots
        # on the rows its basis kept
        model, space = last_row_walk([[1, 0, 1], [1, 0, 1], [1, 1, 0]], [1, 3, 0],
                                     ("=", "=", ">="), [2.0, 2.0, 0.0], 1.0, 3.0)
        assert rhs_dual_breakpoints(model, space, np.zeros(1)) == pytest.approx([2.0], rel=1e-12)
        result = run(model, space, refiner_by_name("auto", space), SolverConfig(epsilon=1e-9))
        assert result.termination == "gap"
        # Q is xi up to 2 and 3 xi - 4 beyond, so E[Q] on [1, 3] is 2.5
        assert result.objective == pytest.approx(2.5, rel=1e-12)
        # the basis that dropped a copy is cached over the rows it kept
        assert result.stats["lp_solves"] == 3
        assert result.stats["basis_hits"] == 2

    @pytest.mark.parametrize("seed", range(40))
    def test_walk_is_exact_against_highs(self, seed):
        rng = np.random.default_rng(300 + seed)
        model, T = random_recourse_model(rng, m=3, extra_cols=2)
        x_bar = random_first_stage_point(rng, model)
        row = int(rng.integers(model.m))
        lo = float(rng.uniform(-3.0, 0.0))
        space = UniformRhsSpace(model, rng.uniform(-1.5, 1.5, model.m), T, row, lo,
                                lo + float(rng.uniform(2.0, 6.0)))
        bps = rhs_dual_breakpoints(model, space, x_bar)

        def value(xi):
            return recourse_value_highs(model, space, x_bar, xi)

        edges = [space.lo, *bps, space.hi]
        for a, b in zip(edges, edges[1:]):
            assert a < b
            # linear between consecutive points: the midpoint is the mean of the ends
            ends = 0.5 * (value(a) + value(b))
            assert abs(value(0.5 * (a + b)) - ends) <= 1e-7 * (1.0 + abs(ends))
        for k, p in enumerate(bps):
            # a kink at each point: the slope grows across it (Q is convex in xi)
            step = 0.25 * min(p - edges[k], edges[k + 2] - p)
            left = (value(p) - value(p - step)) / step
            right = (value(p + step) - value(p)) / step
            assert right - left > 1e-6 * (1.0 + abs(left))


class TestHyperplane:
    def cvar_like_model(self):
        return RecourseModel(
            c=np.array([0.0, 0.0, 1.0]),
            A=np.array([[1.0, 1.0, 0.0]]), b=np.array([1.0]), senses=("=",),
            W=np.array([[1.0]]), q=np.array([10.0]), recourse_senses=(">=",),
            x_lower=np.array([0.0, 0.0, -np.inf]))

    def cvar_like_space(self, model, mu, sigma, seed, pool_size):
        return GaussianTechnologySpace(model, np.zeros(1), *portfolio_map(),
                                       mu, sigma, seed=seed, pool_size=pool_size)

    def test_cut_geometry_from_incumbent(self):
        model = self.cvar_like_model()
        space = self.cvar_like_space(model, np.zeros(2), np.eye(2), seed=1, pool_size=2)
        x_bar = np.array([0.0, 1.0, 0.3])
        cuts = dual_switch_hyperplanes(space, x_bar)
        assert len(cuts) == 1
        a, d0 = cuts[0]
        npt.assert_allclose(a, [0.0, 1.0], atol=1e-12)
        assert d0 == pytest.approx(-0.3, abs=1e-12)

    def test_refiner_splits_pool_along_cut(self):
        model = self.cvar_like_model()
        space = self.cvar_like_space(
            model, np.array([0.05, 0.07]),
            np.array([[0.14, 0.053], [0.053, 0.23]]), seed=3, pool_size=8000)
        ctx = context_for(model, space, [0.4, 0.6, 0.1])
        part = HyperplaneRefiner().refine(ctx)
        assert len(part) == 2
        for cell in part:
            hs = cell.geometry.halfspaces
            assert len(hs) == 1
            normal, offset = hs[0]
            members = cell.geometry.members
            assert np.all(space.pool[members] @ np.asarray(normal)
                          <= offset + 1e-12)

    def test_bound_and_split_share_one_projection(self, monkeypatch):
        model = self.cvar_like_model()
        space = self.cvar_like_space(
            model, np.array([0.05, 0.07]),
            np.array([[0.14, 0.053], [0.053, 0.23]]), seed=5, pool_size=8000)
        x_bar = np.array([0.4, 0.6, 0.1])
        ctx = context_for(model, space, x_bar)
        calls = []
        cut_planes = refiners.dual_switch_hyperplanes

        def counting(*args):
            calls.append(args)
            return cut_planes(*args)

        monkeypatch.setattr(refiners, "dual_switch_hyperplanes", counting)
        refiner = HyperplaneRefiner()
        bound = refiner.upper_bound(ctx)
        part = refiner.refine(ctx)
        assert len(calls) == 1 and len(part) == 2
        (a, d0), = cut_planes(space, x_bar)
        expected = model.c @ x_bar + model.q[0] * np.maximum(d0 - space.pool @ a, 0.0).mean()
        assert bound == float(expected)

    def test_closed_form_needs_the_tail_loss_recourse(self):
        # the bound rule is read from the recourse: one `>=` row, W = [[1]], q0 >= 0
        model = self.cvar_like_model()
        space = self.cvar_like_space(model, np.zeros(2), np.eye(2), seed=1, pool_size=10)
        x_bar = np.array([0.4, 0.6, 0.1])
        assert HyperplaneRefiner().upper_bound(context_for(model, space, x_bar)) is not None
        for change in ({"recourse_senses": ("<=",)}, {"recourse_senses": ("=",)},
                       {"W": np.array([[2.0]])}, {"q": np.array([-1.0])},
                       {"W": np.array([[1.0, 1.0]]), "q": np.array([10.0, 10.0])}):
            other = dataclasses.replace(model, **change)
            assert HyperplaneRefiner().upper_bound(context_for(other, space, x_bar)) is None

    def test_cut_rhs_matches_the_realization(self):
        # random entries replace nonzero base entries of T
        doc = cvar_document(pool_size=2000)
        params = doc["uncertainty"]["parameters"]
        params["T_base"] = [[0.5, 0.3, 1.0]]
        model = document_to_model(doc)
        space = document_to_space(doc, model)
        x_bar = np.array([0.4, 0.6, -0.05])
        (a, d0), = dual_switch_hyperplanes(space, x_bar)
        for xi in space.pool[:50]:
            real = space.realization_at(xi)
            assert float(real.h[0] - real.T[0] @ x_bar) == pytest.approx(d0 - a @ xi, abs=1e-12)
        # a second recourse row with no random entry: its cut has a zero
        # normal and splits nothing, and the random row's cut is unchanged
        model, space = two_row_pair()
        (a0, d00), (a1, d01) = dual_switch_hyperplanes(space, x_bar)
        npt.assert_array_equal(a0, a)
        assert d00 == d0
        npt.assert_array_equal(a1, np.zeros(2))
        assert d01 == pytest.approx(0.25 - (0.2 * 0.4 - 0.4 * 0.6), abs=1e-15)
        for xi in space.pool[:50]:
            real = space.realization_at(xi)
            rhs = real.h - real.T @ x_bar
            assert float(rhs[0]) == pytest.approx(d00 - a0 @ xi, abs=1e-12)
            assert float(rhs[1]) == pytest.approx(d01, abs=1e-12)
        cell, = space.trivial_partition()
        assert space.split_cell(cell, a1, d01, space.pool @ a1 <= d01) == (cell,)
        part = HyperplaneRefiner().refine(context_for(model, space, x_bar))
        assert len(part) == 2
        for kid in part:
            (normal, _), = kid.geometry.halfspaces
            npt.assert_array_equal(np.abs(normal), np.abs(a0))

    def test_zero_normal_cut_is_skipped(self, monkeypatch):
        model, space = two_row_pair()
        x_bar = np.array([0.4, 0.6, -0.05])
        part = HyperplaneRefiner().refine(context_for(model, space, x_bar))
        ctx = RefineContext(model, space, part, np.array([0.7, 0.3, -0.05]))
        # the partition of the same pass with every cut applied in turn
        expected = part
        for normal, offset in dual_switch_hyperplanes(space, ctx.x_bar):
            side = space.pool @ normal <= offset
            expected = tuple(c for cell in expected
                             for c in space.split_cell(cell, normal, offset, side))
        calls = []
        split_cell = GaussianTechnologySpace.split_cell

        def counting(self, cell, *how):
            calls.append(cell)
            return split_cell(self, cell, *how)

        monkeypatch.setattr(GaussianTechnologySpace, "split_cell", counting)
        refined = HyperplaneRefiner().refine(ctx)
        assert calls == list(part)
        assert len(refined) == 4
        assert [(c.label, c.geometry.halfspaces, c.geometry.members.tobytes()) for c in refined] \
            == [(c.label, c.geometry.halfspaces, c.geometry.members.tobytes()) for c in expected]

    def test_two_entries_on_one_matrix_entry_are_rejected(self):
        # the realization would keep the last entry, the cut would add both
        doc = cvar_document(pool_size=2000)
        params = doc["uncertainty"]["parameters"]
        params["T_base"] = [[0.5, 0.0, 1.0]]
        params["entries"] = [{"row": 0, "col": 0, "component": 0},
                             {"row": 0, "col": 0, "component": 1},
                             {"row": 0, "col": 1, "component": 1}]
        with pytest.raises(ValidationError, match="two technology entries"):
            document_to_model(doc)

    def test_zero_direction_is_identity(self):
        model = self.cvar_like_model()
        space = self.cvar_like_space(
            model, np.zeros(2), np.eye(2), seed=4, pool_size=2000)
        part = space.trivial_partition()
        # incumbent with an empty portfolio produces a zero cut normal
        ctx = RefineContext(model=model, space=space, partition=part,
                            x_bar=np.array([0.0, 0.0, 0.5]))
        assert HyperplaneRefiner().refine(ctx) is part

    def test_cut_missing_every_member_is_identity(self):
        model = self.cvar_like_model()
        space = self.cvar_like_space(
            model, np.zeros(2), np.eye(2), seed=6, pool_size=2000)
        part = space.trivial_partition()
        ctx = RefineContext(model=model, space=space, partition=part,
                            x_bar=np.array([1.0, 0.0, 50.0]))
        assert HyperplaneRefiner().refine(ctx) is part


class TestSelection:
    def test_auto_matches_space_kind(self):
        rng = np.random.default_rng(21)
        model, T = random_recourse_model(rng)
        disc = random_discrete_space(rng, model, T, n_scenarios=4)
        assert isinstance(refiner_by_name("auto", disc), DualClusteringRefiner)
        assert isinstance(refiner_by_name("auto", shortage_space(0, 5)),
                          RangingRefiner)

    def test_named_selection_and_mismatch(self):
        space = shortage_space(0.0, 5.0)
        with pytest.raises(ValidationError):
            refiner_by_name("dual-cluster", space)
        with pytest.raises(ValidationError):
            refiner_by_name("no-such-refiner", space)
        with pytest.raises(ValidationError, match="does not support UniformRhsSpace"):
            DualClusteringRefiner().check(space)

    def test_unknown_backend_has_no_refiner(self):
        with pytest.raises(ValidationError, match="no refiner available for SimpleNamespace"):
            refiner_by_name("auto", SimpleNamespace())


def discrete_pass():
    # at x = 2 the demands above 2 bind: only the middle cell {4, 5} mixes
    model = shortage_model()
    space = shortage_scenarios((1.0, 1.5, 3.0, 4.0, 0.5, 2.5))
    cells = space.split_cell(space.trivial_partition()[0], ((0, 1), (4, 5), (2, 3)))
    return model, space, cells, np.array([2.0]), DualClusteringRefiner()


def interval_pass():
    # the breakpoint at x = 2 lies inside the middle cell [1, 3] only
    model = shortage_model()
    space = shortage_space(0.0, 5.0)
    cells = space.split_cell(space.trivial_partition()[0], (1.0, 3.0))
    return model, space, cells, np.array([2.0]), RangingRefiner()


def region_pass():
    # the cut xi_1 = -0.3 of this incumbent crosses only the middle slab
    model = TestHyperplane().cvar_like_model()
    space = TestHyperplane().cvar_like_space(model, np.array([0.05, 0.07]),
                                             np.array([[0.14, 0.053], [0.053, 0.23]]),
                                             seed=9, pool_size=4000)
    a = np.array([0.0, 1.0])
    low, rest = space.split_cell(space.trivial_partition()[0], a, -1.0,
                                 space.pool @ a <= -1.0)
    cells = (low,) + space.split_cell(rest, a, 1.0, space.pool @ a <= 1.0)
    return model, space, cells, np.array([0.0, 1.0, 0.3]), HyperplaneRefiner()


@pytest.mark.parametrize("make", [discrete_pass, interval_pass, region_pass],
                         ids=["discrete", "interval", "region"])
def test_refinement_pass_keeps_cell_order(make):
    model, space, part, x_bar, refiner = make()
    assert len(part) == 3
    refined = refiner.refine(RefineContext(model, space, part, x_bar))
    first, middle, last = part
    assert refined[0] is first and refined[-1] is last
    children = refined[1:-1]
    assert len(children) == 2
    assert [c.label for c in children] == [middle.label + ".0", middle.label + ".1"]
    assert sum(c.mass for c in children) == pytest.approx(middle.mass, rel=1e-12)
    # the refined partition is a fixed point at the same incumbent
    assert refiner.refine(RefineContext(model, space, refined, x_bar)) is refined
