"""Solver loop: bounds, termination reasons, and oracle equivalence."""
import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from adaptpart import engine, refiners
from adaptpart import lp as lplib
from adaptpart.engine import (CONDITIONS, GAP, ITERATION_LIMIT, STABILIZED, SolverConfig,
                              check_conditions, compute_upper_bound,
                              relative_gap, run)
from adaptpart.errors import SolverFailure, ValidationError
from adaptpart.instances import (cvar_document, document_to_model,
                                 document_to_space, lands_document)
from adaptpart.model import RecourseModel, evaluate_subproblem
from adaptpart.refiners import (DualClusteringRefiner, HyperplaneRefiner, RangingRefiner,
                                RefineContext, refiner_by_name, rhs_dual_breakpoints)
from adaptpart.spaces import DiscreteSpace, UniformRhsSpace

from _generators import random_discrete_space, random_recourse_model
from _oracles import empirical_cvar, extensive_form


def lands_pair(**kwargs):
    doc = lands_document(**kwargs)
    model = document_to_model(doc)
    return model, document_to_space(doc, model)


def bound_at(model, space, x):
    """compute_upper_bound of the backend's refiner at x on the trivial partition."""
    ctx = RefineContext(model, space, space.trivial_partition(), x)
    return compute_upper_bound(refiner_by_name("auto", space), ctx)


def no_tail_loss_document(**kwargs):
    """cvar_document with its cvar block deleted and the recourse
    2 z >= h - T x priced at 20, which the tail-loss bound does not cover."""
    doc = cvar_document(**kwargs)
    del doc["uncertainty"]["parameters"]["cvar"]
    doc["recourse"].update(W=[[2.0]], q=[20.0])
    return doc


class NoBoundClustering(DualClusteringRefiner):
    """Dual clustering without an upper bound, so a run stops only on the
    conditions, a stable partition or the iteration limit."""

    def upper_bound(self, ctx):
        return None


class NeverSplit(DualClusteringRefiner):
    """Dual clustering that keeps every partition as it is."""

    def refine(self, ctx):
        return ctx.partition


def count_per_iteration(monkeypatch, owner, name):
    """Calls of owner.name in each iteration of a run, an iteration starting
    at its master build."""
    counts = []
    build, fn = engine.build_aggregated_master, getattr(owner, name)

    def building(*args, **kwargs):
        counts.append(0)
        return build(*args, **kwargs)

    def counting(*args, **kwargs):
        counts[-1] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(engine, "build_aggregated_master", building)
    monkeypatch.setattr(owner, name, counting)
    return counts


class TestGapArithmetic:
    def test_frozen_values(self):
        assert relative_gap(378.667, 382.711) == pytest.approx(0.010567, abs=5e-6)
        assert relative_gap(0.5070, 0.5082) == pytest.approx(0.0023613, abs=1e-6)

    def test_edge_cases(self):
        assert relative_gap(5.0, 5.0) == 0.0
        assert relative_gap(-1.0, 0.0) == np.inf
        assert relative_gap(0.5, 0.0) == -np.inf
        assert relative_gap(-2.0, -1.0) == pytest.approx(1.0)


class TestSolverConfig:
    @pytest.mark.parametrize("epsilon", [0.0, -1e-4, float("inf"), float("nan")])
    def test_gap_threshold_must_be_positive_and_finite(self, epsilon):
        with pytest.raises(ValidationError, match="gap threshold"):
            SolverConfig(epsilon=epsilon)

    @pytest.mark.parametrize("limit", [2.5, 0])
    def test_iteration_limit_must_be_a_positive_integer(self, limit):
        with pytest.raises(ValidationError, match="iteration limit"):
            SolverConfig(max_iterations=limit)

    def test_only_the_gap_and_the_iteration_limit_are_settings(self):
        assert [f.name for f in dataclasses.fields(SolverConfig)] == ["epsilon",
                                                                      "max_iterations"]
        with pytest.raises(TypeError):
            SolverConfig(upper_bound="off")


class TestConditionCheck:
    def test_varying_dual_fails(self):
        weights = np.array([0.5, 0.5])
        hs = np.array([[0.0], [1.0]])
        techs = np.zeros((2, 1, 1))
        duals = np.array([[0.0], [1.0]])
        # E[h]E[lam] = 0.25 but E[h lam] = 0.5: aggregation is not exact here
        assert not check_conditions(weights, hs, techs, duals,
                                    np.zeros(1), tol=1e-6)

    def test_constant_dual_passes(self):
        weights = np.array([0.3, 0.7])
        hs = np.array([[0.0, 2.0], [1.0, -1.0]])
        techs = np.random.default_rng(0).normal(size=(2, 2, 3))
        duals = np.tile(np.array([0.4, 1.1]), (2, 1))
        assert check_conditions(weights, hs, techs, duals,
                                np.array([0.2, -0.5, 1.0]), tol=1e-9)

    def test_deterministic_data_passes_any_dual(self):
        weights = np.array([0.5, 0.5])
        hs = np.tile(np.array([1.0, 2.0]), (2, 1))
        techs = np.tile(np.eye(2), (2, 1, 1)).reshape(2, 2, 2)
        duals = np.array([[0.0, 1.0], [5.0, -3.0]])
        # identical (h, T) in every scenario: products average exactly
        assert check_conditions(weights, hs, techs, duals,
                                np.array([0.7, 0.1]), tol=1e-9)


class TestUpperBound:
    def test_discrete_is_weighted_scenario_average(self):
        rng = np.random.default_rng(31)
        model, T = random_recourse_model(rng)
        space = random_discrete_space(rng, model, T, n_scenarios=2)
        x = np.minimum(model.x_upper, 0.4)
        ub = bound_at(model, space, x)
        assert ub is not None
        manual = float(model.c @ x) + sum(
            w * evaluate_subproblem(model, x, space.realizations[i]).objective
            for i, w in enumerate(space.weights))
        assert ub == pytest.approx(manual, rel=1e-12)

    def test_zero_weight_scenarios_add_nothing(self):
        # dual clustering puts the two zero-weight scenarios into a group of
        # their own, which the split drops as zero-mass
        rng = np.random.default_rng(40)
        model, T = random_recourse_model(rng)
        hs = rng.uniform(-1.5, 1.5, (6, model.m))
        weights = (0.25, 0.25, 0.25, 0.25, 0.0, 0.0)
        space = DiscreteSpace(model, weights, hs, [T] * 6)
        result = run(model, space, DualClusteringRefiner(), SolverConfig(epsilon=1e-12))
        positive = DiscreteSpace(model, weights[:4], hs[:4], [T] * 4)
        alone = run(model, positive, DualClusteringRefiner(), SolverConfig(epsilon=1e-12))
        assert result.termination == alone.termination == GAP
        assert result.best_upper == alone.best_upper
        assert result.objective == pytest.approx(alone.objective, rel=1e-12)

    def test_auto_returns_none_without_exact_rule(self):
        # normal returns on a recourse other than the tail loss have no exact rule
        doc = no_tail_loss_document(pool_size=200)
        model = document_to_model(doc)
        space = document_to_space(doc, model)
        x = np.zeros(model.n_first)
        assert bound_at(model, space, x) is None

    def test_tail_risk_is_the_pool_tail_average(self):
        # at the pool's value-at-risk threshold the bound is the pool's
        # sample tail average of the portfolio loss
        doc = cvar_document(seed=3, pool_size=5000)
        delta = doc["uncertainty"]["parameters"]["cvar"]["delta"]
        model = document_to_model(doc)
        space = document_to_space(doc, model)
        w = np.array([0.3, 0.7])
        losses = -(space.pool @ w)
        tau = float(np.quantile(losses, 1.0 - delta))
        ub = bound_at(model, space, np.array([*w, tau]))
        assert ub is not None
        assert ub == pytest.approx(empirical_cvar(losses, delta), rel=1e-12)
        # an empty portfolio has no random loss, so only the threshold shortfall is paid
        ub = bound_at(model, space, np.array([0.0, 0.0, -0.5]))
        assert ub is not None
        assert ub == pytest.approx(-0.5 + 0.5 / delta, rel=1e-12)

    def test_energy_instance_first_iteration_value(self):
        model, space = lands_pair()
        x_bar = np.array([5.0 / 6.0, 3.0, 25.0 / 6.0, 4.0])
        ub = bound_at(model, space, x_bar)
        assert ub is not None
        assert ub == pytest.approx(382.7111, abs=0.01)

    def test_affine_value_function_integrates_exactly(self):
        model, space = lands_pair()
        x = np.array([12.0, 0.0, 0.0, 0.0])
        ub = bound_at(model, space, x)
        assert ub is not None
        mean_q = evaluate_subproblem(model, x, space.realization_at(0.5 * (space.lo + space.hi))).objective
        assert ub == pytest.approx(float(model.c @ x) + mean_q, abs=1e-8)


class TestTermination:
    def test_single_scenario_converges_immediately(self):
        rng = np.random.default_rng(41)
        model, T = random_recourse_model(rng)
        space = random_discrete_space(rng, model, T, n_scenarios=1)
        result = run(model, space, DualClusteringRefiner(),
                     SolverConfig(epsilon=1e-9))
        assert result.termination == GAP
        assert result.best_upper is not None
        assert len(result.records) == 1
        assert result.records[0].gap == pytest.approx(0.0, abs=1e-12)
        sol = lplib.solve(extensive_form(
            model, space.weights, space.hs, space.Ts))
        assert sol.status == lplib.OPTIMAL
        assert result.objective == pytest.approx(sol.objective, rel=1e-9)

    def test_iteration_limit_reported(self):
        model, space = lands_pair()
        result = run(model, space, RangingRefiner(),
                     SolverConfig(epsilon=1e-12, max_iterations=2))
        assert result.termination == ITERATION_LIMIT
        assert len(result.records) == 2

    def test_conditions_reason_on_exact_aggregation(self):
        rng = np.random.default_rng(42)
        model, T = random_recourse_model(rng)
        space = random_discrete_space(rng, model, T, n_scenarios=6)
        result = run(model, space, NoBoundClustering(), SolverConfig(epsilon=1e-15))
        assert result.termination == CONDITIONS
        assert result.best_upper is None

    def test_conditions_refuse_an_inexact_stable_partition(self):
        # six scenarios with different duals in one cell: the partition stops
        # changing, but its aggregation is not exact
        rng = np.random.default_rng(42)
        model, T = random_recourse_model(rng)
        space = random_discrete_space(rng, model, T, n_scenarios=6)
        result = run(model, space, NeverSplit(), SolverConfig(epsilon=1e-15))
        assert result.termination == STABILIZED
        assert len(result.records) == 1
        assert result.records[0].gap == pytest.approx(0.234, abs=5e-4)

    def test_an_equal_copy_of_the_partition_is_stable(self):
        # a refine pass that splits nothing may return a new tuple of the
        # same cells; the run still sees that the partition stopped changing
        class Copying(HyperplaneRefiner):
            def refine(self, ctx):
                return tuple(list(super().refine(ctx)))

        doc = cvar_document(pool_size=2000)
        del doc["uncertainty"]["parameters"]["cvar"]
        doc["recourse"]["W"] = [[2.0]]
        model = document_to_model(doc)
        space = document_to_space(doc, model)
        config = SolverConfig(max_iterations=60)
        for refiner in (HyperplaneRefiner(), Copying()):
            result = run(model, space, refiner, config)
            assert result.termination == STABILIZED
            assert len(result.records) == 13

    def test_unbounded_master_is_an_error(self):
        # a negative price on the one recourse variable makes every master unbounded
        model = RecourseModel(c=np.array([1.0]), A=np.array([[1.0]]), b=np.array([1.0]),
                              senses=("<=",), W=np.array([[1.0]]), q=np.array([-1.0]),
                              recourse_senses=(">=",))
        space = DiscreteSpace(model, [0.5, 0.5], [[0.5], [1.5]], [[[1.0]], [[1.0]]])
        with pytest.raises(SolverFailure, match="^aggregated master unbounded at iteration 1$"):
            run(model, space, DualClusteringRefiner())

    def test_oversized_sampled_cell_fails_before_member_solves(self, monkeypatch):
        # without the tail-loss recourse there is no upper bound, so the run
        # ends in a condition check on cells of more pool members than the
        # check can sample; it refuses them without solving any member
        doc = no_tail_loss_document(seed=0, pool_size=2000)
        model = document_to_model(doc)
        space = document_to_space(doc, model)
        checks = []
        check, evaluate = engine._conditions_hold, refiners.evaluate_subproblem

        def checking(ctx):
            checks.append(0)
            return check(ctx)

        def counting(*args, **kwargs):
            if checks:
                checks[-1] += 1
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(engine, "_conditions_hold", checking)
        monkeypatch.setattr(refiners, "evaluate_subproblem", counting)
        result = run(model, space, refiner_by_name("auto", space), SolverConfig())
        assert result.termination == STABILIZED
        assert max(c.sample_count for c in result.partition) > refiners.CONDITION_SAMPLE_CAP
        assert checks == [0]

    def test_negative_gap_is_an_error(self):
        class UnderBound(HyperplaneRefiner):
            def upper_bound(self, ctx):
                return super().upper_bound(ctx) - 1.0

        # the run's upper bound is the rule of the refiner it is given
        doc = cvar_document(seed=0, pool_size=2000)
        model = document_to_model(doc)
        space = document_to_space(doc, model)
        with pytest.raises(SolverFailure, match=r"below lower bound .* at iteration \d+ "):
            run(model, space, UnderBound(), SolverConfig(epsilon=1e-4))


def golden_minimum(f, lo=0.0, hi=1.0, iters=90):
    """Minimum value of a convex function on [lo, hi] by golden-section search."""
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(d)
    return min(fc, fd, f(lo), f(hi))


class TestPoolCertificates:
    """The Gaussian backend bounds the sample-pool problem from both sides,
    so a gap stop certifies the pool optimum."""

    @pytest.mark.parametrize("seed", range(8))
    def test_gap_stop_brackets_the_pool_optimum(self, seed):
        eps = 1e-4
        doc = cvar_document(seed=seed)
        model = document_to_model(doc)
        space = document_to_space(doc, model)
        result = run(model, space, refiner_by_name("auto", space), SolverConfig(epsilon=eps))
        assert result.termination == GAP
        assert 0.0 <= result.records[-1].gap < eps
        delta = doc["uncertainty"]["parameters"]["cvar"]["delta"]
        r1, r2 = space.pool[:, 0], space.pool[:, 1]
        optimum = golden_minimum(lambda t: empirical_cvar(-(r2 + t * (r1 - r2)), delta))
        assert result.objective <= optimum + 1e-9 * max(1.0, abs(optimum))
        assert optimum - result.objective <= eps * result.best_upper


class TestOracleEquivalence:
    def test_random_discrete_instances_reach_extensive_optimum(self):
        rng = np.random.default_rng(2024)
        hits = 0
        for trial in range(25):
            model, T = random_recourse_model(rng)
            space = random_discrete_space(rng, model, T)
            sol = lplib.solve(extensive_form(
                model, space.weights, space.hs, space.Ts))
            if sol.status != lplib.OPTIMAL:
                continue
            opt = sol.objective
            hits += 1
            result = run(model, space, NoBoundClustering(),
                         SolverConfig(epsilon=1e-15, max_iterations=60))
            assert result.termination == CONDITIONS, f"trial {trial}"
            assert result.objective == pytest.approx(opt, rel=1e-6), \
                f"trial {trial}"
            assert len(result.records) <= len(space.weights) + 1
        assert hits >= 15

    def test_lower_bounds_monotone_and_sandwiched(self):
        rng = np.random.default_rng(77)
        for _ in range(8):
            model, T = random_recourse_model(rng)
            space = random_discrete_space(rng, model, T, n_scenarios=10)
            result = run(model, space, DualClusteringRefiner(),
                         SolverConfig(epsilon=1e-12, max_iterations=30))
            lbs = [r.lower_bound for r in result.records]
            assert all(b >= a - 1e-7 for a, b in zip(lbs, lbs[1:]))
            for rec in result.records:
                assert rec.upper_bound is not None
                assert rec.lower_bound <= rec.upper_bound + 1e-7

    def test_partition_history_tracks_records(self):
        model, space = lands_pair()
        result = run(model, space, RangingRefiner(),
                     SolverConfig(epsilon=1e-6, max_iterations=6))
        assert len(result.partitions) == len(result.records)
        for rec, part in zip(result.records, result.partitions):
            assert rec.cell_count == len(part)
        counts = [r.cell_count for r in result.records]
        assert counts == sorted(counts)

    def test_auto_refiner_matches_explicit(self):
        model, space = lands_pair()
        cfg = SolverConfig(epsilon=1e-6, max_iterations=5)
        a = run(model, space, refiner_by_name("auto", space), cfg)
        b = run(model, space, RangingRefiner(), cfg)
        assert [r.lower_bound for r in a.records] == \
               [r.lower_bound for r in b.records]


class TestBasisReuse:
    """Every subproblem of a run shares one cache of optimal recourse bases."""

    @staticmethod
    def discrete_pair(n_scenarios=200):
        rng = np.random.default_rng(6)
        model, T = random_recourse_model(rng)
        return model, random_discrete_space(rng, model, T, n_scenarios=n_scenarios)

    def test_fewer_lp_solves_than_scenarios(self):
        model, space = self.discrete_pair()
        result = run(model, space, DualClusteringRefiner(), SolverConfig(epsilon=1e-9))
        assert result.termination == GAP
        assert len(result.records) > 1
        assert result.stats["lp_solves"] < space.weights.size
        assert result.stats["basis_hits"] > space.weights.size

    def test_repeat_runs_on_one_model_agree(self):
        for model, space in (self.discrete_pair(), lands_pair()):
            cfg = SolverConfig(epsilon=1e-9, max_iterations=8)
            a = run(model, space, refiner_by_name("auto", space), cfg)
            b = run(model, space, refiner_by_name("auto", space), cfg)
            assert [(r.lower_bound, r.upper_bound, r.gap, r.cell_count, r.incumbent.tobytes())
                    for r in a.records] == \
                   [(r.lower_bound, r.upper_bound, r.gap, r.cell_count, r.incumbent.tobytes())
                    for r in b.records]
            assert a.stats["lp_solves"] == b.stats["lp_solves"]
            assert a.stats["basis_hits"] == b.stats["basis_hits"] > 0

    def test_upper_bound_reused_at_unchanged_incumbent(self, monkeypatch):
        model, space = self.discrete_pair()
        seen = []
        original = engine.compute_upper_bound

        def counting(refiner, ctx, *args):
            seen.append(ctx.x_bar.tobytes())
            return original(refiner, ctx, *args)

        monkeypatch.setattr(engine, "compute_upper_bound", counting)
        result = run(model, space, DualClusteringRefiner(), SolverConfig(epsilon=1e-9))
        incumbents = [r.incumbent.tobytes() for r in result.records]
        moves = [b for a, b in zip(incumbents, incumbents[1:]) if a != b]
        assert len(moves) < len(incumbents) - 1
        assert seen == incumbents[:1] + moves
        for prev, rec in zip(result.records, result.records[1:]):
            if rec.incumbent.tobytes() == prev.incumbent.tobytes():
                assert rec.upper_bound == prev.upper_bound

    def test_bound_and_refiner_share_one_member_pass(self, monkeypatch):
        model, space = self.discrete_pair()
        counts = count_per_iteration(monkeypatch, refiners, "evaluate_subproblem")
        result = run(model, space, DualClusteringRefiner(), SolverConfig(epsilon=1e-9))
        assert len(counts) == len(result.records) > 1
        assert 0 < max(counts) <= space.weights.size

    def test_bound_and_refiner_share_one_sweep(self, monkeypatch):
        model, space = lands_pair()
        counts = count_per_iteration(monkeypatch, refiners, "rhs_dual_breakpoints")
        result = run(model, space, RangingRefiner(), SolverConfig(epsilon=1e-9, max_iterations=6))
        assert len(counts) == len(result.records) == 6
        assert max(counts) == 1

    def test_gap_stop_without_refiner_solves_takes_only_masters(self):
        # the hyperplane refiner solves no subproblem and a gap stop skips
        # the condition check, so only the masters reach the simplex
        doc = cvar_document(seed=0, pool_size=2000)
        model = document_to_model(doc)
        space = document_to_space(doc, model)
        result = run(model, space, refiner_by_name("auto", space), SolverConfig(epsilon=0.01))
        assert result.termination == GAP
        assert len(result.records) == 7
        assert result.stats["lp_solves"] == len(result.records)
        assert result.stats["basis_hits"] == 0

    def test_shared_cache_sweeps_find_the_fresh_breakpoints(self):
        model, space = lands_pair()
        result = run(model, space, RangingRefiner(), SolverConfig(epsilon=1e-6))
        incumbents = {r.incumbent.tobytes(): r.incumbent for r in result.records}
        assert len(incumbents) >= 4
        shared = lplib.BasisCache(model.q, model.W, model.recourse_senses)
        for x_bar in incumbents.values():
            fresh = rhs_dual_breakpoints(model, space, x_bar)
            npt.assert_allclose(rhs_dual_breakpoints(model, space, x_bar, shared), fresh,
                                rtol=0.0, atol=1e-12)
        assert shared.hits > 0
