"""Solver loop: bounds, termination reasons, and oracle equivalence."""
import numpy as np
import numpy.testing as npt
import pytest

from adaptpart import engine
from adaptpart import lp as lplib
from adaptpart.engine import (CONDITIONS, GAP, ITERATION_LIMIT, SolverConfig,
                              check_conditions, compute_upper_bound,
                              relative_gap, run)
from adaptpart.instances import (cvar_document, document_to_model,
                                 document_to_space, lands_document)
from adaptpart.model import evaluate_subproblem
from adaptpart.refiners import DualClusteringRefiner, RangingRefiner, auto_refiner
from adaptpart.spaces import DiscreteSpace, UniformRhsSpace

from _generators import random_discrete_space, random_recourse_model
from _oracles import extensive_form


def lands_pair(**kwargs):
    doc = lands_document(**kwargs)
    model = document_to_model(doc)
    return model, document_to_space(doc, model)


class TestGapArithmetic:
    def test_frozen_values(self):
        assert relative_gap(378.667, 382.711) == pytest.approx(0.010567, abs=5e-6)
        assert relative_gap(0.5070, 0.5082) == pytest.approx(0.0023613, abs=1e-6)

    def test_edge_cases(self):
        assert relative_gap(5.0, 5.0) == 0.0
        assert relative_gap(-1.0, 0.0) == np.inf
        assert relative_gap(-2.0, -1.0) == pytest.approx(1.0)


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
        model = random_recourse_model(rng)
        space = random_discrete_space(rng, model, n_scenarios=2)
        x = np.minimum(model.x_upper, 0.4)
        ub = compute_upper_bound(model, space, x, "on")
        manual = float(model.c @ x) + sum(
            w * evaluate_subproblem(model, x, space.realizations[i]).value
            for i, w in enumerate(space.weights))
        assert ub == pytest.approx(manual, rel=1e-12)

    def test_auto_returns_none_without_exact_rule(self):
        # normal returns without a tail-risk marker have no exact rule
        doc = cvar_document(pool_size=200)
        del doc["uncertainty"]["parameters"]["cvar"]
        model = document_to_model(doc)
        space = document_to_space(doc, model)
        x = np.zeros(model.n_first)
        assert compute_upper_bound(model, space, x, "auto") is None
        with pytest.raises(Exception):
            compute_upper_bound(model, space, x, "on")

    def test_energy_instance_first_iteration_value(self):
        model, space = lands_pair()
        x_bar = np.array([5.0 / 6.0, 3.0, 25.0 / 6.0, 4.0])
        ub = compute_upper_bound(model, space, x_bar, "on")
        assert ub == pytest.approx(382.7111, abs=0.01)

    def test_affine_value_function_integrates_exactly(self):
        model, space = lands_pair()
        x = np.array([12.0, 0.0, 0.0, 0.0])
        ub = compute_upper_bound(model, space, x, "on")
        mean_q = evaluate_subproblem(model, x, space.realization_at(0.5 * (space.lo + space.hi))).value
        assert ub == pytest.approx(float(model.c @ x) + mean_q, abs=1e-8)


class TestTermination:
    def test_single_scenario_converges_immediately(self):
        rng = np.random.default_rng(41)
        model = random_recourse_model(rng)
        space = random_discrete_space(rng, model, n_scenarios=1)
        result = run(model, space, DualClusteringRefiner(),
                     SolverConfig(epsilon=1e-9, upper_bound="on"))
        assert result.termination == GAP
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
        model = random_recourse_model(rng)
        space = random_discrete_space(rng, model, n_scenarios=6)
        result = run(model, space, DualClusteringRefiner(),
                     SolverConfig(epsilon=1e-15, upper_bound="off"))
        assert result.termination == CONDITIONS
        assert result.best_upper is None


class TestOracleEquivalence:
    def test_random_discrete_instances_reach_extensive_optimum(self):
        rng = np.random.default_rng(2024)
        hits = 0
        for trial in range(25):
            model = random_recourse_model(rng)
            space = random_discrete_space(rng, model)
            sol = lplib.solve(extensive_form(
                model, space.weights, space.hs, space.Ts))
            if sol.status != lplib.OPTIMAL:
                continue
            opt = sol.objective
            hits += 1
            result = run(model, space, DualClusteringRefiner(),
                         SolverConfig(epsilon=1e-15, upper_bound="off",
                                      max_iterations=60))
            assert result.termination == CONDITIONS, f"trial {trial}"
            assert result.objective == pytest.approx(opt, rel=1e-6), \
                f"trial {trial}"
            assert len(result.records) <= len(space.weights) + 1
        assert hits >= 15

    def test_lower_bounds_monotone_and_sandwiched(self):
        rng = np.random.default_rng(77)
        for _ in range(8):
            model = random_recourse_model(rng)
            space = random_discrete_space(rng, model, n_scenarios=10)
            result = run(model, space, DualClusteringRefiner(),
                         SolverConfig(epsilon=1e-12, max_iterations=30,
                                      upper_bound="on"))
            lbs = [r.lower_bound for r in result.records]
            assert all(b >= a - 1e-7 for a, b in zip(lbs, lbs[1:]))
            for rec in result.records:
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
        a = run(model, space, auto_refiner(space), cfg)
        b = run(model, space, RangingRefiner(), cfg)
        assert [r.lower_bound for r in a.records] == \
               [r.lower_bound for r in b.records]


class TestBasisReuse:
    """Every subproblem of a run shares one cache of optimal recourse bases."""

    @staticmethod
    def discrete_pair(n_scenarios=200):
        rng = np.random.default_rng(6)
        model = random_recourse_model(rng)
        return model, random_discrete_space(rng, model, n_scenarios=n_scenarios)

    def test_fewer_lp_solves_than_scenarios(self):
        model, space = self.discrete_pair()
        result = run(model, space, DualClusteringRefiner(), SolverConfig(epsilon=1e-9))
        assert result.termination == GAP
        assert len(result.records) > 1
        assert result.stats["lp_solves"] < space.n_scenarios
        assert result.stats["basis_hits"] > space.n_scenarios

    def test_repeat_runs_on_one_model_agree(self):
        for model, space in (self.discrete_pair(), lands_pair()):
            cfg = SolverConfig(epsilon=1e-9, max_iterations=8)
            a = run(model, space, auto_refiner(space), cfg)
            b = run(model, space, auto_refiner(space), cfg)
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

        def counting(model, space, x_bar, *args):
            seen.append(x_bar.tobytes())
            return original(model, space, x_bar, *args)

        monkeypatch.setattr(engine, "compute_upper_bound", counting)
        result = run(model, space, DualClusteringRefiner(), SolverConfig(epsilon=1e-9))
        incumbents = [r.incumbent.tobytes() for r in result.records]
        moves = [b for a, b in zip(incumbents, incumbents[1:]) if a != b]
        assert len(moves) < len(incumbents) - 1
        assert seen == incumbents[:1] + moves
        for prev, rec in zip(result.records, result.records[1:]):
            if rec.incumbent.tobytes() == prev.incumbent.tobytes():
                assert rec.upper_bound == prev.upper_bound
