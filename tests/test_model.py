"""Two-stage structures: subproblems and the aggregated master."""
import numpy as np
import numpy.testing as npt
import pytest

from adaptpart import instances
from adaptpart import lp as lplib
from adaptpart.errors import RecourseViolation, ValidationError
from adaptpart.model import (Realization, RecourseModel, build_aggregated_master,
                             evaluate_subproblem)

from _generators import (random_discrete_space, random_first_stage_point,
                         random_recourse_model)


def tail_loss_model(tail_cost: float = 1.0) -> RecourseModel:
    """Portfolio threshold model with 2 assets: first stage (x1, x2, tau) on
    the simplex, second stage pays tail_cost per unit of loss beyond tau."""
    return RecourseModel(
        c=np.array([0.0, 0.0, 1.0]), A=np.array([[1.0, 1.0, 0.0]]),
        b=np.array([1.0]), senses=("=",),
        W=np.array([[1.0]]), q=np.array([tail_cost]), recourse_senses=(">=",),
        x_lower=np.array([0.0, 0.0, -np.inf]))


def tail_realization(model: RecourseModel, returns) -> Realization:
    T = np.array([[0.0, 0.0, 1.0]])
    T[0, :2] = returns
    return Realization(np.zeros(1), T)


class TestRecourseModel:
    @staticmethod
    def build(A, b, W=((1.0,),)):
        return RecourseModel(c=[1.0, 1.0], A=A, b=b, senses=("<=",) * len(b),
                             W=W, q=[1.0], recourse_senses=(">=",) * len(W))

    def test_first_stage_matrix_must_match_b_and_c(self):
        with pytest.raises(ValidationError, match=r"A has shape \(1, 4\), expected \(2, 2\)"):
            self.build([[1.0, 2.0, 3.0, 4.0]], [1.0, 1.0])
        assert self.build([[1.0, 2.0], [3.0, 4.0]], [1.0, 1.0]).A.shape == (2, 2)
        assert self.build([], []).A.shape == (0, 2)

    def test_ragged_matrices_are_rejected(self):
        with pytest.raises(ValidationError, match="A is not a rectangular matrix"):
            self.build([[1.0, 2.0], [3.0]], [1.0, 1.0])
        with pytest.raises(ValidationError, match="W is not a rectangular matrix"):
            self.build([[1.0, 2.0]], [1.0], W=[[1.0], [1.0, 2.0]])

    @staticmethod
    def bounded(lower=None, upper=None):
        return RecourseModel(c=[1.0], A=[[1.0]], b=[1.0], senses=("<=",), W=[[1.0]],
                             q=[1.0], recourse_senses=(">=",), x_lower=lower, x_upper=upper)

    def test_nan_bound_is_rejected(self):
        with pytest.raises(ValidationError, match="NaN"):
            self.bounded(lower=[np.nan])
        with pytest.raises(ValidationError, match="NaN"):
            self.bounded(upper=[np.nan])
        assert self.bounded(lower=[-np.inf], upper=[np.inf]).x_lower[0] == -np.inf

    def test_bound_vector_must_have_one_entry_per_variable(self):
        with pytest.raises(ValidationError, match=r"bounds must have shape \(1,\)"):
            self.bounded(lower=[0.0, 1.0])
        with pytest.raises(ValidationError, match=r"bounds must have shape \(1,\)"):
            self.bounded(upper=[[2.0]])


class TestSubproblem:
    def test_tail_loss_slack(self):
        # -x.r - tau = -0.5 - 0.2 = -0.7 < 0: no excess loss, dual at zero
        model = tail_loss_model()
        out = evaluate_subproblem(model, np.array([1.0, 0.0, 0.2]),
                                  tail_realization(model, (0.5, 0.2)))
        assert out.objective == pytest.approx(0.0, abs=1e-9)
        assert out.duals[0] == pytest.approx(0.0, abs=1e-9)

    def test_tail_loss_binding(self):
        # -x.r - tau = 0.5 - 0.2 = 0.3 > 0: pays 0.3, dual at the cost cap
        model = tail_loss_model()
        out = evaluate_subproblem(model, np.array([1.0, 0.0, 0.2]),
                                  tail_realization(model, (-0.5, 0.2)))
        assert out.objective == pytest.approx(0.3, abs=1e-9)
        assert out.duals[0] == pytest.approx(1.0, abs=1e-9)

    def test_capacity_demand_by_hand(self):
        # one plant (capacity x=10), two demand rows at 3 each, unit costs 5, 1:
        # ships 3+3, pays 5*3 + 1*3 = 18
        model = RecourseModel(
            c=np.array([1.0]), A=np.array([[1.0]]), b=np.array([20.0]), senses=("<=",),
            W=np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]),
            q=np.array([5.0, 1.0]), recourse_senses=("<=", ">=", ">="))
        out = evaluate_subproblem(model, np.array([10.0]),
                                  Realization([0.0, 3.0, 3.0], [[-1.0], [0.0], [0.0]]))
        assert out.objective == pytest.approx(18.0, abs=1e-9)
        npt.assert_allclose(out.duals, [0.0, 5.0, 1.0], atol=1e-9)

    def test_infeasible_subproblem_raises(self):
        # demand row with no way to serve it: y bounded by capacity 0
        model = RecourseModel(
            c=np.array([1.0]), A=np.array([[1.0]]), b=np.array([5.0]), senses=("<=",),
            W=np.array([[1.0], [1.0]]), q=np.array([1.0]),
            recourse_senses=("<=", ">="))
        with pytest.raises(RecourseViolation):
            evaluate_subproblem(model, np.array([1.0]), Realization([0.0, 4.0], [[-0.0], [0.0]]))


def primal_feasible(model: RecourseModel, y, rhs, tol: float = 1e-7) -> bool:
    lhs = model.W @ y
    for i, sense in enumerate(model.recourse_senses):
        slack = tol * (1.0 + abs(rhs[i]))
        if sense == "<=" and lhs[i] > rhs[i] + slack:
            return False
        if sense == ">=" and lhs[i] < rhs[i] - slack:
            return False
        if sense == "=" and abs(lhs[i] - rhs[i]) > slack:
            return False
    return bool(np.all(y >= -tol))


class TestBasisCache:
    def test_cached_bases_match_the_simplex(self):
        rng = np.random.default_rng(5)
        total_hits = 0
        for _ in range(6):
            model, T = random_recourse_model(rng)
            space = random_discrete_space(rng, model, T, n_scenarios=200)
            x = random_first_stage_point(rng, model)
            bases = lplib.BasisCache(model.q, model.W, model.recourse_senses)
            for real in space.realizations:
                hits = bases.hits
                cached = evaluate_subproblem(model, x, real, bases)
                plain = evaluate_subproblem(model, x, real)
                rhs = real.h - real.T @ x
                assert primal_feasible(model, plain.x, rhs)
                assert cached.objective == pytest.approx(plain.objective, rel=1e-9, abs=1e-12)
                assert primal_feasible(model, cached.x, rhs)
                if bases.hits > hits:
                    npt.assert_allclose(cached.duals, plain.duals, rtol=0.0, atol=1e-9)
                else:
                    npt.assert_array_equal(cached.duals, plain.duals)
            assert bases.hits > 100
            total_hits += bases.hits
        assert total_hits > 900

    def test_degenerate_rhs_goes_to_the_simplex(self):
        model = tail_loss_model()
        bases = lplib.BasisCache(model.q, model.W, model.recourse_senses)
        x = np.array([1.0, 0.0, 0.2])
        # rhs 0.3 > 0: the loss variable is basic at a positive value
        evaluate_subproblem(model, x, tail_realization(model, (-0.5, 0.2)), bases)
        assert bases.hits == 0
        out = evaluate_subproblem(model, x, tail_realization(model, (-0.6, 0.2)), bases)
        assert bases.hits == 1
        assert out.objective == pytest.approx(0.4, abs=1e-12)
        # rhs exactly 0: that basis is degenerate there, so the simplex decides
        before = bases.solves
        real = tail_realization(model, (-0.2, 0.2))
        out = evaluate_subproblem(model, x, real, bases)
        assert (real.h - real.T @ x)[0] == 0.0
        assert bases.hits == 1
        assert bases.solves == before + 1
        plain = evaluate_subproblem(model, x, real)
        assert out.objective == plain.objective
        npt.assert_array_equal(out.duals, plain.duals)

    def test_infeasible_rhs_raises_as_without_cache(self):
        model = RecourseModel(
            c=np.array([1.0]), A=np.array([[1.0]]), b=np.array([5.0]), senses=("<=",),
            W=np.array([[1.0], [1.0]]), q=np.array([1.0]),
            recourse_senses=("<=", ">="))
        real = Realization([0.0, 4.0], [[-1.0], [0.0]])
        bases = lplib.BasisCache(model.q, model.W, model.recourse_senses)
        evaluate_subproblem(model, np.array([5.0]), real, bases)
        with pytest.raises(RecourseViolation) as cached:
            evaluate_subproblem(model, np.array([1.0]), real, bases)
        with pytest.raises(RecourseViolation) as plain:
            evaluate_subproblem(model, np.array([1.0]), real)
        assert str(cached.value) == str(plain.value)


class TestAggregatedMaster:
    def test_single_deterministic_cell_is_mean_value_lp(self):
        model, T = random_recourse_model(np.random.default_rng(7))
        h = np.full(model.m, 0.3)
        lp = build_aggregated_master(model, [(1.0, h, T)])
        sol = lplib.solve(lp)
        assert sol.status == lplib.OPTIMAL
        # same answer as gluing the single scenario onto the first stage directly
        x = np.array(sol.x[:model.n_first])
        out = evaluate_subproblem(model, x, Realization(h, T))
        assert sol.objective == pytest.approx(model.c @ x + out.objective, abs=1e-7)

    def test_lands_one_cell_master_matches_published_mean_value(self):
        doc = instances.lands_document()
        model = instances.document_to_model(doc)
        space = instances.document_to_space(doc, model)
        cell = space.trivial_partition()[0]
        lp = build_aggregated_master(model, [(cell.mass, cell.h_mean, cell.t_mean)])
        sol = lplib.solve(lp)
        assert sol.objective == pytest.approx(378.667, abs=1e-3)

    def test_one_cell_bound_below_two_cell(self):
        # averaging two equiprobable scenarios can only lower the optimum
        rng = np.random.default_rng(21)
        for _ in range(20):
            model, T = random_recourse_model(rng)
            space = random_discrete_space(rng, model, T, n_scenarios=2)
            h_mean = 0.5 * (space.hs[0] + space.hs[1])
            t_mean = 0.5 * (space.Ts[0] + space.Ts[1])
            one = build_aggregated_master(model, [(1.0, h_mean, t_mean)])
            two = build_aggregated_master(
                model, [(0.5, space.hs[0], space.Ts[0]), (0.5, space.hs[1], space.Ts[1])])
            v1 = lplib.solve(one).objective
            v2 = lplib.solve(two).objective
            assert v1 <= v2 + 1e-7 * (1.0 + abs(v2))

    def test_master_requires_positive_masses_summing_to_one(self):
        model, T = random_recourse_model(np.random.default_rng(3))
        h = np.zeros(model.m)
        with pytest.raises(ValidationError):
            build_aggregated_master(model, [(0.7, h, T)])
        with pytest.raises(ValidationError):
            build_aggregated_master(model, [(0.0, h, T),
                                            (1.0, h, T)])
        with pytest.raises(ValidationError, match="cell masses must be positive"):
            build_aggregated_master(model, [(float("nan"), h, T)])


class TestAveragingLemmas:
    def test_averaged_primal_dual_and_mean_bound(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            model, T = random_recourse_model(rng)
            space = random_discrete_space(rng, model, T, n_scenarios=int(rng.integers(2, 7)))
            x = random_first_stage_point(rng, model)
            outs = [evaluate_subproblem(model, x, r) for r in space.realizations]
            w = space.weights
            y_bar = np.tensordot(w, [o.x for o in outs], axes=(0, 0))
            lam_bar = np.tensordot(w, [o.duals for o in outs], axes=(0, 0))
            h_bar = w @ space.hs
            t_bar = np.tensordot(w, space.Ts, axes=(0, 0))
            rhs = h_bar - t_bar @ x
            lhs = model.W @ y_bar
            for i, sense in enumerate(model.recourse_senses):
                if sense == "<=":
                    assert lhs[i] <= rhs[i] + 1e-7
                elif sense == ">=":
                    assert lhs[i] >= rhs[i] - 1e-7
                else:
                    assert lhs[i] == pytest.approx(rhs[i], abs=1e-7)
            assert np.all(model.W.T @ lam_bar <= model.q + 1e-7)
            mean_out = evaluate_subproblem(model, x, Realization(h_bar, t_bar))
            expected = float(w @ [o.objective for o in outs])
            assert mean_out.objective <= expected + 1e-7
