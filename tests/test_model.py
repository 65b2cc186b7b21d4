"""Two-stage structures: subproblems and the aggregated master."""
import numpy as np
import numpy.testing as npt
import pytest

from adaptpart import engine, instances
from adaptpart import lp as lplib
from adaptpart.errors import RecourseViolation, ValidationError
from adaptpart.model import (Realization, RecourseModel, build_aggregated_master,
                             evaluate_subproblem, master_incumbent, master_lex)
from adaptpart.refiners import refiner_by_name

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
        with pytest.raises(ValidationError, match="A is not a rectangular array"):
            self.build([[1.0, 2.0], [3.0]], [1.0, 1.0])
        with pytest.raises(ValidationError, match="W is not a rectangular array"):
            self.build([[1.0, 2.0]], [1.0], W=[[1.0], [1.0, 2.0]])

    @pytest.mark.parametrize("change, message", [
        ({"senses": ("<=", "<=")}, "first-stage rows, senses, and rhs sizes disagree"),
        ({"q": [1.0, 2.0]}, "recourse cost does not match W columns"),
        ({"recourse_senses": (">=", ">=")}, "recourse rows and senses disagree"),
    ], ids=["first-stage-senses", "recourse-cost", "recourse-senses"])
    def test_sizes_must_agree(self, change, message):
        data = dict(c=[1.0], A=[[1.0]], b=[1.0], senses=("<=",), W=[[1.0]], q=[1.0],
                    recourse_senses=(">=",))
        with pytest.raises(ValidationError, match=message):
            RecourseModel(**{**data, **change})

    @pytest.mark.parametrize("change, message", [
        ({"c": np.array([[1.0]])}, r"c must be a vector, got shape \(1, 1\)"),
        ({"c": [1.0, [2.0]]}, "c is not a rectangular array"),
        ({"b": np.array([[10.0]])}, r"b must be a vector, got shape \(1, 1\)"),
        ({"q": np.array([[2.0]])}, r"q must be a vector, got shape \(1, 1\)"),
        ({"x_lower": [0.0, [1.0]]}, "x_lower is not a rectangular array"),
    ], ids=["c-matrix", "c-ragged", "b-matrix", "q-matrix", "bound-ragged"])
    def test_vector_fields_must_be_vectors(self, change, message):
        data = dict(c=[1.0], A=[[1.0]], b=[10.0], senses=("<=",), W=[[1.0]], q=[1.0],
                    recourse_senses=(">=",))
        with pytest.raises(ValidationError, match=message):
            RecourseModel(**{**data, **change})

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

    def test_master_needs_cells_shaped_for_the_model(self):
        model, T = random_recourse_model(np.random.default_rng(4))
        h = np.zeros(model.m)
        with pytest.raises(ValidationError, match="needs at least one cell"):
            build_aggregated_master(model, [])
        for cell in ((1.0, np.zeros(model.m + 1), T), (1.0, h, T[:, :-1])):
            with pytest.raises(ValidationError, match="cell 0 mean shapes do not match"):
                build_aggregated_master(model, [cell])


def solve_master(model, cells, anchor=None):
    """(incumbent, lower bound) of the master the engine solves: anchored
    at anchor = (x_hat, bases) when given, with the lexicographic step."""
    master = build_aggregated_master(model, cells, anchor=anchor)
    sol = lplib.solve(master, lex=master_lex(model, master, anchor is not None))
    assert sol.status == lplib.OPTIMAL
    return master_incumbent(model, sol, None if anchor is None else anchor[0])


def assert_same_master(got, expected):
    (x, lower), (x_ref, lower_ref) = got, expected
    npt.assert_allclose(x, x_ref, rtol=0.0, atol=1e-9)
    assert abs(lower - lower_ref) <= lplib.DUALITY_TOL * (1.0 + abs(lower_ref))


def lands_cells(iterations=6):
    """The energy model, its partition's cells at the last of `iterations`
    iterations on [3, 7], and the incumbent before it."""
    doc = instances.lands_document()
    model = instances.document_to_model(doc)
    space = instances.document_to_space(doc, model)
    result = engine.run(model, space, refiner_by_name("auto", space),
                        engine.SolverConfig(epsilon=1e-9, max_iterations=iterations))
    cells = [(c.mass, c.h_mean, c.t_mean) for c in result.partitions[-1]]
    return model, cells, result.records[-2].incumbent


def discrete_cells(seed):
    """A random model with first-stage rows and bounds, one cell per
    scenario, and a random first-stage point."""
    rng = np.random.default_rng(seed)
    model, T = random_recourse_model(rng, m=3, extra_cols=2)
    space = random_discrete_space(rng, model, T, n_scenarios=12)
    cells = list(zip(space.weights, space.hs, space.Ts))
    return model, cells, random_first_stage_point(rng, model)


def warm_cache(model, cells, x_hat):
    """A BasisCache that has solved every cell's mean at x_hat."""
    bases = lplib.BasisCache(model.q, model.W, model.recourse_senses)
    for _, h, T in cells:
        bases.solve(h - T @ x_hat)
    return bases


class TestAnchoredMaster:
    """The master written around the last incumbent, warm-started from the
    cells' cached recourse bases, has the plain master's incumbent and bound."""

    @pytest.mark.parametrize("source", ["lands", 0, 1, 2])
    def test_cell_order_does_not_move_the_incumbent(self, source):
        model, cells, x_hat = lands_cells() if source == "lands" else discrete_cells(source)
        bases = warm_cache(model, cells, x_hat)
        assert sum(e is not None for e in bases.lookup_many(
            np.array([h - T @ x_hat for _, h, T in cells]))) > len(cells) // 2
        reference = solve_master(model, cells)
        order = np.random.default_rng(3).permutation(len(cells))
        shuffled = [cells[k] for k in order]
        for cell_list in (cells, shuffled, shuffled[::-1]):
            assert_same_master(solve_master(model, cell_list), reference)
            assert_same_master(solve_master(model, cell_list, (x_hat, bases)), reference)

    @pytest.mark.parametrize("source", ["lands", 0, 1, 2])
    def test_answered_cells_start_from_exact_unit_columns(self, source):
        model, cells, x_hat = lands_cells() if source == "lands" else discrete_cells(source)
        bases = warm_cache(model, cells, x_hat)
        answered = sum(e is not None for e in bases.lookup_many(
            np.array([h - T @ x_hat for _, h, T in cells])))
        M = build_aggregated_master(model, cells, anchor=(x_hat, bases)).matrix
        unit = (np.count_nonzero(M, axis=0) == 1) & (M.max(axis=0) == 1.0)
        started = set(M[:, unit].argmax(axis=0).tolist())
        first_cell_row = M.shape[0] - len(cells) * model.m
        assert len([r for r in started if r >= first_cell_row]) >= answered * model.m > 0

    @pytest.mark.parametrize("source", ["lands", 0, 1, 2])
    def test_an_empty_cache_gives_the_plain_master(self, source):
        model, cells, x_hat = lands_cells() if source == "lands" else discrete_cells(source)
        bases = lplib.BasisCache(model.q, model.W, model.recourse_senses)
        assert_same_master(solve_master(model, cells, (x_hat, bases)),
                           solve_master(model, cells))
        assert bases.hits == bases.solves == 0

    @pytest.mark.parametrize("doc, epsilon, answered", [
        (instances.lands_document(), 1e-9, True),
        (instances.cvar_document(seed=0, pool_size=2000), 1e-4, False),
    ], ids=["lands", "cvar"])
    def test_every_master_of_a_run_matches_the_plain_one(self, monkeypatch, doc,
                                                         epsilon, answered):
        model = instances.document_to_model(doc)
        space = instances.document_to_space(doc, model)
        build = engine.build_aggregated_master
        seen = {"anchored": 0, "answered": 0}

        def checking(model, cells, anchor=None):
            plain = solve_master(model, cells)
            if anchor is not None:
                seen["anchored"] += 1
                R = np.array([h - T @ anchor[0] for _, h, T in cells])
                seen["answered"] += sum(e is not None for e in anchor[1].lookup_many(R))
                assert_same_master(solve_master(model, cells, anchor), plain)
            return build(model, cells, anchor=anchor)

        monkeypatch.setattr(engine, "build_aggregated_master", checking)
        result = engine.run(model, space, refiner_by_name("auto", space),
                            engine.SolverConfig(epsilon=epsilon))
        assert result.termination == "gap"
        assert seen["anchored"] == len(result.records) - 1 >= 6
        assert (seen["answered"] > 0) == answered


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
