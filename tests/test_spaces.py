"""Uncertainty backends: masses, conditional means, splits, determinism."""

import numpy as np
import numpy.testing as npt
import pytest

from adaptpart.engine import SolverConfig
from adaptpart.errors import ValidationError
from adaptpart.instances import cvar_document, validate_document
from adaptpart.model import RecourseModel
from adaptpart.spaces import DiscreteSpace, GaussianTechnologySpace, UniformRhsSpace

from _generators import portfolio_map, random_discrete_space, random_recourse_model
from _oracles import trapezoid_integral


def interval_model(lo_row: int = 0) -> RecourseModel:
    return RecourseModel(
        c=np.array([1.0]), A=np.array([[1.0]]), b=np.array([10.0]), senses=("<=",),
        W=np.array([[1.0]]), q=np.array([1.0]), recourse_senses=(">=",))


def interval_space(lo: float, hi: float, row: int = 0) -> UniformRhsSpace:
    return UniformRhsSpace(interval_model(), [0.0], [[0.0]], row, lo, hi)


def gaussian_model(dim: int = 2) -> RecourseModel:
    return RecourseModel(
        c=np.zeros(dim + 1), A=np.array([[1.0] * dim + [0.0]]), b=np.array([1.0]),
        senses=("=",), W=np.array([[1.0]]), q=np.array([1.0]), recourse_senses=(">=",),
        x_lower=np.array([0.0] * dim + [-np.inf]))


def gaussian_space(mu, sigma, seed, pool_size=100_000, dim: int = 2) -> GaussianTechnologySpace:
    return GaussianTechnologySpace(gaussian_model(dim), np.zeros(1), *portfolio_map(dim),
                                   mu, sigma, seed=seed, pool_size=pool_size)


def cut(space, cell, normal, offset):
    """Split a region cell by normal.xi <= offset, with the pool-wide side
    mask computed here the way HyperplaneRefiner computes it."""
    side = space.pool @ np.asarray(normal, dtype=float) <= offset
    return space.split_cell(cell, normal, offset, side)


class TestDiscrete:
    def test_weights_must_sum_to_one(self):
        model, T = random_recourse_model(np.random.default_rng(0))
        with pytest.raises(ValidationError):
            DiscreteSpace(model, [0.4], [np.zeros(model.m)], [T])

    def test_regroup_and_zero_mass_drop(self):
        model, T = random_recourse_model(np.random.default_rng(1))
        space = DiscreteSpace(model, [0.5, 0.5, 0.0], [np.full(model.m, v) for v in range(3)],
                              [T] * 3)
        cell, = space.trivial_partition()
        split = space.split_cell(cell, ((0,), (1,), (2,)))
        assert len(split) == 2  # the zero-weight scenario carries no cell
        assert sum(c.mass for c in split) == pytest.approx(1.0)

    def test_regroup_must_partition_the_cell(self):
        rng = np.random.default_rng(2)
        model, T = random_recourse_model(rng)
        space = random_discrete_space(rng, model, T, n_scenarios=4)
        cell, = space.trivial_partition()
        with pytest.raises(ValidationError):
            space.split_cell(cell, ((0, 1), (2,)))

    @pytest.mark.parametrize("groups", [
        ((0, 2), (2, 4)),
        ((0, 0, 2), (4,)),
        ((0, 2), (1, 4)),
        (),
    ], ids=["repeat-across", "repeat-within", "foreign-member", "no-group"])
    def test_groups_must_partition_the_cell(self, groups):
        rng = np.random.default_rng(2)
        model, T = random_recourse_model(rng)
        space = random_discrete_space(rng, model, T, n_scenarios=6)
        cell, _ = space.split_cell(space.trivial_partition()[0], ((0, 2, 4), (1, 3, 5)))
        with pytest.raises(ValidationError, match="groups must partition the cell's scenario set"):
            space.split_cell(cell, groups)
        kids = space.split_cell(cell, ((4, 0), (2,)))
        for kid, expected in zip(kids, ([0, 4], [2])):
            assert kid.geometry.indices.dtype.kind == "i"
            npt.assert_array_equal(kid.geometry.indices, expected)

    def test_single_group_is_identity(self):
        rng = np.random.default_rng(3)
        model, T = random_recourse_model(rng)
        space = random_discrete_space(rng, model, T, n_scenarios=3)
        cell, = space.trivial_partition()
        assert space.split_cell(cell, ((0, 1, 2),)) == (cell,)

    def test_law_of_total_expectation(self):
        rng = np.random.default_rng(4)
        model, T = random_recourse_model(rng)
        space = random_discrete_space(rng, model, T, n_scenarios=6)
        cell, = space.trivial_partition()
        part = space.split_cell(cell, ((0, 3), (1, 2, 4), (5,)))
        total_h = sum(c.mass * c.h_mean for c in part)
        npt.assert_allclose(total_h, space.weights @ space.hs, atol=1e-12)
        assert sum(c.mass for c in part) == pytest.approx(1.0, abs=1e-12)

    def test_scenarios_of_another_model_are_rejected_at_construction(self):
        model, T = random_recourse_model(np.random.default_rng(5), m=2)
        with pytest.raises(ValidationError, match=r"scenario h \(2, 1\) and T \(2, 1, \d\) "
                                                  r"do not match the model's \(2, 2\)"):
            DiscreteSpace(model, [0.5, 0.5], [[0.0], [1.0]], [T[:1], T[:1]])

    def test_realizations_view_the_scenario_arrays(self):
        rng = np.random.default_rng(6)
        model, T = random_recourse_model(rng)
        space = random_discrete_space(rng, model, T, n_scenarios=3)
        for s, real in enumerate(space.realizations):
            assert real.h.base is space.hs and real.T.base is space.Ts
            assert real.T.flags.c_contiguous
            npt.assert_array_equal(real.T, space.Ts[s])


class TestUniformRhs:
    def test_mass_and_midpoint_mean(self):
        space = interval_space(3.0, 7.0)
        whole, = space.trivial_partition()
        cell = space.split_cell(whole, (5.0,))[0]
        assert cell.label == "0.0"
        assert cell.geometry.lo == 3.0 and cell.geometry.hi == 5.0
        assert cell.mass == pytest.approx(0.5)
        assert cell.h_mean[0] == pytest.approx(4.0)

    def test_asymmetric_split_masses(self):
        space = interval_space(3.0, 7.0)
        part = space.split_cell(space.trivial_partition()[0], (4.5,))
        masses = sorted(c.mass for c in part)
        npt.assert_allclose(masses, [0.375, 0.625], atol=1e-12)
        assert sum(c.mass for c in part) == pytest.approx(1.0)

    def test_breakpoints_outside_cell_are_identity(self):
        space = interval_space(3.0, 7.0)
        cell, = space.trivial_partition()
        assert space.split_cell(cell, (2.0, 7.0, 9.0)) == (cell,)

    def test_row_must_be_declared_random(self):
        with pytest.raises(ValidationError):
            interval_space(3.0, 7.0, row=1)

    def test_cell_samples_average_to_cell_mean(self):
        space = interval_space(3.0, 7.0)
        cell = space.trivial_partition()[0]
        w, reals = space.cell_samples(cell, cap=50)
        mean = sum(wi * r.h[0] for wi, r in zip(w, reals))
        assert mean == pytest.approx(cell.h_mean[0], abs=1e-9)


class TestGaussian:
    def test_pool_is_seed_deterministic(self):
        mu = np.array([0.05, 0.07])
        sigma = np.array([[0.14, 0.053], [0.053, 0.23]])
        a = gaussian_space(mu, sigma, seed=99, pool_size=5000)
        b = gaussian_space(mu, sigma, seed=99, pool_size=5000)
        assert np.array_equal(a.pool, b.pool)
        c = gaussian_space(mu, sigma, seed=100, pool_size=5000)
        assert not np.array_equal(a.pool, c.pool)

    def test_full_space_mean_near_mu(self):
        mu = np.array([0.3, -0.2])
        sigma = np.array([[0.5, 0.1], [0.1, 0.4]])
        space = gaussian_space(mu, sigma, seed=5, pool_size=40000)
        xi = space.trivial_partition()[0].geometry.xi_mean
        for j in range(2):
            se = np.sqrt(sigma[j, j] / space.pool_size)
            assert abs(xi[j] - mu[j]) <= 3.0 * se

    def test_halfspace_mass_and_truncated_mean(self):
        space = gaussian_space(np.zeros(2), np.eye(2),
                               seed=42, pool_size=60000)
        neg = cut(space, space.trivial_partition()[0], (1.0, 0.0), 0.0)[0]
        assert neg.label == "0.0"
        assert neg.mass == pytest.approx(0.5, abs=3.0 * 0.5 / np.sqrt(space.pool_size))
        xi = neg.geometry.xi_mean
        # oracle: E[x | x <= 0] for a standard normal via direct quadrature
        density = lambda x: np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        expected = trapezoid_integral(lambda x: x * density(x), -8.0, 0.0) / 0.5
        se = 0.6 / np.sqrt(0.5 * space.pool_size)
        assert xi[0] == pytest.approx(expected, abs=4.0 * se)
        assert abs(expected + np.sqrt(2.0 / np.pi)) < 1e-6

    def test_split_partitions_members_exactly(self):
        space = gaussian_space(np.zeros(2), np.eye(2),
                               seed=7, pool_size=20000)
        kids = cut(space, space.trivial_partition()[0], (0.3, -1.2), 0.1)
        assert len(kids) == 2
        members = np.concatenate([k.geometry.members for k in kids])
        assert np.array_equal(np.sort(members), np.arange(space.pool_size))
        assert sum(k.mass for k in kids) == pytest.approx(1.0, abs=1e-12)

    def test_one_sided_split_is_identity(self):
        space = gaussian_space(np.zeros(2), np.eye(2),
                               seed=8, pool_size=5000)
        cell, = space.trivial_partition()
        assert cut(space, cell, (1.0, 0.0), 50.0) == (cell,)

    def test_shared_side_mask_matches_member_projection(self):
        # three successive cuts, each applied to every cell through one
        # pool-wide mask the way HyperplaneRefiner.refine applies them
        space = gaussian_space(np.array([0.05, 0.07]),
                               np.array([[0.14, 0.053], [0.053, 0.23]]),
                               seed=11, pool_size=20000)
        part = space.trivial_partition()
        for normal, beta in (((0.0, 1.0), 0.07), ((0.4, 0.6), 0.02), ((1.0, -0.5), -0.1)):
            a = np.asarray(normal)
            shared = space.pool @ a <= beta
            plain_side = space.pool @ np.array([float(v) for v in normal]) <= beta
            cells = []
            for parent in part:
                members = parent.geometry.members
                side = space.pool[members] @ a <= beta
                split = space.split_cell(parent, a, beta, shared)
                plain = space.split_cell(parent, normal, beta, plain_side)
                cells.extend(split)
                if side.all() or not side.any():
                    assert split == (parent,) and plain == (parent,)
                    continue
                for kids in (split, plain):
                    assert [k.label for k in kids] == [parent.label + ".0", parent.label + ".1"]
                    for kid, expected in zip(kids, (members[side], members[~side])):
                        npt.assert_array_equal(kid.geometry.members, expected)
                        assert kid.mass == expected.size / space.pool_size
                        npt.assert_array_equal(kid.geometry.xi_mean,
                                               space.pool[expected].mean(axis=0))
                        npt.assert_array_equal(kid.t_mean,
                                               space.realization_at(kid.geometry.xi_mean).T)
            part = tuple(cells)
        assert len(part) > 4
        first = part[0]
        assert space.split_cell(first, (1.0, 0.0), 50.0,
                                space.pool[:, 0] <= 50.0) == (first,)

    def test_law_of_total_expectation_on_pool(self):
        space = gaussian_space(np.array([0.1, -0.3]),
                               np.array([[0.4, 0.05], [0.05, 0.2]]),
                               seed=17, pool_size=30000)
        lower, upper = cut(space, space.trivial_partition()[0], (1.0, 1.0), 0.0)
        part = cut(space, lower, (1.0, -1.0), 0.2) + (upper,)
        total = sum(c.mass * c.geometry.xi_mean for c in part)
        npt.assert_allclose(total, space.pool.mean(axis=0), atol=1e-12)
        for c in part:
            npt.assert_array_equal(c.geometry.xi_mean,
                                   space.pool[c.geometry.members].mean(axis=0))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_child_mean_is_bitwise_the_member_mean(self, dim):
        # one column is summed pairwise by NumPy, more columns row by row;
        # xi_mean must be the plain mean bit for bit either way
        rng = np.random.default_rng(dim)
        space = gaussian_space(rng.normal(0.0, 0.1, dim), np.diag(rng.uniform(0.1, 0.3, dim)),
                               seed=dim, pool_size=20000, dim=dim)
        part = space.trivial_partition()
        for _ in range(3):
            normal, offset = rng.normal(size=dim), rng.normal(0.0, 0.1)
            part = tuple(kid for cell in part for kid in cut(space, cell, normal, offset))
        assert len(part) >= 4
        for c in part:
            npt.assert_array_equal(c.geometry.xi_mean,
                                   space.pool[c.geometry.members].mean(axis=0))

    def test_seed_required_and_covariance_validated(self):
        with pytest.raises(ValidationError):
            gaussian_space(np.zeros(2), np.eye(2), seed=None)
        with pytest.raises(ValidationError):
            gaussian_space(np.zeros(2),
                           np.array([[1.0, 0.9], [0.2, 1.0]]), seed=1)
        with pytest.raises(ValidationError):
            gaussian_space(np.zeros(2),
                           np.array([[1.0, 0.0], [0.0, -0.5]]), seed=1)


class TestBaseDataChecks:
    """A space built directly rejects random data that does not fit the
    fixed-recourse program it is built against (m = 1, n1 = 3 here)."""

    @staticmethod
    def gaussian(model=None, h=(0.0,), T=((0.0, 0.0, 1.0),), Tk=None, seed=1, pool_size=10):
        Tk = portfolio_map()[1] if Tk is None else Tk
        return GaussianTechnologySpace(model or gaussian_model(), h, T, Tk, np.zeros(2),
                                       np.eye(2), seed=seed, pool_size=pool_size)

    @pytest.mark.parametrize("entry, message", [
        ({"row": 1, "col": 0, "component": 0}, r"entries\.0: out of range"),
        ({"row": -1, "col": 0, "component": 0}, r"entries\.0\.row: -1 is less than the minimum"),
        ({"row": 0, "col": 3, "component": 0}, r"entries\.0: out of range"),
        ({"row": 0, "col": 0, "component": 2}, r"entries\.0: out of range"),
    ], ids=["row", "negative-row", "col", "component"])
    def test_technology_entry_out_of_range(self, entry, message):
        # entries are checked in the document (m = 1, n1 = 3, d = 2 here); the
        # space takes the map (T0, Tk) they build
        doc = cvar_document(pool_size=10)
        doc["uncertainty"]["parameters"]["entries"] = [entry]
        with pytest.raises(ValidationError, match=message):
            validate_document(doc)

    @pytest.mark.parametrize("Tk, message", [
        (np.zeros((2, 3, 2)), r"Tk \(2, 3, 2\) does not match the model's and the mean's "
                              r"\(1, 3, 2\)"),
        (np.zeros((1, 4, 2)), r"Tk \(1, 4, 2\) does not match"),
        (np.zeros((1, 3, 3)), r"Tk \(1, 3, 3\) does not match"),
        (np.zeros((1, 3)), r"Tk \(1, 3\) does not match"),
        (np.full((1, 3, 2), np.nan), "technology map Tk entries must be finite"),
        (np.full((1, 3, 2), np.inf), "technology map Tk entries must be finite"),
        ([[[0.0, 1.0], [0.0]]], "technology map Tk is not a rectangular array"),
    ], ids=["rows", "columns", "components", "no-component-axis", "nan", "inf", "ragged"])
    def test_technology_map_must_fit(self, Tk, message):
        with pytest.raises(ValidationError, match=message):
            self.gaussian(Tk=Tk)

    def test_deterministic_technology_map_is_accepted(self):
        space = self.gaussian(Tk=np.zeros((1, 3, 2)))
        npt.assert_array_equal(space.realization_at(space.pool[0]).T, [[0.0, 0.0, 1.0]])

    @pytest.mark.parametrize("row", [1, -1])
    def test_random_rhs_row_out_of_range(self, row):
        with pytest.raises(ValidationError, match=f"random rhs row {row} out of range"):
            interval_space(3.0, 7.0, row=row)

    @pytest.mark.parametrize("h, T", [
        ([0.0, 0.0], [[0.0, 0.0, 1.0]]),
        ([0.0], [[0.0, 1.0]]),
        ([0.0], [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]),
    ], ids=["h-size", "T-columns", "T-rows"])
    def test_base_shape_must_match_the_model(self, h, T):
        with pytest.raises(ValidationError, match="do not match the model"):
            self.gaussian(h=h, T=T)
        with pytest.raises(ValidationError, match="do not match the model"):
            UniformRhsSpace(gaussian_model(), h, T, 0, 3.0, 7.0)

    @pytest.mark.parametrize("h, weight, message", [
        (0.0, float("nan"), "scenario weights must be finite"),
        (float("inf"), 0.5, "scenario h and T entries must be finite"),
    ], ids=["weight", "h"])
    def test_discrete_data_must_be_finite(self, h, weight, message):
        with pytest.raises(ValidationError, match=message):
            DiscreteSpace(interval_model(), [weight, 0.5], [[h], [0.0]], [[[1.0]], [[1.0]]])

    @pytest.mark.parametrize("weights, hs, Ts, message", [
        ([], [], [], r"weight vector of at least one scenario, got shape \(0,\)"),
        ([[1.0]], [[0.0]], [[[1.0]]], r"weight vector .* got shape \(1, 1\)"),
        ([0.5, 0.5], [[0.0], [0.0, 1.0]], [[[1.0]]] * 2, "scenario h is not a rectangular array"),
        ([0.5, 0.5], [[0.0], [1.0]], [[[1.0]], [[1.0], [2.0, 3.0]]],
         "scenario T is not a rectangular array"),
        ([0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]], [[[1.0]]] * 2,
         r"scenario h \(2, 2\) and T \(2, 1, 1\) do not match the model's \(2, 1\) and "
         r"\(2, 1, 1\)"),
        ([0.5, 0.5], [[0.0], [1.0]], [[[1.0, 0.0]]] * 2, r"T \(2, 1, 2\) do not match the model"),
        ([1.0], [[0.0], [1.0]], [[[1.0]]] * 2, r"model's \(1, 1\) and \(1, 1, 1\)"),
        ([1.5, -0.5], [[0.0], [1.0]], [[[1.0]]] * 2, "weights must be finite and nonnegative"),
        ([np.inf, 0.5], [[0.0], [1.0]], [[[1.0]]] * 2, "weights must be finite and nonnegative"),
        ([0.5, 0.4], [[0.0], [1.0]], [[[1.0]]] * 2, "scenario weights sum to 0.9000"),
        ([0.5, 0.5], [[0.0], [np.nan]], [[[1.0]]] * 2, "scenario h and T entries must be finite"),
        ([0.5, 0.5], [[0.0], [1.0]], [[[1.0]], [[-np.inf]]],
         "scenario h and T entries must be finite"),
    ], ids=["no-scenario", "weight-matrix", "ragged-h", "ragged-T", "h-rows", "T-columns",
            "scenario-count", "negative-weight", "infinite-weight", "weight-sum", "nan-h",
            "infinite-T"])
    def test_discrete_data_must_fit_the_model(self, weights, hs, Ts, message):
        with pytest.raises(ValidationError, match=message):
            DiscreteSpace(interval_model(), weights, hs, Ts)

    @pytest.mark.parametrize("lo, hi", [(7.0, 3.0), (3.0, 3.0)])
    def test_interval_support_must_be_ordered(self, lo, hi):
        with pytest.raises(ValidationError, match="uniform support needs lo < hi"):
            interval_space(lo, hi)

    def test_gaussian_needs_entries_and_a_pool(self):
        doc = cvar_document(pool_size=10)
        doc["uncertainty"]["parameters"]["entries"] = []
        with pytest.raises(ValidationError, match=r"uncertainty\.parameters\.entries: "
                                                  r"\[\] should be non-empty"):
            validate_document(doc)
        with pytest.raises(ValidationError, match="pool size must be at least 2"):
            GaussianTechnologySpace(gaussian_model(), (0.0,), *portfolio_map(), np.zeros(2),
                                    np.eye(2), seed=1, pool_size=1)

    @pytest.mark.parametrize("lo, hi", [(-np.inf, 7.0), (3.0, np.inf), (np.nan, 7.0)])
    def test_interval_support_must_be_finite(self, lo, hi):
        with pytest.raises(ValidationError, match="uniform support lo and hi must be finite"):
            interval_space(lo, hi)
        with pytest.raises(ValidationError, match="base h and T entries must be finite"):
            UniformRhsSpace(interval_model(), [np.nan], [[0.0]], 0, 3.0, 7.0)

    @pytest.mark.parametrize("mu, sigma, message", [
        ((np.nan, 0.0), np.eye(2), "mean mu"),
        ((0.0, 0.0), ((1.0, 0.0), (0.0, np.inf)), "covariance sigma"),
    ], ids=["mu", "sigma"])
    def test_gaussian_parameters_must_be_finite(self, mu, sigma, message):
        with pytest.raises(ValidationError, match=message + " entries must be finite"):
            GaussianTechnologySpace(gaussian_model(), (0.0,), *portfolio_map(),
                                    mu, sigma, seed=1, pool_size=10)

    @pytest.mark.parametrize("h, T, field", [
        ([0.0, 0.0], [[1.0], [1.0, 2.0]], "base T"),
        ([[0.0], [0.0, 1.0]], [[1.0], [1.0]], "base h"),
    ], ids=["T", "h"])
    def test_ragged_base_data_is_named(self, h, T, field):
        two_rows = RecourseModel(
            c=np.array([1.0]), A=np.array([[1.0]]), b=np.array([10.0]), senses=("<=",),
            W=np.eye(2), q=np.ones(2), recourse_senses=(">=", ">="))
        with pytest.raises(ValidationError, match=field + " is not a rectangular array"):
            UniformRhsSpace(two_rows, h, T, 0, 0.0, 1.0)

    @pytest.mark.parametrize("mu, sigma, field", [
        ((0.0, 0.0), ((1.0, 0.0), (0.0,)), "covariance sigma"),
        (((0.0,), (0.0, 1.0)), np.eye(2), "mean mu"),
    ], ids=["sigma", "mu"])
    def test_ragged_gaussian_parameters_are_named(self, mu, sigma, field):
        with pytest.raises(ValidationError, match=field + " is not a rectangular array"):
            GaussianTechnologySpace(gaussian_model(), (0.0,), *portfolio_map(),
                                    mu, sigma, seed=1, pool_size=10)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be nonnegative, got -5"):
            self.gaussian(seed=-5)
        assert self.gaussian(seed=0).pool.shape == (10, 2)

    # a non-integral row, seed or pool size is an error, never truncated

    def test_non_integral_row_rejected(self):
        with pytest.raises(ValidationError, match=r"random rhs row must be an integer, got 0\.7"):
            interval_space(3.0, 7.0, row=0.7)
        assert interval_space(3.0, 7.0, row=np.int64(0)).row == 0

    def test_non_integral_seed_rejected(self):
        with pytest.raises(ValidationError, match=r"pool seed must be an integer, got 1\.7"):
            self.gaussian(seed=1.7)
        npt.assert_array_equal(self.gaussian(seed=np.int64(1)).pool, self.gaussian(seed=1).pool)

    # nor a bool, although numbers.Integral holds for it
    @pytest.mark.parametrize("build, name", [
        (lambda: interval_space(3.0, 7.0, row=True), "random rhs row"),
        (lambda: TestBaseDataChecks.gaussian(seed=True), "pool seed"),
        (lambda: TestBaseDataChecks.gaussian(pool_size=True), "pool size"),
        (lambda: SolverConfig(max_iterations=True), "iteration limit"),
    ], ids=["row", "seed", "pool_size", "max_iterations"])
    def test_bool_is_not_an_integer(self, build, name):
        with pytest.raises(ValidationError, match=f"{name} must be an integer.*got True$"):
            build()

    def test_non_integral_pool_size_rejected(self):
        with pytest.raises(ValidationError, match=r"pool size must be an integer, got 10\.9"):
            self.gaussian(pool_size=10.9)
        assert self.gaussian(pool_size=np.int64(10)).pool_size == 10
