"""Uncertainty backends: masses, conditional means, splits, determinism."""
import numpy as np
import numpy.testing as npt
import pytest

from adaptpart.errors import ValidationError
from adaptpart.model import RecourseModel
from adaptpart.spaces import (Breakpoints, DiscreteSpace, GaussianTechnologySpace,
                              HyperplaneSplit, ScenarioRegroup, UniformRhsSpace)

from _generators import random_discrete_space, random_recourse_model
from _oracles import trapezoid_integral


def interval_model(lo_row: int = 0) -> RecourseModel:
    return RecourseModel(
        c=np.array([1.0]), A=np.array([[1.0]]), b=np.array([10.0]), senses=("<=",),
        W=np.array([[1.0]]), q=np.array([1.0]), recourse_senses=(">=",),
        h_base=np.array([0.0]), T_base=np.array([[0.0]]),
        layout=__import__("adaptpart.model", fromlist=["RandomLayout"]).RandomLayout(rhs_rows=(0,)))


def gaussian_model(dim: int = 2) -> RecourseModel:
    from adaptpart.model import RandomLayout, TechEntry
    entries = tuple(TechEntry(0, j, j, 1.0) for j in range(dim))
    return RecourseModel(
        c=np.zeros(dim + 1), A=np.array([[1.0] * dim + [0.0]]), b=np.array([1.0]),
        senses=("=",), W=np.array([[1.0]]), q=np.array([1.0]), recourse_senses=(">=",),
        h_base=np.zeros(1), T_base=np.array([[0.0] * dim + [1.0]]),
        x_lower=np.array([0.0] * dim + [-np.inf]), layout=RandomLayout(tech_entries=entries))


class TestDiscrete:
    def test_weights_must_sum_to_one(self):
        model = random_recourse_model(np.random.default_rng(0))
        reals = [model.realization(h=np.zeros(model.m), weight=0.4)]
        with pytest.raises(ValidationError):
            DiscreteSpace(reals)

    def test_regroup_and_zero_mass_drop(self):
        model = random_recourse_model(np.random.default_rng(1))
        reals = [model.realization(h=np.full(model.m, v), weight=w)
                 for v, w in ((0.0, 0.5), (1.0, 0.5), (2.0, 0.0))]
        space = DiscreteSpace(reals)
        part = space.trivial_partition()
        split = space.split_cell(part, "0", ScenarioRegroup(((0,), (1,), (2,))))
        assert len(split) == 2  # the zero-weight scenario carries no cell
        assert split.total_mass() == pytest.approx(1.0)

    def test_regroup_must_partition_the_cell(self):
        rng = np.random.default_rng(2)
        model = random_recourse_model(rng)
        space = random_discrete_space(rng, model, n_scenarios=4)
        part = space.trivial_partition()
        with pytest.raises(ValidationError):
            space.split_cell(part, "0", ScenarioRegroup(((0, 1), (2,))))

    def test_single_group_is_identity(self):
        rng = np.random.default_rng(3)
        model = random_recourse_model(rng)
        space = random_discrete_space(rng, model, n_scenarios=3)
        part = space.trivial_partition()
        assert space.split_cell(part, "0", ScenarioRegroup(((0, 1, 2),))) is part

    def test_law_of_total_expectation(self):
        rng = np.random.default_rng(4)
        model = random_recourse_model(rng)
        space = random_discrete_space(rng, model, n_scenarios=6)
        part = space.trivial_partition()
        part = space.split_cell(part, "0", ScenarioRegroup(((0, 3), (1, 2, 4), (5,))))
        total_h = sum(c.mass * c.h_mean for c in part.cells)
        npt.assert_allclose(total_h, space.weights @ space.hs, atol=1e-12)
        assert part.total_mass() == pytest.approx(1.0, abs=1e-12)


class TestUniformRhs:
    def test_mass_and_midpoint_mean(self):
        space = UniformRhsSpace(interval_model(), 0, 3.0, 7.0)
        part = space.trivial_partition()
        split = space.split_cell(part, "0", Breakpoints((5.0,)))
        cell = split.find("0.0")
        assert cell.geometry.lo == 3.0 and cell.geometry.hi == 5.0
        assert cell.mass == pytest.approx(0.5)
        assert cell.h_mean[0] == pytest.approx(4.0)

    def test_asymmetric_split_masses(self):
        space = UniformRhsSpace(interval_model(), 0, 3.0, 7.0)
        part = space.split_cell(space.trivial_partition(), "0", Breakpoints((4.5,)))
        masses = sorted(c.mass for c in part.cells)
        npt.assert_allclose(masses, [0.375, 0.625], atol=1e-12)
        assert part.total_mass() == pytest.approx(1.0)

    def test_breakpoints_outside_cell_are_identity(self):
        space = UniformRhsSpace(interval_model(), 0, 3.0, 7.0)
        part = space.trivial_partition()
        assert space.split_cell(part, "0", Breakpoints((2.0, 7.0, 9.0))) is part

    def test_row_must_be_declared_random(self):
        model = interval_model()
        with pytest.raises(ValidationError):
            UniformRhsSpace(model, 1, 3.0, 7.0)

    def test_cell_samples_average_to_cell_mean(self):
        space = UniformRhsSpace(interval_model(), 0, 3.0, 7.0)
        cell = space.trivial_partition().cells[0]
        w, reals = space.cell_samples(cell, cap=50)
        mean = sum(wi * r.h[0] for wi, r in zip(w, reals))
        assert mean == pytest.approx(cell.h_mean[0], abs=1e-9)


class TestGaussian:
    def test_pool_is_seed_deterministic(self):
        model = gaussian_model()
        mu = np.array([0.05, 0.07])
        sigma = np.array([[0.14, 0.053], [0.053, 0.23]])
        a = GaussianTechnologySpace(model, mu, sigma, seed=99, pool_size=5000)
        b = GaussianTechnologySpace(model, mu, sigma, seed=99, pool_size=5000)
        assert np.array_equal(a.pool, b.pool)
        c = GaussianTechnologySpace(model, mu, sigma, seed=100, pool_size=5000)
        assert not np.array_equal(a.pool, c.pool)

    def test_full_space_mean_near_mu(self):
        model = gaussian_model()
        mu = np.array([0.3, -0.2])
        sigma = np.array([[0.5, 0.1], [0.1, 0.4]])
        space = GaussianTechnologySpace(model, mu, sigma, seed=5, pool_size=40000)
        xi = space.cell_mean_xi(space.trivial_partition().cells[0])
        for j in range(2):
            se = np.sqrt(sigma[j, j] / space.pool_size)
            assert abs(xi[j] - mu[j]) <= 3.0 * se

    def test_halfspace_mass_and_truncated_mean(self):
        model = gaussian_model()
        space = GaussianTechnologySpace(model, np.zeros(2), np.eye(2),
                                        seed=42, pool_size=60000)
        part = space.split_cell(space.trivial_partition(), "0",
                                HyperplaneSplit((1.0, 0.0), 0.0))
        neg = part.find("0.0")
        assert neg.mass == pytest.approx(0.5, abs=3.0 * 0.5 / np.sqrt(space.pool_size))
        xi = space.cell_mean_xi(neg)
        # oracle: E[x | x <= 0] for a standard normal via direct quadrature
        density = lambda x: np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        expected = trapezoid_integral(lambda x: x * density(x), -8.0, 0.0) / 0.5
        se = 0.6 / np.sqrt(0.5 * space.pool_size)
        assert xi[0] == pytest.approx(expected, abs=4.0 * se)
        assert abs(expected + np.sqrt(2.0 / np.pi)) < 1e-6

    def test_split_partitions_members_exactly(self):
        model = gaussian_model()
        space = GaussianTechnologySpace(model, np.zeros(2), np.eye(2),
                                        seed=7, pool_size=20000)
        part = space.split_cell(space.trivial_partition(), "0",
                                HyperplaneSplit((0.3, -1.2), 0.1))
        kids = part.cells
        assert len(kids) == 2
        members = np.concatenate([k.geometry.members for k in kids])
        assert np.array_equal(np.sort(members), np.arange(space.pool_size))
        assert sum(k.mass for k in kids) == pytest.approx(1.0, abs=1e-12)

    def test_one_sided_split_is_identity(self):
        model = gaussian_model()
        space = GaussianTechnologySpace(model, np.zeros(2), np.eye(2),
                                        seed=8, pool_size=5000)
        part = space.trivial_partition()
        assert space.split_cell(part, "0", HyperplaneSplit((1.0, 0.0), 50.0)) is part

    def test_law_of_total_expectation_on_pool(self):
        model = gaussian_model()
        space = GaussianTechnologySpace(model, np.array([0.1, -0.3]),
                                        np.array([[0.4, 0.05], [0.05, 0.2]]),
                                        seed=17, pool_size=30000)
        part = space.trivial_partition()
        part = space.split_cell(part, "0", HyperplaneSplit((1.0, 1.0), 0.0))
        part = space.split_cell(part, "0.0", HyperplaneSplit((1.0, -1.0), 0.2))
        total = sum(c.mass * space.cell_mean_xi(c) for c in part.cells)
        npt.assert_allclose(total, space.pool.mean(axis=0), atol=1e-12)
        for c in part.cells:
            npt.assert_array_equal(space.cell_mean_xi(c),
                                   space.pool[c.geometry.members].mean(axis=0))

    def test_seed_required_and_covariance_validated(self):
        model = gaussian_model()
        with pytest.raises(ValidationError):
            GaussianTechnologySpace(model, np.zeros(2), np.eye(2), seed=None)
        with pytest.raises(ValidationError):
            GaussianTechnologySpace(model, np.zeros(2),
                                    np.array([[1.0, 0.9], [0.2, 1.0]]), seed=1)
        with pytest.raises(ValidationError):
            GaussianTechnologySpace(model, np.zeros(2),
                                    np.array([[1.0, 0.0], [0.0, -0.5]]), seed=1)
