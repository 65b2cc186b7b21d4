"""Sample tail average, the tail-risk reference value."""
import numpy as np
import pytest

from adaptpart.analytics import empirical_cvar


class TestEmpiricalTail:
    def test_small_sample_by_hand(self):
        assert empirical_cvar(np.array([0.0, 1.0, 2.0, 3.0]), 0.5) == \
            pytest.approx(2.5)
        assert empirical_cvar(np.array([5.0]), 0.3) == pytest.approx(5.0)

    def test_converges_to_analytic_value(self):
        from scipy.stats import norm
        rng = np.random.default_rng(777)
        samples = rng.standard_normal(400_000)
        est = empirical_cvar(-samples, 0.1)
        assert est == pytest.approx(norm.pdf(norm.ppf(0.1)) / 0.1, abs=0.02)
