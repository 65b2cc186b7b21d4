"""Instance documents: schema validation, model construction, generators."""
import json

import numpy as np
import numpy.testing as npt
import pytest

from adaptpart.errors import ValidationError
from adaptpart.instances import (cvar_document, document_to_model,
                                 document_to_space, lands_document,
                                 load_document, validate_document,
                                 write_document)


class TestValidation:
    def test_dimension_mismatch_is_caught(self):
        doc = lands_document()
        doc["first_stage"]["c"] = [40.0, 45.0, 32.0]  # one entry short
        with pytest.raises(ValidationError):
            validate_document(doc)

    def test_sense_tokens_are_checked(self):
        doc = lands_document()
        doc["first_stage"]["senses"] = ["≥", "<="]
        with pytest.raises(ValidationError):
            validate_document(doc)

    def test_interval_must_be_ordered(self):
        with pytest.raises(ValidationError):
            lands_document(d1_lo=7.0, d1_hi=3.0)
        doc = lands_document()
        params = doc["uncertainty"]["parameters"]
        params["lo"], params["hi"] = 7.0, 3.0
        with pytest.raises(ValidationError):
            validate_document(doc)

    def test_document_round_trip(self, tmp_path):
        doc = cvar_document()
        path = tmp_path / "instance.json"
        write_document(doc, path)
        again = load_document(path)
        assert again == doc


class TestEnergyDocument:
    def test_deterministic_structure(self):
        doc = lands_document()
        model = document_to_model(doc)
        assert model.n_first == 4
        assert model.m == 7  # four capacity rows, three demand rows
        assert model.n_second == 12
        npt.assert_allclose(model.c, [10.0, 7.0, 16.0, 6.0])
        npt.assert_allclose(model.b, [12.0, 120.0])
        space = document_to_space(doc, model)
        assert space.kind == "uniform_rhs"
        assert (space.lo, space.hi) == (3.0, 7.0)

    def test_mean_value_relaxation(self):
        doc = lands_document()
        model = document_to_model(doc)
        space = document_to_space(doc, model)
        from adaptpart.model import build_aggregated_master
        from adaptpart import lp as lplib
        part = space.trivial_partition()
        triples = [(c.mass, c.h_mean, c.t_mean) for c in part.cells]
        prob, cmap = build_aggregated_master(model, triples)
        sol = lplib.solve(prob)
        assert sol.status == lplib.OPTIMAL
        assert sol.objective == pytest.approx(378.6667, abs=1e-3)

    def test_fixed_demand_is_single_scenario(self):
        doc = lands_document(d1_fixed=5.0)
        model = document_to_model(doc)
        space = document_to_space(doc, model)
        assert space.kind == "discrete"
        assert space.n_scenarios == 1
        assert space.hs[0][-3] == pytest.approx(5.0)


class TestPortfolioDocument:
    def test_default_parameters(self):
        doc = cvar_document()
        params = doc["uncertainty"]["parameters"]
        npt.assert_allclose(params["mu"], [0.05, 0.07])
        npt.assert_allclose(params["sigma"], [[0.14, 0.053], [0.053, 0.23]])
        assert params["pool_size"] == 100_000
        model = document_to_model(doc)
        assert model.cvar is not None
        assert model.cvar.delta == pytest.approx(0.1)

    def test_seed_is_required_for_sampling(self):
        doc = cvar_document()
        del doc["uncertainty"]["parameters"]["seed"]
        model = document_to_model(doc)
        with pytest.raises(ValidationError):
            document_to_space(doc, model)
        space = document_to_space(doc, model, seed=5, pool_size=100)
        assert space.pool.shape == (100, 2)

    def test_covariance_must_be_psd(self):
        doc = cvar_document(sigma=((1.0, 2.0), (2.0, 1.0)))
        model = document_to_model(doc)
        with pytest.raises(ValidationError):
            document_to_space(doc, model, pool_size=50)

    @pytest.mark.parametrize("field, value, path", [
        ("senses", ["<="], "recourse.senses"),
        ("W", [[2.0]], "recourse.W"),
        ("q", [5.0], "recourse.q"),
    ])
    def test_cvar_marker_needs_the_tail_loss_recourse(self, field, value, path):
        doc = cvar_document(pool_size=200)
        doc["recourse"][field] = value
        with pytest.raises(ValidationError, match=path):
            document_to_model(doc)

    def test_cvar_marker_needs_a_single_recourse_row(self):
        doc = cvar_document(pool_size=200)
        doc["recourse"].update(W=[[1.0], [1.0]], senses=[">=", ">="])
        params = doc["uncertainty"]["parameters"]
        params["h_base"] = [0.0, 0.0]
        params["T_base"] = params["T_base"] * 2
        with pytest.raises(ValidationError, match="recourse.senses"):
            document_to_model(doc)


class TestFirstStageFeasibility:
    def test_infeasible_first_stage_rejected(self):
        doc = lands_document()
        doc["first_stage"]["b"] = [12.0, 1.0]  # budget below minimum capacity
        validate_document(doc)
        with pytest.raises(ValidationError):
            document_to_model(doc)
