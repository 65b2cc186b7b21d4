"""Instance documents: schema validation, model construction, generators."""
import dataclasses
import json
import re

import jsonschema
import numpy as np
import numpy.testing as npt
import pytest

from adaptpart.errors import ValidationError
from adaptpart.instances import (cvar_document, document_to_model,
                                 document_to_space, instance_schema,
                                 lands_document, load_document,
                                 validate_document, write_document)
from adaptpart.spaces import DiscreteSpace, UniformRhsSpace


def _fixed_lands():
    return lands_document(d1_fixed=5.0)


def _small_cvar():
    return cvar_document(pool_size=200)


# one case per dimension check: (document, edit(first_stage, recourse,
# parameters), the field path its message names); the energy model has
# n1 = 4 and m = 7, the portfolio n1 = 3, m = 1 and d = 2
DIMENSION_ERRORS = {
    "A row": (lands_document, lambda fs, rc, p: fs["A"][1].pop(), "first_stage.A.1"),
    "row counts": (lands_document, lambda fs, rc, p: fs["b"].pop(), "first_stage"),
    "ub": (lands_document, lambda fs, rc, p: fs.update(ub=[None] * 3), "first_stage.ub"),
    "W row": (lands_document, lambda fs, rc, p: rc["W"][2].pop(), "recourse.W.2"),
    "recourse senses": (lands_document, lambda fs, rc, p: rc["senses"].pop(),
                        "recourse.senses"),
    "scenario h": (_fixed_lands, lambda fs, rc, p: p["scenarios"][0]["h"].pop(),
                   "uncertainty.parameters.scenarios.0.h"),
    "scenario T": (_fixed_lands, lambda fs, rc, p: p["scenarios"][0]["T"].pop(),
                   "uncertainty.parameters.scenarios.0.T"),
    "discrete T_base": (_fixed_lands, lambda fs, rc, p: p["T_base"][0].pop(),
                        "uncertainty.parameters.T_base"),
    "interval h_base": (lands_document, lambda fs, rc, p: p["h_base"].pop(),
                        "uncertainty.parameters.h_base"),
    "interval T": (lands_document, lambda fs, rc, p: p["T"].pop(), "uncertainty.parameters.T"),
    "interval row": (lands_document, lambda fs, rc, p: p.update(row=7),
                     "uncertainty.parameters.row"),
    "interval ends": (lands_document, lambda fs, rc, p: p.update(lo=5.0, hi=5.0),
                      "uncertainty.parameters"),
    "sigma": (_small_cvar, lambda fs, rc, p: p["sigma"].pop(), "uncertainty.parameters.sigma"),
    "gaussian h_base": (_small_cvar, lambda fs, rc, p: p["h_base"].append(0.0),
                        "uncertainty.parameters.h_base"),
    "gaussian T_base": (_small_cvar, lambda fs, rc, p: p["T_base"][0].pop(),
                        "uncertainty.parameters.T_base"),
    "entry": (_small_cvar, lambda fs, rc, p: p["entries"][1].update(component=2),
              "uncertainty.parameters.entries.1"),
    "duplicate entry": (_small_cvar,
                        lambda fs, rc, p: p["entries"].append({"row": 0, "col": 1,
                                                               "component": 0}),
                        "uncertainty.parameters.entries.2"),
    "tau_col": (_small_cvar, lambda fs, rc, p: p["cvar"].update(tau_col=3),
                "uncertainty.parameters.cvar.tau_col"),
}


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

    def test_malformed_json_names_its_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "first_stage": [1,\n}\n')
        with pytest.raises(ValidationError, match=r"broken\.json: line 3: "):
            load_document(path)

    def test_non_finite_number_is_not_written(self, tmp_path):
        doc = lands_document()
        doc["metadata"]["scale"] = float("nan")
        path = tmp_path / "instance.json"
        with pytest.raises(ValidationError, match="non-finite number"):
            write_document(doc, path)
        assert not path.exists()

    @pytest.mark.parametrize("make, edit, path", DIMENSION_ERRORS.values(),
                             ids=list(DIMENSION_ERRORS))
    def test_dimension_error_names_its_field(self, make, edit, path):
        doc = make()
        edit(doc["first_stage"], doc["recourse"], doc["uncertainty"]["parameters"])
        with pytest.raises(ValidationError, match=f"^instance field {re.escape(path)}: "):
            validate_document(doc)


def discrete_document(n_scenarios: int) -> dict:
    """A valid discrete instance with per-scenario T, like the benchmark's."""
    rng = np.random.default_rng(n_scenarios)
    scenarios = [{"weight": 1.0 / n_scenarios, "h": [float(v)],
                  "T": [[1.0, float(t)]]}
                 for v, t in zip(rng.uniform(0.0, 3.0, n_scenarios),
                                 rng.uniform(0.0, 1.0, n_scenarios))]
    return {
        "first_stage": {"c": [1.0, 1.0], "A": [[1.0, 1.0]], "b": [1.0], "senses": ["<="]},
        "recourse": {"W": [[1.0, -1.0]], "q": [2.0, 0.5], "senses": [">="]},
        "uncertainty": {"kind": "discrete", "parameters": {"scenarios": scenarios}},
    }


def full_schema_message(doc: dict) -> str:
    """The schema error text from validating the whole document: sort the
    errors by path and report jsonschema's best match among them."""
    validator = jsonschema.Draft202012Validator(instance_schema())
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    assert errors
    err = jsonschema.exceptions.best_match(errors)
    path = ".".join(str(p) for p in err.absolute_path) or "<root>"
    return f"instance field {path}: {err.message}"


def _set_scenario(index, key, value):
    def edit(doc):
        doc["uncertainty"]["parameters"]["scenarios"][index][key] = value
    return edit


def _drop_h(doc):
    del doc["uncertainty"]["parameters"]["scenarios"][3]["h"]


def _set_scenarios(value):
    def edit(doc):
        doc["uncertainty"]["parameters"]["scenarios"] = value
    return edit


def _bad_item_and_bad_q(doc):
    _set_scenario(517, "weight", "heavy")(doc)
    doc["recourse"]["q"] = [2.0, "cheap"]


def _unusual_but_valid_then_bad(doc):
    scenarios = doc["uncertainty"]["parameters"]["scenarios"]
    scenarios[3]["weight"] = float("nan")
    scenarios[4]["weight"] = np.float64(0.5)
    scenarios[5]["h"] = [np.int64(2)]
    scenarios[700]["h"] = ["2.0"]


MALFORMED_DISCRETE = {
    "bool weight": (20, _set_scenario(3, "weight", True)),
    "negative weight": (20, _set_scenario(3, "weight", -0.5)),
    "string in h": (20, _set_scenario(3, "h", ["1.5"])),
    "extra scenario key": (20, _set_scenario(3, "name", "peak")),
    "missing h": (20, _drop_h),
    "T row not a list": (20, _set_scenario(3, "T", [1.0])),
    "scenarios not a list": (20, _set_scenarios({"0": {"weight": 1.0, "h": [1.0]}})),
    "scenarios empty": (20, _set_scenarios([])),
    "bad item at 0": (1000, _set_scenario(0, "weight", -1.0)),
    "bad item at 517": (1000, _set_scenario(517, "h", [None])),
    "bad item and bad recourse.q": (1000, _bad_item_and_bad_q),
    "NaN and NumPy items before a bad one": (1000, _unusual_but_valid_then_bad),
}


class TestDiscreteValidation:
    @pytest.mark.parametrize("n_scenarios, edit", MALFORMED_DISCRETE.values(),
                             ids=list(MALFORMED_DISCRETE))
    def test_message_matches_whole_document_schema(self, n_scenarios, edit):
        doc = discrete_document(n_scenarios)
        edit(doc)
        expected = full_schema_message(doc)
        with pytest.raises(ValidationError) as caught:
            validate_document(doc)
        assert str(caught.value) == expected

    def test_valid_list_reaches_the_schema_as_one_scenario(self, monkeypatch):
        seen = []
        iter_errors = jsonschema.Draft202012Validator.iter_errors

        def spy(self, instance, *args, **kwargs):
            seen.append(instance)
            return iter_errors(self, instance, *args, **kwargs)

        monkeypatch.setattr(jsonschema.Draft202012Validator, "iter_errors", spy)
        doc = discrete_document(1000)
        validate_document(doc)
        assert len(seen[0]["uncertainty"]["parameters"]["scenarios"]) == 1
        assert len(doc["uncertainty"]["parameters"]["scenarios"]) == 1000

    def test_dimensions_are_checked_on_every_scenario(self):
        doc = discrete_document(1000)
        doc["uncertainty"]["parameters"]["scenarios"][517]["h"] = [1.0, 2.0]
        with pytest.raises(ValidationError, match=r"scenarios\.517\.h: expected 1 entries"):
            validate_document(doc)


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
        assert isinstance(space, UniformRhsSpace)
        assert (space.lo, space.hi) == (3.0, 7.0)

    def test_mean_value_relaxation(self):
        doc = lands_document()
        model = document_to_model(doc)
        space = document_to_space(doc, model)
        from adaptpart.model import build_aggregated_master
        from adaptpart import lp as lplib
        part = space.trivial_partition()
        triples = [(c.mass, c.h_mean, c.t_mean) for c in part]
        prob = build_aggregated_master(model, triples)
        sol = lplib.solve(prob)
        assert sol.status == lplib.OPTIMAL
        assert sol.objective == pytest.approx(378.6667, abs=1e-3)

    def test_fixed_demand_is_single_scenario(self):
        doc = lands_document(d1_fixed=5.0)
        model = document_to_model(doc)
        space = document_to_space(doc, model)
        assert isinstance(space, DiscreteSpace)
        assert space.weights.size == 1
        assert space.hs[0][-3] == pytest.approx(5.0)

    def test_model_is_the_same_for_either_uncertainty(self):
        # the two documents differ only in their uncertainty block
        interval = document_to_model(lands_document())
        fixed = document_to_model(lands_document(d1_fixed=5.0))
        for field in dataclasses.fields(interval):
            a, b = getattr(interval, field.name), getattr(fixed, field.name)
            assert np.array_equal(a, b), field.name


class TestPortfolioDocument:
    def test_default_parameters(self):
        doc = cvar_document()
        params = doc["uncertainty"]["parameters"]
        npt.assert_allclose(params["mu"], [0.05, 0.07])
        npt.assert_allclose(params["sigma"], [[0.14, 0.053], [0.053, 0.23]])
        assert params["pool_size"] == 100_000
        assert params["cvar"]["delta"] == pytest.approx(0.1)
        model = document_to_model(doc)
        space = document_to_space(doc, model)
        assert space.pool.shape == (100_000, 2)

    def test_entries_build_the_technology_map(self):
        # each entry zeroes its cell of T_base and puts its scale on its component
        doc = cvar_document(pool_size=10)
        params = doc["uncertainty"]["parameters"]
        params["T_base"] = [[0.5, 0.3, 1.0]]
        params["entries"] = [{"row": 0, "col": 1, "component": 0, "scale": -2.0},
                             {"row": 0, "col": 0, "component": 1}]
        space = document_to_space(doc, document_to_model(doc))
        npt.assert_array_equal(space.T0, [[0.0, 0.0, 1.0]])
        npt.assert_array_equal(space.Tk, [[[0.0, 1.0], [-2.0, 0.0], [0.0, 0.0]]])
        assert params["T_base"] == [[0.5, 0.3, 1.0]]

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
        model = document_to_model(doc)
        with pytest.raises(ValidationError, match=path):
            document_to_space(doc, model)

    def test_cvar_marker_needs_a_single_recourse_row(self):
        doc = cvar_document(pool_size=200)
        doc["recourse"].update(W=[[1.0], [1.0]], senses=[">=", ">="])
        params = doc["uncertainty"]["parameters"]
        params["h_base"] = [0.0, 0.0]
        params["T_base"] = params["T_base"] * 2
        model = document_to_model(doc)
        with pytest.raises(ValidationError, match="recourse.senses"):
            document_to_space(doc, model)


class TestFirstStageFeasibility:
    def test_infeasible_first_stage_rejected(self):
        doc = lands_document()
        doc["first_stage"]["b"] = [12.0, 1.0]  # budget below minimum capacity
        validate_document(doc)
        with pytest.raises(ValidationError):
            document_to_model(doc)
