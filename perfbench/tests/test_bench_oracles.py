"""Each correctness check accepts the program's answer and rejects a wrong one."""
from types import SimpleNamespace

import numpy as np
import pytest

from adaptpart import (SolverConfig, cvar_document, document_to_model, document_to_space,
                       lands_document, refiner_by_name, run)

import inputs
import oracles

NEWSVENDOR_FIRST = {"c": [1.0], "A": [[1.0]], "b": [10.0], "senses": ["<="]}
NEWSVENDOR_RECOURSE = {"W": [[1.0]], "q": [2.0], "senses": [">="]}


def solve(doc, epsilon):
    model = document_to_model(doc)
    space = document_to_space(doc, model)
    return run(model, space, refiner_by_name("auto", space), SolverConfig(epsilon=epsilon)), space


def shifted(result, **changes):
    fields = {"objective": result.objective, "best_upper": result.best_upper,
              "x_star": result.x_star, "records": result.records,
              "termination": result.termination}
    fields.update(changes)
    return SimpleNamespace(**fields)


def test_extensive_form_of_a_newsvendor():
    # min x + 2 E[(d - x)+] with d = 1 or 3: flat at 3 on [1, 3]
    scenarios = [(0.5, [1.0], [[1.0]]), (0.5, [3.0], [[1.0]])]
    value = oracles.extensive_form_value(NEWSVENDOR_FIRST, NEWSVENDOR_RECOURSE, scenarios)
    assert value == pytest.approx(3.0, abs=1e-9)
    at_zero = oracles.extensive_form_value(NEWSVENDOR_FIRST, NEWSVENDOR_RECOURSE, scenarios,
                                           x_fixed=[0.0])
    assert at_zero == pytest.approx(4.0, abs=1e-9)


def test_discrete_check():
    doc = inputs.discrete_document(3, n_scenarios=40)
    result, _ = solve(doc, 1e-6)
    assert oracles.check_discrete(doc, result, 1e-6) == oracles.OK
    low = shifted(result, objective=result.objective - 1e-3)
    assert oracles.check_discrete(doc, low, 1e-6) != oracles.OK
    high = shifted(result, best_upper=result.best_upper + 1e-3)
    assert oracles.check_discrete(doc, high, 1e-6) != oracles.OK


def test_quadrature_brackets_a_convex_integral():
    # x = 1, d ~ U[0, 4]: 1 + 2 E[(d - 1)+] = 1 + 2 * (9/2) / 4 = 3.25
    params = {"h_base": [0.0], "row": 0, "T": [[1.0]]}
    values = []
    for nodes in (oracles.midpoint_nodes(0.0, 4.0, 8), oracles.trapezoid_nodes(0.0, 4.0, 8)):
        scenarios = oracles.uniform_scenarios(params, *nodes)
        values.append(oracles.extensive_form_value(NEWSVENDOR_FIRST, NEWSVENDOR_RECOURSE,
                                                   scenarios, x_fixed=[1.0]))
    assert values[0] <= 3.25 <= values[1]
    assert values[1] - values[0] < 0.05


def test_energy_check():
    doc = lands_document(5.0, 7.0)
    result, _ = solve(doc, 1e-9)
    assert oracles.check_energy(doc, result, 1e-9) == oracles.OK
    ub = result.records[-1].upper_bound + 1e-2
    record = SimpleNamespace(upper_bound=ub, gap=None)
    wrong = shifted(result, records=(record,), best_upper=ub)
    assert oracles.check_energy(doc, wrong, 1e-9) != oracles.OK


def test_tail_average_and_search():
    losses = np.arange(1.0, 11.0)
    assert oracles.pool_tail_average(losses, 0.3) == pytest.approx(9.0)
    assert oracles.pool_tail_average(losses, 0.25) == pytest.approx(9.2)
    value, t = oracles.golden_minimum(lambda s: abs(s - 0.3) + 1.0)
    assert t == pytest.approx(0.3, abs=1e-9) and value == pytest.approx(1.0)
    # loss -r for r ~ N(0, 1): the 0.5-tail mean is pdf(0) / 0.5
    bound = oracles.normal_tail_bound([0.0, 0.0], np.eye(2), 0.5, [1.0, 0.0])
    assert bound == pytest.approx(2.0 / np.sqrt(2.0 * np.pi))


def test_cvar_check():
    doc = cvar_document(seed=1, pool_size=2000)   # converges by the conditions
    result, space = solve(doc, 1e-4)
    assert oracles.check_cvar(doc, space.pool, result, 1e-4) == oracles.OK
    low = result.objective - 0.01 * abs(result.objective)
    stop = SimpleNamespace(gap=-1e-3)
    fault = shifted(result, objective=low, termination="gap", records=(stop,))
    assert oracles.check_cvar(doc, space.pool, fault, 1e-4) == oracles.KNOWN_FAULT
    wrong = shifted(result, objective=low)
    assert oracles.check_cvar(doc, space.pool, wrong, 1e-4) not in (oracles.OK,
                                                                      oracles.KNOWN_FAULT)
    off = shifted(result, x_star=np.array([0.7, 0.7, 0.0]))
    assert oracles.check_cvar(doc, space.pool, off, 1e-4) != oracles.OK
