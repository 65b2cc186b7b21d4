"""The metric table, the tracer and the comparison verdicts."""
import json
from pathlib import Path

import pytest

from adaptpart import engine, lp, refiners

import compare
import harness
import run
from tracing import TARGETS, Tracer

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_reported_ones():
    tracer = Tracer()
    layer = {**tracer.solve_metrics(), **tracer.setup_metrics(), "trace.overhead_s": 0.0}
    assert sorted(m["name"] for m in SPEC["per_layer"]) == sorted(layer)
    assert all(m["unit"] == harness._unit(m["name"]) for m in SPEC["per_layer"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        "solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_tracer_counts_every_solve_and_restores_the_program(tmp_path):
    items = harness.prepare("discrete-scenarios", 5, tmp_path)
    harness.set_up(items)
    originals = [owner.__dict__[attr] for owner, attr, _ in TARGETS]
    tracer = Tracer()
    rounds = harness.Rounds(items, tmp_path / "reports")
    with tracer.recording():
        rounds.run_round()
    assert [owner.__dict__[attr] for owner, attr, _ in TARGETS] == originals
    assert engine.evaluate_subproblem is refiners.evaluate_subproblem
    result = rounds.first[items[0].name]
    metrics = tracer.solve_metrics()
    assert metrics["lp.subproblem.calls"] + tracer.count["master_solves"] == \
        result.stats["lp_solves"]
    assert tracer.count["master_solves"] == metrics["engine.iterations"] == len(result.records)
    assert metrics["refiners.atomized.samples"] == 1000
    assert 0.0 < metrics["model.evaluate_subproblem.unique_share"] <= 1.0
    assert tracer.calls["lp.solve"] == result.stats["lp_solves"]
    assert lp.solve.__module__ == "adaptpart.lp"


SOLVE = {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.1}


@pytest.mark.parametrize("base, change, expected", [
    ([1.0, 1.01, 0.99, 1.0], None, "steady"),
    ([1.0, 1.3, 0.8, 1.0], None, "unresolved"),
    ([1.0, 1.01, 0.99, 1.0], [1.0, 1.02, 0.98, 1.0], "within bound"),
    ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "WORSE by 20.0%"),
    ([1.0, 1.3, 0.8, 1.0], [1.1, 1.4, 0.9, 1.0], "unresolved"),
    ([1.0, 1.3, 0.8, 1.0], [0.5, 0.6, 0.4, 0.5], "better in every run"),
])
def test_verdicts(base, change, expected):
    assert compare.verdict(SOLVE, base, change) == expected
