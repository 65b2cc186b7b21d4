"""Partition trace: one pinned cell entry per backend, keys in report order."""
import json

import numpy as np
import pytest

from adaptpart.engine import SolverConfig, run
from adaptpart.instances import (cvar_document, document_to_model, document_to_space,
                                 lands_document)
from adaptpart.model import RecourseModel
from adaptpart.refiners import refiner_by_name
from adaptpart.reporting import (_json_text, partition_trace, partition_trace_json,
                                 write_run_report)
from adaptpart.spaces import DiscreteSpace, UniformRhsSpace

from _generators import random_discrete_space, random_recourse_model


def shortage_model() -> RecourseModel:
    return RecourseModel(
        c=np.array([0.1]), A=np.array([[1.0]]), b=np.array([10.0]), senses=("<=",),
        W=np.array([[1.0]]), q=np.array([1.0]), recourse_senses=(">=",))


def split_entries(space, *how):
    """Report entries of the children after one split of the whole support."""
    part = space.split_cell(space.trivial_partition()[0], *how)
    trace = json.loads(json.dumps(partition_trace([part], space)))
    return trace[0]["cells"]


def test_discrete_cell_entry():
    space = DiscreteSpace(shortage_model(), [0.25, 0.5, 0.25], [[1.0], [2.0], [5.0]],
                          np.ones((3, 1, 1)))
    entry = split_entries(space, ((0, 2), (1,)))[0]
    assert list(entry) == ["label", "mass", "estimate", "sample_count",
                           "geometry", "h_mean"]
    assert entry == {"label": "0.0", "mass": 0.5, "estimate": "exact",
                     "sample_count": 2,
                     "geometry": {"type": "scenarios", "indices": [0, 2]},
                     "h_mean": [3.0]}
    assert list(entry["geometry"]) == ["type", "indices"]


def test_interval_cell_entry():
    space = UniformRhsSpace(shortage_model(), [0.0], [[1.0]], 0, 1.0, 3.0)
    entry = split_entries(space, (2.5,))[1]
    assert list(entry) == ["label", "mass", "estimate", "geometry", "midpoint"]
    assert entry == {"label": "0.1", "mass": 0.25, "estimate": "exact",
                     "geometry": {"type": "interval", "lo": 2.5, "hi": 3.0},
                     "midpoint": 2.75}
    assert list(entry["geometry"]) == ["type", "lo", "hi"]


def test_region_cell_entry():
    doc = cvar_document(pool_size=200)
    model = document_to_model(doc)
    space = document_to_space(doc, model)
    entry = split_entries(space, (1.0, 0.0), 0.05, space.pool[:, 0] <= 0.05)[0]
    inside = space.pool[space.pool[:, 0] <= 0.05]
    assert list(entry) == ["label", "mass", "estimate", "sample_count",
                           "geometry", "xi_mean"]
    assert list(entry["geometry"]) == ["type", "halfspaces"]
    assert entry["label"] == "0.0"
    assert entry["mass"] == len(inside) / 200
    assert entry["estimate"] == "monte-carlo"
    assert entry["sample_count"] == len(inside)
    assert entry["geometry"] == {"type": "region",
                                 "halfspaces": [{"normal": [1.0, 0.0], "offset": 0.05}]}
    assert entry["xi_mean"] == pytest.approx(list(inside.mean(axis=0)), rel=1e-12)


def discrete_pair():
    rng = np.random.default_rng(3)
    model, T = random_recourse_model(rng, n_first=3, m=2)
    return model, random_discrete_space(rng, model, T, n_scenarios=30)


def document_pair(doc):
    model = document_to_model(doc)
    return model, document_to_space(doc, model)


@pytest.mark.parametrize("make", [
    discrete_pair,
    lambda: document_pair(lands_document()),
    lambda: document_pair(cvar_document(seed=0, pool_size=2000)),
], ids=["discrete", "interval", "region"])
def test_partitions_file_is_the_trace_dump(tmp_path, make):
    model, space = make()
    result = run(model, space, refiner_by_name("auto", space), SolverConfig())
    assert len(result.partitions) > 1
    paths = write_run_report(str(tmp_path), result, space, model)
    expected = json.dumps(partition_trace(result.partitions, space), indent=2) + "\n"
    with open(paths["partitions"], "rb") as fh:
        assert fh.read() == expected.encode("utf-8")


def test_region_partitions_reuse_cells():
    # the encoder memo is keyed by Cell object, so its worth rests on
    # consecutive partitions sharing the cells that did not split
    model, space = document_pair(cvar_document(seed=0, pool_size=2000))
    result = run(model, space, refiner_by_name("auto", space), SolverConfig())
    entries = [c for part in result.partitions for c in part]
    assert len({id(c) for c in entries}) < len(entries)


def region_partitions():
    """Region partitions of a 200-draw pool: the whole space (no halfspaces),
    one cut whose normal has a zero component (its complement writes -0.0),
    and a cut of the first child with the coefficients 1e16 and 1e-300."""
    _, space = document_pair(cvar_document(pool_size=200))
    whole = space.trivial_partition()
    first = split_with_mask(space, whole[0], (0.0, 1.0), 0.07)
    second = split_with_mask(space, first[0], (1e16, 1e-300), 5e14) + first[1:]
    assert len(first) == 2 and len(second) == 3
    return space, [whole, first, second]


def split_with_mask(space, cell, normal, offset):
    return space.split_cell(cell, normal, offset, space.pool @ np.asarray(normal) <= offset)


def discrete_partitions():
    space = DiscreteSpace(shortage_model(), [0.25, 0.5, 0.25], [[1.0], [2.0], [5.0]],
                          np.ones((3, 1, 1)))
    whole = space.trivial_partition()
    return space, [whole, space.split_cell(whole[0], ((0, 2), (1,)))]


def interval_partitions():
    space = UniformRhsSpace(shortage_model(), [0.0], [[1.0]], 0, 1.0, 3.0)
    whole = space.trivial_partition()
    return space, [whole, space.split_cell(whole[0], (1.1, 2.5))]


@pytest.mark.parametrize("make", [region_partitions, discrete_partitions, interval_partitions],
                         ids=["region", "discrete", "interval"])
def test_trace_text_is_the_json_dump(make):
    space, partitions = make()
    assert (partition_trace_json(partitions, space)
            == json.dumps(partition_trace(partitions, space), indent=2) + "\n")


def test_json_text_writes_what_json_dumps_writes():
    value = {"label": "Zürich ☃ \"q\"\n", "none": None, "flags": [True, False],
             "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 0.1, 1e-300, 1e16],
             "ints": [0, -3, 10 ** 20], "empty": {"list": [], "dict": {}, "str": ""},
             "mixed": [1, 2.5, "s", None, [], {"t": (1, "a")}]}
    assert _json_text(value, "") == json.dumps(value, indent=2)
    assert _json_text(value, "    ") == json.dumps(value, indent=2).replace("\n", "\n    ")
    assert _json_text(float("nan"), "") == "NaN"
    with pytest.raises(TypeError):
        _json_text([np.float64(1.0)], "")
