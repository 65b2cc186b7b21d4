"""Partition trace: one pinned cell entry per backend, keys in report order."""
import json

import numpy as np
import pytest

from adaptpart.instances import cvar_document, document_to_model, document_to_space
from adaptpart.model import RandomLayout, RecourseModel
from adaptpart.reporting import partition_trace
from adaptpart.spaces import (Breakpoints, DiscreteSpace, HyperplaneSplit,
                              ScenarioRegroup, UniformRhsSpace)


def shortage_model() -> RecourseModel:
    return RecourseModel(
        c=np.array([0.1]), A=np.array([[1.0]]), b=np.array([10.0]), senses=("<=",),
        W=np.array([[1.0]]), q=np.array([1.0]), recourse_senses=(">=",),
        h_base=np.array([0.0]), T_base=np.array([[1.0]]),
        layout=RandomLayout(rhs_rows=(0,)))


def split_entries(space, splitter):
    """Report entries of the children after one split of the whole support."""
    part = space.trivial_partition()
    part = space.split_cell(part, part.cells[0].label, splitter)
    trace = json.loads(json.dumps(partition_trace([part], space)))
    return trace[0]["cells"]


def test_discrete_cell_entry():
    model = shortage_model()
    reals = [model.realization(h=np.array([v]), weight=w)
             for v, w in ((1.0, 0.25), (2.0, 0.5), (5.0, 0.25))]
    space = DiscreteSpace(reals)
    entry = split_entries(space, ScenarioRegroup(((0, 2), (1,))))[0]
    assert list(entry) == ["label", "mass", "estimate", "sample_count",
                           "geometry", "h_mean"]
    assert entry == {"label": "0.0", "mass": 0.5, "estimate": "exact",
                     "sample_count": 2,
                     "geometry": {"type": "scenarios", "indices": [0, 2]},
                     "h_mean": [3.0]}
    assert list(entry["geometry"]) == ["type", "indices"]


def test_interval_cell_entry():
    space = UniformRhsSpace(shortage_model(), 0, 1.0, 3.0)
    entry = split_entries(space, Breakpoints((2.5,)))[1]
    assert list(entry) == ["label", "mass", "estimate", "geometry", "midpoint"]
    assert entry == {"label": "0.1", "mass": 0.25, "estimate": "exact",
                     "geometry": {"type": "interval", "lo": 2.5, "hi": 3.0},
                     "midpoint": 2.75}
    assert list(entry["geometry"]) == ["type", "lo", "hi"]


def test_region_cell_entry():
    doc = cvar_document(pool_size=200)
    model = document_to_model(doc)
    space = document_to_space(doc, model)
    entry = split_entries(space, HyperplaneSplit((1.0, 0.0), 0.05))[0]
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
