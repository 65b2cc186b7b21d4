"""Spans around calls into each adaptpart layer, for the traced run.

The program is not edited: `Tracer.install` replaces module and class
attributes with timing wrappers and `uninstall` puts the originals back.
`engine` and `refiners` bind `evaluate_subproblem`, `build_aggregated_master`,
`rhs_dual_breakpoints` and `check_conditions` by name, so each wrapper is set
on the module where that name is looked up.  LP solves are classified by the
span that caused them: a solve called straight from `engine.run` is the
aggregated master, any other solve inside a run is a subproblem.
"""
from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from adaptpart import engine, instances, lp, refiners, reporting, spaces

_clock = time.perf_counter

# (owner, attribute, span name) for every wrapped entry point
TARGETS = (
    (lp, "solve", "lp.solve"),
    (lp, "rhs_ranging", "lp.rhs_ranging"),
    (engine, "build_aggregated_master", "model.build_aggregated_master"),
    (engine, "evaluate_subproblem", "model.evaluate_subproblem"),
    (refiners, "evaluate_subproblem", "model.evaluate_subproblem"),
    (engine, "run", "engine.run"),
    (engine, "compute_upper_bound", "engine.compute_upper_bound"),
    (engine, "check_conditions", "engine.check_conditions"),
    (engine, "rhs_dual_breakpoints", "refiners.rhs_dual_breakpoints"),
    (refiners, "rhs_dual_breakpoints", "refiners.rhs_dual_breakpoints"),
    (refiners.RefineContext, "atomized", "refiners.atomized"),
    (refiners.DualClusteringRefiner, "refine", "refiners.refine"),
    (refiners.RangingRefiner, "refine", "refiners.refine"),
    (refiners.HyperplaneRefiner, "refine", "refiners.refine"),
    (spaces.UncertaintySpace, "split_cell", "spaces.split_cell"),
    (instances, "load_document", "instances.load_document"),
    (instances, "validate_document", "instances.validate_document"),
    (instances, "document_to_model", "instances.document_to_model"),
    (instances, "document_to_space", "instances.document_to_space"),
    (reporting, "write_run_report", "reporting.write_run_report"),
)


class _Frame:
    __slots__ = ("sid", "name", "start", "child", "x")

    def __init__(self, sid, name, start):
        self.sid = sid
        self.name = name
        self.start = start
        self.child = 0.0
        self.x = None


class Tracer:
    """In-memory span recorder with per-name totals, self times and the
    counts the per-layer metrics need.  `reset` starts a new tally."""

    def __init__(self):
        self._saved: list = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []   # (id, parent id, name, start, end)
        self._stack: list[_Frame] = []
        self._refine_depth = 0
        self._next_id = 0
        self._run_index = 0
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(int)
        self.master_s = 0.0
        self.subproblem_s = 0.0
        self.conditions_s = 0.0
        self.max_cells = 0
        self.max_master_entries = 0
        self._bases: set = set()
        self._evaluated: set = set()

    # ------------------------------------------------------------ install

    @contextmanager
    def recording(self):
        """Start a new tally and trace the program until the block ends."""
        self.reset()
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            frame = self._open(name, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._close(frame)
            self._account(name, args, result, duration)
            return result
        traced.__wrapped__ = fn
        return traced

    # -------------------------------------------------------------- spans

    def _open(self, name, args) -> _Frame:
        stack = self._stack
        frame = _Frame(self._next_id, name, _clock())
        self._next_id += 1
        if name == "model.evaluate_subproblem":
            frame.x = np.asarray(args[1], dtype=float).tobytes()
            real = args[2]
            self.count["evaluations"] += 1
            self._evaluated.add((self._run_index, frame.x, real.h.tobytes(), real.T.tobytes()))
            if stack and stack[-1].name == "refiners.atomized":
                self.count["atomized_samples"] += 1
        elif name == "refiners.rhs_dual_breakpoints":
            frame.x = np.asarray(args[2], dtype=float).tobytes()
        elif name == "refiners.refine":
            self._refine_depth += 1
        elif name == "engine.run":
            # basis reuse and duplicate evaluations are counted within a run
            self._run_index += 1
        stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> float:
        end = _clock()
        stack = self._stack
        stack.pop()
        duration = end - frame.start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child += duration
        self.spans.append((frame.sid, parent.sid if parent else None,
                           frame.name, frame.start, end))
        name = frame.name
        self.total[name] += duration
        self.self_time[name] += duration - frame.child
        self.calls[name] += 1
        if name == "refiners.refine":
            self._refine_depth -= 1
        elif name in ("refiners.atomized", "engine.check_conditions") \
                and self._refine_depth == 0:
            self.conditions_s += duration
        return duration

    def _account(self, name, args, result, duration) -> None:
        if name == "lp.solve":
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                return
            if parent.name == "engine.run":
                problem = args[0]
                self.count["master_solves"] += 1
                self.master_s += duration
                self.max_master_entries = max(self.max_master_entries,
                                              problem.n_rows * problem.n_cols)
            elif parent.x is not None:
                self.count["subproblem_solves"] += 1
                self.subproblem_s += duration
                key = (self._run_index, parent.x, result.basis, result.kept_rows)
                if result.basis is not None and key in self._bases:
                    self.count["basis_reused"] += 1
                else:
                    self._bases.add(key)
                if parent.name == "refiners.rhs_dual_breakpoints":
                    self.count["breakpoint_probes"] += 1
        elif name == "refiners.rhs_dual_breakpoints":
            self.count["breakpoints"] += len(result)
        elif name == "model.build_aggregated_master":
            self.max_cells = max(self.max_cells, len(args[1]))
        elif name == "engine.run":
            self.count["iterations"] += len(result.records)
        elif name == "reporting.write_run_report":
            self.count["report_bytes"] += sum(os.path.getsize(p) for p in result.values())

    def solve_metrics(self) -> dict:
        """Per-layer metrics of the solve spans recorded since `reset`."""
        c = self.count
        sub = c["subproblem_solves"]
        return {
            "lp.subproblem.calls": sub,
            "lp.subproblem.us_per_call": 1e6 * self.subproblem_s / sub if sub else 0.0,
            "lp.subproblem.basis_reuse_share": c["basis_reused"] / sub if sub else 0.0,
            "lp.master.solve_s": self.master_s,
            "lp.master.tableau_mb": 8.0 * self.max_master_entries / 1e6,
            "lp.rhs_ranging.calls": self.calls["lp.rhs_ranging"],
            "lp.rhs_ranging.self_s": self.self_time["lp.rhs_ranging"],
            "model.build_master.self_s": self.self_time["model.build_aggregated_master"],
            "model.master.cells": self.max_cells,
            "model.evaluate_subproblem.self_s": self.self_time["model.evaluate_subproblem"],
            "model.evaluate_subproblem.unique_share":
                len(self._evaluated) / c["evaluations"] if c["evaluations"] else 0.0,
            "engine.upper_bound.s": self.total["engine.compute_upper_bound"],
            "engine.conditions.s": self.conditions_s,
            "engine.iterations": c["iterations"],
            "refiners.refine.s": self.total["refiners.refine"],
            "refiners.atomized.samples": c["atomized_samples"],
            "refiners.breakpoints.probes": c["breakpoint_probes"],
            "refiners.breakpoints.probes_per_point":
                c["breakpoint_probes"] / c["breakpoints"] if c["breakpoints"] else 0.0,
            "spaces.split_cell.calls": self.calls["spaces.split_cell"],
            "spaces.split_cell.s": self.total["spaces.split_cell"],
            "reporting.write_run_report.s": self.total["reporting.write_run_report"],
            "reporting.bytes": c["report_bytes"],
        }

    def setup_metrics(self) -> dict:
        """Per-layer metrics of the set-up spans recorded since `reset`."""
        return {
            "instances.validate.s": self.total["instances.validate_document"],
            "instances.document_to_model.s": self.total["instances.document_to_model"],
            "instances.document_to_space.s": self.total["instances.document_to_space"],
        }

    def write_spans(self, path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in sorted(self.spans, key=lambda s: s[3]):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start - t0, "end": end - t0}) + "\n")
