"""Run artifacts: iteration table CSV, partition trace JSON, run summary."""
from __future__ import annotations

import json
import os

from .engine import SolveResult
from .model import RecourseModel
from .spaces import UncertaintySpace

CSV_HEADER = "iter,lb,ub,gap_pct,cells"


def _fmt(value) -> str:
    if value is None:
        return ""
    return "%.6g" % value


def iteration_csv_text(records, n_first: int) -> str:
    """Fixed-format CSV of the iteration history; byte-stable for a given
    run so identical runs produce identical files."""
    cols = CSV_HEADER + "".join(",x%d" % j for j in range(n_first))
    lines = [cols]
    for r in records:
        gap_pct = None if r.gap is None else 100.0 * r.gap
        cells = [str(r.index), _fmt(r.lower_bound), _fmt(r.upper_bound),
                 _fmt(gap_pct), str(r.cell_count)]
        cells.extend(_fmt(float(v)) for v in r.incumbent)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _cell_entry(cell, space: UncertaintySpace) -> dict:
    entry: dict = {"label": cell.label, "mass": cell.mass, "estimate": space.estimate}
    if cell.sample_count is not None:
        entry["sample_count"] = cell.sample_count
    entry.update(space.cell_report(cell))
    return entry


def partition_trace(partitions, space: UncertaintySpace) -> list[dict]:
    """One entry per iteration: the partition the master was solved on."""
    return [{"iteration": t + 1,
             "cells": [_cell_entry(c, space) for c in part]}
            for t, part in enumerate(partitions)]


def partition_trace_json(partitions, space: UncertaintySpace) -> str:
    """The text `json.dumps(partition_trace(...), indent=2)` gives, plus a
    newline, for the partitions of a run (never empty, nor is any of them).
    Consecutive partitions share most of their Cell objects, so each
    distinct cell is encoded once and its text spliced in wherever it
    recurs."""
    encode = json.JSONEncoder(indent=2).encode
    texts: dict[int, str] = {}
    blocks = []
    for t, part in enumerate(partitions):
        cells = []
        for c in part:
            text = texts.get(id(c))
            if text is None:
                # a cell entry sits three levels deep in the trace
                text = texts[id(c)] = encode(_cell_entry(c, space)).replace("\n", "\n      ")
            cells.append(text)
        blocks.append('{\n    "iteration": %d,\n    "cells": [\n      %s\n    ]\n  }'
                      % (t + 1, ",\n      ".join(cells)))
    return "[\n  " + ",\n  ".join(blocks) + "\n]\n"


def run_summary(result: SolveResult) -> dict:
    last = result.records[-1]
    return {
        "termination": result.termination,
        "iterations": result.stats["iterations"],
        "wall_time_s": result.stats["wall_time_s"],
        "master_solves": result.stats["master_solves"],
        "lp_solves": result.stats["lp_solves"],
        "basis_hits": result.stats["basis_hits"],
        "final_lb": last.lower_bound,
        "final_ub_best": result.best_upper,
        "final_gap_pct": None if last.gap is None else 100.0 * last.gap,
        "x_star": [float(v) for v in result.x_star],
        "final_cells": len(result.partition),
    }


def write_run_report(out_dir: str, result: SolveResult,
                     space: UncertaintySpace, model: RecourseModel) -> dict:
    """Write iterations.csv, partitions.json, and summary.json; returns the
    path of each artifact."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "iterations": os.path.join(out_dir, "iterations.csv"),
        "partitions": os.path.join(out_dir, "partitions.json"),
        "summary": os.path.join(out_dir, "summary.json"),
    }
    with open(paths["iterations"], "w", encoding="utf-8") as fh:
        fh.write(iteration_csv_text(result.records, model.n_first))
    with open(paths["partitions"], "w", encoding="utf-8") as fh:
        fh.write(partition_trace_json(result.partitions, space))
    with open(paths["summary"], "w", encoding="utf-8") as fh:
        json.dump(run_summary(result), fh, indent=2)
        fh.write("\n")
    return paths
