"""Acceptance gate: end-to-end guarantees the package ships under.

Each test exercises one shipped promise and prints a single
``[PASS]``/``[FAIL]`` verdict line (visible in the run log via ``-rA``).
"""
import json
import time
from itertools import combinations

import numpy as np
import pytest

from adaptpart import cli
from adaptpart import lp as lplib
from adaptpart.engine import (CONDITIONS, GAP, SolverConfig, check_conditions,
                              run)
from adaptpart.instances import (cvar_document, document_to_model,
                                 document_to_space, lands_document)
from adaptpart.model import Realization, build_aggregated_master, evaluate_subproblem
from adaptpart.refiners import DualClusteringRefiner, HyperplaneRefiner

from _generators import (random_discrete_space, random_first_stage_point,
                         random_recourse_model)
from _oracles import extensive_form, vertex_enumerate

# Frozen reference trajectory for the bundled capacity-expansion instance
# (demand for the first product uniform on [3, 7]).
ENERGY_LB = (378.667, 380.122, 380.601, 380.842, 380.843, 380.844)
ENERGY_UB = (382.711, 381.100, 380.844, 380.893, 380.856, 380.847)
ENERGY_X6 = (1.875, 4.042, 3.646, 2.438)


class NoBoundClustering(DualClusteringRefiner):
    """Dual clustering without an upper bound, so a run stops only on the
    conditions, a stable partition or the iteration limit."""

    def upper_bound(self, ctx):
        return None


def verdict(name: str, ok: bool, detail: str = "") -> None:
    tail = f" — {detail}" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{tail}")
    assert ok, f"{name}{tail}"


def test_energy_reference_trajectory(tmp_path):
    """Six solver iterations on the bundled energy instance reproduce the
    frozen bound trajectory and final incumbent."""
    t0 = time.perf_counter()
    instance = tmp_path / "energy.json"
    assert cli.main(["make-lands", "--output", str(instance)]) == 0
    out_dir = tmp_path / "report"
    code = cli.main(["run", "--instance", str(instance), "--epsilon", "1e-9",
                     "--max-iters", "6", "--out-dir", str(out_dir)])
    elapsed = time.perf_counter() - t0

    lines = (out_dir / "iterations.csv").read_text().strip().splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    ok = code == 2 and len(rows) == 6
    problems = [] if ok else [f"exit={code} rows={len(rows)}"]
    if ok:
        lb = [float(r[1]) for r in rows]
        ub = [float(r[2]) for r in rows]
        if not all(abs(a - e) <= 0.01 for a, e in zip(lb, ENERGY_LB)):
            problems.append(f"lb={lb}")
        if not all(abs(a - e) <= 0.01 for a, e in zip(ub, ENERGY_UB)):
            problems.append(f"ub={ub}")
        final_gap_pct = float(rows[-1][3])
        if not final_gap_pct <= 0.001:
            problems.append(f"final gap {final_gap_pct}%")
        x6 = [float(v) for v in rows[-1][5:9]]
        if not all(abs(a - e) <= 0.01 for a, e in zip(x6, ENERGY_X6)):
            problems.append(f"x6={x6}")
    if elapsed >= 5.0:
        problems.append(f"{elapsed:.2f}s")
    verdict("energy reference trajectory",
            not problems, "; ".join(problems) or f"{elapsed:.2f}s, 6 iterations")


def test_discrete_aggregation_is_exact():
    """On 200 random discrete problems the aggregated solver terminates at the
    extensive-form optimum with a partition whose aggregation is provably
    exact."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240816)
    shapes = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 0), (2, 1), (2, 2), (3, 0)]
    solved = 0
    problems = []
    for trial in range(200):
        m, extra = shapes[rng.integers(len(shapes))]
        model, T = random_recourse_model(rng, m=m, extra_cols=extra)
        assert 3 <= model.n_second <= 6 and 2 <= model.n_first <= 4
        space = random_discrete_space(rng, model, T)
        sol = lplib.solve(extensive_form(model, space.weights, space.hs,
                                         space.Ts))
        assert sol.status == lplib.OPTIMAL
        solved += 1
        result = run(model, space, NoBoundClustering(),
                     SolverConfig(epsilon=1e-15, max_iterations=80))
        if result.termination != CONDITIONS:
            problems.append(f"trial {trial}: stopped on {result.termination}")
            break
        rel = abs(result.objective - sol.objective) / max(1.0, abs(sol.objective))
        if rel > 1e-6:
            problems.append(f"trial {trial}: off by {rel:.2e}")
            break
        for cell in result.partition:
            idx = list(cell.geometry.indices)
            w = space.weights[idx]
            outs = [evaluate_subproblem(model, result.x_star,
                                        space.realizations[i]) for i in idx]
            if not check_conditions(w / w.sum(), space.hs[idx], space.Ts[idx],
                                    [o.duals for o in outs], result.x_star,
                                    1e-6):
                problems.append(f"trial {trial}: cell {cell.label} inexact")
                break
        if problems:
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"{elapsed:.1f}s")
    verdict("discrete aggregation exactness",
            not problems and solved == 200,
            "; ".join(problems) or f"200 instances, {elapsed:.1f}s")


def test_cell_averaging_lemmas():
    """Averaging a cell's subproblem solutions yields a feasible primal for the
    aggregated subproblem, a feasible dual, and the one-sided mean-value bound."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7321)
    problems = []
    for trial in range(100):
        model, T = random_recourse_model(rng)
        space = random_discrete_space(rng, model, T)
        x_bar = random_first_stage_point(rng, model)
        w = space.weights
        outs = [evaluate_subproblem(model, x_bar, r) for r in space.realizations]

        y_bar = sum(wi * o.x for wi, o in zip(w, outs))
        lam_bar = sum(wi * o.duals for wi, o in zip(w, outs))
        h_mean = w @ space.hs
        t_mean = np.tensordot(w, space.Ts, axes=(0, 0))
        resid = model.W @ y_bar - (h_mean - t_mean @ x_bar)
        for i, sense in enumerate(model.recourse_senses):
            bad = (sense == "=" and abs(resid[i]) > 1e-7) or \
                  (sense == "<=" and resid[i] > 1e-7) or \
                  (sense == ">=" and resid[i] < -1e-7)
            if bad:
                problems.append(f"trial {trial}: primal residual {resid[i]:.2e}")
                break
        if problems:
            break
        slack = model.W.T @ lam_bar - model.q
        if slack.max() > 1e-7:
            problems.append(f"trial {trial}: dual violation {slack.max():.2e}")
            break
        mean_q = evaluate_subproblem(
            model, x_bar, Realization(h_mean, t_mean)).objective
        expect_q = float(sum(wi * o.objective for wi, o in zip(w, outs)))
        if mean_q > expect_q + 1e-7:
            problems.append(f"trial {trial}: mean-value bound off by "
                            f"{mean_q - expect_q:.2e}")
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        problems.append(f"{elapsed:.1f}s")
    verdict("cell averaging lemmas", not problems,
            "; ".join(problems) or f"100 cells, {elapsed:.1f}s")


def test_tail_risk_portfolio_properties():
    """The documented two-asset tail-risk instance converges below 0.5% gap
    with pool-exact monotone lower bounds and dual-constant children."""
    t0 = time.perf_counter()
    doc = cvar_document()
    model = document_to_model(doc)
    space = document_to_space(doc, model)
    result = run(model, space, HyperplaneRefiner(),
                 SolverConfig(epsilon=0.005, max_iterations=15))
    problems = []
    if result.termination != GAP or len(result.records) > 15:
        problems.append(f"termination {result.termination} after "
                        f"{len(result.records)} iterations")
    lbs = [r.lower_bound for r in result.records]
    if not all(b >= a - 1e-9 for a, b in zip(lbs, lbs[1:])):
        problems.append(f"lower bounds not monotone: {lbs}")
    sizes = [r.cell_count for r in result.records]
    if not all(b > a for a, b in zip(sizes, sizes[1:])):
        problems.append(f"partition sizes not strictly increasing: {sizes}")
    for t in range(1, len(result.partitions)):
        prev = {c.label for c in result.partitions[t - 1]}
        x_prev = result.records[t - 1].incumbent
        for cell in result.partitions[t]:
            if cell.label in prev:
                continue
            w, reals = space.cell_samples(cell, cap=100)
            duals = np.stack([evaluate_subproblem(model, x_prev, r).duals
                              for r in reals])
            spread = float((duals.max(axis=0) - duals.min(axis=0)).max())
            if spread > 1e-6:
                problems.append(f"iteration {t + 1} child {cell.label} dual "
                                f"spread {spread:.2e}")
                break
        if problems:
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        problems.append(f"{elapsed:.1f}s")
    gap_pct = 100.0 * result.records[-1].gap
    verdict("tail-risk portfolio properties", not problems,
            "; ".join(problems) or
            f"gap {gap_pct:.3f}% in {len(result.records)} iterations, "
            f"{elapsed:.1f}s")


def test_lp_core_against_vertex_enumeration():
    """The dense LP core agrees with brute-force vertex enumeration, satisfies
    strong duality, and reports rhs ranging intervals that re-solves confirm."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(5150)
    problems = []
    optimal = infeasible = 0
    for trial in range(500):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(2, 6))
        M = rng.uniform(-1.0, 1.0, (m, n))
        c = rng.uniform(0.1, 1.1, n)
        b = rng.uniform(-0.5, 1.5, m)
        senses = tuple(rng.choice(["<=", ">=", "="], m))
        lp = lplib.StandardLp(c, M, b, senses)
        sol = lplib.solve(lp)
        status, value = vertex_enumerate(c, M, b, senses)
        if sol.status != status:
            problems.append(f"trial {trial}: {sol.status} vs oracle {status}")
            break
        if status != lplib.OPTIMAL:
            infeasible += 1
            continue
        optimal += 1
        if abs(sol.objective - value) > 1e-7 * (1.0 + abs(value)):
            problems.append(f"trial {trial}: value {sol.objective} vs {value}")
            break
        dual_value = float(sol.duals @ b)
        if abs(dual_value - sol.objective) > 1e-7 * (1.0 + abs(sol.objective)):
            problems.append(f"trial {trial}: duality gap "
                            f"{dual_value - sol.objective:.2e}")
            break
        row = int(rng.integers(m))
        lo, hi = lplib.rhs_ranging(lplib.BasisCache(c, M, senses), b, sol, row)
        lo = lo if np.isfinite(lo) else b[row] - 2.0
        hi = hi if np.isfinite(hi) else b[row] + 2.0
        # strictly interior probes: at the endpoints themselves the basis
        # changes and the dual is legitimately set-valued
        pad = 1e-6 * max(hi - lo, 1.0)
        if hi - lo <= 2.0 * pad:
            continue  # (near-)zero-width interval: nothing interior to test
        for point in np.linspace(lo + pad, hi - pad, 100):
            rhs = b.copy()
            rhs[row] = point
            probe = lplib.solve(lplib.StandardLp(c, M, rhs, senses))
            predicted = sol.objective + sol.duals[row] * (point - b[row])
            if probe.status != lplib.OPTIMAL or \
                    abs(probe.objective - predicted) > 1e-7 * (1.0 + abs(predicted)) or \
                    abs(probe.duals[row] - sol.duals[row]) > 1e-7:
                problems.append(
                    f"trial {trial}: ranging claim fails inside interval "
                    f"at rhs[{row}]={point}")
                break
        if problems:
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"{elapsed:.1f}s")
    if optimal < 200:
        problems.append(f"only {optimal} optimal instances")
    verdict("lp core vs vertex enumeration", not problems,
            "; ".join(problems) or
            f"{optimal} optimal / {infeasible} infeasible, {elapsed:.1f}s")


def test_repeat_runs_are_byte_identical(tmp_path):
    """Identical instance and seed produce byte-identical iteration logs and
    partition traces."""
    problems = []
    for maker, extra in (("make-lands", []),
                         ("make-cvar", ["--mc-pool", "20000"])):
        instance = tmp_path / f"{maker}.json"
        assert cli.main([maker, "--output", str(instance), *extra]) == 0
        blobs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / f"{maker}-{tag}"
            code = cli.main(["run", "--instance", str(instance),
                             "--out-dir", str(out_dir), "--max-iters", "8"])
            if code not in (0, 2):
                problems.append(f"{maker}: exit {code}")
            blobs.append(tuple((out_dir / name).read_bytes()
                               for name in ("iterations.csv", "partitions.json")))
        if blobs[0][0] != blobs[1][0]:
            problems.append(f"{maker}: iteration logs differ between runs")
        if blobs[0][1] != blobs[1][1]:
            problems.append(f"{maker}: partition traces differ between runs")
    verdict("byte-identical repeat runs", not problems,
            "; ".join(problems) or "energy + portfolio instances")
