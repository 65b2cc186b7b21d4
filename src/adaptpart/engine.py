"""Iterative solve loop: aggregated master over the current partition, exact
or closed-form upper bounds where the backend allows one, optimality
condition checks, and refinement until the gap closes or the partition
stabilizes."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import lp as lplib
from .errors import SolverFailure, ValidationError
from .model import RecourseModel, build_aggregated_master, evaluate_subproblem
from .refiners import RefineContext, Refiner, auto_refiner
from .refiners import rhs_dual_breakpoints  # noqa: F401  (perfbench/tracing.py wraps it here)
from .spaces import Partition, UncertaintySpace

GAP = "gap"
CONDITIONS = "conditions-satisfied"
STABILIZED = "partition-stabilized"
ITERATION_LIMIT = "iteration-limit"

UPPER_BOUND_MODES = ("auto", "on", "off")
CONDITION_TOL = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 1e-4
    max_iterations: int = 100
    upper_bound: str = "auto"

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValidationError("gap threshold must be positive")
        if self.max_iterations < 1:
            raise ValidationError("iteration limit must be at least 1")
        if self.upper_bound not in UPPER_BOUND_MODES:
            raise ValidationError(f"upper_bound must be one of {UPPER_BOUND_MODES}")


@dataclass(frozen=True, eq=False)
class IterationRecord:
    """One loop pass: bound pair, gap against the best upper bound so far,
    partition size, and the incumbent first-stage vector."""

    index: int
    lower_bound: float
    upper_bound: float | None
    gap: float | None
    cell_count: int
    incumbent: np.ndarray


@dataclass(frozen=True, eq=False)
class SolveResult:
    x_star: np.ndarray
    objective: float
    best_upper: float | None
    partition: Partition
    records: tuple[IterationRecord, ...]
    partitions: tuple[Partition, ...]
    termination: str
    stats: dict


def relative_gap(lower: float, upper: float) -> float:
    """(upper - lower) / |upper|; zero when the bounds coincide."""
    if upper == lower:
        return 0.0
    denom = abs(upper)
    if denom < 1e-300:
        return math.inf
    return (upper - lower) / denom


def check_conditions(weights, hs, techs, duals, x_bar, tol: float) -> bool:
    """Within one cell, test that expectation of products equals product of
    expectations, both for (h, dual) pairings and for the incumbent-projected
    technology pairings, to relative tolerance tol."""
    w = np.asarray(weights, dtype=float)
    h = np.stack([np.asarray(v, dtype=float) for v in hs])
    t = np.stack([np.asarray(v, dtype=float) for v in techs])
    lam = np.stack([np.asarray(v, dtype=float) for v in duals])
    x = np.asarray(x_bar, dtype=float)
    h_mean = w @ h
    lam_mean = w @ lam
    lhs_a = float(h_mean @ lam_mean)
    rhs_a = float(w @ np.einsum("sm,sm->s", h, lam))
    if abs(lhs_a - rhs_a) > tol * (1.0 + abs(rhs_a)):
        return False
    t_mean = np.tensordot(w, t, axes=(0, 0))
    lhs_b = float(x @ (t_mean.T @ lam_mean))
    rhs_b = float(w @ np.einsum("smn,n,sm->s", t, x, lam))
    return abs(lhs_b - rhs_b) <= tol * (1.0 + abs(rhs_b))


def compute_upper_bound(model: RecourseModel, space: UncertaintySpace,
                        x_bar: np.ndarray, mode: str = "auto",
                        bases: lplib.BasisCache | None = None) -> float | None:
    """Exact expected cost of the incumbent by the backend's rule (see
    Refiner.upper_bound).  Mode "off" skips it; "auto" returns None when the
    backend has no rule for this model, and "on" raises instead.  `bases`
    is passed on to evaluate_subproblem."""
    if mode == "off":
        return None
    value = auto_refiner(space).upper_bound(model, space, x_bar, bases)
    if value is None and mode == "on":
        raise ValidationError(f"no exact upper bound available for {space.kind} spaces")
    return value


def _conditions_hold(ctx: RefineContext) -> bool:
    for cell in ctx.partition.cells:
        weights, reals, outs = ctx.atomized(cell.label)
        ok = check_conditions(weights, [r.h for r in reals], [r.T for r in reals],
                              [o.duals for o in outs], ctx.x_bar, CONDITION_TOL)
        if not ok:
            return False
    return True


def run(model: RecourseModel, space: UncertaintySpace, refiner: Refiner,
        config: SolverConfig = SolverConfig()) -> SolveResult:
    """Solve to the configured gap: master over the partition cells gives the
    lower bound and incumbent, the backend's exact expectation (when
    available) bounds from above, and the refiner splits cells between
    iterations.  Stops on gap, on a partition that no longer changes (with
    the optimality conditions deciding between converged and stalled), or on
    the iteration limit.  Every subproblem of the run shares one BasisCache,
    since only the rhs changes between them (fixed recourse)."""
    refiner.check(space)
    solves_before = lplib.solve_call_count()
    started = time.perf_counter()
    bases = lplib.BasisCache(model.q, model.W, model.recourse_senses)
    partition = space.trivial_partition()
    best_upper: float | None = None
    records: list[IterationRecord] = []
    partitions: list[Partition] = []
    termination = ITERATION_LIMIT
    for t in range(1, config.max_iterations + 1):
        triples = [(c.mass, c.h_mean, c.t_mean) for c in partition.cells]
        master, cmap = build_aggregated_master(model, triples)
        sol = lplib.solve(master)
        if sol.status != lplib.OPTIMAL:
            raise SolverFailure(f"aggregated master {sol.status} at iteration {t}")
        lower = float(sol.objective)
        x_bar = cmap.first_stage(sol)
        if records and x_bar.tobytes() == records[-1].incumbent.tobytes():
            # the bound depends on the incumbent alone
            upper = records[-1].upper_bound
        else:
            upper = compute_upper_bound(model, space, x_bar, config.upper_bound, bases)
        if upper is not None:
            best_upper = upper if best_upper is None else min(best_upper, upper)
        cell_outcomes = {
            c.label: evaluate_subproblem(model, x_bar, model.realization(c.h_mean, c.t_mean),
                                         bases)
            for c in partition.cells}
        gap = relative_gap(lower, best_upper) if best_upper is not None else None
        records.append(IterationRecord(t, lower, upper, gap, len(partition), x_bar))
        partitions.append(partition)
        if gap is not None and gap < config.epsilon:
            termination = GAP
            break
        if t == config.max_iterations:
            break
        ctx = RefineContext(model, space, partition, x_bar, cell_outcomes, bases)
        refined = refiner.refine(ctx)
        if refined is partition:
            termination = CONDITIONS if _conditions_hold(ctx) else STABILIZED
            break
        partition = refined
    last = records[-1]
    stats = {
        "iterations": len(records),
        "master_solves": len(records),
        "lp_solves": lplib.solve_call_count() - solves_before,
        "basis_hits": bases.hits,
        "wall_time_s": time.perf_counter() - started,
    }
    return SolveResult(x_star=last.incumbent, objective=last.lower_bound,
                       best_upper=best_upper, partition=partitions[-1],
                       records=tuple(records), partitions=tuple(partitions),
                       termination=termination, stats=stats)
