"""Iterative solve loop: aggregated master over the current partition, exact
upper bounds where the backend allows one, optimality condition checks, and
refinement until the gap closes or the partition stabilizes."""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import lp as lplib
from .errors import SolverFailure, ValidationError
from .model import RecourseModel, build_aggregated_master
from .model import evaluate_subproblem  # noqa: F401  (perfbench/tracing.py wraps it here)
from .refiners import CONDITION_SAMPLE_CAP, RefineContext, Refiner
from .refiners import rhs_dual_breakpoints  # noqa: F401  (perfbench/tracing.py wraps it here)
from .spaces import MONTE_CARLO, Cell, UncertaintySpace

GAP = "gap"
CONDITIONS = "conditions-satisfied"
STABILIZED = "partition-stabilized"
ITERATION_LIMIT = "iteration-limit"

CONDITION_TOL = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 1e-4
    max_iterations: int = 100

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValidationError(f"gap threshold must be positive and finite, got {self.epsilon}")
        if not isinstance(self.max_iterations, numbers.Integral) or self.max_iterations < 1:
            raise ValidationError(f"iteration limit must be an integer of at least 1, "
                                  f"got {self.max_iterations!r}")


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
    partition: tuple[Cell, ...]
    records: tuple[IterationRecord, ...]
    partitions: tuple[tuple[Cell, ...], ...]
    termination: str
    stats: dict


def relative_gap(lower: float, upper: float) -> float:
    """(upper - lower) / |upper|; zero when the bounds coincide."""
    if upper == lower:
        return 0.0
    denom = abs(upper)
    if denom < 1e-300:
        return math.copysign(math.inf, upper - lower)
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


def compute_upper_bound(refiner: Refiner, ctx: RefineContext) -> float | None:
    """Exact expected cost of the incumbent ctx.x_bar by the refiner's rule
    (see Refiner.upper_bound), or None.  A pass-through, not exported, kept
    so that the benchmark's tracer can time the bound under this name."""
    return refiner.upper_bound(ctx)


def _conditions_hold(ctx: RefineContext) -> bool:
    """The optimality conditions on every cell.  cell_samples gives a
    Monte-Carlo cell at most CONDITION_SAMPLE_CAP of its members, so a cell
    with more cannot be checked in full: it fails before any member solve."""
    if ctx.space.estimate == MONTE_CARLO and any(
            c.sample_count > CONDITION_SAMPLE_CAP for c in ctx.partition):
        return False
    for cell in ctx.partition:
        weights, reals, outs = ctx.atomized(cell)
        ok = check_conditions(weights, [r.h for r in reals], [r.T for r in reals],
                              [o.duals for o in outs], ctx.x_bar, CONDITION_TOL)
        if not ok:
            return False
    return True


def run(model: RecourseModel, space: UncertaintySpace, refiner: Refiner,
        config: SolverConfig = SolverConfig()) -> SolveResult:
    """Solve to the configured gap: master over the partition cells gives the
    lower bound and incumbent; the refiner bounds it from above (when its
    backend has an exact rule) and splits cells, both from the iteration's
    one RefineContext.  Stops on gap, on a partition that no longer changes
    (with the optimality conditions deciding between converged and stalled),
    or on the iteration limit.  Both bounds describe one problem, so a gap
    below -max(epsilon, lp.DUALITY_TOL) raises SolverFailure.  Every recourse
    LP of the run goes through one BasisCache, since only the rhs changes
    between them (fixed recourse), so the LP solves are the masters plus the
    cache's simplex calls."""
    refiner.check(space)
    started = time.perf_counter()
    bases = lplib.BasisCache(model.q, model.W, model.recourse_senses)
    partition = space.trivial_partition()
    best_upper: float | None = None
    records: list[IterationRecord] = []
    partitions: list[tuple[Cell, ...]] = []
    termination = ITERATION_LIMIT
    for t in range(1, config.max_iterations + 1):
        triples = [(c.mass, c.h_mean, c.t_mean) for c in partition]
        sol = lplib.solve(build_aggregated_master(model, triples))
        if sol.status != lplib.OPTIMAL:
            raise SolverFailure(f"aggregated master {sol.status} at iteration {t}")
        lower = float(sol.objective)
        x_bar = np.array(sol.x[:model.n_first])
        ctx = RefineContext(model, space, partition, x_bar, bases)
        if records and x_bar.tobytes() == records[-1].incumbent.tobytes():
            # the bound depends on the incumbent alone
            upper = records[-1].upper_bound
        else:
            upper = compute_upper_bound(refiner, ctx)
        if upper is not None:
            best_upper = upper if best_upper is None else min(best_upper, upper)
        gap = relative_gap(lower, best_upper) if best_upper is not None else None
        if gap is not None and gap < -max(config.epsilon, lplib.DUALITY_TOL):
            raise SolverFailure(f"upper bound {best_upper!r} below lower bound {lower!r} "
                                f"at iteration {t} (gap {gap:.3e})")
        records.append(IterationRecord(t, lower, upper, gap, len(partition), x_bar))
        partitions.append(partition)
        if gap is not None and gap < config.epsilon:
            termination = GAP
            break
        if t == config.max_iterations:
            break
        refined = refiner.refine(ctx)
        if refined is partition:
            termination = CONDITIONS if _conditions_hold(ctx) else STABILIZED
            break
        partition = refined
    last = records[-1]
    stats = {
        "iterations": len(records),
        "master_solves": len(records),
        "lp_solves": len(records) + bases.solves,
        "basis_hits": bases.hits,
        "wall_time_s": time.perf_counter() - started,
    }
    return SolveResult(x_star=last.incumbent, objective=last.lower_bound,
                       best_upper=best_upper, partition=partitions[-1],
                       records=tuple(records), partitions=tuple(partitions),
                       termination=termination, stats=stats)
