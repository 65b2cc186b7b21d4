"""Refiners of the partition of the uncertainty space.

Three structure-aware disaggregation procedures, one per uncertainty backend:
grouping scenarios by equal subproblem duals, splitting intervals at rhs
ranging breakpoints, and cutting regions along the hyperplane where the
recourse dual switches.  Each hands its space plain split arguments per
cell and returns the tuple of the children in cell order, which equals
the partition it was given (the same cells) when nothing splits.  Each
also carries its backend's exact upper bound rule, which reads what the
split reads (member solves, the breakpoint sweep, the pool projections)
from the memo of the same RefineContext.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from . import lp as lplib
from .errors import RecourseViolation, ValidationError
from .model import RecourseModel, evaluate_subproblem
from .spaces import (Cell, DiscreteSpace, GaussianTechnologySpace, UncertaintySpace,
                     UniformRhsSpace)

DUAL_TOL = 1e-6
CONDITION_SAMPLE_CAP = 128


@dataclass
class RefineContext:
    """What a refiner may consult at one iteration: the incumbent and the
    partition it was computed on.

    The upper bound, the refiner and the condition check share `memo`: the
    member solves of each cell (keyed by the cell) and whatever else the
    backend's refiner keeps for the iteration.  Every recourse LP goes
    through `bases`, the run's BasisCache (see evaluate_subproblem).
    """

    model: RecourseModel
    space: UncertaintySpace
    partition: tuple[Cell, ...]
    x_bar: np.ndarray
    bases: lplib.BasisCache | None = None
    memo: dict = field(default_factory=dict, repr=False)

    def atomized(self, cell: Cell):
        """(weights, realizations, solutions) for one cell's members at the
        incumbent, one evaluate_subproblem LpSolution per member; weights
        are cell-conditional and sum to one."""
        if cell not in self.memo:
            weights, reals = self.space.cell_samples(cell, CONDITION_SAMPLE_CAP)
            outs = [evaluate_subproblem(self.model, self.x_bar, r, self.bases) for r in reals]
            self.memo[cell] = (weights, reals, outs)
        return self.memo[cell]


class Refiner(ABC):
    """Disaggregation procedure for the backend `space_type`, with that
    backend's exact upper bound rule."""

    space_type: type = UncertaintySpace

    def check(self, space: UncertaintySpace) -> None:
        if not isinstance(space, self.space_type):
            raise ValidationError(
                f"{type(self).__name__} does not support {type(space).__name__}")

    @abstractmethod
    def refine(self, ctx: RefineContext) -> tuple[Cell, ...]:
        """The children of ctx.partition's cells in cell order; equal to it when none splits."""

    @abstractmethod
    def upper_bound(self, ctx: RefineContext) -> float | None:
        """Exact expected cost c.x + E[Q(x, xi)] of the incumbent ctx.x_bar,
        or None when the backend has no exact rule for this model."""


# ------------------------------------------------------------ dual clustering

def _agree(lam: np.ndarray, rep: np.ndarray, tol: float) -> bool:
    return bool(np.all(np.abs(lam - rep) <= tol + tol * np.abs(rep)))


def group_scenarios_by_dual(indices, duals, tol: float = DUAL_TOL):
    """First-fit grouping of scenario indices whose dual vectors agree
    componentwise within tol (absolute plus relative); deterministic because
    members are visited in increasing scenario index.

    A member's group depends only on its vector and the groups opened before
    it, so each distinct vector (by its bytes) is fitted once.  A vector
    that does not agree with itself (an inf or NaN component) is fitted
    anew at every repeat, as plain first-fit would.
    """
    order = np.argsort(np.asarray(indices))
    groups: list[list[int]] = []
    reps: list[np.ndarray] = []
    fitted: dict[bytes, int] = {}
    for k in order:
        lam = np.asarray(duals[k], dtype=float)
        key = lam.tobytes()
        g = fitted.get(key)
        if g is None:
            g = next((j for j, rep in enumerate(reps) if _agree(lam, rep, tol)), len(reps))
            if g == len(reps):
                groups.append([])
                reps.append(lam)
            if _agree(lam, reps[g], tol):
                fitted[key] = g
        groups[g].append(int(indices[k]))
    return groups


class DualClusteringRefiner(Refiner):
    """Split each scenario cell into groups of equal-dual members."""

    space_type = DiscreteSpace

    def refine(self, ctx: RefineContext) -> tuple[Cell, ...]:
        cells = []
        for cell in ctx.partition:
            indices = cell.geometry.indices
            if indices.size > 1:
                _, _, outs = ctx.atomized(cell)
                groups = group_scenarios_by_dual(indices, [o.duals for o in outs])
                if len(groups) > 1:
                    cells.extend(ctx.space.split_cell(cell, groups))
                    continue
            cells.append(cell)
        return tuple(cells)

    def upper_bound(self, ctx):
        """Weighted sum of the per-scenario recourse values, in scenario
        order, from the members' solves that refine reads too.  A zero-weight
        scenario adds nothing, and no cell may hold it (a zero-mass group is
        dropped when its cell splits), so it is skipped."""
        values = np.full(ctx.space.weights.size, np.nan)
        for cell in ctx.partition:
            _, _, outs = ctx.atomized(cell)
            values[cell.geometry.indices] = [o.objective for o in outs]
        value = float(ctx.model.c @ ctx.x_bar)
        for w, v in zip(ctx.space.weights.tolist(), values.tolist()):
            if w > 0.0:
                value += w * v
        return value


# ------------------------------------------------------------- rhs ranging

def rhs_dual_breakpoints(model: RecourseModel, space: UniformRhsSpace, x_bar: np.ndarray,
                         bases: lplib.BasisCache | None = None) -> list[float]:
    """Left-to-right walk of the random rhs component over the support at
    the incumbent: solve at lo through `bases` (a fresh cache when None),
    then alternate rhs ranging (the maximal dual-constant segment) and
    bases.cross (the basis past its right end) until a segment reaches hi
    within the space's knot tolerance `knot_tol`.
    Returns the interior breakpoints in increasing order; a zero-width
    segment (degeneracy) adds none."""
    if bases is None:
        bases = lplib.BasisCache(model.q, model.W, model.recourse_senses)
    lo, hi, row = space.lo, space.hi, space.row
    # the LP rhs is h - T @ x_bar; at the random row it is xi - T[row] @ x_bar
    tx = space.T @ x_bar
    rhs = space.h_base - tx
    rhs[row] = lo - tx[row]
    sol = bases.solve(rhs)
    points: list[float] = []
    xi = lo
    while sol is not None and sol.status == lplib.OPTIMAL:
        _, top = lplib.rhs_ranging(bases, rhs, sol, row)
        upper = top + tx[row]
        if upper >= hi - space.knot_tol:
            return points
        if upper > xi:
            points.append(float(upper))
        xi = upper
        sol = bases.cross(sol, rhs, row)
        rhs[row] = top
    status = lplib.INFEASIBLE if sol is None else sol.status
    raise RecourseViolation(f"subproblem {status} at rhs component value {xi:.6g}")


class RangingRefiner(Refiner):
    """Split interval cells at the dual breakpoints of the recourse value,
    located by one rhs ranging sweep over the support; each cell keeps the
    points inside it."""

    space_type = UniformRhsSpace

    def _breakpoints(self, ctx: RefineContext) -> tuple[float, ...]:
        """The support's interior dual breakpoints at the incumbent, one sweep per iteration."""
        if "breakpoints" not in ctx.memo:
            sweep = rhs_dual_breakpoints(ctx.model, ctx.space, ctx.x_bar, ctx.bases)
            ctx.memo["breakpoints"] = tuple(sweep)
        return ctx.memo["breakpoints"]

    def refine(self, ctx: RefineContext) -> tuple[Cell, ...]:
        points = self._breakpoints(ctx)
        return tuple(c for cell in ctx.partition for c in ctx.space.split_cell(cell, points))

    def upper_bound(self, ctx):
        """Closed-form integration of the piecewise linear recourse value."""
        model, space, x_bar = ctx.model, ctx.space, ctx.x_bar
        edges = [space.lo, *self._breakpoints(ctx), space.hi]
        expected = 0.0
        # the recourse value is linear on each segment, so the midpoint
        # rule integrates it exactly against the uniform density
        for s, e in zip(edges, edges[1:]):
            mid = 0.5 * (s + e)
            out = evaluate_subproblem(model, x_bar, space.realization_at(mid), ctx.bases)
            expected += (e - s) / (space.hi - space.lo) * out.objective
        return float(model.c @ x_bar + expected)


# -------------------------------------------------------- hyperplane cutting

def dual_switch_hyperplanes(space: GaussianTechnologySpace,
                            x_bar: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """One pair (a, d0) per recourse row, such that the row's subproblem rhs
    at the incumbent is d0 - a.xi under T(xi) = T0 + Tk @ xi.  The
    hyperplane a.xi = d0 is where that rhs crosses zero, which is where the
    row's optimal dual switches value; a zero normal (a row with no random
    entry, or an incumbent orthogonal to it) is kept."""
    return [(x_bar @ space.Tk[row], float(space.h_base[row] - space.T0[row] @ x_bar))
            for row in range(space.h_base.size)]


class HyperplaneRefiner(Refiner):
    """Cut every region cell along each dual-switch hyperplane of the
    incumbent with a nonzero normal; one-sided cells pass through unchanged."""

    space_type = GaussianTechnologySpace

    def _cuts(self, ctx: RefineContext) -> tuple:
        """(a, d0, pool @ a) for each dual-switch hyperplane a.xi = d0 of the
        incumbent whose normal a is nonzero (a zero one cannot cut): the pool
        is projected once per such row per iteration.  memo["planes"] keeps every row."""
        if "cuts" not in ctx.memo:
            planes = ctx.memo["planes"] = dual_switch_hyperplanes(ctx.space, ctx.x_bar)
            ctx.memo["cuts"] = tuple((a, d0, ctx.space.pool @ a) for a, d0 in planes if a.any())
        return ctx.memo["cuts"]

    def refine(self, ctx: RefineContext) -> tuple[Cell, ...]:
        part = ctx.partition
        for normal, offset, proj in self._cuts(ctx):
            side = proj <= offset
            part = tuple(c for cell in part
                         for c in ctx.space.split_cell(cell, normal, offset, side))
        return part

    def upper_bound(self, ctx):
        """Pool-average cost, the exact objective of the sample problem whose
        cells the master aggregates, for the tail-loss recourse (one `>=`
        row, W = [[1]], q0 >= 0), whose value is q0 * max(0, d0 - a.xi), or
        q0 * max(0, d0) for a zero normal a; None for any other recourse."""
        model = ctx.model
        if model.recourse_senses != (">=",) or model.W.tolist() != [[1.0]] or model.q[0] < 0:
            return None
        cuts = self._cuts(ctx)
        (_, d0), = ctx.memo["planes"]
        rhs = d0 - cuts[0][2] if cuts else d0
        return float(model.c @ ctx.x_bar + model.q[0] * np.maximum(rhs, 0.0).mean())


REFINERS = (DualClusteringRefiner, RangingRefiner, HyperplaneRefiner)


def refiner_by_name(name: str, space: UncertaintySpace) -> Refiner:
    """The refiner of `space`'s backend; "auto" is the only name."""
    if name != "auto":
        raise ValidationError(f"unknown refiner {name!r}; only 'auto' is defined")
    for cls in REFINERS:
        if isinstance(space, cls.space_type):
            return cls()
    raise ValidationError(f"no refiner available for {type(space).__name__}")
