"""Refiners of the partition of the uncertainty space.

Three structure-aware disaggregation procedures, one per uncertainty backend:
grouping scenarios by equal subproblem duals, splitting intervals at rhs
ranging breakpoints, and cutting regions along the hyperplane where the
recourse dual switches.  Each hands its space plain split arguments per
cell, builds the refined partition (a tuple of cells) once from the
children in cell order, and returns the same tuple object when nothing
splits.  Each also carries its backend's exact upper bound rule, which
reads the member solves and the breakpoint sweep of the same RefineContext
as the split.
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

    Member solves, the breakpoint sweep and the pool projections are
    cached, so the upper bound, the refiner and the condition check share
    them; every recourse LP goes through `bases`, the run's BasisCache (see
    evaluate_subproblem).
    """

    model: RecourseModel
    space: UncertaintySpace
    partition: tuple[Cell, ...]
    x_bar: np.ndarray
    bases: lplib.BasisCache | None = None
    _atoms: dict = field(default_factory=dict, repr=False)
    _points: tuple | None = field(default=None, repr=False)
    _cuts: tuple | None = field(default=None, repr=False)

    def atomized(self, cell: Cell):
        """(weights, realizations, solutions) for one cell's members at the
        incumbent, one evaluate_subproblem LpSolution per member; weights
        are cell-conditional and sum to one."""
        if cell not in self._atoms:
            weights, reals = self.space.cell_samples(cell, CONDITION_SAMPLE_CAP)
            outs = [evaluate_subproblem(self.model, self.x_bar, r, self.bases) for r in reals]
            self._atoms[cell] = (weights, reals, outs)
        return self._atoms[cell]

    def breakpoints(self) -> tuple[float, ...]:
        """The interior dual breakpoints of an interval space's support at
        the incumbent, from one rhs_dual_breakpoints sweep."""
        if self._points is None:
            self._points = tuple(rhs_dual_breakpoints(self.model, self.space, self.x_bar,
                                                      self.bases))
        return self._points

    def cuts(self) -> tuple:
        """(a, d0, pool @ a) for each dual-switch hyperplane a.xi = d0 of a
        Gaussian space at the incumbent: one projection of the pool per cut,
        shared by the upper bound and the split."""
        if self._cuts is None:
            pool = self.space.pool
            self._cuts = tuple((a, d0, pool @ a) for a, d0 in
                               dual_switch_hyperplanes(self.space, self.x_bar))
        return self._cuts


class Refiner(ABC):
    """Disaggregation procedure for the backend `space_type`, with that
    backend's exact upper bound rule."""

    space_type: type = UncertaintySpace

    def check(self, space: UncertaintySpace) -> None:
        if not isinstance(space, self.space_type):
            raise ValidationError(
                f"{type(self).__name__} does not support {space.kind} spaces")

    @abstractmethod
    def refine(self, ctx: RefineContext) -> tuple[Cell, ...]:
        """A refinement of ctx.partition; the same object when no cell splits."""

    @abstractmethod
    def upper_bound(self, ctx: RefineContext) -> float | None:
        """Exact expected cost c.x + E[Q(x, xi)] of the incumbent ctx.x_bar,
        or None when the backend has no exact rule for this model."""


def _refined(partition: tuple[Cell, ...], cells: list) -> tuple[Cell, ...]:
    """The partition of `cells`, or `partition` itself (the same object,
    which is how run sees that nothing split) when no cell split."""
    return partition if len(cells) == len(partition) else tuple(cells)


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
            if len(indices) > 1:
                _, _, outs = ctx.atomized(cell)
                groups = group_scenarios_by_dual(indices, [o.duals for o in outs])
                if len(groups) > 1:
                    cells.extend(ctx.space.split_cell(cell, groups))
                    continue
            cells.append(cell)
        return _refined(ctx.partition, cells)

    def upper_bound(self, ctx):
        """Weighted sum of the per-scenario recourse values, in scenario
        order, from the members' solves that refine reads too.  A zero-weight
        scenario adds nothing, and no cell may hold it (a zero-mass group is
        dropped when its cell splits), so it is skipped."""
        values = {}
        for cell in ctx.partition:
            _, _, outs = ctx.atomized(cell)
            values.update(zip(cell.geometry.indices, (o.objective for o in outs)))
        value = float(ctx.model.c @ ctx.x_bar)
        for s, w in enumerate(ctx.space.weights):
            if w > 0.0:
                value += float(w) * values[s]
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

    def refine(self, ctx: RefineContext) -> tuple[Cell, ...]:
        points = ctx.breakpoints()
        cells = [c for cell in ctx.partition for c in ctx.space.split_cell(cell, points)]
        return _refined(ctx.partition, cells)

    def upper_bound(self, ctx):
        """Closed-form integration of the piecewise linear recourse value."""
        model, space, x_bar = ctx.model, ctx.space, ctx.x_bar
        edges = [space.lo, *ctx.breakpoints(), space.hi]
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
    """One pair (a, d0) per recourse row carrying random technology entries,
    such that the row's subproblem rhs at the incumbent is d0 - a.xi under
    T(xi) = T0 + Tk @ xi.  The hyperplane a.xi = d0 is where that rhs
    crosses zero, which is where the row's optimal dual switches value; a
    zero normal is kept."""
    return [(x_bar @ space.Tk[row], float(space.h_base[row] - space.T0[row] @ x_bar))
            for row in sorted({e.row for e in space.entries})]


class HyperplaneRefiner(Refiner):
    """Cut every region cell along the dual-switch hyperplane(s) of the
    incumbent; one-sided cells (every cell, for a zero normal) pass through
    unchanged."""

    space_type = GaussianTechnologySpace

    def refine(self, ctx: RefineContext) -> tuple[Cell, ...]:
        part = ctx.partition
        for normal, offset, proj in ctx.cuts():
            side = proj <= offset
            cells = [c for cell in part
                     for c in ctx.space.split_cell(cell, normal, offset, side)]
            part = _refined(part, cells)
        return part

    def upper_bound(self, ctx):
        """Pool-average cost, the exact objective of the sample problem whose
        cells the master aggregates, for the tail-loss recourse (one `>=`
        row, W = [[1]], q0 >= 0), whose value is q0 * max(0, d0 - a.xi);
        None for any other recourse."""
        model = ctx.model
        if model.recourse_senses != (">=",) or model.W.tolist() != [[1.0]] or model.q[0] < 0:
            return None
        (_, d0, proj), = ctx.cuts()
        shortfall = np.maximum(d0 - proj, 0.0)
        return float(model.c @ ctx.x_bar + model.q[0] * shortfall.mean())


REFINERS = (DualClusteringRefiner, RangingRefiner, HyperplaneRefiner)


def refiner_by_name(name: str, space: UncertaintySpace) -> Refiner:
    """The refiner of `space`'s backend; "auto" is the only name."""
    if name != "auto":
        raise ValidationError(f"unknown refiner {name!r}; only 'auto' is defined")
    for cls in REFINERS:
        if isinstance(space, cls.space_type):
            return cls()
    raise ValidationError(f"no refiner available for {space.kind} spaces")
