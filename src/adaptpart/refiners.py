"""Partition refiners.

Three structure-aware disaggregation procedures, one per uncertainty backend:
grouping scenarios by equal subproblem duals, splitting intervals at rhs
ranging breakpoints, and cutting regions along the hyperplane where the
recourse dual switches.  Each returns a refinement of the input partition and
returns the partition object unchanged when nothing splits.  Each also
carries its backend's exact upper bound rule, since the interval rule needs
the breakpoint sweep defined here.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from . import lp as lplib
from .analytics import cvar_analytic_ub
from .errors import RecourseViolation, ValidationError
from .model import RecourseModel, SubproblemOutcome, evaluate_subproblem, subproblem_lp
from .spaces import (Breakpoints, DiscreteSpace, GaussianTechnologySpace,
                     HyperplaneSplit, Partition, ScenarioRegroup, UncertaintySpace,
                     UniformRhsSpace)

DUAL_TOL = 1e-6
DEGENERACY_STEP_FRAC = 1e-7
CONDITION_SAMPLE_CAP = 128


@dataclass
class RefineContext:
    """What a refiner may consult at one iteration: the incumbent, the
    partition it was computed on, and the per-cell aggregated outcomes.

    Member-level subproblem solves are cached so the refiner and any later
    condition check share work; `bases` answers them from known optimal
    bases where it can (see evaluate_subproblem).
    """

    model: RecourseModel
    space: UncertaintySpace
    partition: Partition
    x_bar: np.ndarray
    cell_outcomes: dict[str, SubproblemOutcome]
    bases: lplib.BasisCache | None = None
    _atoms: dict = field(default_factory=dict, repr=False)

    def atomized(self, label: str):
        """(weights, realizations, outcomes) for one cell's members at the
        incumbent; weights are cell-conditional and sum to one."""
        if label not in self._atoms:
            cell = self.partition.find(label)
            weights, reals = self.space.cell_samples(cell, CONDITION_SAMPLE_CAP)
            outs = [evaluate_subproblem(self.model, self.x_bar, r, self.bases) for r in reals]
            self._atoms[label] = (weights, reals, outs)
        return self._atoms[label]


class Refiner(ABC):
    """Disaggregation procedure for the backend `space_type`, with that
    backend's exact upper bound rule."""

    name: str = ""
    space_type: type = UncertaintySpace

    def check(self, space: UncertaintySpace) -> None:
        if not isinstance(space, self.space_type):
            raise ValidationError(
                f"{self.name} refiner does not support {space.kind} spaces")

    @abstractmethod
    def refine(self, ctx: RefineContext) -> Partition:
        """A refinement of ctx.partition; the same object when no cell splits."""

    @abstractmethod
    def upper_bound(self, model: RecourseModel, space: UncertaintySpace,
                    x_bar: np.ndarray,
                    bases: lplib.BasisCache | None = None) -> float | None:
        """Exact expected cost c.x + E[Q(x, xi)] of the incumbent, or None
        when the backend has no exact rule for this model.  `bases` is
        passed on to evaluate_subproblem."""


# ------------------------------------------------------------ dual clustering

def group_scenarios_by_dual(indices, duals, tol: float = DUAL_TOL):
    """First-fit grouping of scenario indices whose dual vectors agree
    componentwise within tol (absolute plus relative); deterministic because
    members are visited in increasing scenario index."""
    order = np.argsort(np.asarray(indices))
    groups: list[list[int]] = []
    reps: list[np.ndarray] = []
    for k in order:
        lam = np.asarray(duals[k], dtype=float)
        for g, rep in zip(groups, reps):
            if np.all(np.abs(lam - rep) <= tol + tol * np.abs(rep)):
                g.append(int(indices[k]))
                break
        else:
            groups.append([int(indices[k])])
            reps.append(lam)
    return groups


class DualClusteringRefiner(Refiner):
    """Split each scenario cell into groups of equal-dual members."""

    name = "dual-cluster"
    space_type = DiscreteSpace

    def refine(self, ctx: RefineContext) -> Partition:
        part = ctx.partition
        for cell in ctx.partition.cells:
            indices = cell.geometry.indices
            if len(indices) <= 1:
                continue
            _, _, outs = ctx.atomized(cell.label)
            groups = group_scenarios_by_dual(indices, [o.duals for o in outs])
            if len(groups) > 1:
                splitter = ScenarioRegroup(tuple(tuple(g) for g in groups))
                part = ctx.space.split_cell(part, cell.label, splitter)
        return part

    def upper_bound(self, model, space, x_bar, bases=None):
        """Weighted sum of the per-scenario recourse values."""
        value = float(model.c @ x_bar)
        for w, real in zip(space.weights, space.realizations):
            value += float(w) * evaluate_subproblem(model, x_bar, real, bases).value
        return value


# ------------------------------------------------------------- rhs ranging

def rhs_dual_breakpoints(model: RecourseModel, space: UniformRhsSpace,
                         x_bar: np.ndarray, lo: float, hi: float) -> list[float]:
    """Left-to-right sweep of the random rhs component over [lo, hi] at the
    incumbent: solve the subproblem, take the maximal dual-constant segment
    from rhs ranging, hop to its right end.  Returns the interior breakpoints
    in increasing order.  Zero-width segments (degeneracy) advance the probe
    by DEGENERACY_STEP_FRAC*(hi-lo) so the sweep always terminates."""
    if not lo < hi:
        raise ValidationError("sweep needs lo < hi")
    step = DEGENERACY_STEP_FRAC * (hi - lo)
    # the LP rhs at the random row is xi - T[row] @ x_bar
    offset = float(model.T_base[space.row] @ x_bar)
    points: list[float] = []
    xi = lo
    while xi < hi - step:
        prob = subproblem_lp(model, x_bar, space.realization_at(xi))
        sol = lplib.solve(prob)
        if sol.status != lplib.OPTIMAL:
            raise RecourseViolation(
                f"subproblem {sol.status} at rhs component value {xi:.6g}")
        seg = lplib.rhs_ranging(prob, sol, space.row)
        upper = seg.hi + offset
        if upper >= hi - step:
            break
        if upper > xi + step:
            points.append(float(upper))
            xi = upper + step
        else:
            xi += step
    return points


class RangingRefiner(Refiner):
    """Split interval cells at the dual breakpoints of the recourse value,
    located by rhs ranging along each cell."""

    name = "ranging"
    space_type = UniformRhsSpace

    def refine(self, ctx: RefineContext) -> Partition:
        part = ctx.partition
        for cell in ctx.partition.cells:
            lo, hi = cell.geometry.lo, cell.geometry.hi
            points = rhs_dual_breakpoints(ctx.model, ctx.space, ctx.x_bar, lo, hi)
            if points:
                part = ctx.space.split_cell(part, cell.label, Breakpoints(tuple(points)))
        return part

    def upper_bound(self, model, space, x_bar, bases=None):
        """Closed-form integration of the piecewise linear recourse value."""
        points = rhs_dual_breakpoints(model, space, x_bar, space.lo, space.hi)
        edges = [space.lo] + points + [space.hi]
        expected = 0.0
        # the recourse value is linear on each segment, so the midpoint
        # rule integrates it exactly against the uniform density
        for s, e in zip(edges, edges[1:]):
            mid = 0.5 * (s + e)
            out = evaluate_subproblem(model, x_bar, space.realization_at(mid), bases)
            expected += (e - s) / (space.hi - space.lo) * out.value
        return float(model.c @ x_bar + expected)


# -------------------------------------------------------- hyperplane cutting

def dual_switch_hyperplanes(model: RecourseModel, x_bar: np.ndarray,
                            dim: int) -> list[tuple[np.ndarray, float]]:
    """One hyperplane a.xi = d0 per recourse row carrying random technology
    entries: the locus where that row's subproblem rhs crosses zero at the
    incumbent, which is where its optimal dual switches value."""
    by_row: dict[int, list] = {}
    for e in model.layout.tech_entries:
        by_row.setdefault(e.row, []).append(e)
    cuts: list[tuple[np.ndarray, float]] = []
    for row in sorted(by_row):
        a = np.zeros(dim)
        base_det = float(model.T_base[row] @ x_bar)
        for e in by_row[row]:
            a[e.component] += e.scale * x_bar[e.col]
            # realizations replace (not add to) the base entry
            base_det -= model.T_base[e.row, e.col] * x_bar[e.col]
        d0 = float(model.h_base[row]) - base_det
        if np.abs(a).max() > 1e-12:
            cuts.append((a, d0))
    return cuts


def loss_vector(model: RecourseModel, x_bar: np.ndarray, dim: int) -> np.ndarray:
    """Coefficients w with w.xi equal to the random part of the technology
    rows applied to the incumbent; for the tail-risk model this is the
    portfolio vector."""
    a = np.zeros(dim)
    for e in model.layout.tech_entries:
        a[e.component] += e.scale * x_bar[e.col]
    return a


class HyperplaneRefiner(Refiner):
    """Cut every region cell along the dual-switch hyperplane(s) of the
    incumbent; one-sided cells pass through unchanged."""

    name = "hyperplane"
    space_type = GaussianTechnologySpace

    def refine(self, ctx: RefineContext) -> Partition:
        cuts = dual_switch_hyperplanes(ctx.model, ctx.x_bar, ctx.space.dim)
        part = ctx.partition
        for normal, offset in cuts:
            splitter = HyperplaneSplit(tuple(float(v) for v in normal), float(offset))
            for label in [c.label for c in part.cells]:
                part = ctx.space.split_cell(part, label, splitter)
        return part

    def upper_bound(self, model, space, x_bar, bases=None):
        """Closed-form normal tail expectation; tail-risk models only."""
        if model.cvar is None:
            return None
        w = loss_vector(model, x_bar, space.dim)
        return float(cvar_analytic_ub(space.mu, space.sigma, model.cvar.delta, w))


REFINERS = (DualClusteringRefiner, RangingRefiner, HyperplaneRefiner)


def auto_refiner(space: UncertaintySpace) -> Refiner:
    """The refiner matching the backend."""
    for cls in REFINERS:
        if isinstance(space, cls.space_type):
            return cls()
    raise ValidationError(f"no refiner available for {space.kind} spaces")


def refiner_by_name(name: str, space: UncertaintySpace) -> Refiner:
    if name == "auto":
        return auto_refiner(space)
    for cls in REFINERS:
        if cls.name == name:
            refiner = cls()
            refiner.check(space)
            return refiner
    raise ValidationError(f"unknown refiner {name!r}")
