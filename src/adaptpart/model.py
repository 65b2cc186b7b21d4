"""Two-stage stochastic program structure and the aggregated master builder.

A model is  min c.x + E[Q(x, xi)]  over  x in X = {A x (senses) b, bounds},
with recourse  Q(x, xi) = min{q.y : W y (senses) h(xi) - T(xi) x, y >= 0}.
W and q are deterministic (fixed recourse); h and T carry the randomness.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lp as lplib
from .errors import RecourseViolation, ValidationError

MASS_TOL = 1e-9


@dataclass(frozen=True)
class TechEntry:
    """One random technology-matrix entry: T[row, col] = scale * xi[component]."""

    row: int
    col: int
    component: int
    scale: float = 1.0


@dataclass(frozen=True)
class RandomLayout:
    """Which parts of (h, T) are random and how they map to the random vector."""

    rhs_rows: tuple[int, ...] = ()
    tech_entries: tuple[TechEntry, ...] = ()


@dataclass(frozen=True)
class CvarMarker:
    """Marks a model as a tail-risk portfolio problem: first-stage variable
    `tau_col` is the threshold and `delta` the tail probability."""

    delta: float
    tau_col: int


@dataclass(frozen=True, eq=False)
class Realization:
    """One realization of the random elements, as full (h, T) data."""

    h: np.ndarray
    T: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "h", np.atleast_1d(np.asarray(self.h, dtype=float)))
        object.__setattr__(self, "T", np.atleast_2d(np.asarray(self.T, dtype=float)))
        if self.weight < 0:
            raise ValidationError("realization weight must be nonnegative")


@dataclass(frozen=True, eq=False)
class SubproblemOutcome:
    """Optimal value, recourse action, dual vector, and realized rhs h - T x."""

    value: float
    y: np.ndarray
    duals: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True, eq=False)
class RecourseModel:
    """Deterministic structure of a two-stage program."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    senses: tuple[str, ...]
    W: np.ndarray
    q: np.ndarray
    recourse_senses: tuple[str, ...]
    h_base: np.ndarray
    T_base: np.ndarray
    x_lower: np.ndarray | None = None
    x_upper: np.ndarray | None = None
    layout: RandomLayout = field(default_factory=RandomLayout)
    cvar: CvarMarker | None = None
    name: str = ""

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        A = np.asarray(self.A, dtype=float).reshape(-1, c.size)
        b = np.atleast_1d(np.asarray(self.b, dtype=float)) if np.size(self.b) else np.zeros(0)
        W = np.atleast_2d(np.asarray(self.W, dtype=float))
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        h_base = np.atleast_1d(np.asarray(self.h_base, dtype=float))
        T_base = np.asarray(self.T_base, dtype=float).reshape(W.shape[0], c.size)
        senses = tuple(self.senses)
        rsenses = tuple(self.recourse_senses)
        if len(senses) != A.shape[0] or b.size != A.shape[0]:
            raise ValidationError("first-stage rows, senses, and rhs sizes disagree")
        if W.shape[1] != q.size:
            raise ValidationError("recourse cost does not match W columns")
        if len(rsenses) != W.shape[0] or h_base.size != W.shape[0]:
            raise ValidationError("recourse rows, senses, and h sizes disagree")
        lower = self.x_lower
        upper = self.x_upper
        lower = np.zeros(c.size) if lower is None else np.asarray(lower, dtype=float)
        upper = np.full(c.size, np.inf) if upper is None else np.asarray(upper, dtype=float)
        for entry in self.layout.tech_entries:
            if not (0 <= entry.row < W.shape[0] and 0 <= entry.col < c.size):
                raise ValidationError(f"technology entry {entry} out of range")
        for row in self.layout.rhs_rows:
            if not 0 <= row < W.shape[0]:
                raise ValidationError(f"random rhs row {row} out of range")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "senses", senses)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "recourse_senses", rsenses)
        object.__setattr__(self, "h_base", h_base)
        object.__setattr__(self, "T_base", T_base)
        object.__setattr__(self, "x_lower", lower)
        object.__setattr__(self, "x_upper", upper)

    @property
    def n_first(self) -> int:
        return self.c.size

    @property
    def n_second(self) -> int:
        return self.q.size

    @property
    def m(self) -> int:
        return self.W.shape[0]

    def first_stage_lp(self, objective=None) -> lplib.StandardLp:
        obj = self.c if objective is None else objective
        return lplib.StandardLp(obj, self.A, self.b, self.senses, self.x_lower, self.x_upper)

    def assert_first_stage_feasible(self) -> None:
        """One LP solve proving X is nonempty; raises ValidationError otherwise."""
        sol = lplib.solve(self.first_stage_lp(np.zeros(self.n_first)))
        if sol.status != lplib.OPTIMAL:
            raise ValidationError(f"first-stage polyhedron is empty ({sol.status})")

    def realization(self, h=None, T=None, weight=1.0) -> Realization:
        return Realization(self.h_base if h is None else h,
                           self.T_base if T is None else T, weight)


def subproblem_lp(model: RecourseModel, x, realization: Realization) -> lplib.StandardLp:
    """The recourse LP  min q.y : W y (senses) h - T x, y >= 0  at a point."""
    x = np.asarray(x, dtype=float)
    rhs = realization.h - realization.T @ x
    return lplib.StandardLp(model.q, model.W, rhs, model.recourse_senses)


def evaluate_subproblem(model: RecourseModel, x, realization: Realization,
                        bases: lplib.BasisCache | None = None) -> SubproblemOutcome:
    """Solve the recourse problem at (x, realization).

    `bases`, a BasisCache built from model.q, model.W and
    model.recourse_senses, answers from a cached optimal basis when one is
    nondegenerate and feasible at the new rhs; otherwise the simplex runs and
    its basis joins the cache.  Without it every call runs the simplex.

    Raises RecourseViolation naming the offending realization if the
    subproblem is infeasible or unbounded.
    """
    if bases is not None:
        rhs = realization.h - realization.T @ np.asarray(x, dtype=float)
        sol = bases.lookup(rhs)
        if sol is not None:
            return SubproblemOutcome(sol.objective, sol.x, sol.duals, rhs)
    problem = subproblem_lp(model, x, realization)
    sol = lplib.solve(problem)
    if sol.status != lplib.OPTIMAL:
        raise RecourseViolation(
            f"recourse subproblem {sol.status} at x={np.asarray(x, dtype=float)} "
            f"for realization with h={realization.h}, rhs={problem.rhs}")
    if bases is not None:
        bases.add(sol)
    return SubproblemOutcome(sol.objective, sol.x, sol.duals, problem.rhs)


@dataclass(frozen=True)
class MasterMap:
    """Column/row bookkeeping for an aggregated master program."""

    n_first: int
    n_second: int
    n_first_rows: int
    n_recourse_rows: int
    masses: tuple[float, ...]

    def first_stage(self, sol: lplib.LpSolution) -> np.ndarray:
        return np.array(sol.x[: self.n_first])


def build_aggregated_master(model: RecourseModel, cells) -> tuple[lplib.StandardLp, MasterMap]:
    """Extensive form over a partition's cells at their conditional means.

    ``cells`` is a sequence of (mass, h_mean, T_mean) triples.  Masses must be
    positive and sum to one within 1e-9.
    """
    cells = list(cells)
    if not cells:
        raise ValidationError("aggregated master needs at least one cell")
    masses = np.array([float(c[0]) for c in cells])
    if np.any(masses <= 0):
        raise ValidationError("cell masses must be positive")
    if abs(masses.sum() - 1.0) > MASS_TOL:
        raise ValidationError(f"cell masses sum to {masses.sum():.12f}, expected 1")

    n1, n2, m = model.n_first, model.n_second, model.m
    mf = model.A.shape[0]
    K = len(cells)
    M = np.zeros((mf + K * m, n1 + K * n2))
    rhs = np.zeros(mf + K * m)
    obj = np.zeros(n1 + K * n2)
    senses = list(model.senses)
    M[:mf, :n1] = model.A
    rhs[:mf] = model.b
    obj[:n1] = model.c
    for k, (mass, h_mean, t_mean) in enumerate(cells):
        h_mean = np.asarray(h_mean, dtype=float)
        t_mean = np.asarray(t_mean, dtype=float)
        if h_mean.shape != (m,) or t_mean.shape != (m, n1):
            raise ValidationError(f"cell {k} mean shapes do not match the model")
        r0, c0 = mf + k * m, n1 + k * n2
        M[r0:r0 + m, :n1] = t_mean
        M[r0:r0 + m, c0:c0 + n2] = model.W
        rhs[r0:r0 + m] = h_mean
        senses.extend(model.recourse_senses)
        obj[c0:c0 + n2] = float(mass) * model.q
    lower = np.concatenate([model.x_lower, np.zeros(K * n2)])
    upper = np.concatenate([model.x_upper, np.full(K * n2, np.inf)])
    master = lplib.StandardLp(obj, M, rhs, tuple(senses), lower, upper)
    return master, MasterMap(n1, n2, mf, m, tuple(float(v) for v in masses))


def extract_cell_duals(sol: lplib.LpSolution, cmap: MasterMap) -> list[np.ndarray]:
    """Per-cell dual blocks of a solved master, rescaled by 1/mass so each block
    is a dual vector of that cell's own recourse problem."""
    if sol.status != lplib.OPTIMAL:
        raise ValidationError("cell duals require an optimal master solution")
    out = []
    for k, mass in enumerate(cmap.masses):
        r0 = cmap.n_first_rows + k * cmap.n_recourse_rows
        out.append(np.array(sol.duals[r0: r0 + cmap.n_recourse_rows]) / mass)
    return out
