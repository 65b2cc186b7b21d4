"""Two-stage stochastic program structure and the aggregated master builder.

A model is  min c.x + E[Q(x, xi)]  over  x in X = {A x (senses) b, bounds},
with recourse  Q(x, xi) = min{q.y : W y (senses) h(xi) - T(xi) x, y >= 0}.
W and q are deterministic (fixed recourse) and live in RecourseModel; h and
T carry the randomness and belong to the uncertainty space (see spaces.py).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp as lplib
from .errors import RecourseViolation, ValidationError

MASS_TOL = 1e-9


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
class RecourseModel:
    """The fixed-recourse program every scenario shares: first stage
    (c, A, b, senses, bounds) and recourse (W, q, senses)."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    senses: tuple[str, ...]
    W: np.ndarray
    q: np.ndarray
    recourse_senses: tuple[str, ...]
    x_lower: np.ndarray | None = None
    x_upper: np.ndarray | None = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        A = _matrix("A", self.A)
        b = np.atleast_1d(np.asarray(self.b, dtype=float)) if np.size(self.b) else np.zeros(0)
        W = _matrix("W", self.W)
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        senses = tuple(self.senses)
        rsenses = tuple(self.recourse_senses)
        if A.size == 0:
            A = np.zeros((0, c.size))
        if A.shape != (b.size, c.size):
            raise ValidationError(f"first-stage A has shape {A.shape}, expected "
                                  f"({b.size}, {c.size}) from b and c")
        if len(senses) != b.size:
            raise ValidationError("first-stage rows, senses, and rhs sizes disagree")
        if W.shape[1] != q.size:
            raise ValidationError("recourse cost does not match W columns")
        if len(rsenses) != W.shape[0]:
            raise ValidationError("recourse rows and senses disagree")
        lower = self.x_lower
        upper = self.x_upper
        lower = np.zeros(c.size) if lower is None else np.asarray(lower, dtype=float)
        upper = np.full(c.size, np.inf) if upper is None else np.asarray(upper, dtype=float)
        if lower.shape != (c.size,) or upper.shape != (c.size,):
            raise ValidationError(f"first-stage bounds must have shape ({c.size},), got "
                                  f"{lower.shape} and {upper.shape}")
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise ValidationError("first-stage bounds must not be NaN")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "senses", senses)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "recourse_senses", rsenses)
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

    def assert_first_stage_feasible(self) -> None:
        """One LP solve proving X is nonempty; raises ValidationError otherwise."""
        sol = lplib.solve(lplib.StandardLp(np.zeros(self.n_first), self.A, self.b, self.senses,
                                           self.x_lower, self.x_upper))
        if sol.status != lplib.OPTIMAL:
            raise ValidationError(f"first-stage polyhedron is empty ({sol.status})")


def _matrix(name: str, value) -> np.ndarray:
    """`value` as a 2-D float array; a ragged nesting is a ValidationError."""
    try:
        return np.atleast_2d(np.asarray(value, dtype=float))
    except ValueError as exc:
        raise ValidationError(f"{name} is not a rectangular matrix: {exc}") from exc


def evaluate_subproblem(model: RecourseModel, x, realization: Realization,
                        bases: lplib.BasisCache | None = None) -> lplib.LpSolution:
    """Solve the recourse problem at (x, realization) through `bases`, a
    BasisCache built from model.q, model.W and model.recourse_senses (see
    BasisCache.solve).  Without it a fresh cache runs the simplex.  Returns
    the optimal LpSolution: `objective` is Q(x, xi), `x` the recourse action
    y and `duals` the row duals.

    Raises RecourseViolation naming the offending realization if the
    subproblem is infeasible or unbounded.
    """
    if bases is None:
        bases = lplib.BasisCache(model.q, model.W, model.recourse_senses)
    x = np.asarray(x, dtype=float)
    rhs = realization.h - realization.T @ x
    sol = bases.solve(rhs)
    if sol.status != lplib.OPTIMAL:
        raise RecourseViolation(
            f"recourse subproblem {sol.status} at x={x} "
            f"for realization with h={realization.h}, rhs={rhs}")
    return sol


def build_aggregated_master(model: RecourseModel, cells) -> lplib.StandardLp:
    """Extensive form over a partition's cells at their conditional means.

    ``cells`` is a sequence of (mass, h_mean, T_mean) triples.  Masses must be
    positive and sum to one within 1e-9.  The first model.n_first columns of
    the master are the first-stage x.
    """
    cells = list(cells)
    if not cells:
        raise ValidationError("aggregated master needs at least one cell")
    masses = np.array([float(c[0]) for c in cells])
    if not np.all(masses > 0):
        raise ValidationError("cell masses must be positive")
    if not abs(masses.sum() - 1.0) <= MASS_TOL:
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
    return lplib.StandardLp(obj, M, rhs, tuple(senses), lower, upper)
