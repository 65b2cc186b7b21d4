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
        c = _vector("c", self.c)
        A = np.atleast_2d(float_array("A", self.A))
        b = _vector("b", self.b)
        W = np.atleast_2d(float_array("W", self.W))
        q = _vector("q", self.q)
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
        lower = np.zeros(c.size) if lower is None else float_array("x_lower", lower)
        upper = np.full(c.size, np.inf) if upper is None else float_array("x_upper", upper)
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


def float_array(name: str, value) -> np.ndarray:
    """`value` as a float array; a ragged nesting is a ValidationError."""
    try:
        return np.asarray(value, dtype=float)
    except ValueError as exc:
        raise ValidationError(f"{name} is not a rectangular array: {exc}") from exc


def _vector(name: str, value) -> np.ndarray:
    """`value` as a one-dimensional float array (a scalar is one entry);
    any other shape is a ValidationError."""
    vector = np.atleast_1d(float_array(name, value))
    if vector.ndim != 1:
        raise ValidationError(f"{name} must be a vector, got shape {vector.shape}")
    return vector


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


def _cell_arrays(model: RecourseModel, cells):
    """(masses, h means, T means) of (mass, h_mean, T_mean) triples, checked."""
    cells = list(cells)
    if not cells:
        raise ValidationError("aggregated master needs at least one cell")
    masses = np.array([float(c[0]) for c in cells])
    if not np.all(masses > 0):
        raise ValidationError("cell masses must be positive")
    if not abs(masses.sum() - 1.0) <= MASS_TOL:
        raise ValidationError(f"cell masses sum to {masses.sum():.12f}, expected 1")
    m, n1 = model.m, model.n_first
    hs = np.zeros((len(cells), m))
    Ts = np.zeros((len(cells), m, n1))
    for k, (_, h_mean, t_mean) in enumerate(cells):
        h_mean = np.asarray(h_mean, dtype=float)
        t_mean = np.asarray(t_mean, dtype=float)
        if h_mean.shape != (m,) or t_mean.shape != (m, n1):
            raise ValidationError(f"cell {k} mean shapes do not match the model")
        hs[k] = h_mean
        Ts[k] = t_mean
    return masses, hs, Ts


def _place_blocks(M: np.ndarray, r0: int, c0: int, blocks: np.ndarray) -> None:
    """Write blocks[k], each m x w, down the diagonal of M from (r0, c0)."""
    K, m, w = blocks.shape
    k = np.arange(K)[:, None, None]
    M[r0 + k * m + np.arange(m)[:, None], c0 + k * w + np.arange(w)] = blocks


def build_aggregated_master(model: RecourseModel, cells, anchor=None) -> lplib.StandardLp:
    """Extensive form over a partition's cells at their conditional means.

    ``cells`` is a sequence of (mass, h_mean, T_mean) triples.  Masses must be
    positive and sum to one within 1e-9.  The first model.n_first columns of
    the master are the first-stage x.

    With ``anchor = (x_hat, bases)``, a first-stage point and the run's
    BasisCache, the same program is written around x_hat for a warm start:
    x = x_hat + u - v with u, v >= 0 its first 2*n_first columns, and its
    objective leaves out the constant c @ x_hat (see `master_incumbent`).
    Every row is an equality with explicit slack columns: the first-stage
    rows, one row per finite bound of x, and per cell the rows
    [W S](y; s) + T_k (u - v) = h_k - T_k x_hat, S being the slacks of
    `bases.columns`.  A cell whose rhs h_k - T_k x_hat a cached basis B
    answers (`BasisCache.lookup_many`) has its rows multiplied by B^-1, so
    its basic columns are exact unit vectors over a positive rhs, and the
    simplex starts from them.  A cached basis that dropped a row is not
    used: the dropped row need not be redundant in the master.
    """
    masses, hs, Ts = _cell_arrays(model, cells)
    if anchor is not None:
        return _anchored_master(model, masses, hs, Ts, *anchor)
    n1, n2, m = model.n_first, model.n_second, model.m
    mf = model.A.shape[0]
    K = masses.size
    M = np.zeros((mf + K * m, n1 + K * n2))
    M[:mf, :n1] = model.A
    M[mf:, :n1] = Ts.reshape(K * m, n1)
    _place_blocks(M, mf, n1, np.broadcast_to(model.W, (K, m, n2)))
    rhs = np.concatenate([model.b, hs.ravel()])
    obj = np.concatenate([model.c, np.outer(masses, model.q).ravel()])
    senses = model.senses + model.recourse_senses * K
    lower = np.concatenate([model.x_lower, np.zeros(K * n2)])
    upper = np.concatenate([model.x_upper, np.full(K * n2, np.inf)])
    return lplib.StandardLp(obj, M, rhs, senses, lower, upper)


def _anchored_master(model, masses, hs, Ts, x_hat, bases) -> lplib.StandardLp:
    n1, m = model.n_first, model.m
    x_hat = np.asarray(x_hat, dtype=float)
    K = masses.size
    WS = bases.columns
    width = WS.shape[1]
    # per cell: its block of [W S] and of T, and its rhs, in B^-1 form
    # where a full-row cached basis answers the cell
    R = hs - Ts @ x_hat
    blocks = np.repeat(WS[None], K, axis=0)
    techs = Ts
    found = bases.lookup_many(R)
    answered = np.array([k for k, entry in enumerate(found)
                         if entry is not None and len(entry[1]) == m], dtype=int)
    if answered.size:
        inv = np.stack([found[k][2] for k in answered])
        blocks[answered] = inv @ WS
        # basic column basis[i] of a cell becomes e_i exactly
        blocks[answered[:, None], :, np.array([found[k][0] for k in answered])] = np.eye(m)
        techs = Ts.copy()
        techs[answered] = inv @ Ts[answered]
        R[answered] = (inv @ R[answered, :, None])[:, :, 0]

    f_slack = np.array([s != lplib.EQ for s in model.senses], dtype=bool)
    ups = np.flatnonzero(np.isfinite(model.x_upper))
    lows = np.flatnonzero(np.isfinite(model.x_lower))
    mf, pf, nb = model.A.shape[0], int(f_slack.sum()), ups.size + lows.size
    c0 = 2 * n1 + pf + nb  # the first cell column
    r0 = mf + nb           # the first cell row
    M = np.zeros((r0 + K * m, c0 + K * width))
    M[:mf, :n1] = model.A
    M[:mf, n1:2 * n1] = -model.A
    M[np.flatnonzero(f_slack), 2 * n1 + np.arange(pf)] = np.where(
        np.array(model.senses)[f_slack] == lplib.LE, 1.0, -1.0)
    # x_j + t = upper_j and -x_j + t = -lower_j, t >= 0, in u and v
    bound_rows = mf + np.arange(nb)
    bound_cols = np.concatenate([ups, lows])
    side = np.concatenate([np.ones(ups.size), -np.ones(lows.size)])
    M[bound_rows, bound_cols] = side
    M[bound_rows, n1 + bound_cols] = -side
    M[bound_rows, 2 * n1 + pf + np.arange(nb)] = 1.0
    M[r0:, :n1] = techs.reshape(K * m, n1)
    M[r0:, n1:2 * n1] = -M[r0:, :n1]
    _place_blocks(M, r0, c0, blocks)
    rhs = np.concatenate([model.b - model.A @ x_hat,
                          model.x_upper[ups] - x_hat[ups], x_hat[lows] - model.x_lower[lows],
                          R.ravel()])
    q = np.zeros(width)
    q[:model.n_second] = model.q
    obj = np.concatenate([model.c, -model.c, np.zeros(pf + nb), np.outer(masses, q).ravel()])
    return lplib.StandardLp(obj, M, rhs, (lplib.EQ,) * M.shape[0])


def master_lex(model: RecourseModel, master: lplib.StandardLp, anchored: bool) -> np.ndarray:
    """The objectives that pick the master's incumbent within its optimal
    face, for `lp.solve(master, lex=...)`: x's coordinates, last first, over
    the master's columns (x = u - v + x_hat when it is anchored)."""
    n1 = model.n_first
    lex = np.zeros((n1, master.n_cols))
    last_first = np.arange(n1)[::-1]
    lex[np.arange(n1), last_first] = 1.0
    if anchored:
        lex[np.arange(n1), n1 + last_first] = -1.0
    return lex


def master_incumbent(model: RecourseModel, sol: lplib.LpSolution,
                     x_hat=None) -> tuple[np.ndarray, float]:
    """(x, lower bound) from the optimal solution of a master built around
    x_hat (None: a plain master).  x = x_hat + u - v, clipped into x's
    bounds; a coordinate within 1e-12*(1+|x_hat_j|) of x_hat_j is x_hat_j
    itself, so an incumbent that does not move stays bitwise the same.  The
    bound is the master's objective plus c @ x_hat."""
    n1 = model.n_first
    if x_hat is None:
        return np.array(sol.x[:n1]), float(sol.objective)
    x = np.clip(x_hat + sol.x[:n1] - sol.x[n1:2 * n1], model.x_lower, model.x_upper)
    still = np.abs(x - x_hat) <= 1e-12 * (1.0 + np.abs(x_hat))
    x[still] = x_hat[still]
    return x, float(sol.objective) + float(model.c @ x_hat)
