"""Independent oracles used to freeze expected values.

These deliberately avoid the library's own canonicalization and solve paths:
vertex enumeration works on its own equality form, the ranging oracle re-solves
on a grid, and the extensive-form builder assembles the deterministic
equivalent directly.  `dense_apply_pivot` and `loop_canonicalize` are the
kernel's earlier dense pivot and per-column canonical form, kept as references
for the column-sparse and array-built versions in `adaptpart.lp`.
`empirical_cvar` is the sample tail average the tail-risk bounds are checked
against.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from adaptpart import lp as lplib
from adaptpart.errors import SolverFailure


def empirical_cvar(losses, delta: float) -> float:
    """Sample tail average: tau* + mean((loss - tau*)+) / delta at the
    empirical (1 - delta)-quantile tau*, the reference value of the
    tail-risk portfolio."""
    losses = np.asarray(losses, dtype=float)
    tau = float(np.quantile(losses, 1.0 - delta))
    return tau + float(np.maximum(losses - tau, 0.0).mean()) / delta


def vertex_enumerate(c, M, b, senses):
    """Brute-force optimum of min c.x, M x (senses) b, x >= 0 by enumerating
    basic solutions of the slack-augmented equality system.

    Returns (status, objective) with status in {"optimal", "infeasible"}.
    Problems passed here must be bounded (c >= 0 suffices).
    """
    c = np.asarray(c, dtype=float)
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = M.shape
    cols = [M]
    costs = [c]
    for i, sense in enumerate(senses):
        if sense == "=":
            continue
        col = np.zeros((m, 1))
        col[i, 0] = 1.0 if sense == "<=" else -1.0
        cols.append(col)
        costs.append(np.zeros(1))
    A = np.hstack(cols)
    cost = np.concatenate(costs)
    total = A.shape[1]
    if total < m:
        return "infeasible", None

    combos = list(combinations(range(total), m))
    stacked = np.stack([A[:, list(cb)] for cb in combos])
    dets = np.linalg.det(stacked)
    ok = np.abs(dets) > 1e-9 * (1.0 + np.abs(stacked).max())
    best = None
    if np.any(ok):
        rhs = np.broadcast_to(b.reshape(1, m, 1), (int(ok.sum()), m, 1))
        sols = np.linalg.solve(stacked[ok], rhs)[:, :, 0]
        idx = np.flatnonzero(ok)
        for row, sol in zip(idx, sols):
            if sol.min(initial=0.0) < -1e-9:
                continue
            val = float(cost[list(combos[row])] @ sol)
            if best is None or val < best:
                best = val
    if best is None:
        return "infeasible", None
    return "optimal", best


def grid_dual_breakpoints(make_lp, row, grid):
    """Re-solve an LP family over a rhs grid and report points where the dual
    of `row` changes.  Returns (duals_on_grid, breakpoints) where breakpoints
    are grid midpoints bracketing each change."""
    duals = []
    for d in grid:
        sol = lplib.solve(make_lp(d))
        duals.append(None if sol.status != lplib.OPTIMAL else float(sol.duals[row]))
    points = []
    for k in range(1, len(grid)):
        a, b = duals[k - 1], duals[k]
        if a is None or b is None:
            continue
        if abs(a - b) > 1e-6:
            points.append(0.5 * (grid[k - 1] + grid[k]))
    return duals, points


def extensive_form(model, weights, hs, Ts) -> lplib.StandardLp:
    """Deterministic equivalent over an explicit scenario list, assembled
    directly (one y block per scenario)."""
    weights = np.asarray(weights, dtype=float)
    S = weights.size
    n1, n2, m = model.n_first, model.n_second, model.m
    mf = model.A.shape[0]
    ncols = n1 + S * n2
    nrows = mf + S * m
    M = np.zeros((nrows, ncols))
    rhs = np.zeros(nrows)
    senses = list(model.senses)
    M[:mf, :n1] = model.A
    rhs[:mf] = model.b
    obj = np.zeros(ncols)
    obj[:n1] = model.c
    lower = np.concatenate([model.x_lower, np.zeros(S * n2)])
    upper = np.concatenate([model.x_upper, np.full(S * n2, np.inf)])
    for s in range(S):
        r0 = mf + s * m
        c0 = n1 + s * n2
        M[r0:r0 + m, :n1] = Ts[s]
        M[r0:r0 + m, c0:c0 + n2] = model.W
        rhs[r0:r0 + m] = hs[s]
        senses.extend(model.recourse_senses)
        obj[c0:c0 + n2] = weights[s] * model.q
    return lplib.StandardLp(obj, M, rhs, tuple(senses), lower, upper)


def trapezoid_integral(f, lo, hi, n=20001):
    """Plain trapezoid quadrature on a uniform grid (independent of any
    library integration helper)."""
    xs = np.linspace(lo, hi, n)
    ys = np.array([f(x) for x in xs])
    return float(np.trapezoid(ys, xs))


def dense_apply_pivot(tab: np.ndarray, row: int, col: int) -> None:
    """Reference pivot: update every entry of the tableau."""
    piv = tab[row, col]
    if abs(piv) < lplib.PIVOT_TOL:
        raise SolverFailure("pivot element below tolerance")
    tab[row] = tab[row] / piv
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0


def loop_canonicalize(lp: lplib.StandardLp) -> lplib._Canonical:
    """Reference canonical form, built one column and one row at a time."""
    LE, EQ = lplib.LE, lplib.EQ
    m, n = lp.matrix.shape
    lower, upper = lp.lower, lp.upper
    shift = np.where(np.isfinite(lower), lower, 0.0)

    columns: list[tuple[int, float]] = []  # (variable, sign) per leading column
    for j in range(n):
        columns.append((j, 1.0))
        if not np.isfinite(lower[j]):
            columns.append((j, -1.0))
    n_var_cols = len(columns)

    bounded = [j for j in range(n) if np.isfinite(upper[j])]
    m_c = m + len(bounded)

    A = np.zeros((m_c, n_var_cols))
    for k, (j, sgn) in enumerate(columns):
        A[:m, k] = sgn * lp.matrix[:, j]
    b = np.empty(m_c)
    b[:m] = lp.rhs - lp.matrix @ shift
    senses = list(lp.senses)
    for t, j in enumerate(bounded):
        r = m + t
        for k, (jj, sgn) in enumerate(columns):
            if jj == j:
                A[r, k] = sgn
        b[r] = upper[j] - shift[j]
        senses.append(LE)

    ineq = [i for i in range(m_c) if senses[i] != EQ]
    S = np.zeros((m_c, len(ineq)))
    for t, i in enumerate(ineq):
        S[i, t] = 1.0 if senses[i] == LE else -1.0
    A = np.hstack([A, S]) if ineq else A

    c = np.zeros(A.shape[1])
    for k, (j, sgn) in enumerate(columns):
        c[k] = sgn * lp.objective[j]

    row_sign = np.ones(m_c)
    neg = b < 0
    row_sign[neg] = -1.0
    A[neg] *= -1.0
    b[neg] *= -1.0

    var = np.array([j for j, _ in columns], dtype=int)
    sign = np.array([sgn for _, sgn in columns])
    return lplib._Canonical(A, b, c, row_sign, var, sign, shift)
