"""Independent oracles used to freeze expected values.

These deliberately avoid the library's own canonicalization and solve paths:
vertex enumeration works on its own equality form, the ranging oracle re-solves
on a grid, and the extensive-form builder assembles the deterministic
equivalent directly.  `reference_solve` is the kernel's earlier row-major
two-phase simplex, frozen whole: its loop-built cost rows and per-column primal
recovery run on `dense_apply_pivot` (every tableau entry updated) and
`loop_canonicalize` (the canonical form built one column and one row at a
time), the reference for the column-major kernel and the array-built canonical
form in `adaptpart.lp`.
`LoopBasisCache` is the basis cache as it was before its inverses were
stacked: a list of entries, most recently hit first, tried one at a time,
each with its own product and its residual loop on NumPy scalars.
`empirical_cvar` is the sample tail average the tail-risk bounds are checked
against.
"""
from __future__ import annotations

import copy
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


def _reference_pivot_loop(tab: np.ndarray, basis: list[int], label: str) -> tuple[str, int]:
    """The pivot loop of `reference_solve`: (status, pivots chosen under
    Bland's rule)."""
    scale = 1.0 + float(np.abs(tab[:-1, -1]).max(initial=0.0))
    stall = 0
    bland = False
    bland_pivots = 0
    for _ in range(lplib._MAX_PIVOTS):
        cost = tab[-1, :-1]
        elig = np.flatnonzero(cost < -lplib._RC_TOL)
        if elig.size == 0:
            return lplib.OPTIMAL, bland_pivots
        col = int(elig[0]) if bland else int(elig[np.argmin(cost[elig])])
        bland_pivots += bland
        colvals = tab[:-1, col]
        rows = np.flatnonzero(colvals > lplib.PIVOT_TOL)
        if rows.size == 0:
            return lplib.UNBOUNDED, bland_pivots
        ratios = tab[rows, -1] / colvals[rows]
        rmin = float(ratios.min())
        ties = rows[ratios <= rmin + lplib._RATIO_TIE * (1.0 + abs(rmin))]
        row = int(ties[0])
        if rmin <= 1e-12 * scale:
            stall += 1
            if stall > lplib.STALL_LIMIT:
                bland = True
        else:
            stall = 0
        dense_apply_pivot(tab, row, col)
        basis[row] = col
    raise SolverFailure(f"pivot limit exceeded in {label}")


def reference_solve(lp: lplib.StandardLp) -> tuple[lplib.LpSolution, int]:
    """Reference two-phase simplex on a row-major tableau, with the kernel's
    pivot rules: (solution, pivots chosen under Bland's rule)."""
    canon = loop_canonicalize(lp)
    m_c, n_c = canon.A.shape
    n_var = canon.var.size

    start = np.full(m_c, -1)
    slack_rows, slacks = np.nonzero(canon.A[:, n_var:] == 1.0)
    start[slack_rows] = n_var + slacks
    art_rows = np.flatnonzero(start < 0)
    n_art = art_rows.size
    start[art_rows] = n_c + np.arange(n_art)
    basis: list[int] = start.tolist()

    tab = np.zeros((m_c + 1, n_c + n_art + 1))
    tab[:m_c, :n_c] = canon.A
    tab[:m_c, -1] = canon.b
    tab[art_rows, n_c + np.arange(n_art)] = 1.0
    bland = 0
    if n_art:
        tab[-1, n_c:-1] = 1.0
        for i in art_rows:
            tab[-1] -= tab[i]
        status, bland = _reference_pivot_loop(tab, basis, "phase 1")
        if status != lplib.OPTIMAL:
            raise SolverFailure("phase 1 reported unbounded; artificial objective is bounded below")
        held = [i for i, k in enumerate(basis) if k >= n_c]
        if any(tab[i, -1] > lplib.FEAS_TOL * (1.0 + abs(canon.b[art_rows[basis[i] - n_c]]))
               for i in held):
            return lplib.LpSolution(lplib.INFEASIBLE), bland
        keep = np.ones(m_c, dtype=bool)
        for i in held:
            cols = np.flatnonzero(np.abs(tab[i, :n_c]) > lplib.PIVOT_TOL)
            if cols.size:
                dense_apply_pivot(tab, i, int(cols[0]))
                basis[i] = int(cols[0])
            else:
                keep[i] = False
        kept = np.flatnonzero(keep)
        basis = [basis[i] for i in kept]
    else:
        kept = np.arange(m_c)
    rows = np.append(kept, m_c)
    tab = np.hstack([tab[rows, :n_c], tab[rows, -1:]])

    cost2 = np.append(canon.c, 0.0)
    for pos, bc in enumerate(basis):
        if cost2[bc] != 0.0:
            cost2 = cost2 - cost2[bc] * tab[pos]
    tab[-1] = cost2
    status, more = _reference_pivot_loop(tab, basis, "phase 2")
    bland += more
    if status == lplib.UNBOUNDED:
        return lplib.LpSolution(lplib.UNBOUNDED), bland

    z = np.zeros(n_c)
    z[basis] = tab[:len(basis), -1]
    x = canon.shift.copy()
    for k in np.flatnonzero(z[:n_var]):
        x[canon.var[k]] += canon.sign[k] * z[k]
    objective = float(lp.objective @ x)

    B = canon.A[np.ix_(kept, basis)]
    try:
        lam = np.linalg.solve(B.T, canon.c[np.asarray(basis, dtype=int)])
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"singular basis during dual recovery: {exc}") from exc
    duals = np.zeros(lp.n_rows)
    original = kept < lp.n_rows
    duals[kept[original]] = canon.row_sign[kept[original]] * lam[original]

    lplib._validate(lp, canon, kept, x, lam, objective)
    return (lplib.LpSolution(lplib.OPTIMAL, x, duals, objective,
                             tuple(int(v) for v in basis), tuple(int(v) for v in kept)),
            bland)


def loop_row_violation(matrix, rhs, senses, x) -> str | None:
    """Reference `_row_violation`: the first row missed by more than
    FEAS_TOL*(1+|rhs_i|), tested on NumPy scalars."""
    resid = matrix @ x - rhs
    for i, sense in enumerate(senses):
        tol = lplib.FEAS_TOL * (1.0 + abs(rhs[i]))
        r = resid[i]
        if sense == lplib.EQ and abs(r) > tol:
            return f"equality row {i} violated by {r:.3e}"
        if sense == lplib.LE and r > tol:
            return f"<= row {i} violated by {r:.3e}"
        if sense == lplib.GE and r < -tol:
            return f">= row {i} violated by {-r:.3e}"
    return None


class LoopBasisCache(lplib.BasisCache):
    """Reference `BasisCache`: `entries` lists (basis, kept rows, B^-1 over
    all rows, duals), most recently hit first, and a lookup walks it, one
    product B^-1 r and one minimum per basis.  `cross`, `_range` and the
    family are the library's."""

    def __init__(self, objective, matrix, senses):
        super().__init__(objective, matrix, senses)
        self.entries: list[tuple] = []

    def solve(self, rhs):
        sol = self._lookup(rhs)
        if sol is None:
            fam = self._family
            sol = lplib.solve(lplib.StandardLp(fam.objective, fam.matrix, rhs, fam.senses))
            self.solves += 1
            self._add(sol)
        return sol

    def lookup_many(self, R):
        """The entry `solve(r)` would answer from, per row r of R; read-only."""
        found = []
        for r in np.asarray(R, dtype=float):
            probe = copy.deepcopy(self)
            found.append(probe.entries[0] if probe._lookup(r) is not None else None)
        return found

    def _lookup(self, rhs):
        fam = self._family
        floor = lplib._BASIC_FLOOR * (1.0 + float(np.abs(rhs).max(initial=0.0)))
        for k, (basis, kept, inv, duals) in enumerate(self.entries):
            z_b = inv @ rhs
            if z_b.min(initial=np.inf) <= floor:
                continue
            z = np.zeros(self.columns.shape[1])
            z[list(basis)] = z_b
            y = z[:fam.n_cols]
            if loop_row_violation(fam.matrix, rhs, fam.senses, y) is not None:
                continue
            self.entries.insert(0, self.entries.pop(k))
            self.hits += 1
            return lplib.LpSolution(lplib.OPTIMAL, y, duals.copy(), float(fam.objective @ y),
                                    basis, kept)
        return None

    def _add(self, sol, inv=None):
        if sol.status != lplib.OPTIMAL:
            return
        if any(set(entry[0]) == set(sol.basis) for entry in self.entries):
            return
        kept = list(sol.kept_rows)
        try:
            inv = np.linalg.inv(self.columns[np.ix_(kept, sol.basis)]) if inv is None else inv
        except np.linalg.LinAlgError:
            return
        wide = np.zeros((len(kept), self.columns.shape[0]))
        wide[:, kept] = inv
        self.entries.insert(0, (sol.basis, sol.kept_rows, wide,
                                np.array(sol.duals, dtype=float)))
        del self.entries[lplib._CACHED_BASES:]
