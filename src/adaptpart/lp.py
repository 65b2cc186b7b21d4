"""Two-phase tableau simplex kernel with dual recovery and right-hand-side ranging.

A pivot updates only the tableau columns in which the pivot row is nonzero, a
small share on block-angular programs such as the aggregated master, whose
columns are the first stage plus one copy of W per partition cell.

Problems are stated as  min q.y  subject to  M y (<=|=|>=) b  with per-variable
bounds (default y >= 0).  Reported duals follow the max-form convention: the
dual vector maximizes rhs.lam subject to M'.lam <= q, so duals of <= rows are
nonpositive and duals of >= rows are nonnegative at an optimum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverFailure, ValidationError

FEAS_TOL = 1e-7
DUALITY_TOL = 1e-6
PIVOT_TOL = 1e-9
STALL_LIMIT = 50  # consecutive degenerate pivots before switching to Bland's rule

LE, EQ, GE = "<=", "=", ">="
_SENSES = (LE, EQ, GE)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_RC_TOL = 1e-9      # reduced-cost threshold for entering columns
_RATIO_TIE = 1e-9   # ratio-test tie tolerance
_MAX_PIVOTS = 50_000
_CACHED_BASES = 16  # bases a BasisCache keeps
# A cached basis answers only where every basic value B^-1 r exceeds
# _BASIC_FLOOR*(1+|r|_inf).  The floor must stay far above the rounding of
# B^-1 r, so that a basis degenerate at r goes to the simplex, and below the
# breakpoint sweep's probe offset refiners.DEGENERACY_STEP_FRAC*(hi-lo), so
# that a probe just past a basis boundary is answered from the cache.
_BASIC_FLOOR = 1e-9


@dataclass(frozen=True, eq=False)
class StandardLp:
    """A dense linear program in row-sense form."""

    objective: np.ndarray
    matrix: np.ndarray
    rhs: np.ndarray
    senses: tuple[str, ...]
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        obj = np.atleast_1d(np.asarray(self.objective, dtype=float))
        mat = np.asarray(self.matrix, dtype=float)
        if mat.size == 0:
            mat = mat.reshape(0, obj.size)
        if mat.ndim != 2:
            raise ValidationError("constraint matrix must be two-dimensional")
        rhs = np.atleast_1d(np.asarray(self.rhs, dtype=float))
        senses = tuple(self.senses)
        m, n = mat.shape
        if obj.shape != (n,):
            raise ValidationError(f"objective has {obj.size} entries, matrix has {n} columns")
        if rhs.shape != (m,):
            raise ValidationError(f"rhs has {rhs.size} entries, matrix has {m} rows")
        if len(senses) != m:
            raise ValidationError(f"{len(senses)} senses for {m} rows")
        bad = [s for s in senses if s not in _SENSES]
        if bad:
            raise ValidationError(f"unknown row sense {bad[0]!r}")
        if not np.all(np.isfinite(obj)):
            raise ValidationError("objective entries must be finite")
        if not np.all(np.isfinite(mat)):
            raise ValidationError("matrix entries must be finite")
        if not np.all(np.isfinite(rhs)):
            raise ValidationError("rhs entries must be finite")
        lower = self.lower
        upper = self.upper
        lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float).copy()
        upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float).copy()
        if lower.shape != (n,) or upper.shape != (n,):
            raise ValidationError("bound vectors must have one entry per column")
        if np.any(lower == np.inf) or np.any(upper == -np.inf):
            raise ValidationError("lower bounds must be < +inf and upper bounds > -inf")
        if np.any(lower > upper):
            raise ValidationError("lower bound exceeds upper bound")
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "senses", senses)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Solve outcome; primal/dual/basis fields are set only when optimal."""

    status: str
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    objective: float | None = None
    basis: tuple[int, ...] | None = None
    kept_rows: tuple[int, ...] | None = None


@dataclass
class _Canonical:
    """Equality form  A z = b, z >= 0, b >= 0  with bookkeeping to map back."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    offset: float
    row_sign: np.ndarray      # +-1: row was negated during folding
    row_origin: np.ndarray    # original row index, -1 for synthetic bound rows
    col_kind: list[tuple[str, int, float]]  # ("var", j, sign) or ("slack", row, 0)
    shift: np.ndarray


def _canonicalize(lp: StandardLp) -> _Canonical:
    m, n = lp.matrix.shape
    lower, upper = lp.lower, lp.upper
    shift = np.where(np.isfinite(lower), lower, 0.0)

    # one column per variable, followed by a negated copy when it is free
    var = np.repeat(np.arange(n), np.where(np.isfinite(lower), 1, 2))
    sign = np.ones(var.size)
    sign[1:][var[1:] == var[:-1]] = -1.0
    n_var = var.size
    bounded = np.flatnonzero(np.isfinite(upper))
    bound_row = np.full(n, -1)
    bound_row[bounded] = m + np.arange(bounded.size)
    senses = np.array(lp.senses + (LE,) * bounded.size, dtype=str)
    ineq = np.flatnonzero(senses != EQ)

    A = np.zeros((senses.size, n_var + ineq.size))
    A[:m, :n_var] = lp.matrix[:, var] * sign
    on = np.flatnonzero(bound_row[var] >= 0)
    A[bound_row[var[on]], on] = sign[on]
    A[ineq, n_var + np.arange(ineq.size)] = np.where(senses[ineq] == LE, 1.0, -1.0)
    b = np.concatenate([lp.rhs - lp.matrix @ shift, upper[bounded] - shift[bounded]])
    c = np.zeros(A.shape[1])
    c[:n_var] = sign * lp.objective[var]

    row_sign = np.ones(senses.size)
    neg = b < 0
    row_sign[neg] = -1.0
    A[neg] *= -1.0
    b[neg] *= -1.0

    col_kind = ([("var", j, s) for j, s in zip(var.tolist(), sign.tolist())]
                + [("slack", i, 0.0) for i in ineq.tolist()])
    row_origin = np.concatenate([np.arange(m), np.full(bounded.size, -1)])
    offset = float(lp.objective @ shift)
    return _Canonical(A, b, c, offset, row_sign, row_origin, col_kind, shift)


class BasisCache:
    """Solves one fixed-recourse family  min q.y : W y (senses) r,  y >= 0,
    in which only r changes, from its optimal bases where it can (bunching).

    The solve that found a basis certified it dual feasible, and dual
    feasibility does not depend on r, so the basis is optimal for a new r
    once its basic values B^-1 r are nonnegative.  A cached basis answers
    only when every basic value exceeds _BASIC_FLOOR*(1+|r|_inf), so it is
    nondegenerate and its duals are the unique ones `solve` would return,
    and when the point passes `_validate`'s per-row residual test.  Any
    other r goes to the simplex, which `solves` counts, and an optimal basis
    it finds joins the cache.  `hits` counts the answers from cached bases.
    Canonical columns are those of `_canonicalize`: one per y, then one
    slack per inequality row; sign folding of rows leaves B^-1 r and the
    duals unchanged, so `rhs_ranging` reads its basis matrices from these
    columns too.
    """

    def __init__(self, objective, matrix, senses):
        family = StandardLp(objective, matrix, np.zeros(len(senses)), senses)
        canon = _canonicalize(family)
        self._family = family
        self._A = canon.A
        self._all_rows = tuple(range(family.n_rows))
        # (basis, B^-1, duals), most recently hit first
        self._entries: list[tuple[tuple[int, ...], np.ndarray, np.ndarray]] = []
        self.hits = 0
        self.solves = 0

    def solve(self, rhs: np.ndarray) -> LpSolution:
        """The solution of the family at rhs, from a cached basis or the simplex."""
        sol = self._lookup(rhs)
        if sol is None:
            fam = self._family
            sol = solve(StandardLp(fam.objective, fam.matrix, rhs, fam.senses))
            self.solves += 1
            self._add(sol)
        return sol

    def _lookup(self, rhs: np.ndarray) -> LpSolution | None:
        fam = self._family
        floor = _BASIC_FLOOR * (1.0 + float(np.abs(rhs).max(initial=0.0)))
        for k, (basis, inv, duals) in enumerate(self._entries):
            z_b = inv @ rhs
            if z_b.min(initial=np.inf) <= floor:
                continue
            z = np.zeros(self._A.shape[1])
            z[list(basis)] = z_b
            y = z[:fam.n_cols]
            if _row_violation(fam.matrix, rhs, fam.senses, y) is not None:
                continue
            self._entries.insert(0, self._entries.pop(k))
            self.hits += 1
            return LpSolution(OPTIMAL, y, duals.copy(), float(fam.objective @ y),
                              basis, self._all_rows)
        return None

    def _add(self, sol: LpSolution) -> None:
        """Keep an optimal basis that kept every row; known and singular
        bases are skipped, and the least recently hit basis goes when the
        cache is full."""
        if sol.status != OPTIMAL or sol.kept_rows != self._all_rows:
            return
        if any(set(basis) == set(sol.basis) for basis, _, _ in self._entries):
            return
        try:
            inv = np.linalg.inv(self._A[:, list(sol.basis)])
        except np.linalg.LinAlgError:
            return
        self._entries.insert(0, (sol.basis, inv, np.array(sol.duals, dtype=float)))
        del self._entries[_CACHED_BASES:]


def _apply_pivot(tab: np.ndarray, row: int, col: int) -> None:
    """Pivot on tab[row, col], updating only the columns where the scaled
    pivot row is nonzero.  Any other entry would have +-0.0 subtracted from
    it, so every value, ratio test, basis, x, dual and objective is bitwise
    that of the dense  tab -= outer(factors, tab[row])  (a zero's sign aside),
    and column col becomes the unit vector exactly, as f - f*1.0 is +0.0."""
    piv = tab[row, col]
    if abs(piv) < PIVOT_TOL:
        raise SolverFailure("pivot element below tolerance")
    tab[row] = tab[row] / piv
    factors = tab[:, col].copy()
    factors[row] = 0.0
    cols = np.flatnonzero(tab[row])
    # take and a plain assignment cost less than a fancy-indexed -=
    touched = tab.take(cols, axis=1)
    touched -= np.outer(factors, touched[row])
    tab[:, cols] = touched


def _pivot_loop(tab: np.ndarray, basis: list[int], label: str) -> str:
    scale = 1.0 + float(np.abs(tab[:-1, -1]).max(initial=0.0))
    stall = 0
    bland = False
    for _ in range(_MAX_PIVOTS):
        cost = tab[-1, :-1]
        elig = np.flatnonzero(cost < -_RC_TOL)
        if elig.size == 0:
            return OPTIMAL
        col = int(elig[0]) if bland else int(elig[np.argmin(cost[elig])])
        colvals = tab[:-1, col]
        rows = np.flatnonzero(colvals > PIVOT_TOL)
        if rows.size == 0:
            return UNBOUNDED
        ratios = tab[rows, -1] / colvals[rows]
        rmin = float(ratios.min())
        ties = rows[ratios <= rmin + _RATIO_TIE * (1.0 + abs(rmin))]
        row = int(ties[0])
        if rmin <= 1e-12 * scale:
            stall += 1
            if stall > STALL_LIMIT:
                bland = True
        else:
            stall = 0
        _apply_pivot(tab, row, col)
        basis[row] = col
    raise SolverFailure(f"pivot limit exceeded in {label}")


def solve(lp: StandardLp) -> LpSolution:
    """Solve with a two-phase primal simplex.  Deterministic: fixed pivot rules
    (entering: largest reduced-cost violation, lowest-index ties, Bland's rule
    after a degeneracy stall; leaving: first row among ratio ties) yield
    identical bases on identical input."""
    canon = _canonicalize(lp)
    m_c, n_c = canon.A.shape

    if m_c == 0:
        if np.any(canon.c < -_RC_TOL):
            return LpSolution(UNBOUNDED)
        x = canon.shift.copy()
        return LpSolution(OPTIMAL, x, np.zeros(0), float(lp.objective @ x), (), ())

    # Phase 1: reuse +1 slack columns as the starting basis where possible,
    # otherwise add an artificial column for the row.
    basis: list[int] = [-1] * m_c
    for k, (kind, i, _) in enumerate(canon.col_kind):
        if kind == "slack" and canon.A[i, k] == 1.0:
            basis[i] = k
    art_rows = [i for i in range(m_c) if basis[i] < 0]
    n_art = len(art_rows)

    tab = np.zeros((m_c + 1, n_c + n_art + 1))
    tab[:m_c, :n_c] = canon.A
    tab[:m_c, -1] = canon.b
    for t, i in enumerate(art_rows):
        tab[i, n_c + t] = 1.0
        basis[i] = n_c + t
    if n_art:
        cost1 = np.zeros(n_c + n_art + 1)
        cost1[n_c:-1] = 1.0
        tab[-1] = cost1
        for i in art_rows:
            tab[-1] -= tab[i]
        status = _pivot_loop(tab, basis, "phase 1")
        if status != OPTIMAL:
            raise SolverFailure("phase 1 reported unbounded; artificial objective is bounded below")
        # the same per-row residual test that _validate applies
        for i in range(m_c):
            if basis[i] >= n_c:
                row = art_rows[basis[i] - n_c]
                if tab[i, -1] > FEAS_TOL * (1.0 + abs(canon.b[row])):
                    return LpSolution(INFEASIBLE)
        # Drive leftover artificials out of the basis; drop redundant rows.
        keep = np.ones(m_c, dtype=bool)
        for i in range(m_c):
            if basis[i] >= n_c:
                cols = np.flatnonzero(np.abs(tab[i, :n_c]) > PIVOT_TOL)
                if cols.size:
                    _apply_pivot(tab, i, int(cols[0]))
                    basis[i] = int(cols[0])
                else:
                    keep[i] = False
        kept = np.flatnonzero(keep)
        basis = [basis[i] for i in kept]
    else:
        kept = np.arange(m_c)
    rows = np.append(kept, m_c)
    tab = np.hstack([tab[rows, :n_c], tab[rows, -1:]])

    # Phase 2: rebuild the cost row for the true objective.
    cost2 = np.append(canon.c, 0.0)
    for pos, bc in enumerate(basis):
        if cost2[bc] != 0.0:
            cost2 = cost2 - cost2[bc] * tab[pos]
    tab[-1] = cost2
    status = _pivot_loop(tab, basis, "phase 2")
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED)

    n_k = len(basis)
    z = np.zeros(n_c)
    z[basis] = tab[:n_k, -1]
    x = canon.shift.copy()
    for k, (kind, j, sgn) in enumerate(canon.col_kind):
        if kind == "var" and z[k] != 0.0:
            x[j] += sgn * z[k]
    objective = float(lp.objective @ x)

    B = canon.A[np.ix_(kept, basis)]
    try:
        lam = np.linalg.solve(B.T, canon.c[np.asarray(basis, dtype=int)])
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"singular basis during dual recovery: {exc}") from exc
    duals = np.zeros(lp.n_rows)
    for pos, ri in enumerate(kept):
        orig = canon.row_origin[ri]
        if orig >= 0:
            duals[orig] = canon.row_sign[ri] * lam[pos]

    _validate(lp, canon, kept, x, lam, objective)
    return LpSolution(OPTIMAL, x, duals, objective, tuple(int(v) for v in basis),
                      tuple(int(v) for v in kept))


def _row_violation(matrix: np.ndarray, rhs: np.ndarray, senses, x: np.ndarray) -> str | None:
    """The first row of  matrix x (senses) rhs  that x misses by more than
    FEAS_TOL*(1+|rhs_i|), as an error message; None when every row holds."""
    resid = matrix @ x - rhs
    for i, sense in enumerate(senses):
        tol = FEAS_TOL * (1.0 + abs(rhs[i]))
        r = resid[i]
        if sense == EQ and abs(r) > tol:
            return f"equality row {i} violated by {r:.3e}"
        if sense == LE and r > tol:
            return f"<= row {i} violated by {r:.3e}"
        if sense == GE and r < -tol:
            return f">= row {i} violated by {-r:.3e}"
    return None


def _validate(lp: StandardLp, canon: _Canonical, kept: np.ndarray, x: np.ndarray,
              lam: np.ndarray, objective: float) -> None:
    """Certify the reported optimum; raise SolverFailure on numerical breakdown."""
    violation = _row_violation(lp.matrix, lp.rhs, lp.senses, x)
    if violation is not None:
        raise SolverFailure(violation)
    if np.any(x < lp.lower - FEAS_TOL) or np.any(x > lp.upper + FEAS_TOL):
        raise SolverFailure("variable bound violated at reported optimum")
    rc = canon.c - canon.A[kept].T @ lam
    rc_tol = FEAS_TOL * (1.0 + float(np.abs(canon.c).max(initial=0.0)))
    if rc.min(initial=0.0) < -rc_tol:
        raise SolverFailure(f"dual infeasibility {rc.min():.3e} at reported optimum")
    gap = abs(float(canon.b[kept] @ lam) + canon.offset - objective)
    if gap > DUALITY_TOL * (1.0 + abs(objective)):
        raise SolverFailure(f"duality gap {gap:.3e} at reported optimum")


def rhs_ranging(bases: BasisCache, rhs: np.ndarray, sol: LpSolution,
                row: int) -> tuple[float, float]:
    """Maximal interval (lo, hi) for rhs[row] over which sol's basis stays
    optimal for the family of `bases`.

    B comes from the family's canonical columns, which `bases` built once.
    The dual vector sol.duals is constant on the interval.  Under degeneracy
    the interval may have zero width.  Requires an optimal solution at rhs
    with its basis, from solve or bases.solve.
    """
    rhs = np.asarray(rhs, dtype=float)
    A = bases._A
    if not 0 <= row < A.shape[0]:
        raise ValidationError(f"row {row} out of range for {A.shape[0]} rows")
    if sol.status != OPTIMAL or sol.basis is None or sol.kept_rows is None:
        raise ValidationError("ranging requires an optimal solution with a stored basis")

    kept = np.asarray(sol.kept_rows, dtype=int)
    basis = np.asarray(sol.basis, dtype=int)
    if kept.size != basis.size:
        raise ValidationError("basis descriptor does not match the problem")
    B = A[np.ix_(kept, basis)]
    try:
        x_b = np.linalg.solve(B, rhs[kept])
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"stored basis is singular for this problem: {exc}") from exc
    scale = 1.0 + float(np.abs(rhs).max(initial=0.0))
    if x_b.min(initial=0.0) < -1e-6 * scale:
        raise ValidationError("stored basis is not primal feasible for this problem")

    pos = np.flatnonzero(kept == row)
    base = float(rhs[row])
    if pos.size == 0:
        # The row was dropped as redundant; any perturbation breaks consistency.
        return base, base
    e = np.zeros(kept.size)
    e[int(pos[0])] = 1.0
    w = np.linalg.solve(B, e)

    tol_w = 1e-11 * max(1.0, float(np.abs(w).max(initial=0.0)))
    up = w > tol_w
    dn = w < -tol_w
    d_lo = float((-x_b[up] / w[up]).max()) if np.any(up) else -np.inf
    d_hi = float((-x_b[dn] / w[dn]).min()) if np.any(dn) else np.inf
    d_lo = min(d_lo, 0.0)
    d_hi = max(d_hi, 0.0)
    return base + d_lo, base + d_hi
