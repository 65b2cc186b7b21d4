"""Two-phase tableau simplex kernel with dual recovery and right-hand-side ranging.

The tableau is column-major: each column is a contiguous row of tab.T.  A
pivot gathers only the columns in which the pivot row is nonzero, updates
them by one rank-1 step and writes them back, a small share on block-angular
programs such as the aggregated master, whose columns are the first stage
plus one copy of W per partition cell.

Problems are stated as  min q.y  subject to  M y (<=|=|>=) b  with per-variable
bounds (default y >= 0).  Reported duals follow the max-form convention: the
dual vector maximizes rhs.lam subject to M'.lam <= q, so duals of <= rows are
nonpositive and duals of >= rows are nonnegative at an optimum.
"""
from __future__ import annotations

import math
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
# B^-1 r, so that a basis degenerate at r goes to the simplex.
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
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise ValidationError("bounds must not be NaN")
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
    pivots: int = 0  # simplex pivots of the solve, over all its phases


@dataclass
class _Canonical:
    """Equality form  A z = b, z >= 0, b >= 0  with bookkeeping to map back."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    row_sign: np.ndarray  # +-1: row was negated during folding
    var: np.ndarray       # variable of each leading column; one slack per inequality row follows
    sign: np.ndarray      # +-1: the leading column is the variable or its negated copy
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

    b = np.concatenate([lp.rhs - lp.matrix @ shift, upper[bounded] - shift[bounded]])
    c = np.zeros(n_var + ineq.size)
    c[:n_var] = sign * lp.objective[var]
    row_sign = np.ones(senses.size)
    neg = b < 0
    row_sign[neg] = -1.0
    b[neg] *= -1.0
    if c.size == n and senses.size == m and not neg.any():
        # no free variable, capped variable, inequality or negative rhs:
        # the matrix is its own canonical form
        return _Canonical(lp.matrix, b, c, row_sign, var, sign, shift)

    A = np.zeros((senses.size, c.size))
    # with no free variable the leading columns are the matrix itself
    A[:m, :n_var] = lp.matrix if n_var == n else lp.matrix[:, var] * sign
    on = np.flatnonzero(bound_row[var] >= 0)
    A[bound_row[var[on]], on] = sign[on]
    A[ineq, n_var + np.arange(ineq.size)] = np.where(senses[ineq] == LE, 1.0, -1.0)
    A[neg] *= -1.0
    return _Canonical(A, b, c, row_sign, var, sign, shift)


class BasisCache:
    """Solves one fixed-recourse family  min q.y : W y (senses) r,  y >= 0,
    in which only r changes, from its optimal bases where it can (bunching).

    The solve that found a basis certified it dual feasible, and dual
    feasibility does not depend on r, so the basis is optimal for a new r
    once its basic values B^-1 r are nonnegative.  A cached basis answers
    only when every basic value exceeds _BASIC_FLOOR*(1+|r|_inf), so it is
    nondegenerate and its duals are the unique ones `solve` would return,
    and when the point passes `_validate`'s per-row residual test.  A basis
    whose solve dropped a redundant row is kept over its kept rows, where
    its duals are unique; the residual test rejects an r inconsistent on a
    dropped row.  Any other r goes to the simplex, which `solves` counts,
    and an optimal basis it finds joins the cache.  `hits` counts the
    answers from cached bases.

    The cache keeps up to _CACHED_BASES bases in fixed slots, and their
    inverses (widened to every row) in one slots x s x m stack, s the most
    kept rows of any slot and a shorter slot padded with zero rows; `_add`
    rebuilds the stack when it inserts a basis or evicts the least recently
    hit one.  A lookup is one batched product of the stack with r, so each
    full slot's basic values are bitwise its own B^-1 r; a padded slot that
    answers recomputes its values as B^-1 r.  One minimum per slot then gives
    the floor test of every cached basis, and only the bases above the
    floor are tried, most recently hit first, against the residual test.  A
    miss costs that product plus a simplex solve.  r must be a finite vector
    of one entry per row, as `StandardLp` requires, whether or not a cached
    basis could answer it.
    `columns` holds the family's canonical columns [W S] of
    `_canonicalize`: one per y, then one slack per inequality row (+1 for
    <=, -1 for >=); sign folding of rows leaves B^-1 r and the duals
    unchanged, so `rhs_ranging`, `cross` and the anchored master read their
    basis matrices from these columns too.
    """

    def __init__(self, objective, matrix, senses):
        family = StandardLp(objective, matrix, np.zeros(len(senses)), senses)
        canon = _canonicalize(family)
        self._family = family
        self._senses = np.array(family.senses, dtype=str)
        self.columns = canon.A
        self._c = canon.c
        self._ranged = (None, None)  # (arguments, result) of the last _range
        # (basis, kept rows, B^-1 over all rows, duals) per slot; the order
        # lists slot positions, most recently hit first
        self._slots: list[tuple[tuple[int, ...], tuple[int, ...], np.ndarray, np.ndarray]] = []
        self._order: list[int] = []
        self._restack()
        self.hits = 0
        self.solves = 0

    @property
    def _entries(self) -> list[tuple]:
        """The cached (basis, kept rows, B^-1, duals), most recently hit first."""
        return [self._slots[k] for k in self._order]

    def solve(self, rhs: np.ndarray) -> LpSolution:
        """The solution of the family at rhs, from a cached basis or the simplex."""
        rhs, values = self._check_rhs(rhs)
        sol = self._lookup(rhs, values)
        if sol is None:
            fam = self._family
            sol = solve(StandardLp(fam.objective, fam.matrix, rhs, fam.senses))
            self.solves += 1
            self._add(sol)
        return sol

    def lookup_many(self, R: np.ndarray) -> list[tuple | None]:
        """For each row r of R, the cached entry (basis, kept rows, B^-1,
        duals) that `solve(r)` would answer from now, or None: the first
        basis, most recently hit first, that passes `_lookup`'s floor and
        residual tests at r.  One product of R with the stacked inverses
        gives every basic value; each round tests each row's first basis
        that clears the floor, and a row that fails moves on to its next.
        Read-only: no simplex call, no hit counted, no reordering."""
        R = np.asarray(R, dtype=float)
        m = self._family.n_rows
        if R.ndim != 2:
            raise ValidationError(f"rhs block must be two-dimensional, got shape {R.shape}")
        if R.shape[1] != m:
            raise ValidationError(f"rhs has {R.shape[1]} entries, matrix has {m} rows")
        if not np.isfinite(R).all():
            raise ValidationError("rhs entries must be finite")
        found: list[tuple | None] = [None] * len(R)
        if not self._slots:
            return found
        fam = self._family
        n_slots, s = self._stack.shape[:2]
        Z = (R @ self._stack.reshape(n_slots * s, m).T).reshape(len(R), n_slots, s)
        # each slot's smallest basic value per row (+inf for an empty basis)
        low = np.minimum.reduce(Z if self._pad is None else Z + self._pad, axis=2,
                                initial=np.inf)
        floor = _BASIC_FLOOR * (1.0 + np.abs(R).max(axis=1, initial=0.0))
        order = np.array(self._order)
        clear = (low > floor[:, None])[:, order]  # columns by recency
        pending = np.flatnonzero(clear.any(axis=1))
        while pending.size:
            first = clear[pending].argmax(axis=1)
            slot = order[first]
            y = np.zeros((pending.size, fam.n_cols + 1))
            y[np.arange(pending.size)[:, None], self._ymap[slot]] = Z[pending, slot]
            y = y[:, :fam.n_cols]
            held = ~_violated(y @ fam.matrix.T - R[pending], R[pending], self._senses).any(axis=1)
            for i, k in zip(pending[held], slot[held]):
                found[i] = self._slots[k]
            clear[pending[~held], first[~held]] = False
            pending = pending[~held]
            pending = pending[clear[pending].any(axis=1)]
        return found

    def cross(self, sol: LpSolution, rhs: np.ndarray, row: int) -> LpSolution | None:
        """The optimal solution at the upper end of sol's range in rhs[row]
        (see rhs_ranging) whose basis stays optimal past it, one dual simplex
        pivot away: the blocking basic variable leaves and a dual ratio test
        picks the entering column, the lowest index among ties on both sides
        (Bland), so a walk of crossings ends.  None when no column can enter
        (the family is infeasible past that end) or the range has no end.  The
        new basis passes `_validate`'s reduced-cost test before it is cached."""
        B, _, d_hi, leave = self._range(rhs, sol, row)
        if leave is None:
            return None
        kept = list(sol.kept_rows)
        A = self.columns[kept]
        alpha = np.linalg.inv(B)[leave] @ A
        enter = np.flatnonzero(alpha < -PIVOT_TOL)
        if enter.size == 0:
            return None
        ratios = (self._c - A.T @ sol.duals[kept])[enter] / -alpha[enter]
        basis = list(sol.basis)
        basis[leave] = int(enter[np.argmin(ratios)])
        inv = np.linalg.inv(A[:, basis])
        lam = self._c[basis] @ inv
        _check_dual(self._c, A, lam)
        at = np.array(rhs, dtype=float)
        at[row] += d_hi
        z = np.zeros(A.shape[1])
        z[basis] = inv @ at[kept]
        y = z[:self._family.n_cols]
        duals = np.zeros(self._family.n_rows)
        duals[kept] = lam
        crossed = LpSolution(OPTIMAL, y, duals, float(self._family.objective @ y),
                             tuple(basis), sol.kept_rows)
        self._add(crossed, inv)
        return crossed

    def _range(self, rhs: np.ndarray, sol: LpSolution, row: int):
        """(B, d_lo, d_hi, leave): sol's basis matrix over its kept rows, the
        steps d_lo <= 0 <= d_hi rhs[row] can take with that basis optimal,
        and the basis position that blocks at d_hi (lowest column among
        ties).  leave is None when nothing blocks or the solve dropped the
        row as redundant (both steps are then 0).  The last result is kept:
        the sweep ranges a segment, then crosses its end with the same
        arguments."""
        rhs = np.asarray(rhs, dtype=float)
        key = (sol, row, rhs.tobytes())
        if self._ranged[0] == key:
            return self._ranged[1]
        if not 0 <= row < self.columns.shape[0]:
            raise ValidationError(f"row {row} out of range for {self.columns.shape[0]} rows")
        if sol.status != OPTIMAL or sol.basis is None or sol.kept_rows is None:
            raise ValidationError("ranging requires an optimal solution with a stored basis")

        kept = np.asarray(sol.kept_rows, dtype=int)
        basis = np.asarray(sol.basis, dtype=int)
        if kept.size != basis.size:
            raise ValidationError("basis descriptor does not match the problem")
        B = self.columns[np.ix_(kept, basis)]
        try:
            x_b = np.linalg.solve(B, rhs[kept])
        except np.linalg.LinAlgError as exc:
            raise ValidationError(f"stored basis is singular for this problem: {exc}") from exc
        scale = 1.0 + float(np.abs(rhs).max(initial=0.0))
        if x_b.min(initial=0.0) < -1e-6 * scale:
            raise ValidationError("stored basis is not primal feasible for this problem")

        pos = np.flatnonzero(kept == row)
        if pos.size == 0:
            return B, 0.0, 0.0, None
        e = np.zeros(kept.size)
        e[int(pos[0])] = 1.0
        w = np.linalg.solve(B, e)

        tol_w = 1e-11 * max(1.0, float(np.abs(w).max(initial=0.0)))
        up = w > tol_w
        dn = np.flatnonzero(w < -tol_w)
        d_lo = float((-x_b[up] / w[up]).max()) if np.any(up) else -np.inf
        steps = -x_b[dn] / w[dn]
        d_hi = float(steps.min()) if dn.size else np.inf
        tied = dn[steps == d_hi]
        leave = int(tied[np.argmin(basis[tied])]) if tied.size else None
        self._ranged = (key, (B, min(d_lo, 0.0), max(d_hi, 0.0), leave))
        return self._ranged[1]

    def _check_rhs(self, rhs) -> tuple[np.ndarray, list[float]]:
        """rhs as a float vector and as Python floats, refused as
        `StandardLp` refuses it: a scalar is one entry, and any other shape
        than one entry per row, or a non-finite entry, is a ValidationError."""
        rhs = np.asarray(rhs, dtype=float)
        m = self._family.n_rows
        if rhs.shape != (m,):
            rhs = np.atleast_1d(rhs)
            if rhs.shape != (m,):
                raise ValidationError(f"rhs has {rhs.size} entries, matrix has {m} rows")
        values = rhs.tolist()
        if not all(map(math.isfinite, values)):
            raise ValidationError("rhs entries must be finite")
        return rhs, values

    def _lookup(self, rhs: np.ndarray, values: list[float]) -> LpSolution | None:
        fam = self._family
        n = fam.n_cols
        floor = _BASIC_FLOOR * (1.0 + max(map(abs, values), default=0.0))
        Z = self._stack @ rhs
        low = np.minimum.reduce(Z if self._pad is None else Z + self._pad, axis=1,
                                initial=np.inf).tolist()
        for i, k in enumerate(self._order):
            if low[k] <= floor:
                continue
            basis, kept, inv, duals = self._slots[k]
            z = np.zeros(n + 1)  # the last entry takes the slack values
            z[self._ymap[k, :len(kept)]] = Z[k] if len(kept) == Z.shape[1] else inv @ rhs
            y = z[:n]
            if _row_violation(fam.matrix, rhs, fam.senses, y) is not None:
                continue
            self._order.insert(0, self._order.pop(i))
            self.hits += 1
            return LpSolution(OPTIMAL, y, duals.copy(), float(fam.objective @ y),
                              basis, kept)
        return None

    def _add(self, sol: LpSolution, inv: np.ndarray | None = None) -> None:
        """Keep an optimal basis with its inverse over its kept rows (`inv`
        when the caller has it), widened by a zero column per dropped row;
        known and singular bases are skipped, and the least recently hit
        basis gives up its slot when the cache is full."""
        if sol.status != OPTIMAL:
            return
        if any(set(entry[0]) == set(sol.basis) for entry in self._slots):
            return
        kept = list(sol.kept_rows)
        try:
            inv = np.linalg.inv(self.columns[np.ix_(kept, sol.basis)]) if inv is None else inv
        except np.linalg.LinAlgError:
            return
        wide = np.zeros((len(kept), self.columns.shape[0]))
        wide[:, kept] = inv
        entry = (sol.basis, sol.kept_rows, wide, np.array(sol.duals, dtype=float))
        if len(self._slots) < _CACHED_BASES:
            self._slots.append(entry)
            self._order.insert(0, len(self._slots) - 1)
        else:
            self._order.insert(0, self._order.pop())
            self._slots[self._order[0]] = entry
        self._restack()

    def _restack(self) -> None:
        """Rebuild the slots' stacked inverses `_stack`, `_pad` (+inf on the
        padding rows of the stack, None when no slot is padded) and `_ymap`:
        per slot and basis position, the column of y that its basic value
        fills, or n_cols for a slack or padding row."""
        m, n = self._family.n_rows, self._family.n_cols
        sizes = np.array([len(entry[1]) for entry in self._slots], dtype=int)
        s = int(sizes.max(initial=0))
        self._stack = np.zeros((sizes.size, s, m))
        self._ymap = np.full((sizes.size, s), n)
        for k, (basis, kept, wide, _) in enumerate(self._slots):
            self._stack[k, :len(kept)] = wide
            self._ymap[k, :len(kept)] = np.minimum(basis, n)
        padding = np.arange(s) >= sizes[:, None]
        self._pad = np.where(padding, np.inf, 0.0) if padding.any() else None


def _apply_pivot(tab: np.ndarray, row: int, col: int) -> None:
    """Pivot on tab[row, col] of a column-major tableau, updating only the
    columns where the scaled pivot row is nonzero: they are contiguous rows
    of tab.T, gathered by one take, changed by one rank-1 update and written
    back by one assignment.  Any other entry would have +-0.0 subtracted
    from it, so every value, ratio test, basis, x, dual and objective is
    bitwise that of the dense  tab -= outer(factors, tab[row])  (a zero's
    sign aside), and column col becomes the unit vector exactly, as
    f - f*1.0 is +0.0."""
    tab[row] /= tab[row, col]
    cols = tab[row].nonzero()[0]
    touched = tab.T.take(cols, axis=0)
    factors = tab[:, col].copy()
    factors[row] = 0.0
    touched -= touched[:, row, None] * factors
    tab.T[cols] = touched


def _pivot_loop(tab: np.ndarray, basis: list[int], label: str,
                log: list | None = None) -> tuple[str, int]:
    """Primal simplex on the tableau's cost row: (status, pivots made).
    `log` receives (row, leaving column) before each pivot."""
    cost = tab[-1, :-1]
    rhs = tab[:-1, -1]
    if not cost.size:  # a program without columns, and so without rows
        return OPTIMAL, 0
    scale = 1.0 + float(np.abs(rhs).max(initial=0.0))
    ratios = np.empty(rhs.size)
    stall = 0
    bland = False
    for pivots in range(_MAX_PIVOTS):
        # entering: the largest violation, lowest index among ties; Bland's
        # rule takes the lowest violating index
        col = int((cost < -_RC_TOL).argmax() if bland else cost.argmin())
        if not cost[col] < -_RC_TOL:
            return OPTIMAL, pivots
        colvals = tab[:-1, col]
        ratios.fill(np.inf)
        np.divide(rhs, colvals, out=ratios, where=colvals > PIVOT_TOL)
        rmin = float(np.minimum.reduce(ratios, initial=np.inf))
        if rmin == np.inf:
            return UNBOUNDED, pivots
        row = int((ratios <= rmin + _RATIO_TIE * (1.0 + abs(rmin))).argmax())
        if rmin <= 1e-12 * scale:
            stall += 1
            if stall > STALL_LIMIT:
                bland = True
        else:
            stall = 0
        if log is not None:
            log.append((row, basis[row]))
        _apply_pivot(tab, row, col)
        basis[row] = col
    raise SolverFailure(f"pivot limit exceeded in {label}")


def _lex_step(tab: np.ndarray, basis: list[int], canon: _Canonical, lex: np.ndarray) -> int:
    """Move an optimal phase-2 tableau, in place, to the lexicographic
    minimum of lex[0] @ x, lex[1] @ x, ... over the optimal face; returns
    the pivots made.  The face is fixed by the columns whose reduced cost
    exceeds _RC_TOL; each objective is minimized by a phase 2 that never
    lets a fixed column enter (its cost entry is +inf), and then fixes the
    columns its own reduced cost prices out, so the face shrinks.  An
    objective unbounded on the face keeps its value: its pivots are undone.
    Every pivot enters a column of zero true reduced cost, so the basis
    stays optimal for the true objective; the cost row is left holding the
    last objective."""
    fixed = tab[-1, :-1] > _RC_TOL
    objectives = np.zeros((len(lex), tab.shape[1]))
    objectives[:, :canon.var.size] = lex[:, canon.var] * canon.sign
    pivots = 0
    for cost in objectives:
        basic = np.array(basis)
        movable = ~fixed
        movable[basic] = False
        if not movable.any():  # the face is one vertex
            break
        c_basic = cost[basic]
        pos = c_basic.nonzero()[0]
        tab[-1] = cost - c_basic[pos] @ tab[pos]
        tab[-1, :-1][fixed] = np.inf
        log: list = []
        status, count = _pivot_loop(tab, basis, "lex step", log)
        pivots += count
        if status == UNBOUNDED:
            for row, col in reversed(log):
                _apply_pivot(tab, row, col)
                basis[row] = col
            pivots += len(log)
            continue
        fixed |= tab[-1, :-1] > _RC_TOL
    return pivots


def solve(lp: StandardLp, lex: np.ndarray | None = None) -> LpSolution:
    """Solve with a two-phase primal simplex.  Deterministic: fixed pivot rules
    (entering: largest reduced-cost violation, lowest-index ties, Bland's rule
    after a degeneracy stall; leaving: first row among ratio ties) yield
    identical bases on identical input.

    `lex`, a k x n array of objectives over lp's columns, adds a step after
    phase 2 (`_lex_step`): x becomes the lexicographic minimum of lex[0] @ x,
    then lex[1] @ x, ... over the optimal face.  That x depends on the face
    alone, whatever pivots reached it, so with `lex` phase 1 starts every
    row it can from a +1 unit column (a slack, or any column whose only
    nonzero is a +1 in that row), not only from a slack, and phase 2 prices
    its cost row as c - c_B @ tab.  When no row is dropped, the artificial
    columns stay in the tableau, so the duals are read as c_B B^-1 from its
    start columns instead of a dense solve."""
    if lex is not None:
        lex = np.atleast_2d(np.asarray(lex, dtype=float))
        if lex.ndim != 2 or lex.shape[1] != lp.n_cols:
            raise ValidationError(f"lex must have {lp.n_cols} columns, got shape {lex.shape}")
    canon = _canonicalize(lp)
    m_c, n_c = canon.A.shape
    n_var = canon.var.size

    # Phase 1: the +1 slack columns (with lex: the +1 unit columns, lowest
    # index first) start the basis; every other row gets an artificial.
    start = np.full(m_c, -1)
    if lex is None:
        slack_rows, slacks = np.nonzero(canon.A[:, n_var:] == 1.0)
        start[slack_rows] = n_var + slacks
    else:
        nonzero = (canon.A != 0.0).view(np.uint8)
        single = np.flatnonzero(nonzero.sum(axis=0, dtype=np.uint32) == 1)
        rows = nonzero[:, single].argmax(axis=0)
        unit = canon.A[rows, single] == 1.0
        unit_rows, first = np.unique(rows[unit], return_index=True)
        start[unit_rows] = single[unit][first]
    art_rows = np.flatnonzero(start < 0)
    n_art = art_rows.size
    start[art_rows] = n_c + np.arange(n_art)
    basis: list[int] = start.tolist()
    pivots = 0

    tab = np.zeros((m_c + 1, n_c + n_art + 1), order="F")
    tab[:m_c, :n_c] = canon.A
    tab[:m_c, -1] = canon.b
    tab[art_rows, n_c + np.arange(n_art)] = 1.0
    if n_art:
        # the cost row minus each artificial row in turn
        tab[-1, n_c:-1] = 1.0
        tab[-1] = np.subtract.reduce(tab[np.concatenate(([m_c], art_rows))])
        status, pivots = _pivot_loop(tab, basis, "phase 1")
        if status != OPTIMAL:
            raise SolverFailure("phase 1 reported unbounded; artificial objective is bounded below")
        # the same per-row residual test that _validate applies
        basic = np.asarray(basis)
        held = np.flatnonzero(basic >= n_c)
        art_b = canon.b[art_rows[basic[held] - n_c]]
        if np.any(tab[held, -1] > FEAS_TOL * (1.0 + np.abs(art_b))):
            return LpSolution(INFEASIBLE, pivots=pivots)
        # Drive leftover artificials out of the basis; drop redundant rows.
        keep = np.ones(m_c, dtype=bool)
        for i in held:
            cols = np.flatnonzero(np.abs(tab[i, :n_c]) > PIVOT_TOL)
            if cols.size:
                _apply_pivot(tab, i, int(cols[0]))
                basis[i] = int(cols[0])
                pivots += 1
            else:
                keep[i] = False
        kept = np.flatnonzero(keep)
        basis = [basis[i] for i in kept]
        if lex is None or kept.size < m_c:
            # the rhs column moves next to the true columns; the artificial ones go
            tab[:, n_c] = tab[:, -1]
            tab = tab[:, :n_c + 1]
            if kept.size < m_c:
                tab = np.asfortranarray(tab[np.append(kept, m_c)])
    else:
        kept = np.arange(m_c)
    # With lex and every row kept, the artificial columns stay, priced out
    # at +inf: the start columns are then the identity, and tab[:-1, start]
    # is B^-1 of the current basis.
    inverse = lex is not None and tab.shape[1] == n_c + n_art + 1

    # Phase 2: the true objective minus c_k times the row of each basic
    # column k; basic columns are exact unit vectors, so each multiplier is
    # c_k itself.  Without lex the rows are subtracted in turn.
    c_basic = canon.c[basis]
    if lex is None:
        pos = c_basic.nonzero()[0]
        tab[-1] = np.subtract.reduce(np.concatenate(([np.append(canon.c, 0.0)],
                                                     c_basic[pos, None] * tab[pos])))
    else:
        cost = np.zeros(tab.shape[1])
        cost[:n_c] = canon.c
        cost[n_c:-1] = np.inf
        tab[-1] = cost - c_basic @ tab[:-1]
    status, count = _pivot_loop(tab, basis, "phase 2")
    pivots += count
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, pivots=pivots)
    if lex is not None:
        pivots += _lex_step(tab, basis, canon, lex)

    z = np.zeros(n_c)
    z[basis] = tab[:len(basis), -1]
    x = canon.shift.copy()
    # in column order: a free variable's two columns add up one after the other
    k = np.flatnonzero(z[:n_var])
    np.add.at(x, canon.var[k], canon.sign[k] * z[k])
    objective = float(lp.objective @ x)

    if inverse:
        lam = canon.c[basis] @ tab[:-1, start]
    else:
        B = canon.A[kept][:, basis]
        try:
            lam = np.linalg.solve(B.T, canon.c[basis])
        except np.linalg.LinAlgError as exc:
            raise SolverFailure(f"singular basis during dual recovery: {exc}") from exc
    duals = np.zeros(lp.n_rows)
    original = kept < lp.n_rows  # the rows after them bound capped variables
    duals[kept[original]] = canon.row_sign[kept[original]] * lam[original]

    _validate(lp, canon, kept, x, lam, objective)
    return LpSolution(OPTIMAL, x, duals, objective, tuple(basis), tuple(kept.tolist()), pivots)


def _row_violation(matrix: np.ndarray, rhs: np.ndarray, senses, x: np.ndarray) -> str | None:
    """The first row of  matrix x (senses) rhs  that x misses by more than
    FEAS_TOL*(1+|rhs_i|), as an error message; None when every row holds."""
    resid = (matrix @ x - rhs).tolist()
    for i, (sense, b, r) in enumerate(zip(senses, rhs.tolist(), resid)):
        tol = FEAS_TOL * (1.0 + abs(b))
        if sense == EQ and abs(r) > tol:
            return f"equality row {i} violated by {r:.3e}"
        if sense == LE and r > tol:
            return f"<= row {i} violated by {r:.3e}"
        if sense == GE and r < -tol:
            return f">= row {i} violated by {-r:.3e}"
    return None


def _violated(resid: np.ndarray, rhs: np.ndarray, senses: np.ndarray) -> np.ndarray:
    """Where a residual  matrix x - rhs  misses its row's sense (an array of
    sense strings) by more than `_row_violation`'s FEAS_TOL*(1+|rhs_i|)."""
    tol = FEAS_TOL * (1.0 + np.abs(rhs))
    return np.where(senses == EQ, np.abs(resid) > tol,
                    np.where(senses == LE, resid > tol, resid < -tol))



def _check_dual(c: np.ndarray, A: np.ndarray, lam: np.ndarray) -> None:
    """Raise SolverFailure when a reduced cost c - A'lam is below -FEAS_TOL*(1+|c|)."""
    rc = c - A.T @ lam
    if rc.min(initial=0.0) < -FEAS_TOL * (1.0 + float(np.abs(c).max(initial=0.0))):
        raise SolverFailure(f"dual infeasibility {rc.min():.3e} at reported optimum")


def _validate(lp: StandardLp, canon: _Canonical, kept: np.ndarray, x: np.ndarray,
              lam: np.ndarray, objective: float) -> None:
    """Certify the reported optimum; raise SolverFailure on numerical breakdown."""
    # the same residuals as _row_violation's, tested at once; the loop only
    # names the first violated row
    if _violated(lp.matrix @ x - lp.rhs, lp.rhs, np.array(lp.senses, dtype=str)).any():
        raise SolverFailure(_row_violation(lp.matrix, lp.rhs, lp.senses, x))
    if np.any(x < lp.lower - FEAS_TOL) or np.any(x > lp.upper + FEAS_TOL):
        raise SolverFailure("variable bound violated at reported optimum")
    _check_dual(canon.c, canon.A if kept.size == canon.A.shape[0] else canon.A[kept], lam)
    offset = float(lp.objective @ canon.shift)
    gap = abs(float(canon.b[kept] @ lam) + offset - objective)
    if gap > DUALITY_TOL * (1.0 + abs(objective)):
        raise SolverFailure(f"duality gap {gap:.3e} at reported optimum")


def rhs_ranging(bases: BasisCache, rhs: np.ndarray, sol: LpSolution,
                row: int) -> tuple[float, float]:
    """Maximal interval (lo, hi) for rhs[row] over which sol's basis, an
    optimal one at rhs from solve or bases.solve, stays optimal for the
    family of `bases`; sol.duals is constant on it.  Under degeneracy the
    interval may have zero width."""
    _, d_lo, d_hi, _ = bases._range(rhs, sol, row)
    base = float(rhs[row])
    return base + d_lo, base + d_hi
