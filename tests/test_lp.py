"""Tests for the simplex kernel: solve, duals, ranging, determinism, and the
column-sparse pivot against the dense reference."""
from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from adaptpart import lp as lplib
from adaptpart.errors import SolverFailure, ValidationError
from adaptpart.instances import document_to_model, document_to_space, lands_document
from adaptpart.lp import GE, LE, EQ, OPTIMAL, INFEASIBLE, UNBOUNDED, StandardLp
from adaptpart.model import build_aggregated_master

from _oracles import (dense_apply_pivot, grid_dual_breakpoints, loop_canonicalize,
                      vertex_enumerate)


def test_single_bound_row():
    # min x s.t. x >= 1, x >= 0
    sol = lplib.solve(StandardLp([1.0], [[1.0]], [1.0], (GE,)))
    assert sol.status == OPTIMAL
    npt.assert_allclose(sol.x, [1.0], atol=1e-9)
    npt.assert_allclose(sol.objective, 1.0, atol=1e-9)
    npt.assert_allclose(sol.duals, [1.0], atol=1e-9)


def test_two_var_box():
    # min -x1 - 2 x2 s.t. x1 + x2 <= 4, x2 <= 3, x >= 0
    # Vertex enumeration oracle fixes the optimum at (1, 3) with value -7.
    lp = StandardLp([-1.0, -2.0], [[1.0, 1.0], [0.0, 1.0]], [4.0, 3.0], (LE, LE))
    status, value = vertex_enumerate(lp.objective, lp.matrix, lp.rhs, lp.senses)
    assert status == "optimal" and abs(value - (-7.0)) < 1e-12
    sol = lplib.solve(lp)
    assert sol.status == OPTIMAL
    npt.assert_allclose(sol.objective, -7.0, atol=1e-9)
    npt.assert_allclose(sol.x, [1.0, 3.0], atol=1e-9)


def test_infeasible():
    # min x1 s.t. x1 <= -1, x1 >= 0
    sol = lplib.solve(StandardLp([1.0], [[1.0]], [-1.0], (LE,)))
    assert sol.status == INFEASIBLE
    assert sol.x is None


def test_unbounded():
    sol = lplib.solve(StandardLp([-1.0], [[0.0]], [0.0], (LE,)))
    assert sol.status == UNBOUNDED


def test_equality_row():
    # min x1 + x2 s.t. x1 + 2 x2 = 4, x >= 0  -> x = (0, 2)
    sol = lplib.solve(StandardLp([1.0, 1.0], [[1.0, 2.0]], [4.0], (EQ,)))
    assert sol.status == OPTIMAL
    npt.assert_allclose(sol.objective, 2.0, atol=1e-9)
    npt.assert_allclose(sol.x, [0.0, 2.0], atol=1e-9)


def test_free_variable_split():
    # min t s.t. t >= -5 (t free) -> t = -5
    lp = StandardLp([1.0], [[1.0]], [-5.0], (GE,), lower=[-np.inf])
    sol = lplib.solve(lp)
    assert sol.status == OPTIMAL
    npt.assert_allclose(sol.x, [-5.0], atol=1e-9)


def test_upper_bounds_via_rows():
    # min -x s.t. 0 <= x <= 2.5 with no explicit rows
    lp = StandardLp([-1.0], np.zeros((0, 1)), [], (), upper=[2.5])
    sol = lplib.solve(lp)
    assert sol.status == OPTIMAL
    npt.assert_allclose(sol.x, [2.5], atol=1e-9)


def test_dual_sign_convention():
    # min x1+x2 s.t. x1 >= 1, x2 <= 3, x1+x2 = 2: duals >= 0 / <= 0 / free.
    lp = StandardLp([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                    [1.0, 3.0, 2.0], (GE, LE, EQ))
    sol = lplib.solve(lp)
    assert sol.status == OPTIMAL
    assert sol.duals[0] >= -1e-9
    assert sol.duals[1] <= 1e-9


def test_ranging_single_row():
    # min y s.t. y >= d at d = 5: dual 1 on [0, +inf)
    lp = StandardLp([1.0], [[1.0]], [5.0], (GE,))
    sol = lplib.solve(lp)
    lo, hi = lplib.rhs_ranging(lplib.BasisCache(lp.objective, lp.matrix, lp.senses),
                               lp.rhs, sol, 0)
    npt.assert_allclose(lo, 0.0, atol=1e-9)
    assert hi == np.inf
    npt.assert_allclose(sol.duals, [1.0], atol=1e-9)


def _two_piece(d):
    # min y1 + 3 y2 s.t. y1 <= 2, y1 + y2 >= d, y >= 0
    return StandardLp([1.0, 3.0], [[1.0, 0.0], [1.0, 1.0]], [2.0, d], (LE, GE))


def test_ranging_two_piece_interior():
    # Grid oracle: dual of the demand row is 0 for d <= 0, 1 on (0, 2], 3 above 2.
    duals, points = grid_dual_breakpoints(_two_piece, 1, np.linspace(-1.0, 3.5, 91))
    assert any(abs(p - 2.0) < 0.05 for p in points)
    assert any(abs(p - 0.0) < 0.05 for p in points)
    lp = _two_piece(1.0)
    sol = lplib.solve(lp)
    lo, hi = lplib.rhs_ranging(lplib.BasisCache(lp.objective, lp.matrix, lp.senses),
                               lp.rhs, sol, 1)
    npt.assert_allclose(sol.duals[1], 1.0, atol=1e-9)
    # Maximal interval of the basis at d = 1 (frozen from the grid oracle).
    npt.assert_allclose([lo, hi], [0.0, 2.0], atol=1e-9)


def test_ranging_two_piece_upper_segment():
    lp = _two_piece(3.0)
    sol = lplib.solve(lp)
    lo, hi = lplib.rhs_ranging(lplib.BasisCache(lp.objective, lp.matrix, lp.senses),
                               lp.rhs, sol, 1)
    npt.assert_allclose(sol.duals[1], 3.0, atol=1e-9)
    npt.assert_allclose(lo, 2.0, atol=1e-9)
    assert hi == np.inf


def test_ranging_requires_optimal_solution():
    lp = StandardLp([1.0], [[1.0]], [-1.0], (LE,))
    sol = lplib.solve(lp)
    assert sol.status == INFEASIBLE
    with pytest.raises(ValidationError):
        lplib.rhs_ranging(lplib.BasisCache(lp.objective, lp.matrix, lp.senses),
                          lp.rhs, sol, 0)


def random_lp(rng):
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, 6))
    M = rng.normal(size=(m, n)).round(3)
    q = rng.uniform(0.0, 2.0, size=n).round(3)  # q >= 0 keeps the LP bounded
    b = rng.normal(scale=2.0, size=m).round(3)
    senses = tuple(rng.choice(["<=", "=", ">="], size=m))
    return StandardLp(q, M, b, senses)


def test_random_lps_against_vertex_oracle():
    rng = np.random.default_rng(42)
    n_optimal = 0
    for _ in range(120):
        lp = random_lp(rng)
        status, value = vertex_enumerate(lp.objective, lp.matrix, lp.rhs, lp.senses)
        sol = lplib.solve(lp)
        assert sol.status == status, f"status mismatch: {sol.status} vs oracle {status}"
        if status == "optimal":
            n_optimal += 1
            assert abs(sol.objective - value) <= 1e-7 * (1.0 + abs(value))
            # strong duality on the original data
            gap = abs(sol.objective - float(lp.rhs @ sol.duals))
            assert gap <= 1e-6 * (1.0 + abs(sol.objective))
    assert n_optimal >= 30  # the family must actually exercise the optimal path


def test_ranging_soundness_random():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(60):
        lp = random_lp(rng)
        sol = lplib.solve(lp)
        if sol.status != OPTIMAL:
            continue
        lo, hi = lplib.rhs_ranging(lplib.BasisCache(lp.objective, lp.matrix, lp.senses),
                                   lp.rhs, sol, 0)
        lo = max(lo, lp.rhs[0] - 5.0)
        hi = min(hi, lp.rhs[0] + 5.0)
        width = hi - lo
        if width <= 1e-6:
            continue
        checked += 1
        for d in np.linspace(lo + 1e-4 * width, hi - 1e-4 * width, 20):
            rhs = lp.rhs.copy()
            rhs[0] = d
            again = lplib.solve(StandardLp(lp.objective, lp.matrix, rhs, lp.senses))
            assert again.status == OPTIMAL
            npt.assert_allclose(again.duals, sol.duals, atol=1e-7, rtol=1e-7)
    assert checked >= 15


def test_determinism_identical_bases():
    rng = np.random.default_rng(3)
    for _ in range(25):
        lp = random_lp(rng)
        a = lplib.solve(lp)
        b = lplib.solve(lp)
        assert a.status == b.status
        if a.status == OPTIMAL:
            assert a.basis == b.basis
            npt.assert_array_equal(a.x, b.x)


def test_input_validation():
    with pytest.raises(ValidationError):
        StandardLp([1.0, 2.0], [[1.0]], [1.0], (LE,))
    with pytest.raises(ValidationError):
        StandardLp([1.0], [[1.0]], [1.0], ("<",))
    with pytest.raises(ValidationError):
        StandardLp([1.0], [[np.nan]], [1.0], (LE,))
    with pytest.raises(ValidationError):
        StandardLp([1.0], [[1.0]], [1.0], (LE,), lower=[2.0], upper=[1.0])


def test_nan_bounds_are_rejected():
    with pytest.raises(ValidationError, match="NaN"):
        StandardLp([1.0], [[1.0]], [1.0], (LE,), lower=[np.nan])
    with pytest.raises(ValidationError, match="NaN"):
        StandardLp([1.0], [[1.0]], [1.0], (LE,), upper=[np.nan])


def energy_master(K):
    """The aggregated master of the energy instance with demand on [3, 7]
    over K equal-width cells."""
    doc = lands_document(3.0, 7.0)
    model = document_to_model(doc)
    space = document_to_space(doc, model)
    edges = np.linspace(space.lo, space.hi, K + 1)
    cells = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        h = space.h_base.copy()
        h[space.row] = 0.5 * (lo + hi)
        cells.append((1.0 / K, h, space.T))
    return build_aggregated_master(model, cells)


def shaped_lp(rng):
    """A random LP with all three senses, free and upper-bounded columns, and
    degenerate right-hand sides (zeros and repeated rows)."""
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 7))
    M = rng.normal(size=(m, n)).round(2)
    M[rng.random((m, n)) < 0.2] = 0.0
    b = rng.normal(scale=2.0, size=m).round(2)
    b[rng.random(m) < 0.3] = 0.0
    if m > 1 and rng.random() < 0.3:
        M[-1], b[-1] = M[0], b[0]
    q = rng.uniform(-0.5, 2.0, size=n).round(2)
    lower = np.where(rng.random(n) < 0.25, -np.inf, 0.0)
    lower[rng.random(n) < 0.2] = round(rng.uniform(-1.0, 1.0), 2)
    upper = np.full(n, np.inf)
    capped = rng.random(n) < 0.4
    upper[capped] = np.where(np.isfinite(lower), lower, 0.0)[capped] + rng.uniform(0.5, 3.0)
    senses = tuple(rng.choice([LE, EQ, GE], size=m))
    return StandardLp(q, M, b, senses, lower, upper)


def solve_outcome(lp):
    try:
        return lplib.solve(lp)
    except SolverFailure as exc:
        return str(exc)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_sparse_pivot_and_array_canonical_form_match_the_references(monkeypatch):
    rng = np.random.default_rng(11)
    lps = [shaped_lp(rng) for _ in range(200)] + [energy_master(45)]
    seen = {"free": 0, "capped": 0, "zero rhs": 0, "optimal": 0}
    outcomes = {INFEASIBLE: 0, UNBOUNDED: 0, "dropped row": 0}
    for lp in lps:
        fast, slow = lplib._canonicalize(lp), loop_canonicalize(lp)
        for name in ("A", "b", "c", "row_sign", "var", "sign", "shift"):
            assert same_bits(getattr(fast, name), getattr(slow, name)), name

        kernel = solve_outcome(lp)
        with monkeypatch.context() as patch:
            patch.setattr(lplib, "_apply_pivot", dense_apply_pivot)
            patch.setattr(lplib, "_canonicalize", loop_canonicalize)
            reference = solve_outcome(lp)
        if isinstance(kernel, str):
            assert kernel == reference
            continue
        assert kernel.status == reference.status
        assert kernel.basis == reference.basis
        assert kernel.kept_rows == reference.kept_rows
        if kernel.status != OPTIMAL:
            outcomes[kernel.status] += 1
        else:
            outcomes["dropped row"] += len(kernel.kept_rows) < fast.A.shape[0]
            assert same_bits(kernel.x, reference.x)
            assert same_bits(kernel.duals, reference.duals)
            assert kernel.objective.hex() == reference.objective.hex()
            seen["optimal"] += 1
            seen["free"] += bool(np.any(np.isinf(lp.lower)))
            seen["capped"] += bool(np.any(np.isfinite(lp.upper)))
            seen["zero rhs"] += bool(np.any(lp.rhs == 0.0))
    assert min(seen.values()) >= 30, seen
    assert outcomes[INFEASIBLE] >= 30 and outcomes[UNBOUNDED] >= 30, outcomes
    assert outcomes["dropped row"] >= 5, outcomes


def test_lp_without_canonical_rows():
    # no rows and no finite upper bound: the optimum sits at the shift
    lower = np.array([1.5, 0.0, -2.0])
    sol = lplib.solve(StandardLp([2.0, 0.0, 1.0], np.zeros((0, 3)), [], (), lower))
    assert sol.status == OPTIMAL
    assert same_bits(sol.x, lower)
    assert sol.duals.shape == (0,)
    assert sol.basis == sol.kept_rows == ()
    assert sol.objective == pytest.approx(1.0)

    assert lplib.solve(StandardLp([1.0, -1.0], np.zeros((0, 2)), [], ())).status == UNBOUNDED

    free = lplib.solve(StandardLp([0.0], np.zeros((0, 1)), [], (), [-np.inf]))
    assert free.status == OPTIMAL
    assert free.x.tolist() == [0.0] and free.basis == ()


def test_large_master_against_highs():
    from scipy.optimize import linprog

    lp = energy_master(150)
    sol = lplib.solve(lp)
    assert sol.status == OPTIMAL
    le = np.array([s == LE for s in lp.senses])
    ref = linprog(lp.objective, A_ub=np.vstack([lp.matrix[le], -lp.matrix[~le]]),
                  b_ub=np.concatenate([lp.rhs[le], -lp.rhs[~le]]),
                  bounds=list(zip(lp.lower, lp.upper)), method="highs")
    assert ref.status == 0
    assert abs(sol.objective - ref.fun) <= 1e-9 * abs(ref.fun)
    assert abs(float(sol.duals @ lp.rhs) - sol.objective) <= 1e-7 * abs(sol.objective)
