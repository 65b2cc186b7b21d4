"""Tests for the simplex kernel: solve, duals, ranging, determinism, its
exits, and the column-major kernel against the frozen row-major reference."""
from __future__ import annotations

import copy

import numpy as np
import numpy.testing as npt
import pytest

from adaptpart import engine, lp as lplib, refiners
from adaptpart.errors import SolverFailure, ValidationError
from adaptpart.instances import (cvar_document, document_to_model, document_to_space,
                                 lands_document)
from adaptpart.lp import GE, LE, EQ, OPTIMAL, INFEASIBLE, UNBOUNDED, StandardLp
from adaptpart.model import build_aggregated_master

from _generators import random_recourse_model
from _oracles import (LoopBasisCache, grid_dual_breakpoints, loop_canonicalize, reference_solve,
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


def cvar_master(iterations):
    """The tail-risk portfolio's aggregated master at the given iteration
    (pool seed 0)."""
    doc = cvar_document(seed=0)
    model = document_to_model(doc)
    space = document_to_space(doc, model)
    result = engine.run(model, space, refiners.refiner_by_name("auto", space),
                        engine.SolverConfig(max_iterations=iterations))
    assert len(result.partitions) == iterations
    return build_aggregated_master(
        model, [(c.mass, c.h_mean, c.t_mean) for c in result.partitions[-1]])


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_the_reference(lp):
    """Solve lp with the kernel and with `reference_solve`, assert the same
    failure message or the same status, basis, kept rows and bits of x,
    duals and objective, and return (kernel outcome, the reference's Bland
    pivots)."""
    try:
        reference, bland = reference_solve(lp)
    except SolverFailure as exc:
        with pytest.raises(SolverFailure) as caught:
            lplib.solve(lp)
        assert str(caught.value) == str(exc)
        return str(exc), 0
    kernel = lplib.solve(lp)
    assert kernel.status == reference.status
    assert kernel.basis == reference.basis
    assert kernel.kept_rows == reference.kept_rows
    if kernel.status == OPTIMAL:
        assert same_bits(kernel.x, reference.x)
        assert same_bits(kernel.duals, reference.duals)
        assert kernel.objective.hex() == reference.objective.hex()
    return kernel, bland


def test_sparse_pivot_and_array_canonical_form_match_the_references():
    rng = np.random.default_rng(11)
    lps = [shaped_lp(rng) for _ in range(200)] + [energy_master(45)]
    seen = {"free": 0, "capped": 0, "zero rhs": 0, "optimal": 0}
    outcomes = {INFEASIBLE: 0, UNBOUNDED: 0, "dropped row": 0}
    for lp in lps:
        fast, slow = lplib._canonicalize(lp), loop_canonicalize(lp)
        for name in ("A", "b", "c", "row_sign", "var", "sign", "shift"):
            assert same_bits(getattr(fast, name), getattr(slow, name)), name

        kernel, _ = assert_matches_the_reference(lp)
        if isinstance(kernel, str):
            continue
        if kernel.status != OPTIMAL:
            outcomes[kernel.status] += 1
        else:
            outcomes["dropped row"] += len(kernel.kept_rows) < fast.A.shape[0]
            seen["optimal"] += 1
            seen["free"] += bool(np.any(np.isinf(lp.lower)))
            seen["capped"] += bool(np.any(np.isfinite(lp.upper)))
            seen["zero rhs"] += bool(np.any(lp.rhs == 0.0))
    assert min(seen.values()) >= 30, seen
    assert outcomes[INFEASIBLE] >= 30 and outcomes[UNBOUNDED] >= 30, outcomes
    assert outcomes["dropped row"] >= 5, outcomes


def test_masters_match_the_reference_through_blands_rule():
    # the random LPs are too small to stall, so Bland's rule is covered by a
    # tail-risk master on which the reference makes Bland pivots
    kernel, bland = assert_matches_the_reference(cvar_master(10))
    assert kernel.status == OPTIMAL
    assert bland > 0
    kernel, bland = assert_matches_the_reference(energy_master(150))
    assert kernel.status == OPTIMAL and bland == 0


def test_pivot_limit_names_the_phase(monkeypatch):
    monkeypatch.setattr(lplib, "_MAX_PIVOTS", 1)
    # two >= rows: two artificial columns to drive to zero
    with pytest.raises(SolverFailure, match="^pivot limit exceeded in phase 1$"):
        lplib.solve(StandardLp([1.0, 1.0], np.eye(2), [1.0, 1.0], (GE, GE)))
    # two <= rows start from their slacks, and both columns enter
    with pytest.raises(SolverFailure, match="^pivot limit exceeded in phase 2$"):
        lplib.solve(StandardLp([-1.0, -1.0], np.eye(2), [1.0, 1.0], (LE, LE)))
    monkeypatch.setattr(lplib, "_MAX_PIVOTS", 2)
    assert lplib.solve(StandardLp([-1.0, 0.0], np.eye(2), [1.0, 1.0], (LE, LE))).status == OPTIMAL


def test_column_without_positive_entry_is_unbounded():
    # the entering column x1 is -1 in both rows
    lp = StandardLp([-1.0, -2.0], [[1.0, -1.0], [0.0, -1.0]], [1.0, 0.0], (LE, LE))
    assert lplib.solve(lp).status == UNBOUNDED
    assert_matches_the_reference(lp)
    # phase 2 of an equality-constrained program: x0 - x1 = 1 leaves x1 unbounded
    lp = StandardLp([0.0, -1.0], [[1.0, -1.0]], [1.0], (EQ,))
    assert lplib.solve(lp).status == UNBOUNDED
    assert_matches_the_reference(lp)


def test_drive_out_pivots_on_a_negative_element(monkeypatch):
    # phase 1 ends with the artificial of  -x2 = 0  basic at level zero; its
    # row's only nonzero entry is -1, so the drive-out pivot divides by -1
    lp = StandardLp([1.0, 2.0, 0.0], [[1.0, 1.0, 0.0], [0.0, 0.0, -1.0]], [1.0, 0.0], (EQ, EQ))
    elements = []

    def recording_pivot(tab, row, col):
        elements.append(float(tab[row, col]))
        pivot(tab, row, col)

    pivot = lplib._apply_pivot
    monkeypatch.setattr(lplib, "_apply_pivot", recording_pivot)
    sol = lplib.solve(lp)
    assert elements == [1.0, -1.0]
    assert sol.status == OPTIMAL
    assert sol.basis == (0, 2) and sol.kept_rows == (0, 1)
    assert sol.x.tolist() == [1.0, 0.0, 0.0]
    monkeypatch.undo()
    assert_matches_the_reference(lp)


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

    empty = lplib.solve(StandardLp([], np.zeros((0, 0)), [], ()))
    assert empty.status == OPTIMAL and empty.x.shape == (0,) and empty.objective == 0.0


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


class TestLexicographicStep:
    """`solve(lp, lex=L)` returns the lexicographic minimum of L @ x over
    the optimal face, whatever pivots reached the face."""

    @staticmethod
    def coordinates(n, order):
        return np.eye(n)[list(order)]

    def test_tied_faces_by_hand(self):
        # min x0 + x1 s.t. x0 + x1 >= 1: the optimal face is a segment
        lp = StandardLp([1.0, 1.0], [[1.0, 1.0]], [1.0], (GE,))
        npt.assert_array_equal(lplib.solve(lp, lex=self.coordinates(2, [1, 0])).x, [1.0, 0.0])
        npt.assert_array_equal(lplib.solve(lp, lex=self.coordinates(2, [0, 1])).x, [0.0, 1.0])
        with pytest.raises(ValidationError, match="lex must have 2 columns"):
            lplib.solve(lp, lex=np.eye(3))
        # every point of x0 + x1 + x2 = 2 in the unit box is optimal
        lp = StandardLp([1.0, 1.0, 1.0], [[1.0, 1.0, 1.0]], [2.0], (EQ,),
                        upper=[1.0, 1.0, 1.0])
        npt.assert_array_equal(lplib.solve(lp, lex=self.coordinates(3, [2, 1, 0])).x,
                               [1.0, 1.0, 0.0])
        npt.assert_array_equal(lplib.solve(lp, lex=self.coordinates(3, [0, 2, 1])).x,
                               [0.0, 1.0, 1.0])
        # min x0 - x1 then lower x1: x1 as high as x0 allows, then x0 = x1 = 0
        lp = StandardLp([0.0, 0.0], [[1.0, 0.0], [-1.0, 1.0]], [2.0, 0.0], (LE, LE))
        npt.assert_array_equal(lplib.solve(lp, lex=[[1.0, -1.0], [0.0, 1.0]]).x, [0.0, 0.0])

    def test_unique_optimum_gives_the_plain_point(self):
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(150):
            n, m = int(rng.integers(2, 7)), int(rng.integers(1, 6))
            M = rng.normal(size=(m, n))
            b = M @ rng.uniform(0.0, 1.0, n) + rng.uniform(0.0, 0.5, m)
            senses = tuple(rng.choice([LE, GE, EQ], size=m))
            lp = StandardLp(rng.normal(size=n), M, b, senses, upper=np.full(n, 3.0))
            plain = lplib.solve(lp)
            if plain.status != OPTIMAL:
                continue
            lex = lplib.solve(lp, lex=self.coordinates(n, range(n - 1, -1, -1)))
            assert lex.status == OPTIMAL
            npt.assert_allclose(lex.x, plain.x, rtol=0.0, atol=1e-12)
            assert lex.objective == pytest.approx(plain.objective, rel=1e-12, abs=1e-12)
            checked += 1
        assert checked >= 100

    def test_random_tied_programs_against_sequential_highs(self):
        from scipy.optimize import linprog

        rng = np.random.default_rng(43)
        checked = moved = 0
        for _ in range(120):
            n, m = 6, int(rng.integers(1, 4))
            M = rng.integers(-2, 4, size=(m, n)).astype(float)
            b = rng.integers(1, 6, size=m).astype(float)
            # few distinct costs: the optimal face is rarely one vertex
            c = rng.integers(-1, 2, size=n).astype(float)
            upper = rng.integers(1, 4, size=n).astype(float)
            senses = tuple(rng.choice([LE, GE], size=m))
            lp = StandardLp(c, M, b, senses, upper=upper)
            plain = lplib.solve(lp)
            if plain.status != OPTIMAL:
                continue
            lex = np.vstack([rng.integers(-1, 2, size=n),
                             self.coordinates(n, rng.permutation(n))]).astype(float)
            sol = lplib.solve(lp, lex=lex)
            assert sol.status == OPTIMAL
            assert sol.objective == pytest.approx(plain.objective, abs=1e-9)

            sign = np.where(np.array(senses) == LE, 1.0, -1.0)
            A_ub, b_ub = M * sign[:, None], b * sign
            for objective in np.vstack([c, lex]):
                ref = linprog(objective, A_ub=A_ub, b_ub=b_ub,
                              bounds=list(zip(np.zeros(n), upper)), method="highs")
                assert ref.status == 0
                # hold each objective at its minimum for the next ones
                A_ub = np.vstack([A_ub, objective])
                b_ub = np.append(b_ub, ref.fun + 1e-9)
            npt.assert_allclose(sol.x, ref.x, rtol=0.0, atol=1e-7)
            checked += 1
            moved += not np.allclose(sol.x, plain.x)
        assert checked >= 60 and moved >= 20, (checked, moved)

    def test_unbounded_objective_keeps_its_value(self):
        # x1 is free and every point with x0 <= 1 is optimal; x0 sits in
        # two rows, so the slacks start the basis
        lp = StandardLp([0.0, 0.0], [[1.0, 0.0], [1.0, 0.0]], [1.0, 2.0], (LE, LE),
                        lower=[0.0, -np.inf])
        plain = lplib.solve(lp)
        npt.assert_array_equal(plain.x, [0.0, 0.0])
        # min x1 has no bound on the face: x1 keeps 0, and min -x0 still runs
        sol = lplib.solve(lp, lex=[[0.0, 1.0], [-1.0, 0.0]])
        npt.assert_array_equal(sol.x, [1.0, 0.0])
        # min x1 - x0 first raises x0 to 1, then finds the ray: undone
        sol = lplib.solve(lp, lex=[[-1.0, 1.0]])
        npt.assert_array_equal(sol.x, [0.0, 0.0])
        assert sol.pivots == 2

    def test_pivots_are_counted_and_the_plain_path_is_kept(self):
        # two >= rows need two artificials, then phase 2 moves to the optimum
        lp = StandardLp([1.0, 2.0], [[1.0, 1.0], [1.0, -1.0]], [2.0, 0.0], (GE, GE))
        reference, _ = reference_solve(lp)
        plain = lplib.solve(lp)
        assert plain.basis == reference.basis and plain.pivots >= 2
        # min 2 x0 + z s.t. x0 + z >= 1, x0 <= 3: with lex, the unit column
        # z starts the >= row, which the plain path gives an artificial
        lp = StandardLp([2.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], [1.0, 3.0], (GE, LE))
        plain, lex = lplib.solve(lp), lplib.solve(lp, lex=np.eye(2))
        npt.assert_array_equal(plain.x, [0.0, 1.0])
        npt.assert_array_equal(lex.x, [0.0, 1.0])
        assert plain.pivots >= 1 and lex.pivots == 0


class TestLookupMany:
    """`BasisCache.lookup_many` answers a block of rhs as `solve` would,
    without changing the cache."""

    def test_answers_agree_with_solve(self):
        rng = np.random.default_rng(17)
        for _ in range(4):
            model, _ = random_recourse_model(rng, m=3, extra_cols=2)
            bases = lplib.BasisCache(model.q, model.W, model.recourse_senses)
            for r in rng.uniform(-1.5, 1.5, (40, model.m)):
                bases.solve(r)
            R = rng.uniform(-1.5, 1.5, (200, model.m))
            before = (bases.hits, bases.solves, [e[0] for e in bases._entries])
            found = bases.lookup_many(R)
            assert (bases.hits, bases.solves, [e[0] for e in bases._entries]) == before
            answered = 0
            for r, entry in zip(R, found):
                probe = copy.deepcopy(bases)
                sol = probe.solve(r)
                if entry is None:
                    assert probe.hits == bases.hits and probe.solves == bases.solves + 1
                    continue
                answered += 1
                basis, kept, inv, duals = entry
                assert probe.hits == bases.hits + 1
                assert sol.basis == basis and sol.kept_rows == kept
                z = np.zeros(bases.columns.shape[1])
                z[list(basis)] = inv @ r
                npt.assert_allclose(sol.x, z[:model.n_second], rtol=0.0, atol=1e-12)
                npt.assert_allclose(sol.duals, duals, rtol=0.0, atol=1e-12)
            assert answered > 100

    def test_degenerate_and_inconsistent_rows_get_none(self):
        # min z : z >= r, with the basis of z cached from r = 1
        bases = lplib.BasisCache([1.0], [[1.0]], (GE,))
        bases.solve(np.array([1.0]))
        found = bases.lookup_many(np.array([[2.0], [0.0], [-1.0]]))
        assert found[0] is not None and found[1] is None and found[2] is None
        # y = r twice: the cached basis kept one row, so r = (2, 3) passes
        # the floor and fails the residual test
        bases = lplib.BasisCache([1.0], [[1.0], [1.0]], (EQ, EQ))
        assert len(bases.solve(np.array([1.0, 1.0])).kept_rows) == 1
        found = bases.lookup_many(np.array([[2.0, 2.0], [2.0, 3.0]]))
        assert found[0] is not None and found[1] is None
        assert bases.hits == 0 and bases.solves == 1


def _outcome(call):
    """A call's LpSolution / lookup result, or its exception type and message."""
    try:
        return call()
    except (ValidationError, SolverFailure, ValueError) as exc:
        return type(exc), str(exc)


def assert_same_solution(got, want):
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    if want is None:
        assert got is None
        return
    assert got.status == want.status
    assert got.basis == want.basis and got.kept_rows == want.kept_rows
    if want.status == OPTIMAL:
        assert same_bits(got.x, want.x)
        assert same_bits(got.duals, want.duals)
        assert got.objective.hex() == want.objective.hex()


def assert_same_cache(bases, reference):
    assert bases.hits == reference.hits and bases.solves == reference.solves
    assert [e[:2] for e in bases._entries] == [e[:2] for e in reference.entries]
    for got, want in zip(bases._entries, reference.entries):
        assert same_bits(got[2], want[2]) and same_bits(got[3], want[3])


def walk_family(rng, kind, m):
    """(objective, matrix, senses) of a random recourse family with m rows.
    "dropped" repeats the first row, both copies equalities, so the simplex
    drops one and caches its basis over the rest.  "twins" appends a copy of
    the +I block at the same costs, so two bases, one with each copy, are
    optimal wherever one is."""
    extra = 0 if kind == "twins" else int(rng.integers(1, 4))
    model, _ = random_recourse_model(rng, m=m, extra_cols=extra)
    W, q, senses = model.W, model.q, model.recourse_senses
    if kind == "dropped":
        W = np.vstack([W, W[:1]])
        senses = (EQ,) + senses[1:] + (EQ,)
    if kind == "twins":
        W = np.hstack([W, np.eye(m)])
        q = np.concatenate([q, q[:m]])
    return q, W, senses


def twin_of(sol, m):
    """sol with each basic column of the first +I block swapped for its copy."""
    basis = tuple(2 * m + j if j < m else j for j in sol.basis)
    return lplib.LpSolution(OPTIMAL, sol.x, sol.duals, sol.objective, basis, sol.kept_rows)


class TestStackedBasisCache:
    """`BasisCache` against `LoopBasisCache`, the per-entry walk it
    replaced, call by call: the same answering basis, the same bits of x,
    duals and objective, and the same hits, solves and recency order."""

    @pytest.mark.parametrize("kind,m", [("plain", 1), ("plain", 2), ("plain", 3), ("plain", 5),
                                        ("plain", 6), ("plain", 8), ("dropped", 2),
                                        ("dropped", 3), ("twins", 2), ("twins", 3)])
    def test_matches_the_per_entry_walk(self, kind, m):
        rng = np.random.default_rng(800 + 10 * m + len(kind))
        family = walk_family(rng, kind, m)
        bases, reference = lplib.BasisCache(*family), LoopBasisCache(*family)
        rows = len(family[2])
        seen, dropped, crossed, looked_up, twins = set(), 0, 0, 0, 0
        last = None
        for step in range(300):
            # mostly small rhs, which few bases answer, with a wide one now and then
            r = rng.uniform(-1.5, 1.5, rows) * (10.0 if rng.random() < 0.1 else 1.0)
            R = rng.uniform(-1.5, 1.5, (12, rows))
            if kind == "dropped":
                # mostly consistent copies, so a dropped-row basis can answer
                if rng.random() < 0.9:
                    r[-1] = r[0]
                R[:8, -1] = R[:8, 0]
            action = rng.random()
            if action < 0.1:
                got, want = bases.lookup_many(R), reference.lookup_many(R)
                assert [e if e is None else e[:2] for e in got] == \
                    [e if e is None else e[:2] for e in want]
                looked_up += sum(e is not None for e in got)
            elif action < 0.2 and last is not None and last[0].status == OPTIMAL:
                row = int(rng.integers(rows))
                got = _outcome(lambda: bases.cross(last[0], last[2], row))
                want = _outcome(lambda: reference.cross(last[1], last[2], row))
                assert_same_solution(got, want)
                crossed += want is not None and not isinstance(want, tuple)
            elif action < 0.23:
                bases, reference = copy.deepcopy(bases), copy.deepcopy(reference)
            elif action < 0.33 and kind == "twins" and last is not None:
                bases._add(twin_of(last[0], m))
                reference._add(twin_of(last[1], m))
                twins += 1
            else:
                got, want = bases.solve(r), reference.solve(r)
                assert_same_solution(got, want)
                last = (got, want, r)
            assert_same_cache(bases, reference)
            seen.update(e[0] for e in reference.entries)
            dropped += sum(len(e[1]) < rows for e in reference.entries)
        assert reference.hits > 10 and looked_up > 0
        assert crossed > 0 or kind == "dropped"
        assert (dropped > 0) == (kind == "dropped")
        assert (twins > 0) == (kind == "twins")
        if m >= 5:
            assert len(seen) > lplib._CACHED_BASES  # bases were evicted

    @pytest.mark.parametrize("m", range(1, 9))
    def test_stacked_product_is_each_slots_own(self, m):
        # each full slot's values in the batched product are bitwise its own
        # B^-1 r, with and without a padded (row-dropping) slot beside it
        rng = np.random.default_rng(900 + m)
        bases = lplib.BasisCache(np.ones(m), np.eye(m), (GE,) * m)
        for n_slots in range(1, lplib._CACHED_BASES + 1):
            for short in (False, True):
                sizes = [m] * n_slots
                if short and m > 1:
                    sizes[int(rng.integers(n_slots))] = m - 1
                bases._slots = [(tuple(range(s)), tuple(range(s)),
                                 rng.standard_normal((s, m)) * 10.0 ** rng.uniform(-3, 3, (s, 1)),
                                 np.zeros(m)) for s in sizes]
                bases._order = list(range(n_slots))
                bases._restack()
                for _ in range(4):
                    r = rng.standard_normal(m) * 10.0 ** rng.uniform(-3, 3)
                    Z = bases._stack @ r
                    for k, (_, kept, wide, _) in enumerate(bases._slots):
                        if len(kept) == Z.shape[1]:
                            assert same_bits(Z[k], wide @ r)

    def test_warm_and_cold_caches_refuse_the_same_rhs(self):
        def outcome(bases, r):
            got = _outcome(lambda: bases.solve(r))
            return got if isinstance(got, tuple) else (got.status, got.x.tolist(), got.objective)

        for family, good in [(([1.0], [[1.0]], (GE,)), [1.0]),
                             (([1.0, 1.0], np.eye(2), (GE, LE)), [1.0, 2.0])]:
            m = len(good)
            cases = [[np.nan] * m, [np.inf] * m, [-np.inf] * m, [1.0] * (m + 1),
                     [[1.0] * m], np.full((m, 1), 1.0), [0.5] + [np.nan] * (m - 1)]
            if m == 1:
                cases += [2.0, np.float64(2.0)]
            warm = lplib.BasisCache(*family)
            warm.solve(np.array(good))
            for r in cases:
                cold = lplib.BasisCache(*family)
                want = outcome(cold, r)
                got = outcome(warm, r)
                assert got == want, r
                if isinstance(want, tuple) and isinstance(want[0], type):
                    # the message StandardLp gives for the same rhs
                    fam = cold._family
                    with pytest.raises(ValidationError) as plain:
                        StandardLp(fam.objective, fam.matrix, r, fam.senses)
                    assert want == (ValidationError, str(plain.value))
            assert warm.solves == 1
            blocks = [np.ones((3, m + 1)), np.ones(m), np.full((2, m), np.nan),
                      np.full((2, m), -np.inf)]
            for R in blocks:
                want = _outcome(lambda: lplib.BasisCache(*family).lookup_many(R))
                assert isinstance(want, tuple) and want[0] is ValidationError
                assert _outcome(lambda: warm.lookup_many(R)) == want
            assert lplib.BasisCache(*family).lookup_many(np.ones((2, m))) == [None, None]
            assert warm.lookup_many(np.zeros((0, m))) == []
