"""Uncertainty spaces and partitions of their support.

Each space owns the random data of its backend: the realizations h(xi),
T(xi) and whatever maps xi onto them (a random rhs row, the affine
technology map T0 + Tk @ xi).  The RecourseModel it is built against holds
only the fixed-recourse program the space's data must fit.  The members of
a finite-member space (scenarios, pool draws) are indices into its arrays.

A partition is a tuple of disjoint cells covering the support.  Each cell
caches its probability mass and the conditional means of (h, T); discrete and
interval backends compute these exactly, the Gaussian backend estimates them
over a common-random-numbers sample pool drawn once per space instance.

A space splits one cell at a time, from plain arguments its backend's
refiner computes: scenario index groups (discrete), interior points
(interval), or a hyperplane with its pool-wide side mask (Gaussian).
"""
from __future__ import annotations

import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .model import MASS_TOL, Realization, RecourseModel, float_array

EXACT = "exact"
MONTE_CARLO = "monte-carlo"
DEFAULT_POOL_SIZE = 100_000


def _base_data(model: RecourseModel, h, T) -> tuple[np.ndarray, np.ndarray]:
    """(h, T) as float arrays shaped (m,) and (m, n1) for `model`."""
    h = np.atleast_1d(float_array("base h", h))
    T = float_array("base T", T)
    if h.shape != (model.m,) or T.shape != (model.m, model.n_first):
        raise ValidationError(f"base h {h.shape} and T {T.shape} do not match the model's "
                              f"({model.m},) and ({model.m}, {model.n_first})")
    if not (np.isfinite(h).all() and np.isfinite(T).all()):
        raise ValidationError("base h and T entries must be finite")
    return h, T


# ---------------------------------------------------------------- geometries

@dataclass(frozen=True, eq=False)
class ScenarioSet:
    """Cell of a discrete space: its scenario indices, a sorted int array."""

    indices: np.ndarray


@dataclass(frozen=True)
class Interval:
    """Cell of a one-dimensional support: [lo, hi]."""

    lo: float
    hi: float


@dataclass(frozen=True, eq=False)
class HalfspaceRegion:
    """Cell of a multivariate space: intersection of halfspaces a.xi <= b,
    stored as accumulated split history.  ``members`` caches the indices of
    the sample-pool points lying in the cell (the pool is partitioned
    exactly, boundary points belong to exactly one child) and ``xi_mean``
    their mean."""

    halfspaces: tuple[tuple[tuple[float, ...], float], ...]
    members: np.ndarray = field(repr=False)
    xi_mean: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class Cell:
    """One partition cell with cached mass and conditional means."""

    label: str
    geometry: object
    mass: float
    h_mean: np.ndarray
    t_mean: np.ndarray
    sample_count: int | None = None


def _integer(name: str, value) -> int:
    if not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


class UncertaintySpace(ABC):
    """Backend interface, one subclass per backend: cell construction,
    splitting (from the backend's own arguments, see each `_split`; the
    caller assembles the partition), sampling, and report geometry.
    `estimate` tells exact cell masses and means from sample estimates."""

    estimate = EXACT

    @abstractmethod
    def trivial_partition(self) -> tuple[Cell, ...]:
        """The single-cell partition covering the whole support."""

    @abstractmethod
    def _split(self, cell: Cell, *how) -> list[Cell]:
        """Children of `cell` with positive mass under the backend's split
        arguments `how`."""

    @abstractmethod
    def cell_samples(self, cell: Cell, cap: int):
        """(weights, realizations) drawn from the cell's conditional law; used
        for condition checks.  Weights sum to one.  Continuous spaces return
        at most `cap` samples; a discrete cell returns all its scenarios."""

    @abstractmethod
    def cell_report(self, cell: Cell) -> dict:
        """The cell's geometry keys for the partition trace, in report order."""

    def split_cell(self, cell: Cell, *how) -> tuple[Cell, ...]:
        """The children of `cell` under `how`, in order, or `(cell,)` when
        the split is a no-op (zero-mass children dropped; single survivor)."""
        children = self._split(cell, *how)
        return tuple(children) if len(children) > 1 else (cell,)


# ------------------------------------------------------------------- discrete

class DiscreteSpace(UncertaintySpace):
    """Finite scenario set with exact conditional expectations: scenario s
    has probability weights[s] and data hs[s] (m,) and Ts[s] (m, n1)."""

    def __init__(self, model: RecourseModel, weights, hs, Ts):
        weights = float_array("scenario weights", weights)
        hs = float_array("scenario h", hs)
        Ts = float_array("scenario T", Ts)
        if weights.ndim != 1 or weights.size == 0:
            raise ValidationError(f"discrete space needs a weight vector of at least one "
                                  f"scenario, got shape {weights.shape}")
        S, m, n1 = weights.size, model.m, model.n_first
        if hs.shape != (S, m) or Ts.shape != (S, m, n1):
            raise ValidationError(f"scenario h {hs.shape} and T {Ts.shape} do not match the "
                                  f"model's ({S}, {m}) and ({S}, {m}, {n1})")
        if not (np.isfinite(weights).all() and (weights >= 0.0).all()):
            raise ValidationError("scenario weights must be finite and nonnegative")
        if abs(weights.sum() - 1.0) > MASS_TOL:
            raise ValidationError(f"scenario weights sum to {weights.sum():.12f}, expected 1")
        if not (np.isfinite(hs).all() and np.isfinite(Ts).all()):
            raise ValidationError("scenario h and T entries must be finite")
        self.weights, self.hs, self.Ts = weights, hs, Ts
        self.realizations = [Realization(h, T) for h, T in zip(hs, Ts)]

    def _make_cell(self, label: str, idx: np.ndarray) -> Cell | None:
        w = self.weights[idx]
        mass = float(w.sum())
        if mass <= 0.0:
            return None
        h_mean = (w @ self.hs[idx]) / mass
        t_mean = np.tensordot(w, self.Ts[idx], axes=(0, 0)) / mass
        return Cell(label, ScenarioSet(idx), mass, h_mean, t_mean, idx.size)

    def trivial_partition(self) -> tuple[Cell, ...]:
        return (self._make_cell("0", np.arange(self.weights.size)),)

    def _split(self, cell: Cell, groups) -> list[Cell]:
        """One child per group of scenario indices; the groups must
        partition the cell's scenarios."""
        groups = [np.sort(np.asarray(g, dtype=np.intp)) for g in groups]
        flat = np.sort(np.concatenate([np.empty(0, np.intp), *groups]))
        if not np.array_equal(flat, cell.geometry.indices):
            raise ValidationError("groups must partition the cell's scenario set")
        children = (self._make_cell(f"{cell.label}.{t}", g) for t, g in enumerate(groups))
        return [c for c in children if c is not None]

    def cell_samples(self, cell: Cell, cap: int):
        idx = cell.geometry.indices
        w = self.weights[idx]
        return w / w.sum(), [self.realizations[i] for i in idx.tolist()]

    def cell_report(self, cell: Cell) -> dict:
        return {"geometry": {"type": "scenarios", "indices": cell.geometry.indices.tolist()},
                "h_mean": [float(v) for v in cell.h_mean]}


# ------------------------------------------------------------ 1-D uniform rhs

class UniformRhsSpace(UncertaintySpace):
    """Component `row` of h uniform on [lo, hi]; the rest of h (`h_base`)
    and the technology matrix `T` are deterministic."""

    def __init__(self, model: RecourseModel, h_base, T, row: int, lo: float, hi: float):
        self.h_base, self.T = _base_data(model, h_base, T)
        self.row = _integer("random rhs row", row)
        if not 0 <= row < model.m:
            raise ValidationError(f"random rhs row {row} out of range")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError(f"uniform support lo and hi must be finite, got [{lo}, {hi}]")
        if not lo < hi:
            raise ValidationError("uniform support needs lo < hi")
        self.lo = float(lo)
        self.hi = float(hi)
        # knots closer than this are one knot, and a cell end this far past the support is kept
        self.knot_tol = 1e-12 * (self.hi - self.lo)

    def realization_at(self, xi: float) -> Realization:
        h = self.h_base.copy()
        h[self.row] = xi
        return Realization(h, self.T)

    def _make_cell(self, label: str, lo: float, hi: float) -> Cell:
        if lo < self.lo - self.knot_tol or hi > self.hi + self.knot_tol:
            raise ValidationError(f"cell [{lo}, {hi}] outside support [{self.lo}, {self.hi}]")
        mass = (hi - lo) / (self.hi - self.lo)
        h_mean = self.h_base.copy()
        h_mean[self.row] = 0.5 * (lo + hi)
        return Cell(label, Interval(float(lo), float(hi)), float(mass),
                    h_mean, self.T.copy())

    def trivial_partition(self) -> tuple[Cell, ...]:
        return (self._make_cell("0", self.lo, self.hi),)

    def _split(self, cell: Cell, points) -> list[Cell]:
        """Split at the given points that lie inside the cell; points outside
        it, or within knot_tol of a kept knot, are ignored; every child is
        wider than knot_tol, so it has positive mass."""
        lo, hi = cell.geometry.lo, cell.geometry.hi
        eps = self.knot_tol
        knots = [lo]
        for p in sorted(p for p in points if lo + eps < p < hi - eps):
            if len(knots) == 1 or p - knots[-1] > eps:
                knots.append(p)
        if len(knots) == 1:
            return []
        knots.append(hi)
        return [self._make_cell(f"{cell.label}.{t}", knots[t], knots[t + 1])
                for t in range(len(knots) - 1)]

    def cell_samples(self, cell: Cell, cap: int):
        lo, hi = cell.geometry.lo, cell.geometry.hi
        xs = lo + (np.arange(cap) + 0.5) * (hi - lo) / cap
        return np.full(cap, 1.0 / cap), [self.realization_at(float(x)) for x in xs]

    def cell_report(self, cell: Cell) -> dict:
        lo, hi = cell.geometry.lo, cell.geometry.hi
        return {"geometry": {"type": "interval", "lo": lo, "hi": hi},
                "midpoint": 0.5 * (lo + hi)}


# ------------------------------------------------- Gaussian technology matrix

class GaussianTechnologySpace(UncertaintySpace):
    """Multivariate normal random vector xi ~ N(mu, sigma) feeding the
    technology matrix through the affine map T(xi) = T0 + Tk @ xi, with T0
    shaped (m, n1) and Tk (m, n1, d); h is `h_base`.

    Masses and conditional means are estimated over a fixed pool of
    `pool_size` common-random-numbers samples drawn once at construction; the
    pool is partitioned exactly across cells, so empirical masses are additive
    and lower bounds computed from them are monotone under refinement.
    """

    estimate = MONTE_CARLO

    def __init__(self, model: RecourseModel, h_base, T0, Tk, mu, sigma, seed: int,
                 pool_size: int = DEFAULT_POOL_SIZE):
        seed = _integer("the sample pool seed", seed)
        if seed < 0:
            raise ValidationError(f"the sample pool seed must be nonnegative, got {seed}")
        self.h_base, self.T0 = _base_data(model, h_base, T0)
        mu = np.atleast_1d(float_array("mean mu", mu))
        sigma = np.atleast_2d(float_array("covariance sigma", sigma))
        d = mu.size
        if sigma.shape != (d, d):
            raise ValidationError("covariance shape does not match the mean")
        if not np.isfinite(mu).all():
            raise ValidationError("mean mu entries must be finite")
        if not np.isfinite(sigma).all():
            raise ValidationError("covariance sigma entries must be finite")
        if not np.allclose(sigma, sigma.T, atol=1e-9 * (1.0 + np.abs(sigma).max())):
            raise ValidationError("covariance must be symmetric")
        evals, evecs = np.linalg.eigh(sigma)
        if evals.min(initial=0.0) < -1e-9 * max(1.0, evals.max(initial=0.0)):
            raise ValidationError("covariance must be positive semidefinite")
        self.Tk = float_array("technology map Tk", Tk)
        if self.Tk.shape != self.T0.shape + (d,):
            raise ValidationError(f"technology map Tk {self.Tk.shape} does not match the "
                                  f"model's and the mean's {self.T0.shape + (d,)}")
        if not np.isfinite(self.Tk).all():
            raise ValidationError("technology map Tk entries must be finite")
        self.pool_size = _integer("pool size", pool_size)
        if self.pool_size < 2:
            raise ValidationError("pool size must be at least 2")
        root = evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T
        rng = np.random.default_rng(seed)
        self.pool = rng.standard_normal((self.pool_size, d)) @ root + mu

    def _technology(self, xi) -> np.ndarray:
        return self.T0 + self.Tk @ xi

    def realization_at(self, xi) -> Realization:
        return Realization(self.h_base, self._technology(xi))

    def _make_cell(self, label: str, halfspaces, members: np.ndarray) -> Cell:
        xi_mean = self.pool[members].mean(axis=0)
        return Cell(label, HalfspaceRegion(halfspaces, members, xi_mean),
                    members.size / self.pool_size, self.h_base.copy(),
                    self._technology(xi_mean), int(members.size))

    def trivial_partition(self) -> tuple[Cell, ...]:
        return (self._make_cell("0", (), np.arange(self.pool_size)),)

    def _split(self, cell: Cell, normal, offset, side) -> list[Cell]:
        """Cut the cell by the hyperplane normal.xi = offset; `side` is the
        pool-wide mask of normal.xi <= offset, read at the cell's members."""
        members = cell.geometry.members
        below = side[members]
        inside = members[below]
        if inside.size in (0, members.size):
            return []
        outside = members[~below]
        norm_a = tuple(float(v) for v in normal)
        beta = float(offset)
        first = cell.geometry.halfspaces + ((norm_a, beta),)
        second = cell.geometry.halfspaces + ((tuple(-v for v in norm_a), -beta),)
        return [self._make_cell(f"{cell.label}.0", first, inside),
                self._make_cell(f"{cell.label}.1", second, outside)]

    def cell_samples(self, cell: Cell, cap: int):
        members = cell.geometry.members
        if members.size > cap:
            pick = np.unique(np.linspace(0, members.size - 1, cap).astype(int))
            members = members[pick]
        w = np.full(members.size, 1.0 / members.size)
        return w, [self.realization_at(self.pool[i]) for i in members]

    def cell_report(self, cell: Cell) -> dict:
        halfspaces = [{"normal": list(a), "offset": b} for a, b in cell.geometry.halfspaces]
        return {"geometry": {"type": "region", "halfspaces": halfspaces},
                "xi_mean": [float(v) for v in cell.geometry.xi_mean]}
