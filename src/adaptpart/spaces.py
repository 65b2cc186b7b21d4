"""Uncertainty spaces and partitions of their support.

A partition is a list of disjoint cells covering the support.  Each cell
caches its probability mass and the conditional means of (h, T); discrete and
interval backends compute these exactly, the Gaussian backend estimates them
over a common-random-numbers sample pool drawn once per space instance.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .model import MASS_TOL, Realization, RecourseModel

EXACT = "exact"
MONTE_CARLO = "monte-carlo"


# ---------------------------------------------------------------- geometries

@dataclass(frozen=True)
class ScenarioSet:
    """Cell of a discrete space: a subset of scenario indices."""

    indices: tuple[int, ...]


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

    def __eq__(self, other):
        return isinstance(other, HalfspaceRegion) and self.halfspaces == other.halfspaces

    def __hash__(self):
        return hash(self.halfspaces)


# ------------------------------------------------------------------ splitters

@dataclass(frozen=True)
class ScenarioRegroup:
    """Split a discrete cell into the given index groups."""

    groups: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Breakpoints:
    """Split an interval cell at the given interior points."""

    points: tuple[float, ...]


@dataclass(frozen=True)
class HyperplaneSplit:
    """Split a region cell by the hyperplane normal.xi = offset."""

    normal: tuple[float, ...]
    offset: float


@dataclass(frozen=True, eq=False)
class Cell:
    """One partition cell with cached mass and conditional means."""

    label: str
    geometry: object
    mass: float
    h_mean: np.ndarray
    t_mean: np.ndarray
    estimate: str = EXACT
    sample_count: int | None = None


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint cells covering the support."""

    cells: tuple[Cell, ...]

    def __len__(self) -> int:
        return len(self.cells)

    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.cells)

    def total_mass(self) -> float:
        return float(sum(c.mass for c in self.cells))

    def find(self, label: str) -> Cell:
        for c in self.cells:
            if c.label == label:
                return c
        raise ValidationError(f"no cell labeled {label!r}")


class UncertaintySpace(ABC):
    """Backend interface: cell construction, splitting, sampling, and the
    report geometry of a cell.  `kind` is the instance document tag."""

    kind: str = ""

    @abstractmethod
    def trivial_partition(self) -> Partition:
        """The single-cell partition covering the whole support."""

    @abstractmethod
    def _split(self, cell: Cell, splitter) -> list[Cell] | None:
        """Children of `cell` under `splitter`, or None for a no-op."""

    @abstractmethod
    def cell_samples(self, cell: Cell, cap: int):
        """(weights, realizations) drawn from the cell's conditional law; used
        for condition checks.  Weights sum to one.  Continuous spaces return
        at most `cap` samples; a discrete cell returns all its scenarios."""

    @abstractmethod
    def cell_report(self, cell: Cell) -> dict:
        """The cell's geometry keys for the partition trace, in report order."""

    def split_cell(self, partition: Partition, label: str, splitter) -> Partition:
        """Replace one cell by its children.  Returns `partition` itself when
        the split is a no-op (zero-mass children dropped; single survivor)."""
        cell = partition.find(label)
        children = self._split(cell, splitter)
        if children is None or len(children) <= 1:
            return partition
        out: list[Cell] = []
        for c in partition.cells:
            if c.label == label:
                out.extend(children)
            else:
                out.append(c)
        return Partition(tuple(out))


# ------------------------------------------------------------------- discrete

class DiscreteSpace(UncertaintySpace):
    """Finite scenario set with exact conditional expectations."""

    kind = "discrete"

    def __init__(self, realizations):
        realizations = list(realizations)
        if not realizations:
            raise ValidationError("discrete space needs at least one scenario")
        weights = np.array([r.weight for r in realizations])
        if abs(weights.sum() - 1.0) > MASS_TOL:
            raise ValidationError(f"scenario weights sum to {weights.sum():.12f}, expected 1")
        m = realizations[0].h.size
        shape = realizations[0].T.shape
        for r in realizations:
            if r.h.size != m or r.T.shape != shape:
                raise ValidationError("scenarios have inconsistent shapes")
        self.realizations = realizations
        self.weights = weights
        self.hs = np.stack([r.h for r in realizations])
        self.Ts = np.stack([r.T for r in realizations])

    @property
    def n_scenarios(self) -> int:
        return len(self.realizations)

    def _make_cell(self, label: str, indices: tuple[int, ...]) -> Cell | None:
        idx = np.asarray(indices, dtype=int)
        w = self.weights[idx]
        mass = float(w.sum())
        if mass <= 0.0:
            return None
        h_mean = (w @ self.hs[idx]) / mass
        t_mean = np.tensordot(w, self.Ts[idx], axes=(0, 0)) / mass
        return Cell(label, ScenarioSet(tuple(int(i) for i in idx)), mass, h_mean, t_mean,
                    EXACT, len(indices))

    def trivial_partition(self) -> Partition:
        cell = self._make_cell("0", tuple(range(self.n_scenarios)))
        return Partition((cell,))

    def _split(self, cell: Cell, splitter) -> list[Cell] | None:
        if not isinstance(splitter, ScenarioRegroup):
            raise ValidationError("discrete cells split by scenario regrouping")
        parent = set(cell.geometry.indices)
        flat = [i for g in splitter.groups for i in g]
        if set(flat) != parent or len(flat) != len(parent):
            raise ValidationError("groups must partition the cell's scenario set")
        children = []
        for t, group in enumerate(splitter.groups):
            child = self._make_cell(f"{cell.label}.{t}", tuple(sorted(group)))
            if child is not None:
                children.append(child)
        if len(children) <= 1:
            return None
        return children

    def cell_samples(self, cell: Cell, cap: int):
        idx = list(cell.geometry.indices)
        w = self.weights[idx]
        return w / w.sum(), [self.realizations[i] for i in idx]

    def cell_report(self, cell: Cell) -> dict:
        return {"geometry": {"type": "scenarios", "indices": list(cell.geometry.indices)},
                "h_mean": [float(v) for v in cell.h_mean]}


# ------------------------------------------------------------ 1-D uniform rhs

class UniformRhsSpace(UncertaintySpace):
    """One rhs component uniform on [lo, hi]; everything else deterministic."""

    kind = "uniform_rhs"

    def __init__(self, model: RecourseModel, row: int, lo: float, hi: float):
        if row not in model.layout.rhs_rows:
            raise ValidationError(f"row {row} is not a random rhs row of the model")
        if not lo < hi:
            raise ValidationError("uniform support needs lo < hi")
        self.model = model
        self.row = int(row)
        self.lo = float(lo)
        self.hi = float(hi)

    def realization_at(self, xi: float) -> Realization:
        h = self.model.h_base.copy()
        h[self.row] = xi
        return Realization(h, self.model.T_base)

    def _make_cell(self, label: str, lo: float, hi: float) -> Cell | None:
        span = self.hi - self.lo
        if lo < self.lo - 1e-12 * span or hi > self.hi + 1e-12 * span:
            raise ValidationError(f"cell [{lo}, {hi}] outside support [{self.lo}, {self.hi}]")
        mass = (hi - lo) / span
        if mass <= 0.0:
            return None
        h_mean = self.model.h_base.copy()
        h_mean[self.row] = 0.5 * (lo + hi)
        return Cell(label, Interval(float(lo), float(hi)), float(mass),
                    h_mean, self.model.T_base.copy(), EXACT)

    def trivial_partition(self) -> Partition:
        return Partition((self._make_cell("0", self.lo, self.hi),))

    def _split(self, cell: Cell, splitter) -> list[Cell] | None:
        if not isinstance(splitter, Breakpoints):
            raise ValidationError("interval cells split at breakpoints")
        lo, hi = cell.geometry.lo, cell.geometry.hi
        eps = 1e-12 * (self.hi - self.lo)
        points = sorted(p for p in splitter.points if lo + eps < p < hi - eps)
        dedup: list[float] = []
        for p in points:
            if not dedup or p - dedup[-1] > eps:
                dedup.append(p)
        if not dedup:
            return None
        knots = [lo] + dedup + [hi]
        children = []
        for t in range(len(knots) - 1):
            child = self._make_cell(f"{cell.label}.{t}", knots[t], knots[t + 1])
            if child is not None:
                children.append(child)
        if len(children) <= 1:
            return None
        return children

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
    """Multivariate normal random vector feeding technology-matrix entries.

    Masses and conditional means are estimated over a fixed pool of
    `pool_size` common-random-numbers samples drawn once at construction; the
    pool is partitioned exactly across cells, so empirical masses are additive
    and lower bounds computed from them are monotone under refinement.
    """

    kind = "gaussian_technology"

    def __init__(self, model: RecourseModel, mu, sigma, seed: int, pool_size: int = 100_000):
        if seed is None:
            raise ValidationError("a seed is required for the sample pool")
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
        d = mu.size
        if sigma.shape != (d, d):
            raise ValidationError("covariance shape does not match the mean")
        if not np.allclose(sigma, sigma.T, atol=1e-9 * (1.0 + np.abs(sigma).max())):
            raise ValidationError("covariance must be symmetric")
        evals, evecs = np.linalg.eigh(sigma)
        if evals.min(initial=0.0) < -1e-9 * max(1.0, evals.max(initial=0.0)):
            raise ValidationError("covariance must be positive semidefinite")
        if not model.layout.tech_entries:
            raise ValidationError("model declares no random technology entries")
        for entry in model.layout.tech_entries:
            if not 0 <= entry.component < d:
                raise ValidationError(f"entry component {entry.component} out of range")
        if pool_size < 2:
            raise ValidationError("pool size must be at least 2")
        self.model = model
        self.mu = mu
        self.sigma = sigma
        self.seed = int(seed)
        self.pool_size = int(pool_size)
        root = evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T
        rng = np.random.default_rng(self.seed)
        self.pool = rng.standard_normal((self.pool_size, d)) @ root + mu

    @property
    def dim(self) -> int:
        return self.mu.size

    def realization_at(self, xi) -> Realization:
        T = self.model.T_base.copy()
        for e in self.model.layout.tech_entries:
            T[e.row, e.col] = e.scale * xi[e.component]
        return Realization(self.model.h_base, T)

    def _make_cell(self, label: str, halfspaces, members: np.ndarray) -> Cell | None:
        if members.size == 0:
            return None
        xi_mean = self.pool[members].mean(axis=0)
        return Cell(label, HalfspaceRegion(halfspaces, members, xi_mean),
                    members.size / self.pool_size, self.model.h_base.copy(),
                    self.realization_at(xi_mean).T, MONTE_CARLO, int(members.size))

    def trivial_partition(self) -> Partition:
        cell = self._make_cell("0", (), np.arange(self.pool_size))
        return Partition((cell,))

    def _split(self, cell: Cell, splitter) -> list[Cell] | None:
        if not isinstance(splitter, HyperplaneSplit):
            raise ValidationError("region cells split by hyperplanes")
        a = np.asarray(splitter.normal, dtype=float)
        beta = float(splitter.offset)
        members = cell.geometry.members
        side = self.pool[members] @ a <= beta
        inside, outside = members[side], members[~side]
        if inside.size == 0 or outside.size == 0:
            return None
        norm_a = tuple(float(v) for v in a)
        first = cell.geometry.halfspaces + ((norm_a, beta),)
        second = cell.geometry.halfspaces + ((tuple(-v for v in norm_a), -beta),)
        children = [self._make_cell(f"{cell.label}.0", first, inside),
                    self._make_cell(f"{cell.label}.1", second, outside)]
        children = [c for c in children if c is not None]
        if len(children) <= 1:
            return None
        return children

    def cell_samples(self, cell: Cell, cap: int):
        members = cell.geometry.members
        if members.size > cap:
            pick = np.unique(np.linspace(0, members.size - 1, cap).astype(int))
            members = members[pick]
        w = np.full(members.size, 1.0 / members.size)
        return w, [self.realization_at(self.pool[i]) for i in members]

    def cell_mean_xi(self, cell: Cell) -> np.ndarray:
        return cell.geometry.xi_mean

    def cell_report(self, cell: Cell) -> dict:
        halfspaces = [{"normal": list(a), "offset": b} for a, b in cell.geometry.halfspaces]
        return {"geometry": {"type": "region", "halfspaces": halfspaces},
                "xi_mean": [float(v) for v in self.cell_mean_xi(cell)]}
