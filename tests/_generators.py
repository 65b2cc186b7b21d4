"""Random problem builders shared across test modules.

Recourse matrices always embed +I and -I blocks with positive costs, so every
subproblem is feasible (slack in both directions) and bounded (costs are
nonnegative) regardless of the sampled senses and right-hand sides.
"""
from __future__ import annotations

import numpy as np

from adaptpart.model import RecourseModel
from adaptpart.spaces import DiscreteSpace


def random_recourse_model(rng: np.random.Generator, n_first: int | None = None,
                          m: int | None = None, extra_cols: int | None = None):
    """(model, T): a random fixed-recourse model and a base technology
    matrix for its scenarios."""
    n1 = int(n_first if n_first is not None else rng.integers(2, 5))
    mm = int(m if m is not None else rng.integers(1, 4))
    extra = int(extra_cols if extra_cols is not None else rng.integers(0, 3))
    G = rng.uniform(-1.0, 1.0, (mm, extra))
    W = np.hstack([np.eye(mm), -np.eye(mm), G])
    q = rng.uniform(0.2, 2.0, 2 * mm + extra)
    senses = tuple(rng.choice(["<=", ">=", "="], mm))
    c = rng.uniform(0.5, 2.0, n1)
    A = np.ones((1, n1))
    b = np.array([0.5 * n1])
    T = rng.uniform(-0.5, 0.5, (mm, n1))
    model = RecourseModel(c=c, A=A, b=b, senses=("<=",), W=W, q=q,
                          recourse_senses=senses, x_upper=rng.uniform(0.5, 1.5, n1))
    return model, T


def random_discrete_space(rng: np.random.Generator, model: RecourseModel, T_base,
                          n_scenarios: int | None = None,
                          vary_technology: bool = True) -> DiscreteSpace:
    S = int(n_scenarios if n_scenarios is not None else rng.integers(5, 21))
    raw = rng.uniform(0.2, 1.0, S)
    weights = raw / raw.sum()
    hs = np.empty((S, model.m))
    Ts = np.empty((S,) + T_base.shape)
    for s in range(S):
        hs[s] = rng.uniform(-1.5, 1.5, model.m)
        if vary_technology and rng.random() < 0.5:
            Ts[s] = T_base + rng.uniform(-0.3, 0.3, T_base.shape)
        else:
            Ts[s] = T_base
    return DiscreteSpace(model, weights, hs, Ts)


def portfolio_map(dim: int = 2):
    """(T0, Tk) of the tail-loss row T(xi) = [xi_0, ..., xi_{dim-1}, 1]: the
    random returns on the portfolio columns, 1 on the threshold column."""
    T0 = np.array([[0.0] * dim + [1.0]])
    Tk = np.zeros((1, dim + 1, dim))
    Tk[0, np.arange(dim), np.arange(dim)] = 1.0
    return T0, Tk


def random_first_stage_point(rng: np.random.Generator, model: RecourseModel) -> np.ndarray:
    """A random point of the first-stage feasible box scaled under the budget
    row (the generator's X is {0 <= x <= u, sum x <= b})."""
    x = rng.uniform(0.0, 1.0, model.n_first) * model.x_upper
    total = x.sum()
    cap = model.b[0]
    if total > cap:
        x *= cap / total
    return x
