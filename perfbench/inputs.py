"""Instance documents for each workload, made from the workload seed.

Every workload is a list of (name, document, epsilon).  The documents are
plain JSON instance documents; the benchmark writes them to disk and the
program reads them back through its public loader, as `adaptpart run` does.
"""
from __future__ import annotations

import numpy as np

from adaptpart.instances import cvar_document, lands_document

DISCRETE_SCENARIOS = 1000
DISCRETE_EPSILON = 1e-6
# Demand supports of the energy instance.  The full support [3, 7] grows the
# partition to 45 cells; the windows inside it exercise the same sweep on
# shorter cells.  The iteration and LP counts jump with the support endpoints
# (351 to 571 LPs for width-2 windows), so the seed orders these supports
# instead of drawing new ones: drawn endpoints would put more seed-to-seed
# spread into solve_s than the benchmark's bound allows.
ENERGY_SUPPORTS = ((3.0, 7.0), (3.0, 5.0), (4.0, 6.0), (5.0, 7.0))
ENERGY_EPSILON = 1e-9
# Pool seeds of the tail-risk replications.  They stay fixed so that the
# known negative-gap stop (seeds 1, 2 and 6) hits the same replications in
# every run; the workload seed orders them.
CVAR_POOL_SEEDS = tuple(range(8))
CVAR_EPSILON = 1e-4


def discrete_document(seed: int, n_scenarios: int = DISCRETE_SCENARIOS) -> dict:
    """Random fixed-recourse model with n1=4 first-stage columns, m=3 recourse
    rows and W = [I, -I, G] (n2=8), so every subproblem is feasible and
    bounded, plus equally shaped scenarios that each carry their own T."""
    rng = np.random.default_rng(seed)
    n1, m, extra = 4, 3, 2
    G = rng.uniform(-1.0, 1.0, (m, extra))
    W = np.hstack([np.eye(m), -np.eye(m), G])
    q = rng.uniform(0.2, 2.0, 2 * m + extra)
    senses = [str(s) for s in rng.choice(["<=", ">=", "="], m)]
    c = rng.uniform(0.5, 2.0, n1)
    T = rng.uniform(-0.5, 0.5, (m, n1))
    ub = rng.uniform(0.5, 1.5, n1)
    raw = rng.uniform(0.2, 1.0, n_scenarios)
    weights = raw / raw.sum()
    hs = rng.uniform(-1.5, 1.5, (n_scenarios, m))
    Ts = T + rng.uniform(-0.3, 0.3, (n_scenarios, m, n1))
    scenarios = [{"weight": float(w), "h": h.tolist(), "T": t.tolist()}
                 for w, h, t in zip(weights, hs, Ts)]
    return {
        "metadata": {"name": f"discrete-{seed}"},
        "first_stage": {"c": c.tolist(), "A": [[1.0] * n1], "b": [0.5 * n1],
                        "senses": ["<="], "ub": ub.tolist()},
        "recourse": {"W": W.tolist(), "q": q.tolist(), "senses": senses},
        "uncertainty": {"kind": "discrete",
                        "parameters": {"T_base": T.tolist(), "scenarios": scenarios}},
    }


def _order(seed: int, items):
    perm = np.random.default_rng(seed).permutation(len(items))
    return [items[int(k)] for k in perm]


def workload_instances(workload: str, seed: int) -> list[tuple[str, dict, float]]:
    if workload == "discrete-scenarios":
        return [(f"discrete-{seed}", discrete_document(seed), DISCRETE_EPSILON)]
    if workload == "energy-tight":
        return [(f"energy-{lo:g}-{hi:g}", lands_document(lo, hi), ENERGY_EPSILON)
                for lo, hi in _order(seed, ENERGY_SUPPORTS)]
    if workload == "cvar-replications":
        return [(f"cvar-seed{s}", cvar_document(seed=s), CVAR_EPSILON)
                for s in _order(seed, CVAR_POOL_SEEDS)]
    raise ValueError(f"unknown workload {workload!r}")
