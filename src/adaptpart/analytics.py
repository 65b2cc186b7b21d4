"""Sample tail average, the reference value of the tail-risk portfolio."""
from __future__ import annotations

import numpy as np


def empirical_cvar(losses, delta: float) -> float:
    """Sample tail average: tau* + mean((loss - tau*)+) / delta at the
    empirical (1 - delta)-quantile tau*."""
    losses = np.asarray(losses, dtype=float)
    tau = float(np.quantile(losses, 1.0 - delta))
    return tau + float(np.maximum(losses - tau, 0.0).mean()) / delta
