"""Switch duals of the offline LP, built to certify `offline_optimal_value`.

The LP puts a load weight gamma on every (step, user) pair and a capacity
price on every step; a dual is feasible when both are nonnegative, every
gamma plus its step's price is at least 1, and gamma does not increase
over time.  Its value then bounds any schedule's total work from above.
"""

from __future__ import annotations

import numpy as np


def switch_dual_bound(loads: np.ndarray, s: int, eps: float = 0.0) -> float:
    """Value of the switch dual at s: load weight 1 on steps 1..s, capacity
    price 1 afterwards, at per-step capacity 1 - eps.  Asserts that the
    dual is feasible first."""
    horizon, n = loads.shape
    assert 0 <= s <= horizon
    gamma = np.zeros((horizon, n))
    gamma[:s] = 1.0
    prices = np.zeros(horizon)
    prices[s:] = 1.0
    assert (gamma >= 0.0).all() and (prices >= 0.0).all()
    assert (gamma + prices[:, None] >= 1.0 - 1e-12).all()
    assert (np.diff(gamma, axis=0) <= 0.0).all()
    return float((loads * gamma).sum() + (1.0 - eps) * prices.sum())
