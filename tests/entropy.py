"""Relative entropy, the loss the truncated-simplex projection minimizes.

The tests compare the projection against other points by this value; the
package itself never evaluates it.
"""

from __future__ import annotations

import numpy as np


def kl_divergence(x: np.ndarray, y: np.ndarray) -> float:
    """Relative entropy sum_i x(i) log(x(i)/y(i)) with 0 log 0 = 0.

    Requires y > 0 wherever x > 0; x must be nonnegative.  No
    normalization is applied.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if np.any(x < 0.0):
        raise ValueError("x must be nonnegative")
    pos = x > 0.0
    if np.any(y[pos] <= 0.0):
        raise ValueError("y must be positive wherever x is")
    out = np.zeros_like(x)
    out[pos] = x[pos] * np.log(x[pos] / y[pos])
    return float(out.sum())
