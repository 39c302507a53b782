"""KL projection onto the truncated simplex.

The truncated simplex with floor ``eps`` over ``n`` coordinates is the set
of nonnegative vectors that sum to one and keep every coordinate at or
above ``eps / n``.  Projecting a positive weight vector ``y`` means finding
the point ``x`` of that set minimizing the relative entropy
``sum_i x(i) * log(x(i) / y(i))``.

The minimizer has a simple structure: sort the coordinates of ``y``
ascending, clip some prefix of them to the floor ``eps / n``, and rescale
the rest by a common factor so the total is one.  The smallest prefix that
leaves all unclipped coordinates at or above the floor is the optimal one.

Only the sorted values are needed, not the permutation, so the cost is one
``np.sort`` plus O(n) work.  A suffix cumsum of the sorted values gives the
rescale factor of every candidate prefix size at once, and an ``argmax``
over the mask of qualifying candidates picks the smallest.  The
numerators ``1 - k * eps / n`` depend on ``n`` and ``eps`` alone, and a
policy projects with one pair every step, so ``_budget`` builds them once
per pair (an LRU cache of 16).  Every
unclipped coordinate is then ``y(i)`` times that factor.  Coordinates
strictly below the first unclipped sorted value are clipped; when that
value is tied with the last clipped one, the tied coordinates of lowest
index are clipped too, until the prefix size is reached, which is the
order a stable sort would give them.

At large n most steps clip nothing, so k = 0 is tried first.  That exit is
bitwise: ``_budget(n, eps)[0]`` is exactly 1.0, so ``1.0 / suffix[0]`` is
the search's own k = 0 factor and ``y`` times it the search's own answer.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=16)
def _budget(n: int, eps: float) -> np.ndarray:
    """Read-only 1 - (eps / n) * k for k = 0..n-2: the mass left when k clip."""
    ramp = 1.0 - (eps / n) * np.arange(n - 1)
    ramp.flags.writeable = False
    return ramp


def project_truncated_simplex(y: np.ndarray, eps: float) -> np.ndarray:
    """Project a positive vector onto the truncated simplex under KL loss.

    Args:
        y: strictly positive weights, shape (n,) with n >= 2.  Any positive
           scale is accepted; the result depends only on the direction.
        eps: truncation parameter in (0, 1); every output coordinate is at
           least eps / n.

    Returns:
        Vector x with x.sum() == 1 (to roundoff) and x >= eps / n, the
        KL-closest such point to y.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size < 2:
        raise ValueError(f"expected a 1-d vector with at least 2 entries, got shape {y.shape}")
    ys = np.sort(y)  # a NaN sorts last
    if not (ys[0] > 0.0 and ys[-1] < np.inf):
        raise ValueError("weights must be finite and strictly positive")
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")

    n = y.size
    floor = eps / n
    # Scale invariance: work with y / max(y) so huge or tiny inputs behave.
    # Dividing by a positive scalar keeps the order, so ys stays y sorted.
    top = ys[-1]
    y = y / top
    ys = ys / top
    # suffix[k] = sum of ys[k:]
    suffix = ys[::-1].cumsum()[::-1]
    scale = 1.0 / suffix.item(0)  # Python floats: the same IEEE bits, fewer calls
    if ys.item(0) * scale >= floor:
        return y * scale

    # Clipped coordinates form a prefix of the ascending order.  Take the
    # first prefix size whose rescale keeps the smallest unclipped entry at
    # the floor or above; size n-1 always qualifies, and size 0 failed above.
    scales = _budget(n, eps) / suffix[:-1]
    ok = ys[:-1] * scales >= floor
    k = int(ok.argmax())
    if ok[k]:
        scale = scales[k]
    else:
        k = n - 1
        scale = (1.0 - floor * k) / suffix[k]

    x = y * scale
    low = ys[k]
    clip = y < low
    if ys[k - 1] == low:
        # Clip the lowest-index entries tied with ys[k] until k are clipped.
        tied = np.flatnonzero(y == low)
        clip[tied[: k - np.count_nonzero(clip)]] = True
    x[clip] = floor
    return x

