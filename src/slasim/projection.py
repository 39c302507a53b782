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

Only the sorted values are needed, not the permutation.  A suffix sum of
the sorted values gives the rescale factor of every candidate prefix size,
and the smallest that qualifies wins.  The numerators ``1 - k * eps / n``
depend on ``n`` and ``eps`` alone.  Every unclipped coordinate is then
``y(i)`` times that factor.  Coordinates strictly below the first unclipped
sorted value are clipped; when that value is tied with the last clipped
one, the tied coordinates of lowest index are clipped too, until the prefix
size is reached, which is the order a stable sort would give them.
At k = 0 the numerator is exactly 1.0, so the no-clip answer is ``y``
times ``1 / suffix[0]``; it is tried first.

From ``SMALL_N`` entries on, the search is numpy calls: one ``np.sort``, a
cumsum, every scale at once from ``_budget`` (cached per ``(n, eps)``, as
a policy projects with one pair every step), an ``argmax`` over the
qualifying mask, then the clip.  Below ``SMALL_N`` the dispatch of those
calls costs more than their arithmetic, so the same steps run on Python
floats: ``sorted``, a right-to-left running sum, the k = 0 test, the first
qualifying prefix and the stable-tie clip.  Both paths do the same IEEE
operations in the same order (numpy's cumsum adds in sequence at every
size), so they agree bit for bit.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

import numpy as np

# Inputs of fewer than SMALL_N entries project on Python floats.  Per call
# on a clipping input, numpy against floats, conversions included (2-vCPU
# host, Python 3.11, numpy 2.4): n=3 9.2 vs 3.3 us, n=7 9.4 vs 4.4, n=16
# 9.5 vs 6.5, n=32 9.8 vs 10.2, n=1000 21 vs 277.  Floats would still win
# a little past 8, but from 8 values numpy sums pairwise, so a caller's sum
# on floats (the MW active share) matches numpy's only below 8.
SMALL_N = 8


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
    if y.size < SMALL_N:
        return np.array(_project_floats(y.tolist(), eps))
    ys = np.sort(y)  # a NaN sorts last
    _check(ys[0] > 0.0 and ys[-1] < np.inf, eps)

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


def _check(positive: bool, eps: float) -> None:
    """The weight and eps checks of both paths, in this order."""
    if not positive:
        raise ValueError("weights must be finite and strictly positive")
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")


def _project_floats(y: list, eps: float) -> list:
    """The search above on a list of Python floats, step for step."""
    _check(all(map(math.isfinite, y)) and min(y) > 0.0, eps)
    n = len(y)
    floor = eps / n
    top = max(y)
    y = [v / top for v in y]
    ys = sorted(y)  # the numpy path's ys: dividing by top keeps the order
    suffix = list(accumulate(reversed(ys)))[::-1]
    k, scale = 0, 1.0 / suffix[0]
    while k < n - 1 and ys[k] * scale < floor:
        k += 1
        scale = (1.0 - floor * k) / suffix[k]
    low = ys[k]
    ties = k - ys.index(low)  # tied entries to clip, lowest index first
    x = []
    for v in y:
        if v < low or (v == low and ties > 0):
            ties -= v == low
            x.append(floor)
        else:
            x.append(v * scale)
    return x
