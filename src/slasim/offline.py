"""Offline benchmarks: the optimal total work and two greedy schedulers
that attain it.

With hindsight over the whole load matrix, the most work any schedule with
per-step capacity c can complete is

    min over t in {0..T} of  (all load arriving in steps 1..t)  +  c * (T - t),

and any schedule that completes min(c, pending work) every step attains
it.  Both greedies below do exactly that and differ only in how they split
capacity among users, which is irrelevant for the total.

The minimum in `offline_optimal_value` is the best "switch" dual of the
matching LP (load weight 1 on steps 1..t, capacity price 1 after), so it
also bounds any schedule's work from above; the tests build those duals to
certify it.
"""

from __future__ import annotations

import numpy as np

from slasim.core import (
    DegenerateSlaError,
    SimulationTrace,
    SlaVector,
    _check_loads,
    _Recorder,
    _update,
)


def offline_optimal_value(loads: np.ndarray, eps: float = 0.0) -> float:
    """Best possible total work with per-step capacity 1 - eps."""
    loads = _check_loads(loads)
    if not (0.0 <= eps < 1.0):
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    horizon = loads.shape[0]
    prefix = np.concatenate([[0.0], np.cumsum(loads.sum(axis=1))])
    slack = (1.0 - eps) * (horizon - np.arange(horizon + 1, dtype=np.float64))
    return float((prefix + slack).min())


def _numpy_sum(values: list) -> float:
    """numpy's sum of `values`, bit for bit.  numpy adds fewer than 8
    values left to right and 8 or more pairwise; the builtin `sum` may
    compensate (it does from Python 3.12), so it is not used."""
    if len(values) >= 8:
        return float(np.sum(values))
    total = 0.0
    for v in values:
        total += v
    return total


def _offline_trace(loads: np.ndarray, name: str, serve, stride: int = 1) -> SimulationTrace:
    """Walk the load matrix allocating `serve(pending) -> alloc` each step;
    every alloc(i) is at most pending(i), so it is also the work done."""
    horizon, n = loads.shape
    rec = _Recorder(horizon, stride, (1, n), [loads])
    queue = np.zeros(n)
    cum = np.zeros(n)
    for t in range(1, horizon + 1):
        load = loads[t - 1]
        alloc = serve(queue + load)
        work, queue = _update(queue, alloc, load)
        cum = cum + work
        if t == rec.next:
            rec.keep(alloc, work, queue, load, cum)
    return rec.trace(0, name, cum, loads.sum(axis=0), queue)


def simple_greedy(loads: np.ndarray, capacity: float = 1.0, stride: int = 1) -> SimulationTrace:
    """Serve pending work user by user in index order, up to capacity.

    Completes min(capacity, total pending) work every step, hence attains
    the offline optimum for per-step capacity `capacity`.
    """
    loads = _check_loads(loads)
    if not (0.0 < capacity <= 1.0):
        raise ValueError(f"capacity must lie in (0, 1], got {capacity}")

    def serve(pending: np.ndarray) -> np.ndarray:
        before = np.cumsum(pending) - pending
        return np.clip(capacity - before, 0.0, pending)

    return _offline_trace(loads, "simple_greedy", serve, stride)


def proportional_greedy(
    loads: np.ndarray, sla: SlaVector, capacity: float = 1.0, stride: int = 1
) -> SimulationTrace:
    """Serve pending work while splitting capacity in proportion to SLAs.

    Each step, repeatedly: offer every backlogged user their SLA share of
    the remaining capacity; if the tightest user (smallest pending work
    relative to their share) cannot absorb the offer, serve them fully and
    recurse on the rest, otherwise hand everyone their proportional offer.
    Also completes min(capacity, total pending) per step when all shares
    are positive, so the total matches simple_greedy; the split is fairer.

    A user's pending/share ratio does not change while others are served
    fully, so one stable sort of the backlogged users by that ratio gives
    the tightest-first order of every round (zero shares sort last, in
    index order).  The walk runs on Python floats, which costs less than
    numpy's per-call dispatch at small N.  Each round's share total is
    `_numpy_sum` of the still-backlogged shares, the bits of numpy's
    `beta[busy].sum()`, so the schedule is bitwise that of a numpy walk.
    """
    loads = _check_loads(loads)
    if loads.shape[1] != sla.n:
        raise ValueError(f"loads have {loads.shape[1]} users but SLA has {sla.n}")
    if not (0.0 < capacity <= 1.0):
        raise ValueError(f"capacity must lie in (0, 1], got {capacity}")
    shares = sla.beta.tolist()
    all_positive = min(shares) > 0.0

    def serve(pending: np.ndarray) -> np.ndarray:
        rest = pending.tolist()
        if all_positive and _numpy_sum(rest) <= capacity:
            return pending.copy()  # everything fits
        ratio = [r / s if s > 0.0 else np.inf for r, s in zip(rest, shares)]
        busy = [i for i, r in enumerate(rest) if r > 0.0]
        work = [0.0] * len(rest)
        left = capacity
        for tight in sorted(busy, key=ratio.__getitem__):
            share_total = _numpy_sum([shares[i] for i in busy])
            if share_total <= 0.0:
                raise DegenerateSlaError(
                    "all backlogged users have zero SLA share; proportional split undefined"
                )
            if rest[tight] < (shares[tight] / share_total) * left:
                left -= rest[tight]
                work[tight] = rest[tight]
                busy.remove(tight)
            else:
                for i in busy:
                    work[i] = (shares[i] / share_total) * left
                break
        return np.array(work)

    return _offline_trace(loads, "pg", serve, stride)
