"""Offline benchmarks: the optimal total work, two greedy schedulers that
attain it, and dual certificates for upper-bounding any policy.

With hindsight over the whole load matrix, the most work any schedule with
per-step capacity c can complete is

    min over t in {0..T} of  (all load arriving in steps 1..t)  +  c * (T - t),

and any schedule that completes min(c, pending work) every step attains
it.  Both greedies below do exactly that and differ only in how they split
capacity among users, which is irrelevant for the total.

The matching LP dual assigns each (step, user) pair a weight gamma and
each step a capacity price; "switch" duals price the first s steps into
load weights and the rest into capacity, and the best switch point yields
the same optimal value, certifying it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from slasim.core import (
    DegenerateSlaError,
    SimulationTrace,
    SlaVector,
    _check_loads,
    _Recorder,
    _update,
)


class InfeasibleDualError(ValueError):
    """A dual candidate violates one of the LP constraints."""


def offline_optimal_value(loads: np.ndarray, eps: float = 0.0) -> float:
    """Best possible total work with per-step capacity 1 - eps."""
    loads = _check_loads(loads)
    if not (0.0 <= eps < 1.0):
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    horizon = loads.shape[0]
    prefix = np.concatenate([[0.0], np.cumsum(loads.sum(axis=1))])
    slack = (1.0 - eps) * (horizon - np.arange(horizon + 1, dtype=np.float64))
    return float((prefix + slack).min())


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
    index order).  Each round's share total is numpy's sum over the
    still-backlogged shares: numpy sums 8 or more values pairwise, so a
    running Python total would differ from it in the last bits.
    """
    loads = _check_loads(loads)
    if loads.shape[1] != sla.n:
        raise ValueError(f"loads have {loads.shape[1]} users but SLA has {sla.n}")
    if not (0.0 < capacity <= 1.0):
        raise ValueError(f"capacity must lie in (0, 1], got {capacity}")
    beta = sla.beta
    shares = beta.tolist()
    positive = beta > 0.0
    all_positive = bool(positive.all())
    ratio = np.full(sla.n, np.inf)  # zero shares stay inf: divide skips them

    def serve(pending: np.ndarray) -> np.ndarray:
        if all_positive and pending.sum() <= capacity:
            return pending.copy()  # everything fits
        busy = pending > 0.0
        backlogged = busy.nonzero()[0]
        np.divide(pending, beta, out=ratio, where=positive)
        rest = pending.tolist()
        work = np.zeros(pending.size)
        left = capacity
        for tight in backlogged[ratio[backlogged].argsort(kind="stable")].tolist():
            share_total = float(beta[busy].sum())
            if share_total <= 0.0:
                raise DegenerateSlaError(
                    "all backlogged users have zero SLA share; proportional split undefined"
                )
            if rest[tight] < (shares[tight] / share_total) * left:
                left -= rest[tight]
                work[tight] = rest[tight]
                busy[tight] = False
                if left <= 0.0:
                    break
            else:
                np.copyto(work, (beta / share_total) * left, where=busy)
                break
        return work

    return _offline_trace(loads, "pg", serve, stride)


@dataclass(frozen=True)
class DualSolution:
    """Dual candidate: per-(step, user) load weights gamma (T x N, in [0, 1],
    non-increasing over time) and per-step capacity prices (T,)."""

    gamma: np.ndarray
    prices: np.ndarray

    def __post_init__(self) -> None:
        gamma = np.asarray(self.gamma, dtype=np.float64)
        prices = np.asarray(self.prices, dtype=np.float64)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "prices", prices)
        if gamma.ndim != 2 or prices.ndim != 1 or gamma.shape[0] != prices.shape[0]:
            raise ValueError(
                f"gamma must be T x N and prices length T, got {gamma.shape} and {prices.shape}"
            )


def switch_dual(s: int, horizon: int, n_users: int) -> DualSolution:
    """The switch dual: full load weight for steps 1..s, full capacity
    price afterwards.  Feasible for every 0 <= s <= horizon."""
    if not (0 <= s <= horizon):
        raise ValueError(f"switch point must lie in [0, {horizon}], got {s}")
    gamma = np.zeros((horizon, n_users))
    gamma[:s] = 1.0
    prices = np.zeros(horizon)
    prices[s:] = 1.0
    return DualSolution(gamma, prices)


def dual_value(dual: DualSolution, loads: np.ndarray, eps: float = 0.0) -> float:
    """Objective of a feasible dual: an upper bound on any schedule's total
    work at per-step capacity 1 - eps.  Raises InfeasibleDualError naming
    the first violated constraint otherwise."""
    loads = _check_loads(loads)
    gamma, prices = dual.gamma, dual.prices
    if gamma.shape != loads.shape:
        raise ValueError(f"dual sized {gamma.shape}, loads {loads.shape}")
    if not (0.0 <= eps < 1.0):
        raise ValueError(f"eps must lie in [0, 1), got {eps}")

    neg = np.argwhere(gamma < 0.0)
    if neg.size:
        t, i = neg[0]
        raise InfeasibleDualError(f"gamma[t={t + 1}, user={i + 1}] is negative")
    if np.any(prices < 0.0):
        t = int(np.argmax(prices < 0.0))
        raise InfeasibleDualError(f"price[t={t + 1}] is negative")
    cover = np.argwhere(gamma + prices[:, None] < 1.0 - 1e-12)
    if cover.size:
        t, i = cover[0]
        raise InfeasibleDualError(
            f"gamma[t={t + 1}, user={i + 1}] + price[t={t + 1}] falls below 1"
        )
    rising = np.argwhere(gamma[1:] > gamma[:-1] + 1e-12)
    if rising.size:
        t, i = rising[0]
        raise InfeasibleDualError(
            f"gamma increases over time for user {i + 1} between steps {t + 1} and {t + 2}"
        )
    return float((loads * gamma).sum() + (1.0 - eps) * prices.sum())
