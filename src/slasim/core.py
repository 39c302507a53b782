"""Core model: queues, feedback, the per-step update, and the run loop.

Each of T discrete steps proceeds in a fixed order:

1. feedback: the policy observes which users have a nonempty queue
   (binary busy/idle signal, taken before this step's load arrives);
2. decision: the policy picks allocations h(i) with sum(h) <= 1 from that
   feedback and its own state only;
3. update: load L(i) arrives, user i completes w(i) = min(h(i), L(i) + Q(i))
   units of work, and queues become Q(i) <- max(0, L(i) + Q(i) - h(i)).

That update is written once, in `_update`.  The simulator below, the
offline greedies, the adversary's mirror of the queues and the windowed
static re-simulation in `metrics` all apply it, so their queues agree bit
for bit.  `_Recorder` keeps the trace rows for both the simulator and the
offline greedies.

`EMPTY_TOLERANCE` is the one busy/idle threshold: a queue counts as busy
when it exceeds it.  It is a roundoff guard on the paper's "queue is
nonempty" test, not a model parameter.

Policies never see loads or queue magnitudes, only the busy/idle pattern.
Adaptive load sources (used by the lower-bound adversary) may read the
current step's allocation and the busy/idle pattern, nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol

import numpy as np

EMPTY_TOLERANCE = 1e-12


class InvariantViolation(RuntimeError):
    """A runtime model invariant failed during simulation."""


class LemmaViolation(InvariantViolation):
    """A monitored multiplicative-boost guarantee failed at some step."""


class LoadExhausted(RuntimeError):
    """A load source ran out of steps before the requested horizon."""


class DegenerateSlaError(ValueError):
    """All users competing for the resource have a zero SLA share."""


@dataclass(frozen=True)
class SlaVector:
    """Contracted per-user shares beta(i), nonnegative with sum <= 1."""

    beta: np.ndarray

    def __post_init__(self) -> None:
        beta = np.asarray(self.beta, dtype=np.float64)
        object.__setattr__(self, "beta", beta)
        if beta.ndim != 1 or beta.size == 0:
            raise ValueError(f"SLA vector must be 1-d and nonempty, got shape {beta.shape}")
        if not np.all(np.isfinite(beta)) or np.any(beta < 0.0):
            raise ValueError("SLA shares must be finite and nonnegative")
        if beta.sum() > 1.0 + 1e-12:
            raise ValueError(f"SLA shares must sum to at most 1, got {beta.sum()}")

    @property
    def n(self) -> int:
        return int(self.beta.size)

    def theory_applicable(self, epsilon: float) -> bool:
        """True iff every share clears the 2*epsilon/N floor the
        multiplicative-boost guarantees require."""
        return bool(np.all(self.beta >= 2.0 * epsilon / self.n - 1e-15))


@dataclass(frozen=True)
class PolicyParams:
    """Parameters of the multiplicative-weights policies.

    boost is the extra gain handed to active users below their target
    share; when not given it is derived canonically as epsilon**2 / (8 N).
    Explicit overrides are accepted but flagged non-canonical.
    """

    n_users: int
    epsilon: float
    eta: float
    boost: Optional[float] = None
    canonical_boost: bool = field(init=False, default=True)

    def __post_init__(self) -> None:
        if self.n_users < 2:
            raise ValueError("multiplicative-weights policies need at least 2 users")
        if not (0.0 < self.epsilon <= 0.1):
            raise ValueError(f"epsilon must lie in (0, 1/10], got {self.epsilon}")
        if not (0.0 < self.eta <= 1.0 / 3.0):
            raise ValueError(f"eta must lie in (0, 1/3], got {self.eta}")
        derived = self.epsilon**2 / (8.0 * self.n_users)
        if self.boost is None:
            object.__setattr__(self, "boost", derived)
        else:
            # Also rejects inf and NaN, for which boost * 0 is NaN in the gain.
            if not 0.0 < self.boost < np.inf:
                raise ValueError(f"boost must be positive and finite, got {self.boost}")
            object.__setattr__(self, "canonical_boost", bool(self.boost == derived))


def _check_loads(loads: np.ndarray) -> np.ndarray:
    """The loads as a float64 T x N matrix; raises ValueError unless every
    entry is finite and nonnegative."""
    loads = np.asarray(loads, dtype=np.float64)
    if loads.ndim != 2 or loads.shape[0] < 1 or loads.shape[1] < 1:
        raise ValueError(f"loads must be a T x N matrix, got shape {loads.shape}")
    if not np.all(np.isfinite(loads)) or np.any(loads < 0.0):
        raise ValueError("loads must be finite and nonnegative")
    return loads


def _update(queue: np.ndarray, alloc: np.ndarray, load: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One queue update, unchecked: returns (work done, queue after).

    work(i) = min(alloc(i), load(i) + queue(i)); the new queue is
    load(i) + queue(i) - work(i), which is exactly
    max(0, load(i) + queue(i) - alloc(i)).
    """
    avail = load + queue
    work = np.minimum(alloc, avail)
    return work, avail - work


class Policy(Protocol):
    name: str

    def reset(self, n_users: int) -> None: ...

    def decide(self, active: np.ndarray) -> np.ndarray: ...


class LoadSource(Protocol):
    """A source of per-step loads.

    A source backed by a fixed T x N float64 matrix exposes it as `matrix`,
    and `next(t, ...)` returns `matrix[t - 1]`; `run` then takes the
    trace's `load` rows from that matrix after the loop instead of copying
    them at every kept step.  Adaptive sources have no `matrix`.
    """

    n_users: int
    horizon: Optional[int]

    def reset(self) -> None: ...

    def next(self, t: int, alloc: np.ndarray, active: np.ndarray) -> np.ndarray: ...


@dataclass
class SimulationTrace:
    """Trace of one run.

    Per-step rows are kept for steps[j] (all steps when stride == 1; with a
    thinning stride only every stride-th step is retained).  Aggregates
    total_work, total_load and final_queue are always exact regardless of
    thinning, as is cum_work, the running per-user work total at each
    retained step.  For a source backed by a load matrix, load is taken
    from that matrix: a read-only view of its first horizon rows at stride
    1, a copy of the retained rows otherwise.
    """

    policy: str
    steps: np.ndarray
    alloc: np.ndarray
    work: np.ndarray
    queue: np.ndarray
    load: np.ndarray
    cum_work: np.ndarray
    total_work: np.ndarray
    total_load: np.ndarray
    final_queue: np.ndarray
    horizon: int
    stride: int = 1

    @property
    def n_users(self) -> int:
        return int(self.work.shape[1])

    @property
    def is_full(self) -> bool:
        return self.stride == 1 and len(self.steps) == self.horizon

    def conservation_residual(self) -> float:
        """|total load - total work - final backlog|, relative to total load."""
        lhs = float(self.total_work.sum() + self.final_queue.sum())
        rhs = float(self.total_load.sum())
        return abs(lhs - rhs) / max(1.0, rhs)


class _Recorder:
    """Per-step rows of a SimulationTrace, kept at every stride-th step and
    always at the final one; the caller calls keep() when t == next.  Load
    rows are copied only when there is no load matrix to take them from."""

    def __init__(self, horizon: int, stride: int, n: int, matrix: Optional[np.ndarray]):
        kept = np.arange(stride, horizon + 1, stride, dtype=np.int64)
        if len(kept) == 0 or kept[-1] != horizon:
            kept = np.append(kept, horizon)  # always retain the final step
        self.horizon = horizon
        self.stride = stride
        self.steps = kept
        self.next = int(kept[0])
        self._j = 0
        self._matrix = matrix
        m = len(kept)
        self.alloc = np.empty((m, n))
        self.work = np.empty((m, n))
        self.queue = np.empty((m, n))
        self.load = np.empty((m, n)) if matrix is None else None
        self.cum_work = np.empty((m, n))

    def keep(self, alloc, work, queue, load, cum_work) -> None:
        j = self._j
        self.alloc[j] = alloc
        self.work[j] = work
        self.queue[j] = queue
        if self.load is not None:
            self.load[j] = load
        self.cum_work[j] = cum_work
        self._j = j + 1
        if self._j < len(self.steps):
            self.next = int(self.steps[self._j])

    def load_rows(self) -> np.ndarray:
        """The kept load rows: recorded ones, or those of the load matrix."""
        if self._matrix is None:
            return self.load
        if self.stride > 1:
            return self._matrix[self.steps - 1]
        view = self._matrix[: self.horizon]
        view.flags.writeable = False
        return view

    def trace(self, policy: str, total_work, total_load, final_queue) -> SimulationTrace:
        return SimulationTrace(
            policy=policy,
            steps=self.steps,
            alloc=self.alloc,
            work=self.work,
            queue=self.queue,
            load=self.load_rows(),
            cum_work=self.cum_work,
            total_work=total_work,
            total_load=total_load,
            final_queue=final_queue,
            horizon=self.horizon,
            stride=self.stride,
        )


def run(policy, source, horizon: int, *, stride: int = 1) -> SimulationTrace:
    """Drive a policy against a load source for `horizon` steps.

    The policy sees only the busy/idle pattern each step; the source may
    adapt to the allocation it is shown.  Raises LoadExhausted if the
    source cannot supply `horizon` steps, and InvariantViolation if a load
    or an allocation was not finite (NaN or infinite loads, NaN allocations).
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    n = int(source.n_users)
    if source.horizon is not None and source.horizon < horizon:
        raise LoadExhausted(
            f"load source provides {source.horizon} steps, {horizon} requested"
        )
    source.reset()
    policy.reset(n)

    rec = _Recorder(horizon, stride, n, getattr(source, "matrix", None))
    queue = np.zeros(n)
    cum = np.zeros(n)
    total_load = np.zeros(n)
    for t in range(1, horizon + 1):
        active = queue > EMPTY_TOLERANCE
        alloc = policy.decide(active)
        try:
            load = source.next(t, alloc, active)
        except LoadExhausted as exc:
            raise LoadExhausted(f"load source exhausted at step {t}: {exc}") from exc
        work, queue = _update(queue, alloc, load)
        cum = cum + work
        total_load += load
        if t == rec.next:
            rec.keep(alloc, work, queue, load, cum)

    # A NaN or infinite load reaches total_load, and a NaN allocation
    # reaches the work total through np.minimum, so two checks per run
    # catch both.  An over-capacity allocation is not caught here.
    if not np.isfinite(total_load).all():
        raise InvariantViolation(f"total load is not finite (a NaN or infinite load): {total_load}")
    if not np.isfinite(cum).all():
        raise InvariantViolation(f"total work is not finite (a NaN allocation): {cum}")
    return rec.trace(getattr(policy, "name", type(policy).__name__), cum, total_load, queue)
