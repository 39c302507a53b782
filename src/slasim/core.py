"""Core model: queues, feedback, the per-step update, and the run loop.

Each of T discrete steps proceeds in a fixed order:

1. feedback: the policy observes which users have a nonempty queue
   (binary busy/idle signal, taken before this step's load arrives);
2. decision: the policy picks allocations h(i) with sum(h) <= 1 from that
   feedback and its own state only;
3. update: load L(i) arrives, user i completes w(i) = min(h(i), L(i) + Q(i))
   units of work, and queues become Q(i) <- max(0, L(i) + Q(i) - h(i)).

`run_batch` is the one engine.  It steps B independent (policy, source)
rows in lockstep, holding queues, allocations, loads and running totals as
(B, N) arrays.  At step t it computes the busy/idle pattern of every row
at once; then, row by row in order, row r's policy decides from its own
pattern and row r's source supplies its load (an adaptive source sees that
row's allocation and pattern); then one update, one running sum and one
recorder call serve all rows.  Every operation is elementwise per row, so
a row's trace is bit for bit that of the row run alone.  `run` is the
batch of one.

The update is written once, in `_update`.  The engine, the offline
greedies, the adversary's mirror of the queues and the windowed static
re-simulation in `metrics` all apply it, so their queues agree bit for
bit.  `_Recorder` keeps the trace rows for both the engine and the offline
greedies.

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
    share, derived once as epsilon**2 / (8 N), the value the guarantees
    are stated for.
    """

    n_users: int
    epsilon: float
    eta: float
    boost: float = field(init=False)

    def __post_init__(self) -> None:
        if self.n_users < 2:
            raise ValueError("multiplicative-weights policies need at least 2 users")
        if not (0.0 < self.epsilon <= 0.1):
            raise ValueError(f"epsilon must lie in (0, 1/10], got {self.epsilon}")
        if not (0.0 < self.eta <= 1.0 / 3.0):
            raise ValueError(f"eta must lie in (0, 1/3], got {self.eta}")
        object.__setattr__(self, "boost", self.epsilon**2 / (8.0 * self.n_users))


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
    and `next(t, ...)` returns `matrix[t - 1]`; the engine then takes the
    trace's `load` rows from that matrix after the loop instead of copying
    them at every kept step, and any number of batch rows may share the
    source.  Adaptive sources have no `matrix` and drive one row each.
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

    In row r of a batch, alloc, work, queue, cum_work and any recorded load
    are the column views [:, r] of the batch recorder's (m, B, N) arrays:
    each is m x N with a contiguous inner axis, and the rows of one batch
    share those buffers.
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

    @property
    def n_users(self) -> int:
        return int(self.work.shape[1])

    @property
    def is_full(self) -> bool:
        """True iff the kept steps are exactly 1..horizon."""
        return len(self.steps) == self.horizon

    def conservation_residual(self) -> float:
        """|total load - total work - final backlog|, relative to total load."""
        lhs = float(self.total_work.sum() + self.final_queue.sum())
        rhs = float(self.total_load.sum())
        return abs(lhs - rhs) / max(1.0, rhs)


class _Recorder:
    """Per-step rows of B traces, kept at every stride-th step and always at
    the final one; the caller calls keep() with (B, N) arrays (or N-vectors
    when B is 1) when t == next.  Load rows are copied only when some row
    has no load matrix to take them from."""

    def __init__(self, horizon: int, stride: int, shape: tuple[int, int], matrices: list):
        kept = np.arange(stride, horizon + 1, stride, dtype=np.int64)
        if len(kept) == 0 or kept[-1] != horizon:
            kept = np.append(kept, horizon)  # always retain the final step
        self.horizon = horizon
        self.stride = stride
        self.steps = kept
        self.next = int(kept[0])
        self._j = 0
        self._matrices = matrices
        m = len(kept)
        self.alloc = np.empty((m, *shape))
        self.work = np.empty((m, *shape))
        self.queue = np.empty((m, *shape))
        self.load = None if all(x is not None for x in matrices) else np.empty((m, *shape))
        self.cum_work = np.empty((m, *shape))

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

    def load_rows(self, r: int) -> np.ndarray:
        """Row r's kept load rows: recorded ones, or those of its load matrix."""
        matrix = self._matrices[r]
        if matrix is None:
            return self.load[:, r]
        if self.stride > 1:
            return matrix[self.steps - 1]
        view = matrix[: self.horizon]
        view.flags.writeable = False
        return view

    def trace(self, r: int, policy: str, total_work, total_load, final_queue) -> SimulationTrace:
        return SimulationTrace(
            policy=policy,
            steps=self.steps,
            alloc=self.alloc[:, r],
            work=self.work[:, r],
            queue=self.queue[:, r],
            load=self.load_rows(r),
            cum_work=self.cum_work[:, r],
            total_work=total_work,
            total_load=total_load,
            final_queue=final_queue,
            horizon=self.horizon,
        )


def _check_rows(rows: list, names: list[str]) -> int:
    """The users count all rows share; raises ValueError for an empty batch,
    rows that disagree on it, and an object that would carry state across
    rows: one policy, or one adaptive source (no `matrix`), in two rows."""
    if not rows:
        raise ValueError("run_batch needs at least one (policy, source) row")
    n = int(rows[0][1].n_users)
    owner: dict[int, int] = {}
    for r, (policy, source) in enumerate(rows):
        if int(source.n_users) != n:
            raise ValueError(
                f"rows 0 ({names[0]}) and {r} ({names[r]}) disagree on n_users: "
                f"{n} and {source.n_users}"
            )
        stateful = [(policy, "policy")]
        if getattr(source, "matrix", None) is None:
            stateful.append((source, "adaptive load source"))
        for obj, what in stateful:
            first = owner.setdefault(id(obj), r)
            if first != r:
                raise ValueError(
                    f"rows {first} ({names[first]}) and {r} ({names[r]}) share one "
                    f"{what}; each row needs its own"
                )
    return n


def run_batch(rows, horizon: int, *, stride: int = 1) -> list[SimulationTrace]:
    """Drive B (policy, source) rows in lockstep for `horizon` steps and
    return one trace per row, in row order.

    Rows are independent: each row's policy sees only its own busy/idle
    pattern, and its source only its own allocation and pattern, so a row's
    trace is bit for bit the trace of that row run alone.  Rows may share a
    matrix-backed source; an adaptive source drives one row only.  Raises
    ValueError for an empty batch, rows that disagree on n_users or share a
    policy or an adaptive source; LoadExhausted if a source cannot supply
    `horizon` steps; and InvariantViolation, after the loop, for a load
    total that is not finite (a NaN or infinite load), a negative load from
    a source without a load matrix, or an allocation that is negative, NaN
    or sums above 1.  Engine messages name the row and its policy, as in
    "row 2 (po)", and at stride 1 the step of a bad load or allocation.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    rows = list(rows)
    names = [getattr(policy, "name", type(policy).__name__) for policy, _ in rows]
    n = _check_rows(rows, names)
    for r, (policy, source) in enumerate(rows):
        if source.horizon is not None and source.horizon < horizon:
            raise LoadExhausted(
                f"row {r} ({names[r]}): load source provides {source.horizon} steps, "
                f"{horizon} requested"
            )
        source.reset()
        policy.reset(n)

    b = len(rows)
    rec = _Recorder(horizon, stride, (b, n), [getattr(s, "matrix", None) for _, s in rows])
    steppers = [(r, policy.decide, source.next) for r, (policy, source) in enumerate(rows)]
    queue = np.zeros((b, n))
    cum = np.zeros((b, n))
    total_load = np.zeros((b, n))
    alloc = np.empty((b, n))
    load = np.empty((b, n))
    # Running extremes at the steps the recorder skips; loads only if it keeps them.
    alloc_sum = np.empty(b)
    top_sum = np.full(b, -np.inf)
    low = np.full((b, n), np.inf)
    low_load = None if rec.load is None else np.full((b, n), np.inf)
    for t in range(1, horizon + 1):
        active = queue > EMPTY_TOLERANCE
        for r, decide, next_load in steppers:
            seen = active[r]
            alloc[r] = a = decide(seen)
            try:
                load[r] = next_load(t, a, seen)
            except LoadExhausted as exc:
                raise LoadExhausted(
                    f"row {r} ({names[r]}): load source exhausted at step {t}: {exc}"
                ) from exc
        work, queue = _update(queue, alloc, load)
        cum = cum + work
        total_load += load
        if t == rec.next:
            rec.keep(alloc, work, queue, load, cum)
        else:
            np.add.reduce(alloc, axis=1, out=alloc_sum)
            np.maximum(top_sum, alloc_sum, out=top_sum)
            np.minimum(low, alloc, out=low)
            if low_load is not None:
                np.minimum(low_load, load, out=low_load)

    # A NaN or infinite load reaches total_load.  The other tests are
    # negated so that NaN, which np.minimum and np.maximum carry into the
    # running extremes, fails them too.  Each is (what, kept rows, bad kept
    # steps, bad skipped steps, how), in the order a row reports them.
    # Loads are kept, and so tested, only if some row has no load matrix (a
    # matrix is checked when it is built).  A kept step is named only if no
    # skipped step failed, so it is the first.
    checks = []
    if rec.load is not None:
        kept_bad = ~(rec.load.min(axis=2) >= 0.0)
        checks.append(("a load", rec.load, kept_bad, ~(low_load.min(axis=1) >= 0.0), "is negative"))
    kept_bad = ~(rec.alloc.min(axis=2) >= 0.0) | ~(rec.alloc.sum(axis=2) <= 1.0 + 1e-12)
    between_bad = ~(low.min(axis=1) >= 0.0) | ~(top_sum <= 1.0 + 1e-12)
    how = "is negative, NaN or sums above 1"
    checks.append(("an allocation", rec.alloc, kept_bad, between_bad, how))
    for r in range(b):
        if not np.isfinite(total_load[r]).all():
            raise InvariantViolation(
                f"row {r} ({names[r]}): total load is not finite "
                f"(a NaN or infinite load): {total_load[r]}"
            )
        for what, kept, kept_bad, between_bad, how in checks:
            if between_bad[r] or kept_bad[:, r].any():
                at = "between the kept steps"
                if not between_bad[r]:
                    j = int(np.argmax(kept_bad[:, r]))
                    at = f"{kept[j, r]} at step {rec.steps[j]}"
                raise InvariantViolation(f"row {r} ({names[r]}): {what} {at} {how}")
    return [rec.trace(r, names[r], cum[r], total_load[r], queue[r]) for r in range(b)]


def run(policy, source, horizon: int, *, stride: int = 1) -> SimulationTrace:
    """Drive one policy against a load source for `horizon` steps: the
    batch of one of `run_batch`, with the same checks and errors.

    The policy sees only the busy/idle pattern each step; the source may
    adapt to the allocation it is shown.
    """
    return run_batch([(policy, source)], horizon, stride=stride)[0]
