"""Core model: queues, feedback, the per-step update, and the run loop.

Each of T discrete steps proceeds in a fixed order:

1. feedback: the policy observes which users have a nonempty queue
   (binary busy/idle signal, taken before this step's load arrives);
2. decision: the policy picks allocations h(i) with sum(h) <= 1 from that
   feedback and its own state only;
3. update: load L(i) arrives, user i completes w(i) = min(h(i), L(i) + Q(i))
   units of work, and queues become Q(i) <- max(0, L(i) + Q(i) - h(i)).

`run_batch` is the one engine.  It steps B independent (policy, source) rows
in lockstep, holding queues, allocations, loads and running totals as (B, N)
arrays; load matrices enter a block of steps at a time.  At step t it
computes every row's busy/idle pattern at once; then, row by row in order,
row r's policy decides from its pattern and an adaptive source gives row r's
load from that allocation and pattern; then one update and one running sum
serve all rows.  Every operation is elementwise per row, so a row's trace is
bit for bit that of the row run alone.  `run` is the batch of one.

The update is written once, in `_update`.  The engine, the adversary's
mirror of the queues and the windowed static re-simulation in `metrics`
apply it, and an offline greedy's row (`offline.OfflineRow`) mirrors its
queue with the same arithmetic, so their queues agree bit for bit.
`_Recorder` keeps the trace rows: each step writes its rows in place into
one slot of a block of steps, and after each block the recorder copies
the kept steps out.  The engine checks each block once, so a bad
allocation or load is named with its step at every stride and raised at
the end of its block, unless a row raised an error before then.

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
    """Contracted per-user shares beta(i), nonnegative with sum <= 1, held read-only."""

    beta: np.ndarray

    def __post_init__(self) -> None:
        beta = np.array(self.beta, dtype=np.float64)
        beta.flags.writeable = False
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


def _update(
    queue: np.ndarray, alloc: np.ndarray, load: np.ndarray, out=None
) -> tuple[np.ndarray, np.ndarray]:
    """One queue update, unchecked: returns (work done, queue after).

    work(i) = min(alloc(i), load(i) + queue(i)); the new queue is
    load(i) + queue(i) - work(i), which is exactly
    max(0, load(i) + queue(i) - alloc(i)).  As in numpy's own `out=`, a
    (work, queue) pair of arrays in `out` receives the results in place.
    """
    work, after = (None, None) if out is None else out
    avail = load + queue
    work = np.minimum(alloc, avail, out=work)
    return work, np.subtract(avail, work, out=after)


class Policy(Protocol):
    name: str

    def reset(self, n_users: int) -> None: ...

    def decide(self, active: np.ndarray) -> np.ndarray: ...


class LoadSource(Protocol):
    """A source of per-step loads, of one of two kinds.

    A fixed source has a T x N float64 `matrix`, row t - 1 holding step t's
    loads, and no `reset` or `next`: the engine reads it a block of steps at a
    time, takes the trace's `load` rows from it, and lets any number of batch
    rows share it.  An adaptive source has no `matrix` and drives one row: the
    engine calls `reset()`, then `next(t, alloc, active)` at each step t."""

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
    the final one.

    Step t's alloc, work, queue, load and cum_work (B, N) rows sit in slot
    (t - 1) % block of the block buffers, and the step reads the queue and
    cum_work of the slot before (the last slot starts at zero); `slots[k]`
    holds those seven views.  After each block and at the final step,
    store() copies the block's kept steps out; load rows only when some row
    has no load matrix to take them from.
    """

    def __init__(self, horizon: int, stride: int, shape: tuple[int, int], matrices: list):
        steps = np.arange(stride, horizon + 1, stride, dtype=np.int64)
        if len(steps) == 0 or steps[-1] != horizon:
            steps = np.append(steps, horizon)  # always retain the final step
        self.horizon = horizon
        self.stride = stride
        self.steps = steps
        self._matrices = matrices
        # alloc, work, queue, cum_work and, if some row has no load matrix, load.
        fields = 4 if all(x is not None for x in matrices) else 5
        self.kept = np.empty((fields, len(steps), *shape))
        self.alloc, self.work, self.queue, self.cum_work = self.kept[:4]
        self.load = self.kept[4] if fields == 5 else None
        # About 8192 values per field and block (wide rows stay in cache), at most horizon.
        k = self.block = max(2, min(256, horizon, 8192 // (shape[0] * shape[1])))
        self.blocks = np.zeros((5, k, *shape))
        a, w, q, c, ld = self.blocks
        self.slots = [(a[s], w[s], q[s], ld[s], c[s], q[s - 1], c[s - 1]) for s in range(k)]

    def store(self, t: int) -> tuple[int, np.ndarray]:
        """Copy the kept steps of the block that ends at step t out; returns
        the block's first step and its written slots of the five buffers."""
        first = t - (t - 1) % self.block
        j0, j1 = np.searchsorted(self.steps, (first, t + 1))
        if j1 > j0:
            self.kept[:, j0:j1] = self.blocks[: len(self.kept), self.steps[j0:j1] - first]
        return first, self.blocks[:, : t - first + 1]

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
    rows that disagree on it, a schedule replaying a `source` other than its
    row's, and an object that would carry state across rows: one policy,
    or one adaptive source (no `matrix`), in two rows."""
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
        if getattr(policy, "source", source) is not source:
            raise ValueError(f"row {r} ({names[r]}) replays another load source than its own")
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


def _check_block(first: int, blocks: np.ndarray, names: list[str]) -> None:
    """Raise InvariantViolation for a negative or NaN load or a bad
    allocation in the block of steps from `first`: row by row, loads before
    allocations, naming the first bad step.  The masks hold the good steps,
    so NaN, which fails every comparison, is bad."""
    alloc, load = blocks[0], blocks[4]
    good = (alloc.min(axis=2) >= 0.0) & (alloc.sum(axis=2) <= 1.0 + 1e-12)
    checks = [
        ("a load", load, load.min(axis=2) >= 0.0, "is negative or NaN"),
        ("an allocation", alloc, good, "is negative, NaN or sums above 1"),
    ]
    if all(ok.all() for _, _, ok, _ in checks):
        return
    for r, name in enumerate(names):
        for what, values, good, how in checks:
            if not good[:, r].all():
                j = int(np.argmin(good[:, r]))
                bad = f"{what} {np.array2string(values[j, r], threshold=16)} at step {first + j}"
                raise InvariantViolation(f"row {r} ({name}): {bad} {how}")


def run_batch(rows, horizon: int, *, stride: int = 1) -> list[SimulationTrace]:
    """Drive B (policy, source) rows in lockstep for `horizon` steps and
    return one trace per row, in row order.

    Rows are independent: each row's policy sees only its own busy/idle
    pattern, and its source only its own allocation and pattern, so a row's
    trace is bit for bit the trace of that row run alone.  Rows may share a
    matrix-backed source; an adaptive source drives one row only.  Raises
    ValueError for an empty batch, rows that disagree on n_users or share a
    policy or an adaptive source; LoadExhausted if a source cannot supply
    `horizon` steps; and InvariantViolation, at the end of the block of steps
    it falls in, for a negative or NaN load or an allocation that is negative,
    NaN or sums above 1, and after the loop for a load total that is not finite
    (an infinite load).  Engine messages name the row and its policy, as in
    "row 2 (po)", and at every stride the step of a bad load or allocation.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    rows = list(rows)
    names = [getattr(policy, "name", type(policy).__name__) for policy, _ in rows]
    n = _check_rows(rows, names)
    matrices = [getattr(source, "matrix", None) for _, source in rows]
    steppers = []
    for r, (policy, source) in enumerate(rows):
        if source.horizon is not None and source.horizon < horizon:
            raise LoadExhausted(
                f"row {r} ({names[r]}): load source provides {source.horizon} steps, "
                f"{horizon} requested"
            )
        if matrices[r] is None:
            source.reset()
        policy.reset(n)
        steppers.append((r, policy.decide, source.next if matrices[r] is None else None))

    b = len(rows)
    rec = _Recorder(horizon, stride, (b, n), matrices)
    fixed = [(r, matrix) for r, matrix in enumerate(matrices) if matrix is not None]
    total_load = np.zeros((b, n))
    for t in range(1, horizon + 1):
        slot = (t - 1) % rec.block
        if slot == 0:  # the block's steps of each load matrix, into its rows' load slots
            k = min(rec.block, horizon - t + 1)
            for r, matrix in fixed:
                rec.blocks[4, :k, r] = matrix[t - 1 : t - 1 + k]
        alloc, work, queue, load, cum, queue_before, cum_before = rec.slots[slot]
        active = queue_before > EMPTY_TOLERANCE
        for r, decide, next_load in steppers:
            seen = active[r]
            alloc[r] = a = decide(seen)
            if next_load is not None:
                try:
                    load[r] = next_load(t, a, seen)
                except LoadExhausted as exc:
                    msg = f"row {r} ({names[r]}): load source exhausted at step {t}: {exc}"
                    raise LoadExhausted(msg) from exc
        _update(queue_before, alloc, load, out=(work, queue))
        np.add(cum_before, work, out=cum)
        total_load += load
        if t % rec.block == 0 or t == horizon:
            _check_block(*rec.store(t), names)

    # An infinite load passes the block check's sign test and reaches total_load.
    for r in range(b):
        if not np.isfinite(total_load[r]).all():
            raise InvariantViolation(
                f"row {r} ({names[r]}): total load is not finite "
                f"(a NaN or infinite load): {total_load[r]}"
            )
    return [rec.trace(r, names[r], cum[r], total_load[r], queue[r]) for r in range(b)]


def run(policy, source, horizon: int, *, stride: int = 1) -> SimulationTrace:
    """Drive one policy against a load source for `horizon` steps: the
    batch of one of `run_batch`, with the same checks and errors.

    The policy sees only the busy/idle pattern each step; the source may
    adapt to the allocation it is shown.
    """
    return run_batch([(policy, source)], horizon, stride=stride)[0]
