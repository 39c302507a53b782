"""Load sources: fixed matrices, synthetic generators, CSV traces, and an
adaptive adversary that defeats every feedback-driven policy.

A fixed source holds a read-only load matrix, which the engine reads a
block of steps at a time; the generators and the CSV reader freeze the
arrays they build, so none is copied.  The adversary is the one adaptive
source: it answers `next(t, alloc, active)` with step t's loads, from the
current allocation and the busy/idle pattern, nothing else.
"""

from __future__ import annotations

import math

import numpy as np

from slasim.core import (
    EMPTY_TOLERANCE,
    InvariantViolation,
    SlaVector,
    _check_loads,
    _update,
)

GAMMA_SHAPE = 2000.0
BURST_PROBABILITY = 0.5  # per user and step, in bernoulli_gamma_fuzz


class TraceFormatError(ValueError):
    """A trace CSV failed validation; the message carries the line number."""


class PrecomputedLoads:
    """Load source backed by a checked, read-only T x N matrix: a read-only
    float64 array that owns its data is kept as it is, anything else copied."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.flags.writeable or not matrix.flags.owndata:
            matrix = matrix.copy()
            matrix.flags.writeable = False
        self.matrix = _check_loads(matrix)
        self.n_users = int(matrix.shape[1])

    def __setstate__(self, state: dict) -> None:  # unpickled, as in a spawned worker
        self.__dict__.update(state)
        self.matrix.flags.writeable = False


def _frozen(loads: np.ndarray) -> PrecomputedLoads:
    """The source of a matrix built here, frozen so that it is not copied."""
    loads.flags.writeable = False
    return PrecomputedLoads(loads)


def example1_sla() -> SlaVector:
    return SlaVector(np.array([0.5, 0.2, 0.3]))


def example1_loads(horizon: int) -> np.ndarray:
    """Three users: user 1 demands the full resource during the first and
    last thirds of the run, users 2 and 3 each demand the complement."""
    if horizon < 3 or horizon % 3 != 0:
        raise ValueError(f"horizon must be a positive multiple of 3, got {horizon}")
    third = horizon // 3
    loads = np.zeros((horizon, 3))
    loads[:third, 0] = 1.0
    loads[2 * third :, 0] = 1.0
    loads[:, 1] = 1.0 - loads[:, 0]
    loads[:, 2] = 1.0 - loads[:, 0]
    return loads


def example1_instance(horizon: int) -> PrecomputedLoads:
    return _frozen(example1_loads(horizon))


# Six equal periods; each names a pair of users.  "bulk" drops one big job
# for the first user at the period's opening step and gives the second a
# steady stream for the rest; "uniform" gives both users steady streams of
# mean 1/2.  Pairs rotate so that every user sits out two periods.
DEFAULT_SCHEDULE = (
    ("bulk", 1, 2),
    ("bulk", 0, 1),
    ("bulk", 0, 2),
    ("uniform", 1, 2),
    ("uniform", 0, 1),
    ("uniform", 0, 2),
)


def synthetic_gamma(
    sla: SlaVector,
    horizon: int,
    seed: int,
    schedule=DEFAULT_SCHEDULE,
) -> PrecomputedLoads:
    """Periodic two-users-at-a-time workload with Gamma demands.

    In a bulk period for pair (a, b), user a receives a single job at the
    period's first step sized like the whole period's worth of their
    SLA-proportional demand, and user b receives per-step demand with mean
    beta(b) / (beta(a) + beta(b)); total expected demand is 1 per step.
    Uniform periods stream mean-1/2 demand to both users in the pair.
    Every draw has shape GAMMA_SHAPE, so a demand of mean m has variance
    m**2 / GAMMA_SHAPE.
    """
    n = sla.n
    periods = len(schedule)
    if horizon < periods or horizon % periods != 0:
        raise ValueError(
            f"horizon must be a positive multiple of {periods}, got {horizon}"
        )
    plen = horizon // periods
    beta = sla.beta
    shape = GAMMA_SHAPE
    rng = np.random.default_rng(seed)
    loads = np.zeros((horizon, n))
    for p, (kind, a, b) in enumerate(schedule):
        if not (0 <= a < n and 0 <= b < n and a != b):
            raise ValueError(f"schedule period {p + 1} names invalid user pair ({a}, {b})")
        t0 = p * plen
        if kind == "bulk":
            pair_share = beta[a] + beta[b]
            if pair_share <= 0.0:
                raise ValueError(
                    f"schedule period {p + 1} pairs two users with zero total SLA"
                )
            mean_a = beta[a] / pair_share
            mean_b = beta[b] / pair_share
            loads[t0, a] = plen * rng.gamma(shape, mean_a / shape)
            loads[t0 + 1 : t0 + plen, b] = rng.gamma(shape, mean_b / shape, size=plen - 1)
        elif kind == "uniform":
            loads[t0 : t0 + plen, a] = rng.gamma(shape, 0.5 / shape, size=plen)
            loads[t0 : t0 + plen, b] = rng.gamma(shape, 0.5 / shape, size=plen)
        else:
            raise ValueError(f"unknown period kind '{kind}' in schedule period {p + 1}")
    return _frozen(loads)


def bernoulli_gamma_fuzz(n_users: int, horizon: int, seed: int) -> PrecomputedLoads:
    """Each user independently demands Gamma(2, mean/2) with probability
    BURST_PROBABILITY per step, else nothing; mean = 1 / (N p) makes total
    expected demand 1 per step."""
    if n_users < 1 or horizon < 1:
        raise ValueError("need at least one user and one step")
    p = BURST_PROBABILITY
    mean = 1.0 / (n_users * p)
    rng = np.random.default_rng(seed)
    bursts = rng.random((horizon, n_users)) < p
    sizes = rng.gamma(2.0, mean / 2.0, size=(horizon, n_users))
    return _frozen(np.where(bursts, sizes, 0.0))


_CSV_BLOCK_ROWS = 4096


def write_csv(path, steps, values) -> None:
    """Write values by step as CSV: header t,value for a series or
    t,user1,...,userN for N columns, each value the repr of a Python float,
    which reads back exactly.  Rows are formatted a block at a time, so
    memory stays flat on long series."""
    steps = np.asarray(steps)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        header, values = "t,value", values[:, None]
    else:
        header = "t," + ",".join(f"user{i + 1}" for i in range(values.shape[1]))
    row = ("{}" + ",{!r}" * values.shape[1] + "\n").format
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(values), _CSV_BLOCK_ROWS):
            block = slice(lo, lo + _CSV_BLOCK_ROWS)
            fh.write("".join(map(row, steps[block].tolist(), *values[block].T.tolist())))


def write_trace_csv(path, matrix: np.ndarray) -> None:
    """Write a T x N load matrix as a trace CSV of steps 1..T."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"expected a T x N matrix, got shape {matrix.shape}")
    write_csv(path, np.arange(1, matrix.shape[0] + 1), matrix)


def load_trace_csv(path) -> PrecomputedLoads:
    """Parse a load trace CSV (header t,user1,...,userN; steps contiguous
    from 1).  Raises TraceFormatError naming the offending line."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise TraceFormatError("line 1: empty file, expected header t,user1,...")
        cols = [c.strip() for c in header.rstrip("\n").split(",")]
        if len(cols) < 2 or cols[0] != "t":
            raise TraceFormatError(
                f"line 1: header must be t,user1,...,userN, got {header.strip()!r}"
            )
        n = len(cols) - 1
        expected = [f"user{i + 1}" for i in range(n)]
        if cols[1:] != expected:
            raise TraceFormatError(
                f"line 1: user columns must be {','.join(expected)}, got {','.join(cols[1:])}"
            )
        rows = []
        lineno = 1
        for raw in fh:
            lineno += 1
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != n + 1:
                raise TraceFormatError(
                    f"line {lineno}: expected {n + 1} fields, got {len(parts)}"
                )
            try:
                t = int(parts[0])
                values = [float(v) for v in parts[1:]]
            except ValueError as exc:
                raise TraceFormatError(f"line {lineno}: {exc}") from exc
            if t != len(rows) + 1:
                raise TraceFormatError(
                    f"line {lineno}: step index {t} out of order, expected {len(rows) + 1}"
                )
            for i, v in enumerate(values):
                if not math.isfinite(v) or v < 0.0:
                    raise TraceFormatError(
                        f"line {lineno}: load for user{i + 1} must be finite and "
                        f"nonnegative, got {parts[i + 1]}"
                    )
            rows.append(values)
        if not rows:
            raise TraceFormatError("line 1: trace contains a header but no steps")
    return _frozen(np.array(rows))


class QueueAdversary:
    """Adaptive two-user load source forcing backlog against deterministic
    feedback-driven policies.

    Every step's loads sum to one, so an omniscient schedule finishes
    everything (offline optimum = horizon).  The adversary keeps all
    backlog on one side and plays phases: open by planting a sliver of
    queue on the empty side, echo the policy's own allocations (queues
    freeze, feedback stays busy/busy) while watching for the empty side's
    allocation to reach 1/2 -- if it does, one opposing load makes that
    allocation go to waste and the phase ends; if the watch window of
    2q+1 steps expires first, drain the loaded side with unit loads on
    the other side, stop just before it empties, top it up to a small
    sliver, and finish with a step that wastes the drained side's
    allocation.  Either ending grows total backlog by at least 1/4 and
    leaves exactly one queue empty, so backlog after m phases is at least
    m/4 and, phase lengths being linear in the backlog, at least
    sqrt(T/40) by step T.

    The drain ending's growth needs the policy to keep at least ~3/8 of
    the resource on the loaded side through the drain, which holds for
    every policy in this package (their allocations are constant or drift
    negligibly while feedback is frozen at busy/busy); the growth floor is
    asserted each phase rather than assumed, so a policy outside that
    envelope fails loudly.

    The adversary never reads queue magnitudes from the simulator: it
    reconstructs them from its own emitted loads and the allocations it is
    shown, through the simulator's own queue update (so the mirror equals
    the real queues bit for bit), and cross-checks the reconstruction
    against the busy/idle pattern every step.  It branches on Python floats,
    which round as numpy does but skip numpy's per-call cost on 2-vectors.
    """

    INIT, OPEN, ECHO, DRAIN, CLOSE = range(5)

    def __init__(self):
        self.n_users = 2
        self.reset()

    def reset(self) -> None:
        self.queue = np.zeros(2)
        self.mode = self.INIT
        self.side = 0  # the loaded side: all backlog lives here between phases
        self.phase_index = 0
        self.phase_backlog = 0.0  # total backlog when the current phase opened
        self.rel_step = 0  # steps into the current phase
        self.eps_open = 0.0  # sliver planted on the empty side at the opener
        self.eps_close = 0.0  # sliver left on the drained side before closing
        self.phase_log: list[tuple[int, int, float]] = []  # (phase, end step, backlog)

    def _close_phase(self, t: int) -> None:
        q0, q1 = self.queue.tolist()
        backlog = q0 + q1  # numpy's sum of two queues, bit for bit
        growth = backlog - self.phase_backlog
        floor = 0.5 if self.phase_index == 1 else 0.25
        if growth < floor - 1e-9:
            raise InvariantViolation(
                f"adversary phase {self.phase_index} grew backlog by {growth}, "
                f"expected at least {floor}"
            )
        if q0 > EMPTY_TOLERANCE and q1 > EMPTY_TOLERANCE:
            raise InvariantViolation(
                f"adversary phase {self.phase_index} ended with both queues nonempty"
            )
        self.phase_log.append((self.phase_index, t, backlog))
        self.phase_index += 1
        self.phase_backlog = backlog
        self.rel_step = 0
        self.mode = self.OPEN

    def next(self, t: int, alloc: np.ndarray, active: np.ndarray) -> np.ndarray:
        alloc = np.asarray(alloc, dtype=np.float64)
        if alloc.size != 2:
            raise ValueError("the adversary drives exactly 2 users")
        h, q = alloc.tolist(), self.queue.tolist()
        busy = [q[0] > EMPTY_TOLERANCE, q[1] > EMPTY_TOLERANCE]
        if active is not None and busy != np.asarray(active).tolist():
            raise InvariantViolation(
                f"step {t}: adversary's mirrored queues disagree with the "
                f"simulator's busy/idle pattern"
            )
        load = [0.0, 0.0]
        b = self.side
        a = 1 - b
        mode = self.mode
        self.rel_step += 1
        if mode != self.INIT and self.rel_step > 8.0 * max(self.phase_backlog, 1.0) + 64.0:
            raise InvariantViolation(
                f"adversary phase {self.phase_index} exceeded its step budget at "
                f"step {t}; the driven policy starves the drain"
            )

        # Each branch only picks this step's loads and whether the phase
        # closes; the queue update and the phase bookkeeping follow once.
        close = False
        if mode == self.INIT:
            # Put the first unit of load against the larger allocation:
            # the user holding the smaller one cannot finish it.
            self.side = 0 if h[0] <= h[1] else 1
            self.phase_index = 1
            self.phase_backlog = 0.0
            load[self.side] = 1.0
            close = True
        elif mode in (self.OPEN, self.ECHO) and h[a] >= 0.5:
            # The empty side hoards the resource (side a holds at most the
            # planted sliver); load the other side so at least half the
            # capacity is wasted.
            load[b] = 1.0
            close = True
        elif mode == self.OPEN:
            self.eps_open = min(0.125, (1.0 - h[a]) / 2.0)
            load[a] = h[a] + self.eps_open
            load[b] = 1.0 - load[a]
            self.mode = self.ECHO
        elif mode == self.ECHO and self.rel_step <= 2.0 * self.phase_backlog + 1.0:
            # Echo: feed side a exactly its allocation (its queue stays at
            # the sliver), side b the rest; feedback stays busy/busy.
            load[a] = h[a]
            load[b] = 1.0 - h[a]
        elif mode == self.CLOSE:
            # One more unit on side a finishes side b's sliver and wastes
            # the rest of side b's allocation.
            load[a] = 1.0
        elif q[b] - h[b] > 0.125:
            # Drain side b, pile up side a (entered when the echo's watch
            # window expires).
            load[a] = 1.0
            self.mode = self.DRAIN
        else:
            # Side b is within one step of the sliver target; top it up so
            # exactly eps_close remains and feedback still reads busy/busy.
            # The max() keeps the balancing load nonnegative when the
            # policy's allocation on b is small.
            self.eps_close = max(min(0.125, q[b] / 2.0), q[b] - h[b])
            load[b] = min(max(h[b] - q[b] + self.eps_close, 0.0), 1.0)
            load[a] = 1.0 - load[b]
            self.mode = self.CLOSE

        load = np.array(load)
        _, self.queue = _update(self.queue, alloc, load)
        if mode == self.CLOSE and self.queue[b] <= EMPTY_TOLERANCE:
            self.side = a  # the backlog has moved across
            close = True
        if close:
            self._close_phase(t)
        return load
