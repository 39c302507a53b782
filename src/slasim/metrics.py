"""Metrics over simulation traces.

The headline comparison is against the static SLA allocation: for a
window of tau steps starting at step t, re-run the static policy from the
algorithm's own queues at time t against the true future loads, and
report how much work it would have done minus what the algorithm did.
Negative values mean the algorithm served every user at least as well as
their contract over that window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from slasim.core import SimulationTrace, SlaVector, _update

WINDOW_TARGET_COUNT = 20_000


@dataclass
class SeriesReport:
    """A named time series sampled at the trace's retained steps."""

    name: str
    steps: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.steps) != len(self.values):
            raise ValueError(
                f"series '{self.name}': {len(self.steps)} steps but {len(self.values)} values"
            )


def cumulative_work(trace: SimulationTrace) -> SeriesReport:
    """Total work completed by the end of each retained step; non-decreasing.

    The metadata holds the run's total work and its per-user total load, so
    work_difference can compare two runs from their reports alone."""
    return SeriesReport(
        name=f"cumulative_work[{trace.policy}]",
        steps=trace.steps,
        values=trace.cum_work.sum(axis=1),
        metadata={
            "policy": trace.policy,
            "total": float(trace.total_work.sum()),
            "total_load": trace.total_load,
        },
    )


def work_difference(a: SeriesReport, b: SeriesReport) -> SeriesReport:
    """Cumulative-work gap (a minus b) from the cumulative_work reports of two
    runs of the same run setup.

    Runs whose per-user load totals differ saw different loads and are
    rejected; runs with equal totals are taken to share their loads, which
    holds for every pair the CLI forms."""
    horizon_a, horizon_b = int(a.steps[-1]), int(b.steps[-1])  # the last step is always kept
    load_a, load_b = a.metadata["total_load"], b.metadata["total_load"]
    if horizon_a != horizon_b or len(load_a) != len(load_b):
        raise ValueError(
            f"traces disagree on shape: horizon {horizon_a} vs {horizon_b}, "
            f"users {len(load_a)} vs {len(load_b)}"
        )
    if not np.array_equal(a.steps, b.steps):
        raise ValueError("traces retain different steps; rerun with equal strides")
    if not np.array_equal(load_a, load_b):
        raise ValueError("traces saw different loads; work difference is undefined")
    return SeriesReport(
        name=f"work_difference[{a.metadata['policy']}-{b.metadata['policy']}]",
        steps=a.steps,
        values=a.values - b.values,
        metadata={
            "policy_a": a.metadata["policy"],
            "policy_b": b.metadata["policy"],
            "final": a.metadata["total"] - b.metadata["total"],
        },
    )


def queue_two_norm(trace: SimulationTrace) -> SeriesReport:
    """Euclidean norm of the queue vector after each retained step."""
    values = np.sqrt((trace.queue**2).sum(axis=1))
    return SeriesReport(
        name=f"queue_two_norm[{trace.policy}]",
        steps=trace.steps,
        values=values,
        metadata={
            "policy": trace.policy,
            "final": float(math.sqrt(float((trace.final_queue**2).sum()))),
            "time_average": float(values.mean()),
        },
    )


@dataclass
class SlaWindowStats:
    """Windowed service gap against the static SLA policy.

    gaps[w, i] is the work user i would have received from the static
    policy over the tau-step window starting at starts[w] (seeded with the
    algorithm's queues at that time) minus the work the algorithm
    delivered in the same window.
    """

    tau: int
    stride: int
    starts: np.ndarray
    gaps: np.ndarray

    @property
    def mins(self) -> np.ndarray:
        return self.gaps.min(axis=0)

    @property
    def maxs(self) -> np.ndarray:
        return self.gaps.max(axis=0)

    @property
    def means(self) -> np.ndarray:
        return self.gaps.mean(axis=0)

    @property
    def stds(self) -> np.ndarray:
        return self.gaps.std(axis=0)


def default_window_stride(horizon: int) -> int:
    """Every step up to 20k steps, then thinned to about 20k windows."""
    return 1 if horizon <= WINDOW_TARGET_COUNT else math.ceil(horizon / WINDOW_TARGET_COUNT)


def sla_window_stats(
    trace: SimulationTrace,
    sla: SlaVector,
    tau: int,
    stride: int | None = None,
) -> SlaWindowStats:
    """Compare the algorithm's per-user work against a static re-simulation
    over every tau-step window (start points thinned by `stride`).

    Windows overrunning the horizon are dropped.  Needs a full-resolution
    trace: the re-simulation consumes the recorded loads and queues.
    """
    if not trace.is_full:
        raise ValueError("sla_window_stats needs an unthinned trace (stride 1)")
    if sla.n != trace.n_users:
        raise ValueError(f"SLA has {sla.n} users, trace has {trace.n_users}")
    horizon = trace.horizon
    if not (1 <= tau <= horizon):
        raise ValueError(f"window length must lie in [1, {horizon}], got {tau}")
    if stride is None:
        stride = default_window_stride(horizon)
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")

    starts = np.arange(1, horizon - tau + 2, stride, dtype=np.int64)
    beta = sla.beta
    # Queues at the start of step t are the queues after step t-1.
    q = np.zeros((len(starts), trace.n_users))
    nonzero = starts > 1
    q[nonzero] = trace.queue[starts[nonzero] - 2]

    static_work = np.zeros_like(q)
    alg_work = np.zeros_like(q)
    rows = starts - 1
    for k in range(tau):
        done, q = _update(q, beta, trace.load[rows + k])  # beta broadcasts over windows
        static_work += done
        alg_work += trace.work[rows + k]

    return SlaWindowStats(tau=tau, stride=stride, starts=starts, gaps=static_work - alg_work)
