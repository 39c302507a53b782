"""Reporting metrics: cumulative work, pairwise gaps, queue norms, and the
windowed SLA statistic."""

from __future__ import annotations

import numpy as np
import pytest

from slasim import PolicyParams, SlaVector, run
from slasim.metrics import (
    SeriesReport,
    cumulative_work,
    default_window_stride,
    queue_two_norm,
    sla_window_stats,
    work_difference,
)
from slasim.policies import make_policy
from slasim.workloads import PrecomputedLoads, bernoulli_gamma_fuzz, example1_instance, example1_sla


def _run(name: str, source, horizon: int, sla=None, stride: int = 1):
    sla = sla or example1_sla()
    params = None
    if name in ("mw", "mw_prop"):
        params = PolicyParams(n_users=sla.n, epsilon=0.05, eta=1.0 / 3.0)
    return run(make_policy(name, sla, params), source, horizon=horizon, stride=stride)


def test_cumulative_work_series():
    trace = _run("static", example1_instance(12), horizon=12)
    series = cumulative_work(trace)
    assert len(series.steps) == 12
    assert np.all(np.diff(series.values) >= -1e-12)
    assert series.metadata["total"] == pytest.approx(10.0)
    assert series.values[-1] == pytest.approx(10.0)


def test_work_difference_is_antisymmetric():
    source = example1_instance(12)
    a = _run("mw_prop", source, horizon=12)
    b = _run("static", source, horizon=12)
    ab = work_difference(cumulative_work(a), cumulative_work(b))
    ba = work_difference(cumulative_work(b), cumulative_work(a))
    assert np.array_equal(ab.values, -ba.values)
    assert ab.metadata["final"] == pytest.approx(-ba.metadata["final"])


def test_work_difference_of_identical_runs_is_zero():
    source = example1_instance(12)
    a = _run("static", source, horizon=12)
    b = _run("static", source, horizon=12)
    diff = work_difference(cumulative_work(a), cumulative_work(b))
    assert np.all(diff.values == 0.0)


def test_work_difference_rejects_mismatched_traces():
    a = cumulative_work(_run("static", example1_instance(12), horizon=12))
    b = cumulative_work(_run("static", example1_instance(6), horizon=6))
    with pytest.raises(ValueError, match="disagree on shape"):
        work_difference(a, b)
    c = cumulative_work(_run("static", example1_instance(12), horizon=12, stride=3))
    with pytest.raises(ValueError, match="different steps"):
        work_difference(a, c)
    # same shape but different loads: the gap would be meaningless
    other = PrecomputedLoads(example1_instance(12).matrix[:, ::-1].copy())
    d = cumulative_work(_run("static", other, horizon=12))
    with pytest.raises(ValueError, match="different loads"):
        work_difference(a, d)


def test_queue_two_norm_matches_manual_computation():
    source = bernoulli_gamma_fuzz(n_users=3, horizon=50, seed=2)
    trace = _run("po", source, horizon=50)
    series = queue_two_norm(trace)
    manual = np.sqrt((trace.queue**2).sum(axis=1))
    assert np.allclose(series.values, manual, atol=0)
    assert series.metadata["final"] == pytest.approx(manual[-1])
    assert series.metadata["time_average"] == pytest.approx(manual.mean())


def test_series_report_validates_lengths():
    with pytest.raises(ValueError, match="3 steps but 2 values"):
        SeriesReport("x", np.arange(3), np.zeros(2))


# ------------------------------------------------------------- window gaps


def test_window_gap_of_static_run_is_identically_zero():
    # Replaying the SLA allocations from the algorithm's own queues is
    # exactly what the static policy already did, so every gap vanishes.
    source = bernoulli_gamma_fuzz(n_users=3, horizon=300, seed=8)
    trace = _run("static", source, horizon=300)
    stats = sla_window_stats(trace, example1_sla(), tau=50)
    assert np.all(stats.gaps == 0.0)


def test_window_gap_full_horizon_matches_separate_run():
    # With tau = T there is one window starting from empty queues; its gap
    # is just (static total) - (algorithm total), user by user.
    horizon = 120
    source = example1_instance(horizon)
    alg = _run("mw_prop", source, horizon=horizon)
    static = _run("static", source, horizon=horizon)
    stats = sla_window_stats(alg, example1_sla(), tau=horizon)
    assert stats.gaps.shape == (1, 3)
    assert np.allclose(stats.gaps[0], static.total_work - alg.total_work, atol=1e-12)


def test_window_starts_follow_stride():
    source = bernoulli_gamma_fuzz(n_users=3, horizon=100, seed=8)
    trace = _run("po", source, horizon=100)
    stats = sla_window_stats(trace, example1_sla(), tau=20, stride=13)
    assert np.array_equal(stats.starts, np.arange(1, 82, 13))
    assert stats.gaps.shape == (len(stats.starts), 3)
    # summary statistics reduce over windows, one value per user
    for arr in (stats.mins, stats.maxs, stats.means, stats.stds):
        assert arr.shape == (3,)
    assert np.all(stats.mins <= stats.means) and np.all(stats.means <= stats.maxs)


def test_window_stats_validate_inputs():
    source = bernoulli_gamma_fuzz(n_users=3, horizon=60, seed=8)
    trace = _run("po", source, horizon=60)
    with pytest.raises(ValueError, match="window length"):
        sla_window_stats(trace, example1_sla(), tau=61)
    with pytest.raises(ValueError, match="window length"):
        sla_window_stats(trace, example1_sla(), tau=0)
    with pytest.raises(ValueError, match="stride"):
        sla_window_stats(trace, example1_sla(), tau=10, stride=0)
    with pytest.raises(ValueError, match="users"):
        sla_window_stats(trace, SlaVector(np.array([0.5, 0.5])), tau=10)
    thin = _run("po", source, horizon=60, stride=5)
    with pytest.raises(ValueError, match="unthinned"):
        sla_window_stats(thin, example1_sla(), tau=10)


def test_default_window_stride_thins_large_horizons():
    assert default_window_stride(500) == 1
    assert default_window_stride(20_000) == 1
    assert default_window_stride(60_000) == 3
    assert default_window_stride(3_000_000) == 150
