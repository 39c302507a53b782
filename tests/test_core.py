"""Simulation engine: queue dynamics, feedback, trace plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from slasim import (
    InvariantViolation,
    LoadExhausted,
    PolicyParams,
    SlaVector,
    run,
)
from slasim.core import _update
from slasim.offline import proportional_greedy, simple_greedy
from slasim.policies import MultiplicativeWeights, OnlineWorkMaximizing, StaticSla
from slasim.workloads import PrecomputedLoads, bernoulli_gamma_fuzz


def test_step_serves_from_load_plus_queue():
    work, after = _update(
        queue=np.array([0.0, 1.0]),
        alloc=np.array([0.5, 0.5]),
        load=np.array([1.0, 0.0]),
    )
    assert np.array_equal(work, [0.5, 0.5])
    assert np.array_equal(after, [0.5, 0.5])


def test_step_never_serves_more_than_available():
    work, after = _update(
        queue=np.array([0.0, 0.0]),
        alloc=np.array([0.9, 0.1]),
        load=np.array([0.2, 0.0]),
    )
    assert np.array_equal(work, [0.2, 0.0])
    assert np.array_equal(after, [0.0, 0.0])


class _Recording:
    """Fixed allocation; records the busy/idle pattern it is shown."""

    name = "recording"

    def __init__(self, alloc):
        self.alloc = np.asarray(alloc, dtype=np.float64)
        self.seen = []

    def reset(self, n_users):
        self.seen = []

    def decide(self, active):
        self.seen.append(active.copy())
        return self.alloc


class _Rows:
    """Adaptive-style source (no load matrix) yielding the given rows."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.float64)
        self.n_users = self.rows.shape[1]
        self.horizon = None

    def reset(self):
        pass

    def next(self, t, alloc, active):
        return self.rows[t - 1]


def test_busy_idle_threshold_is_strict_above_tolerance():
    # Nothing is served, so step 2 sees the step-1 loads as queues: a
    # queue of exactly 1e-12 reads idle, 2e-12 and more read busy.
    policy = _Recording([0.0, 0.0, 0.0, 0.0])
    run(policy, _Rows([[0.0, 1e-12, 2e-12, 0.5], [0.0] * 4]), horizon=2)
    assert np.array_equal(policy.seen[0], [False] * 4)
    assert np.array_equal(policy.seen[1], [False, False, True, True])


def test_run_rejects_a_nan_load():
    # Fails without the check: total_work came out [nan, 1.5] silently.
    source = _Rows([[0.5, 0.5], [np.nan, 0.5], [0.5, 0.5]])
    with pytest.raises(InvariantViolation, match="total load is not finite"):
        run(StaticSla(SlaVector(np.array([0.5, 0.5]))), source, horizon=3)


def test_run_rejects_a_nan_allocation():
    source = PrecomputedLoads(np.full((3, 2), 0.5))
    with pytest.raises(InvariantViolation, match="total work is not finite"):
        run(_Recording([np.nan, 0.5]), source, horizon=3)


@pytest.mark.xfail(
    strict=True,
    reason="run does not check allocations against capacity yet; the per-step "
    "contract check belongs in the batched engine (ROADMAP items 1 and 3)",
)
def test_run_rejects_an_over_capacity_allocation():
    source = PrecomputedLoads(np.ones((5, 2)))
    with pytest.raises(InvariantViolation):
        run(_Recording([0.9, 0.9]), source, horizon=5)


def _mw(n: int, monitor: bool = False) -> MultiplicativeWeights:
    sla = SlaVector(np.full(n, 1.0 / n))
    params = PolicyParams(n_users=n, epsilon=0.05, eta=1.0 / 3.0)
    return MultiplicativeWeights(sla, params, monitor_lemmas=monitor)


def test_run_conserves_load_and_respects_capacity(rng):
    source = bernoulli_gamma_fuzz(n_users=4, horizon=500, seed=11)
    trace = run(_mw(4), source, horizon=500)
    assert trace.conservation_residual() < 1e-9
    assert np.all(trace.work.sum(axis=1) <= 1.0 + 1e-9)
    assert np.all(trace.work >= 0.0)
    per_user = np.diff(trace.cum_work, axis=0)
    assert np.all(per_user >= -1e-12)
    total = trace.total_load.sum() - trace.total_work.sum()
    assert total == pytest.approx(trace.final_queue.sum(), abs=1e-9)


def test_decisions_depend_only_on_busy_idle_pattern():
    # Same activity pattern, very different magnitudes: queues stay
    # backlogged from step 2 on in both runs, so the recorded allocations
    # must be bit-for-bit identical.
    horizon = 60
    small = PrecomputedLoads(np.tile([2.0, 3.0], (horizon, 1)))
    large = PrecomputedLoads(np.tile([50.0, 70.0], (horizon, 1)))
    for make in (lambda: _mw(2), OnlineWorkMaximizing):
        a = run(make(), small, horizon=horizon)
        b = run(make(), large, horizon=horizon)
        assert np.array_equal(a.alloc, b.alloc)


def test_short_source_is_rejected_up_front():
    source = PrecomputedLoads(np.zeros((10, 2)))
    with pytest.raises(LoadExhausted, match="10 steps, 11 requested"):
        run(StaticSla(SlaVector(np.array([0.5, 0.5]))), source, horizon=11)


def test_mid_run_exhaustion_names_the_step():
    class Dribble:
        n_users = 2
        horizon = None

        def reset(self):
            pass

        def next(self, t, alloc, active):
            if t > 3:
                raise LoadExhausted("dry")
            return np.zeros(2)

    with pytest.raises(LoadExhausted, match="exhausted at step 4"):
        run(StaticSla(SlaVector(np.array([0.5, 0.5]))), Dribble(), horizon=5)


_THIN_SLA = SlaVector(np.array([0.2, 0.3, 0.5]))


@pytest.mark.parametrize(
    "schedule",
    [
        pytest.param(lambda src, stride: run(_mw(3), src, horizon=100, stride=stride), id="mw"),
        pytest.param(
            lambda src, stride: proportional_greedy(src.matrix, _THIN_SLA, stride=stride),
            id="proportional_greedy",
        ),
        pytest.param(
            lambda src, stride: simple_greedy(src.matrix, 0.9, stride=stride), id="simple_greedy"
        ),
    ],
)
def test_stride_thinning_keeps_final_step_and_aggregates(schedule):
    source = bernoulli_gamma_fuzz(n_users=3, horizon=100, seed=5)
    full = schedule(source, 1)
    thin = schedule(source, 7)
    assert thin.steps[-1] == 100
    assert np.array_equal(thin.steps[:-1], np.arange(7, 100, 7))
    assert np.array_equal(thin.total_work, full.total_work)
    assert np.array_equal(thin.total_load, full.total_load)
    assert np.array_equal(thin.final_queue, full.final_queue)
    assert not thin.is_full and full.is_full

    # every thinned row equals the full trace's row at the same step
    rows = thin.steps - 1
    for field in ("alloc", "work", "queue", "load", "cum_work"):
        assert np.array_equal(getattr(thin, field), getattr(full, field)[rows]), field


@pytest.mark.parametrize(
    "schedule",
    [
        pytest.param(
            lambda m: run(StaticSla(_THIN_SLA), PrecomputedLoads(m), horizon=80), id="run"
        ),
        pytest.param(lambda m: proportional_greedy(m, _THIN_SLA), id="proportional_greedy"),
    ],
)
def test_matrix_backed_trace_load_is_a_read_only_view(schedule):
    matrix = bernoulli_gamma_fuzz(n_users=3, horizon=100, seed=5).matrix
    before = matrix.copy()
    trace = schedule(matrix)
    assert np.shares_memory(trace.load, matrix)
    assert np.array_equal(trace.load, matrix[: trace.horizon])
    with pytest.raises(ValueError):
        trace.load[0, 0] = 1.0
    assert matrix.flags.writeable and np.array_equal(matrix, before)


def test_run_validates_arguments():
    source = PrecomputedLoads(np.zeros((4, 2)))
    policy = StaticSla(SlaVector(np.array([0.5, 0.5])))
    with pytest.raises(ValueError):
        run(policy, source, horizon=0)
    with pytest.raises(ValueError):
        run(policy, source, horizon=4, stride=0)


def test_sla_vector_validation():
    with pytest.raises(ValueError):
        SlaVector(np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        SlaVector(np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        SlaVector(np.array([0.5, np.nan]))
    sla = SlaVector(np.array([0.2, 0.3, 0.5]))
    assert sla.n == 3
    assert sla.theory_applicable(0.1)  # floor 2*0.1/3 < 0.2
    assert not SlaVector(np.array([0.01, 0.5])).theory_applicable(0.1)


def test_policy_params_validation_and_canonical_boost():
    p = PolicyParams(n_users=4, epsilon=0.1, eta=0.25)
    assert p.boost == pytest.approx(0.1**2 / 32.0)
    assert p.canonical_boost
    q = PolicyParams(n_users=4, epsilon=0.1, eta=0.25, boost=0.001)
    assert not q.canonical_boost
    with pytest.raises(ValueError):
        PolicyParams(n_users=1, epsilon=0.05, eta=0.1)
    with pytest.raises(ValueError):
        PolicyParams(n_users=2, epsilon=0.2, eta=0.1)
    with pytest.raises(ValueError):
        PolicyParams(n_users=2, epsilon=0.05, eta=0.4)
    with pytest.raises(ValueError):
        PolicyParams(n_users=2, epsilon=0.05, eta=0.1, boost=-1.0)
    for boost in (np.inf, np.nan):
        with pytest.raises(ValueError, match="boost must be positive and finite"):
            PolicyParams(n_users=2, epsilon=0.05, eta=0.1, boost=boost)
