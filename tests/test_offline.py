"""Offline schedulers, the closed-form optimum, and the switch duals that
certify it."""

from __future__ import annotations

import dataclasses
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slasim import PolicyParams, SlaVector, run_batch
from slasim.core import DegenerateSlaError, _check_loads
from slasim.offline import (
    _numpy_sum,
    _offline_trace,
    offline_optimal_value,
    proportional_greedy,
    simple_greedy,
)
from slasim.policies import POLICY_TYPES, make_policy
from slasim.workloads import PrecomputedLoads

from duals import switch_dual_bound


def _reference_proportional_greedy(loads, sla, capacity=1.0, stride=1):
    """proportional_greedy as an argmin over every user in each round.

    proportional_greedy walks one stable sort of the backlogged users
    instead; both must give the same trace bit for bit.  This form loops
    forever once every backlogged ratio overflows to inf, so keep ratios
    finite when calling it.
    """
    loads = _check_loads(loads)
    beta = sla.beta
    positive = beta > 0.0
    all_positive = bool(positive.all())

    def serve(pending):
        remaining = pending.copy()
        left = capacity
        if all_positive and remaining.sum() <= left:
            return remaining
        work = np.zeros_like(remaining)
        while left > 0.0:
            busy = remaining > 0.0
            if not busy.any():
                break
            share_total = beta[busy].sum()
            if share_total <= 0.0:
                raise DegenerateSlaError(
                    "all backlogged users have zero SLA share; proportional split undefined"
                )
            ratio = np.full(remaining.size, np.inf)
            np.divide(remaining, beta, out=ratio, where=busy & positive)
            tight = int(np.argmin(ratio))
            if remaining[tight] < (beta[tight] / share_total) * left:
                left -= remaining[tight]
                work[tight] += remaining[tight]
                remaining[tight] = 0.0
            else:
                offer = (beta / share_total) * left
                work[busy] += offer[busy]
                remaining[busy] -= offer[busy]
                left = 0.0
        return work

    return _offline_trace(loads, "pg", serve, stride)


def test_optimal_value_hand_cases():
    # One unit of load up front, horizon 3, full capacity: all of it fits.
    loads = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    assert offline_optimal_value(loads) == pytest.approx(3.0 * 0 + 1.0)
    # Load exceeding what the remaining steps can carry is left behind.
    loads = np.array([[3.0, 0.0], [0.0, 0.0]])
    assert offline_optimal_value(loads) == pytest.approx(2.0)
    # Restricted capacity: the same prefix/suffix tradeoff at 1 - eps.
    assert offline_optimal_value(loads, eps=0.5) == pytest.approx(1.0)
    # Empty instance does no work.
    assert offline_optimal_value(np.zeros((4, 3))) == 0.0


def test_optimal_value_validates_inputs():
    with pytest.raises(ValueError):
        offline_optimal_value(np.array([[1.0, -1.0]]))
    with pytest.raises(ValueError):
        offline_optimal_value(np.array([[1.0, 1.0]]), eps=1.0)
    with pytest.raises(ValueError):
        offline_optimal_value(np.ones(3))


def test_simple_greedy_serves_in_index_order():
    trace = simple_greedy(np.array([[0.7, 0.7]]))
    assert np.allclose(trace.work[0], [0.7, 0.3], atol=1e-15)
    assert np.allclose(trace.final_queue, [0.0, 0.4], atol=1e-15)


def test_simple_greedy_rolls_backlog_forward():
    trace = simple_greedy(np.array([[0.7, 0.7], [0.0, 0.0]]))
    assert np.allclose(trace.work[1], [0.0, 0.4], atol=1e-15)
    assert trace.total_work.sum() == pytest.approx(1.4)


def test_proportional_greedy_hand_execution():
    # Equal shares, loads (0.1, 2.0): the tightest user finishes their 0.1
    # outright and the rest of the capacity goes to the other user.
    sla = SlaVector(np.array([0.5, 0.5]))
    trace = proportional_greedy(np.array([[0.1, 2.0]]), sla)
    assert np.allclose(trace.work[0], [0.1, 0.9], atol=1e-15)

    # Shares (0.2, 0.3, 0.5), loads (0.4, 0.4, 0.4): user 3 finishes fully,
    # then the leftover 0.6 splits 2:3 between the still-busy users.
    sla = SlaVector(np.array([0.2, 0.3, 0.5]))
    trace = proportional_greedy(np.array([[0.4, 0.4, 0.4]]), sla)
    assert np.allclose(trace.work[0], [0.24, 0.36, 0.4], atol=1e-12)
    assert np.allclose(trace.final_queue, [0.16, 0.04, 0.0], atol=1e-12)


def test_proportional_greedy_respects_capacity():
    sla = SlaVector(np.array([0.5, 0.5]))
    trace = proportional_greedy(np.array([[2.0, 2.0]]), sla, capacity=0.9)
    assert trace.work[0].sum() == pytest.approx(0.9, abs=1e-12)
    assert np.allclose(trace.work[0], [0.45, 0.45], atol=1e-12)


def test_proportional_greedy_degenerate_shares():
    sla = SlaVector(np.array([0.0, 1.0]))
    # Only the zero-share user is backlogged and capacity remains.
    with pytest.raises(DegenerateSlaError):
        proportional_greedy(np.array([[0.5, 0.0], [0.5, 0.0]]), sla)


def test_proportional_greedy_returns_when_a_ratio_overflows():
    # User 2's pending/share ratio overflows to inf.  An argmin over every
    # user then picks idle user 1, whose full-serve test holds with nothing
    # to serve, and the round repeats forever.
    def timeout(signum, frame):
        raise TimeoutError("proportional_greedy did not return within 10 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        with np.errstate(over="ignore"):
            trace = proportional_greedy(
                np.array([[0.0, 1e10]]), SlaVector(np.array([0.5, 1e-300]))
            )
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert np.array_equal(trace.work[0], [0.0, 1.0])
    assert np.array_equal(trace.final_queue, [0.0, 1e10 - 1.0])


def test_numpy_sum_matches_numpy_bitwise():
    # proportional_greedy's share totals must be numpy's masked sums: left
    # to right below 8 values, pairwise from 8 up.  The builtin sum gives
    # 0.6 here from Python 3.12 on; numpy and _numpy_sum give 0.6 + 1 ulp.
    assert _numpy_sum([0.1, 0.2, 0.3]) == float(np.array([0.1, 0.2, 0.3]).sum())
    assert _numpy_sum([0.1, 0.2, 0.3]) == 0.6000000000000001
    rng = np.random.default_rng(3)
    for n in range(1, 21):
        for _ in range(50):
            beta = rng.random(n) * 10.0 ** rng.integers(-3, 4, n)
            mask = rng.random(n) < 0.7
            picked = beta[mask]
            want = float(picked.sum())
            assert _numpy_sum(picked.tolist()) == want, (n, picked)
            assert _numpy_sum(beta.tolist()) == float(beta.sum()), (n, beta)


@st.composite
def pg_instances(draw):
    """Loads, shares, capacity and stride for proportional_greedy.

    N crosses 8, where numpy's sums turn pairwise.  Shares are zero, equal,
    drawn from a few values or spread; load rows repeat or take a few
    values, so ratios tie.  Every positive share is at least 0.01/N of the
    total and loads stay below about 50, so pending/share never overflows.
    """
    n = draw(st.integers(min_value=2, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shares = draw(st.sampled_from(["spread", "zeros", "equal", "few"]))
    beta = rng.uniform(0.01, 1.0, n)
    if shares == "zeros":
        beta[rng.random(n) < 0.4] = 0.0
        beta[rng.integers(n)] = 0.5
    elif shares == "equal":
        beta[:] = 1.0
    elif shares == "few":
        beta = rng.choice([1.0, 2.0, 3.0], n)
    beta = beta / beta.sum() * draw(st.sampled_from([1.0, 0.8]))
    horizon = draw(st.integers(min_value=1, max_value=25))
    mean = draw(st.sampled_from([0.3, 1.0, 2.0])) / n
    loads = rng.exponential(mean, (horizon, n)) * (rng.random((horizon, n)) < 0.7)
    rows = draw(st.sampled_from(["random", "repeated", "few"]))
    if rows == "repeated":
        loads[:] = loads[0]
    elif rows == "few":
        loads = rng.choice([0.0, mean, 2.0 * mean], (horizon, n))
    capacity = draw(st.sampled_from([1.0, 0.9, 0.37, 1e-3]))
    stride = draw(st.integers(min_value=1, max_value=4))
    return loads, SlaVector(beta), capacity, stride


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DegenerateSlaError as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(instance=pg_instances())
def test_proportional_greedy_matches_argmin_reference_bitwise(instance):
    loads, sla, capacity, stride = instance
    got = _outcome(proportional_greedy, loads, sla, capacity, stride)
    want = _outcome(_reference_proportional_greedy, loads, sla, capacity, stride)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


def test_greedies_match_closed_form_optimum(rng):
    # Both greedy schedules complete min(capacity, pending) every step, so
    # their totals must equal the closed-form optimum at eps = 1 - capacity.
    for _ in range(40):
        n = int(rng.integers(2, 5))
        horizon = int(rng.integers(1, 30))
        loads = rng.uniform(0.0, 2.0 / n, size=(horizon, n))
        beta = rng.uniform(0.1, 1.0, size=n)
        sla = SlaVector(beta / beta.sum())
        for capacity in (1.0, 0.9):
            opt = offline_optimal_value(loads, eps=1.0 - capacity)
            sg = simple_greedy(loads, capacity=capacity).total_work.sum()
            pg = proportional_greedy(loads, sla, capacity=capacity).total_work.sum()
            assert sg == pytest.approx(opt, abs=1e-9)
            assert pg == pytest.approx(opt, abs=1e-9)


def test_total_work_is_monotone_in_capacity(rng):
    loads = rng.uniform(0.0, 1.0, size=(25, 3))
    sla = SlaVector(np.array([0.2, 0.3, 0.5]))
    totals = [
        proportional_greedy(loads, sla, capacity=c).total_work.sum()
        for c in (0.5, 0.7, 0.9, 1.0)
    ]
    assert np.all(np.diff(totals) >= -1e-12)


def test_min_switch_dual_equals_optimum(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        horizon = int(rng.integers(1, 40))
        loads = rng.uniform(0.0, 2.0 / n, size=(horizon, n))
        eps = float(rng.uniform(0.0, 0.3))
        values = [switch_dual_bound(loads, s, eps) for s in range(horizon + 1)]
        assert min(values) == pytest.approx(
            offline_optimal_value(loads, eps=eps), abs=1e-9
        )


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 8),
    horizon=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    mean=st.sampled_from([0.3, 1.0, 2.0]),
    epsilon=st.sampled_from([0.02, 0.05, 0.1]),
)
def test_weak_duality_bounds_any_schedule(n, horizon, seed, mean, epsilon):
    # The duality chain for every online type, run as rows of one batch:
    # work is conserved, work <= optimum, and the optimum is the best
    # switch dual, whose every value bounds any schedule's work.
    rng = np.random.default_rng(seed)
    loads = rng.exponential(mean / n, (horizon, n)) * (rng.random((horizon, n)) < 0.7)
    beta = rng.uniform(0.01, 1.0, n)
    sla = SlaVector(beta / beta.sum())
    params = PolicyParams(n_users=n, epsilon=epsilon, eta=1.0 / 3.0)
    source = PrecomputedLoads(loads)
    online = [name for name, spec in POLICY_TYPES.items() if spec.build is not None]
    traces = run_batch([(make_policy(name, sla, params), source) for name in online], horizon)
    opt = offline_optimal_value(loads)
    best = min(switch_dual_bound(loads, s) for s in range(horizon + 1))
    assert best == pytest.approx(opt, abs=1e-9)
    for trace in traces:
        assert trace.conservation_residual() <= 1e-9, trace.policy
        assert trace.total_work.sum() <= opt + 1e-9, trace.policy
