"""Load sources: the deterministic three-user instance, Gamma workloads,
CSV traces, and the adaptive backlog-forcing source."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from slasim import InvariantViolation, PolicyParams, SlaVector, run
from slasim.offline import offline_optimal_value
from slasim.policies import make_policy
from slasim.workloads import (
    DEFAULT_SCHEDULE,
    PrecomputedLoads,
    QueueAdversary,
    TraceFormatError,
    bernoulli_gamma_fuzz,
    example1_instance,
    example1_loads,
    example1_sla,
    load_trace_csv,
    synthetic_gamma,
    write_trace_csv,
)


# ------------------------------------------------------- deterministic demo


def test_example1_structure():
    loads = example1_loads(6)
    # first and last thirds: user 1 alone; middle third: users 2 and 3
    assert np.array_equal(loads[:2], [[1, 0, 0], [1, 0, 0]])
    assert np.array_equal(loads[2:4], [[0, 1, 1], [0, 1, 1]])
    assert np.array_equal(loads[4:], [[1, 0, 0], [1, 0, 0]])
    assert example1_sla().beta.tolist() == [0.5, 0.2, 0.3]
    with pytest.raises(ValueError):
        example1_loads(7)
    with pytest.raises(ValueError):
        example1_loads(0)


def test_example1_static_work_is_five_sixths():
    horizon = 6
    policy = make_policy("static", example1_sla())
    trace = run(policy, example1_instance(horizon), horizon=horizon)
    assert trace.total_work.sum() == pytest.approx(5.0 * horizon / 6.0, abs=1e-12)


# ------------------------------------------------------------ gamma sampling


def test_sample_gamma_matches_moments(rng):
    shape, scale = 3.0, 0.5
    draws = rng.gamma(shape, scale, size=200_000)
    assert draws.mean() == pytest.approx(shape * scale, rel=0.01)
    assert draws.var() == pytest.approx(shape * scale**2, rel=0.03)
    assert np.all(draws > 0.0)


def test_shape_one_gamma_is_exponential(rng):
    # Gamma with shape 1 is the exponential distribution; check the full
    # law, not just moments.
    scale = 0.7
    draws = rng.gamma(1.0, scale, size=20_000)
    result = stats.kstest(draws, "expon", args=(0.0, scale))
    assert result.pvalue > 0.01


# --------------------------------------------------------- periodic workload


def test_synthetic_gamma_is_deterministic():
    sla = SlaVector(np.array([0.2, 0.3, 0.5]))
    a = synthetic_gamma(sla, horizon=600, seed=3).matrix
    b = synthetic_gamma(sla, horizon=600, seed=3).matrix
    c = synthetic_gamma(sla, horizon=600, seed=4).matrix
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_synthetic_gamma_period_structure():
    sla = SlaVector(np.array([0.2, 0.3, 0.5]))
    horizon = 60
    plen = horizon // 6
    loads = synthetic_gamma(sla, horizon=horizon, seed=1).matrix
    for p, (kind, a, b) in enumerate(DEFAULT_SCHEDULE):
        block = loads[p * plen : (p + 1) * plen]
        others = [i for i in range(3) if i not in (a, b)]
        assert np.all(block[:, others] == 0.0)
        if kind == "bulk":
            # one job for user a at the opening step, then a stream for b
            assert block[0, a] > 0.0
            assert np.all(block[1:, a] == 0.0)
            assert block[0, b] == 0.0
            assert np.all(block[1:, b] > 0.0)
        else:
            assert np.all(block[:, [a, b]] > 0.0)


def test_synthetic_gamma_total_demand_within_moment_band():
    # Independent check on scaling: expected total and its variance follow
    # from the period structure (one bulk job sized like the pair-share of
    # a whole period, streams with per-step means beta-proportional or 1/2).
    sla = SlaVector(np.array([0.2, 0.3, 0.5]))
    horizon = 6000
    plen = horizon // 6
    shape = 2000.0
    expected = 0.0
    variance = 0.0
    for kind, a, b in DEFAULT_SCHEDULE:
        if kind == "bulk":
            pair = sla.beta[a] + sla.beta[b]
            mean_a = sla.beta[a] / pair
            mean_b = sla.beta[b] / pair
            expected += plen * mean_a + (plen - 1) * mean_b
            variance += (plen * mean_a) ** 2 / shape + (plen - 1) * mean_b**2 / shape
        else:
            expected += plen
            variance += 2 * plen * 0.25 / shape
    loads = synthetic_gamma(sla, horizon=horizon, seed=123).matrix
    total = loads.sum()
    assert abs(total - expected) <= 5.0 * math.sqrt(variance)


def test_synthetic_gamma_validates_schedule():
    sla = SlaVector(np.array([0.2, 0.3, 0.5]))
    with pytest.raises(ValueError, match="multiple of 6"):
        synthetic_gamma(sla, horizon=100, seed=0)
    with pytest.raises(ValueError, match="invalid user pair"):
        synthetic_gamma(sla, horizon=10, seed=0, schedule=(("bulk", 0, 3),))
    with pytest.raises(ValueError, match="zero total SLA"):
        synthetic_gamma(
            SlaVector(np.array([0.0, 0.0, 1.0])), horizon=10, seed=0,
            schedule=(("bulk", 0, 1),),
        )
    with pytest.raises(ValueError, match="unknown period kind"):
        synthetic_gamma(sla, horizon=10, seed=0, schedule=(("burst", 0, 1),))


# ------------------------------------------------------------------ fuzz load


def test_fuzz_load_shape_and_mean():
    source = bernoulli_gamma_fuzz(n_users=4, horizon=50_000, seed=9)
    m = source.matrix
    assert m.shape == (50_000, 4)
    assert np.all(m >= 0.0)
    # half the cells fire on average
    assert (m > 0).mean() == pytest.approx(0.5, abs=0.01)
    # default sizing keeps expected total demand at one unit per step
    assert m.sum(axis=1).mean() == pytest.approx(1.0, abs=0.02)
    with pytest.raises(ValueError):
        bernoulli_gamma_fuzz(n_users=0, horizon=10, seed=0)


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.ones(3), "must be a T x N matrix"),
        (np.zeros((0, 2)), "must be a T x N matrix"),
        (np.array([[0.5, np.inf]]), "must be finite and nonnegative"),
        (np.array([[0.5, np.nan]]), "must be finite and nonnegative"),
        (np.array([[0.5, -0.1]]), "must be finite and nonnegative"),
    ],
)
def test_precomputed_loads_and_offline_validate_alike(bad, message):
    for build in (PrecomputedLoads, offline_optimal_value):
        with pytest.raises(ValueError, match=message):
            build(bad)


# ------------------------------------------------------------------ csv trace


def test_trace_csv_round_trip_is_exact(tmp_path, rng):
    m = rng.uniform(0.0, 3.0, size=(40, 3))
    m[rng.random(m.shape) < 0.3] = 0.0
    path = tmp_path / "trace.csv"
    write_trace_csv(path, m)
    back = load_trace_csv(path)
    assert np.array_equal(back.matrix, m)
    first = path.read_text().splitlines()[0]
    assert first == "t,user1,user2,user3"


def _write(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "line 1: empty file"),
        ("x,user1\n1,0.5\n", "header must be"),
        ("t,alice,bob\n1,0.5,0.5\n", "user columns must be"),
        ("t,user1,user2\n1,0.5\n", "line 2: expected 3 fields"),
        ("t,user1\n1,0.5\n3,0.5\n", "line 3: step index 3 out of order"),
        ("t,user1\n1,-0.5\n", "must be finite and nonnegative"),
        ("t,user1\n1,nan\n", "must be finite and nonnegative"),
        ("t,user1\none,0.5\n", "line 2"),
        ("t,user1\n", "header but no steps"),
    ],
)
def test_trace_csv_rejects_malformed_input(tmp_path, text, message):
    with pytest.raises(TraceFormatError, match=message):
        load_trace_csv(_write(tmp_path, text))


# ------------------------------------------------------------------ adversary


ADVERSARY_POLICIES = ("mw", "mw_prop", "static", "po", "owm")


def _adversary_policy(name: str):
    sla = SlaVector(np.array([0.5, 0.5]))
    params = PolicyParams(n_users=2, epsilon=0.05, eta=1.0 / 3.0)
    return make_policy(name, sla, params)


@pytest.mark.parametrize("name", ADVERSARY_POLICIES)
def test_adversary_forces_backlog(name):
    horizon = 600
    source = QueueAdversary()
    trace = run(_adversary_policy(name), source, horizon=horizon)
    backlog = trace.final_queue.sum()
    # loads always sum to one per step, so an omniscient schedule clears
    # everything and the backlog is pure loss against it
    assert np.allclose(trace.load.sum(axis=1), 1.0, atol=1e-9)
    assert backlog >= math.sqrt(horizon / 40.0)
    assert trace.total_work.sum() + backlog == pytest.approx(horizon, abs=1e-9)
    # the adversary mirrors the queues with the simulator's own update
    assert np.array_equal(source.queue, trace.final_queue)
    # phases recorded, each growing the backlog
    phases = source.phase_log
    assert phases
    backlogs = [b for _, _, b in phases]
    assert all(b2 > b1 for b1, b2 in zip(backlogs, backlogs[1:]))
    assert all(t2 > t1 for (_, t1, _), (_, t2, _) in zip(phases, phases[1:]))


def test_adversary_budget_guard_catches_starved_drain():
    # A policy that keeps almost nothing on the loaded side while staying
    # under the waste threshold on the other can stall a drain forever;
    # the step budget turns that into a loud failure.
    class Starver:
        name = "starver"

        def reset(self, n):
            pass

        def decide(self, active):
            return np.array([0.45, 0.001])

    with pytest.raises(InvariantViolation, match="starves the drain"):
        run(Starver(), QueueAdversary(), horizon=5000)


def test_adversary_rejects_wrong_width():
    source = QueueAdversary()
    source.reset()
    with pytest.raises(ValueError):
        source.next(1, np.array([0.3, 0.3, 0.4]), np.zeros(3, dtype=bool))
