"""Simulation engine: queue dynamics, feedback, trace plumbing."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slasim import (
    InvariantViolation,
    LoadExhausted,
    PolicyParams,
    SimulationTrace,
    SlaVector,
    run,
    run_batch,
)
from slasim.core import EMPTY_TOLERANCE, _Recorder, _update
from slasim.offline import proportional_greedy, simple_greedy
from slasim.policies import (
    POLICY_TYPES,
    MultiplicativeWeights,
    OnlineProportional,
    OnlineWorkMaximizing,
    StaticSla,
    make_policy,
)
from slasim.workloads import PrecomputedLoads, QueueAdversary, bernoulli_gamma_fuzz


def _reference_run(policy, source, horizon, stride=1):
    """One policy driven alone by a 1-D loop, the engine before run_batch.

    Every row of run_batch must match it bit for bit.  It keeps every
    step's rows and thins them at the end, so it shares no recorder code
    with the engine, and it reads a load matrix one row per step, as
    `matrix[t - 1]`, where the engine copies a block of steps at a time.
    An exception it raises carries the step it failed at as `step`, and
    horizon + 1 for the engine's block check, which sees every batch
    `_batches` draws as one block (rows x N x horizon is at most 6 x 12 x
    40, under the block's 8192 values).
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    n = int(source.n_users)
    matrix = getattr(source, "matrix", None)
    if matrix is not None and len(matrix) < horizon:
        raise LoadExhausted(f"load source provides {len(matrix)} steps, {horizon} requested")
    if matrix is None:
        source.reset()
    policy.reset(n)

    queue = np.zeros(n)
    cum = np.zeros(n)
    total_load = np.zeros(n)
    kept = []
    t = 0
    try:
        for t in range(1, horizon + 1):
            active = queue > EMPTY_TOLERANCE
            alloc = policy.decide(active)
            if matrix is not None:
                load = matrix[t - 1]
            else:
                try:
                    load = source.next(t, alloc, active)
                except LoadExhausted as exc:
                    raise LoadExhausted(f"load source exhausted at step {t}: {exc}") from exc
            work, queue = _update(queue, alloc, load)
            cum = cum + work
            total_load += load
            kept.append([np.array(x, dtype=np.float64) for x in (alloc, work, queue, load, cum)])
        t = horizon + 1

        def check(what, k, ok, how):
            # Column k of every step's row, named at its first failing step.
            rows = [row[k] for row in kept]
            bad = [s for s, x in enumerate(rows, 1) if not ok(x)]
            if bad:
                raise InvariantViolation(f"{what} {rows[bad[0] - 1]} at step {bad[0]} {how}")

        check(
            "a load",
            3,
            lambda x: x.min() >= 0.0 and x.max() < np.inf,
            "is negative, NaN or infinite",
        )
        check(
            "an allocation",
            0,
            lambda x: x.min() >= 0.0 and x.sum() <= 1 + 1e-12,
            "is negative, NaN or sums above 1",
        )
    except Exception as exc:
        exc.step = t
        raise

    steps = np.arange(stride, horizon + 1, stride)
    if len(steps) == 0 or steps[-1] != horizon:
        steps = np.append(steps, horizon)
    alloc, work, queue_rows, load, cum_work = (
        np.array([kept[s - 1][k] for s in steps]) for k in range(5)
    )
    return SimulationTrace(
        policy=getattr(policy, "name", type(policy).__name__),
        steps=steps,
        alloc=alloc,
        work=work,
        queue=queue_rows,
        load=load,
        cum_work=cum_work,
        total_work=cum,
        total_load=total_load,
        final_queue=queue,
        horizon=horizon,
    )


def _update_both_ways(queue, alloc, load):
    """_update's allocating result, checked bitwise against its out= form."""
    work, after = _update(queue=queue, alloc=alloc, load=load)
    out = (np.full_like(queue, np.nan), np.full_like(queue, np.nan))
    assert all(got is buf for got, buf in zip(_update(queue, alloc, load, out=out), out))
    assert np.array_equal(out[0], work) and np.array_equal(out[1], after)
    return work, after


def test_step_serves_from_load_plus_queue():
    work, after = _update_both_ways(
        queue=np.array([0.0, 1.0]),
        alloc=np.array([0.5, 0.5]),
        load=np.array([1.0, 0.0]),
    )
    assert np.array_equal(work, [0.5, 0.5])
    assert np.array_equal(after, [0.5, 0.5])


def test_step_never_serves_more_than_available():
    work, after = _update_both_ways(
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

    def reset(self):
        pass

    def next(self, t, alloc, active):
        return self.rows[t - 1]


class _Late:
    """Splits the resource evenly up to step `step - 1`, then returns `bad`."""

    name = "late"

    def __init__(self, n, step, bad):
        self.even, self.step, self.bad = np.full(n, 1.0 / n), step, bad

    def reset(self, n_users):
        self.t = 0

    def decide(self, active):
        self.t += 1
        return self.bad if self.t >= self.step else self.even


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
    match = r"^row 0 \(static\): a load \[nan 0\.5\] at step 2 is negative, NaN or infinite$"
    with pytest.raises(InvariantViolation, match=match):
        run(StaticSla(SlaVector(np.array([0.5, 0.5]))), source, horizon=3)


def test_run_rejects_an_infinite_load():
    # Fails without the check: the load passed the sign test and was caught
    # only after the loop, by its load total, with no step named.  At stride
    # 7 step 2 is not kept, and is named all the same.
    source = _Rows([[0.5, 0.5], [np.inf, 0.5], [0.5, 0.5]])
    match = r"^row 0 \(static\): a load \[inf 0\.5\] at step 2 is negative, NaN or infinite$"
    for stride in (1, 7):
        with pytest.raises(InvariantViolation, match=match):
            run(StaticSla(SlaVector(np.array([0.5, 0.5]))), source, horizon=3, stride=stride)


@pytest.mark.parametrize(
    "stride, step",
    [(1, 2), (7, 2), (7, 7)],
    ids=["stride1", "stride7-skipped", "stride7-kept"],
)
def test_run_rejects_a_negative_load(stride, step):
    # Fails without the check: the run recorded work -0.5 for user 0.  At
    # stride 7 step 2 is not kept, and is named all the same.
    rows = np.full((10, 2), 0.5)
    rows[step - 1] = (-0.5, 0.5)
    sla = SlaVector(np.array([0.5, 0.5]))
    match = (
        rf"^row 0 \(static\): a load \[-0\.5  0\.5\] at step {step} "
        r"is negative, NaN or infinite$"
    )
    with pytest.raises(InvariantViolation, match=match):
        run(StaticSla(sla), _Rows(rows), horizon=10, stride=stride)


class _Matrix:
    """A fixed source of the caller's own array, writeable and unchecked."""

    def __init__(self, matrix):
        self.matrix, self.n_users = matrix, matrix.shape[1]


def test_run_rejects_a_load_matrix_changed_after_it_was_checked():
    # Fails without the check: a fixed source that keeps the caller's array
    # (PrecomputedLoads did) let the run read the load -5.0 and return
    # total_work [-3.5 1.8], no error.
    m = np.full((6, 2), 0.3)
    src = _Matrix(m)
    assert np.array_equal(PrecomputedLoads(m).matrix, m)  # m passes the check
    m[2, 0] = -5.0
    sla = SlaVector(np.array([0.5, 0.5]))
    match = r"^row 0 \(po\): a load \[-5\.   0\.3\] at step 3 is negative, NaN or infinite$"
    with pytest.raises(InvariantViolation, match=match):
        run(OnlineProportional(sla), src, 6)


def test_precomputed_loads_copies_a_writeable_array():
    # Fails without the copy: src.matrix was m, so the write reached the run.
    m = np.full((6, 2), 0.3)
    src = PrecomputedLoads(m)
    m[2, 0] = -5.0
    assert not np.shares_memory(src.matrix, m) and src.matrix[2, 0] == 0.3
    with pytest.raises(ValueError):
        src.matrix[2, 0] = -5.0
    trace = run(OnlineProportional(SlaVector(np.array([0.5, 0.5]))), src, 6)
    assert np.all(trace.load == 0.3)


def test_a_pg_row_over_a_nan_load_names_its_row_and_step():
    # pg's row is checked like any row: the engine's block check names the
    # bad load with its row and step, where pg's own check of the matrix
    # raised a ValueError when the row was built.
    m = np.full((4, 2), 0.5)
    m[1, 0] = np.nan
    src = _Matrix(m)
    match = r"^row 0 \(pg\): a load \[nan 0\.5\] at step 2 is negative, NaN or infinite$"
    with pytest.raises(InvariantViolation, match=match):
        run(proportional_greedy(src, SlaVector(np.array([0.5, 0.5]))), src, 4)


def test_run_rejects_a_nan_allocation():
    source = PrecomputedLoads(np.full((3, 2), 0.5))
    match = (
        r"^row 0 \(recording\): an allocation \[nan 0\.5\] at step 1 "
        r"is negative, NaN or sums above 1$"
    )
    with pytest.raises(InvariantViolation, match=match):
        run(_Recording([np.nan, 0.5]), source, horizon=3)


@pytest.mark.parametrize(
    "alloc", [(0.9, 0.9), (-0.1, 0.5), (np.inf, 0.0), (-np.inf, 0.5), (np.nan, 0.5)]
)
@pytest.mark.parametrize("stride", [1, 7])
def test_run_rejects_an_over_capacity_allocation(alloc, stride):
    # Fails without the check: (0.9, 0.9) completed 1.8 units of work per
    # step, and (-inf, 0.5) was reported as a NaN work total.  At stride 7
    # step 1 is not kept, and is named all the same.
    source = PrecomputedLoads(np.ones((10, 2)))
    match = r"^row 0 \(recording\): an allocation \[.*\] at step 1 is negative, NaN or"
    with pytest.raises(InvariantViolation, match=match):
        run(_Recording(alloc), source, horizon=10, stride=stride)


@pytest.mark.parametrize("stride", [1, 7, 40])
@pytest.mark.parametrize("fault", ["allocation", "load"])
def test_a_fault_in_a_later_block_is_named_with_its_step(stride, fault):
    # At N = 1000 one row's block is 8 steps, so step 20 lies in the third
    # block and, at strides 7 and 40, is not kept.  The message stays on one
    # line, with the offending row summarized.
    n, horizon = 1000, 40
    sla = SlaVector(np.full(n, 1.0 / n))
    loads = np.full((horizon, n), 0.5 / n)
    policy = StaticSla(sla)
    if fault == "allocation":
        bad = np.full(n, 1.0 / n)
        bad[0] = -0.25
        policy = _Late(n, 20, bad)
    else:
        loads[19, 0] = -0.25
    match = (
        rf"^row 0 \({policy.name}\): an? {fault} \[-0\.25 .*\] at step 20 "
        r"is negative, NaN or (sums above 1|infinite)$"
    )
    with pytest.raises(InvariantViolation, match=match) as err:
        run(policy, _Rows(loads), horizon=horizon, stride=stride)
    assert "\n" not in str(err.value) and "..." in str(err.value)


class _RaiseAt(_Late):
    """Splits the resource evenly up to step `step - 1`, then raises."""

    name = "raising"

    def decide(self, active):
        even = super().decide(active)
        if self.t >= self.step:
            raise RuntimeError(f"raised at step {self.t}")
        return even


@pytest.mark.parametrize(
    "raise_at, wins, match",
    [
        (3, RuntimeError, r"^raised at step 3$"),
        (6, InvariantViolation, r"^row 0 \(late\): an allocation \[-0\.25 .*\] at step 2 "),
    ],
    ids=["same-block", "later-block"],
)
def test_a_block_fault_and_a_later_row_error_surface_in_step_order(raise_at, wins, match):
    # B = 2 rows at N = 1000 make blocks of K = 4 steps.  Row 0's allocation
    # goes bad at step 2, which the engine names at the end of block 1 (step
    # 4); row 1 raises mid-loop.  At step 3 it raises before that check and
    # wins; at step 6 the check has already raised.
    n, horizon = 1000, 8
    assert _Recorder(horizon, 1, (2, n), [None, None]).block == 4
    bad = np.full(n, 1.0 / n)
    bad[0] = -0.25
    source = PrecomputedLoads(np.full((horizon, n), 0.5 / n))
    rows = [(_Late(n, 2, bad), source), (_RaiseAt(n, raise_at, None), source)]
    with pytest.raises(RuntimeError, match=match) as err:  # InvariantViolation is one
        run_batch(rows, horizon=horizon)
    assert type(err.value) is wins


def test_an_infinite_load_in_an_earlier_block_wins_over_a_later_row_error():
    # Fails without the block check of infinite loads: row 1 raised at step 6
    # first, and the load total after the loop was never reached.  Blocks
    # are K = 4 steps, as above; row 0's load at step 2 is infinite.
    n, horizon = 1000, 8
    loads = np.full((horizon, n), 0.5 / n)
    loads[1, 0] = np.inf
    sla = SlaVector(np.full(n, 1.0 / n))
    source = PrecomputedLoads(np.full((horizon, n), 0.5 / n))
    rows = [(StaticSla(sla), _Rows(loads)), (_RaiseAt(n, 6, None), source)]
    match = r"^row 0 \(static\): a load \[ +inf .*\] at step 2 is negative, NaN or infinite$"
    with pytest.raises(InvariantViolation, match=match):
        run_batch(rows, horizon=horizon)


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
            lambda src, stride: run(proportional_greedy(src, _THIN_SLA), src, 100, stride=stride),
            id="proportional_greedy",
        ),
        pytest.param(
            lambda src, stride: run(simple_greedy(src, 0.9), src, 100, stride=stride),
            id="simple_greedy",
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


def _pg_run(matrix):
    source = PrecomputedLoads(matrix)
    return run(proportional_greedy(source, _THIN_SLA), source, horizon=100)


def test_a_one_step_run_is_full_at_any_stride():
    trace = run(StaticSla(_THIN_SLA), PrecomputedLoads(np.ones((1, 3))), horizon=1, stride=7)
    assert np.array_equal(trace.steps, [1]) and trace.is_full


@pytest.mark.parametrize(
    "schedule",
    [
        pytest.param(
            lambda m: run(StaticSla(_THIN_SLA), PrecomputedLoads(m), horizon=80), id="run"
        ),
        pytest.param(_pg_run, id="proportional_greedy"),
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
    assert not matrix.flags.writeable and np.array_equal(matrix, before)


@pytest.mark.parametrize("stride", [1, 7])
def test_every_trace_array_is_read_only(stride):
    # Fails without the freeze: the arrays were writeable views of the
    # batch's buffers, and steps was one writeable array that every row's
    # trace shares.
    sla = SlaVector(np.array([0.5, 0.5]))
    fixed = bernoulli_gamma_fuzz(n_users=2, horizon=20, seed=5)
    rows = [(StaticSla(sla), fixed), (OnlineProportional(sla), QueueAdversary())]
    for trace in run_batch(rows, horizon=20, stride=stride):
        for name in _TRACE_FIELDS:
            value = getattr(trace, name)
            if isinstance(value, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    value[-1] = 0


def test_run_validates_arguments():
    source = PrecomputedLoads(np.zeros((4, 2)))
    policy = StaticSla(SlaVector(np.array([0.5, 0.5])))
    with pytest.raises(ValueError):
        run(policy, source, horizon=0)
    with pytest.raises(ValueError):
        run(policy, source, horizon=4, stride=0)


_TRACE_FIELDS = [f.name for f in dataclasses.fields(SimulationTrace)]
_ONLINE_TYPES = [name for name, spec in POLICY_TYPES.items() if spec.build is not None]


@st.composite
def _batches(draw):
    """A batch: horizon, stride and, per row, its policy name and a factory
    of fresh (policy, source) pairs.

    Rows mix every type in POLICY_TYPES (mw and mw_prop monitored or not,
    the offline greedies at capacity 1 or 0.9) over up to three load
    matrices, shared or separate; in about half the batches N is 2 and one
    online row is driven by its own QueueAdversary.  Half the batches allow
    zero SLA shares, so po and pg can raise DegenerateSlaError and the
    error path is compared too.  Half the
    batches gain a faulty row at a random place, from a random step on: a
    policy returning a bad allocation, or an adaptive source yielding a
    negative, NaN or infinite load.  So the block checks are compared too.
    """
    adversary = draw(st.booleans())
    n = 2 if adversary else draw(st.integers(2, 12))
    horizon = draw(st.integers(1, 40))
    stride = draw(st.sampled_from([1, 7, horizon]))
    share = st.floats(0.01, 1.0)
    if draw(st.booleans()):
        share = share | st.just(0.0)
    weights = np.array(draw(st.lists(share, min_size=n, max_size=n)))
    scale = draw(st.sampled_from([1.0, 0.9]))
    beta = weights / weights.sum() * scale if weights.sum() > 0 else weights
    sla = SlaVector(beta)
    params = PolicyParams(
        n_users=n,
        epsilon=draw(st.sampled_from([0.02, 0.05, 0.1])),
        eta=draw(st.sampled_from([1.0 / 3.0, 0.2])),
    )
    seed = draw(st.integers(0, 2**16))
    matrices = [
        bernoulli_gamma_fuzz(n, horizon + draw(st.integers(0, 3)), seed + k) for k in range(3)
    ]
    b = draw(st.integers(1, 5))
    specs = [
        (draw(st.sampled_from(list(POLICY_TYPES))), draw(st.booleans()), draw(st.integers(0, 2)))
        for _ in range(b)
    ]
    if adversary:
        specs[draw(st.integers(0, b - 1))] = (
            draw(st.sampled_from(_ONLINE_TYPES)), draw(st.booleans()), None
        )

    def row(spec):
        name, monitor, k = spec
        replay = POLICY_TYPES[name].replay
        if replay is not None:
            return replay(matrices[k], sla, 0.9 if monitor else 1.0), matrices[k]
        policy = make_policy(name, sla, params, monitor_lemmas=monitor)
        return policy, QueueAdversary() if k is None else matrices[k]

    rows = [(spec[0], lambda spec=spec: row(spec)) for spec in specs]
    if draw(st.booleans()):
        step = draw(st.integers(1, horizon))
        loads = matrices[0].matrix
        fault = draw(st.sampled_from(["over", "negative", "nan", "-load", "nan-load", "inf-load"]))
        if fault.endswith("load"):
            bad = loads.copy()
            bad[step - 1:, 0] = {"-load": -0.25, "nan-load": np.nan, "inf-load": np.inf}[fault]
            faulty = ("static", lambda: (StaticSla(sla), _Rows(bad)))
        else:
            alloc = np.full(n, 1.0 / n)
            alloc[0] = {"over": 1.5, "negative": -0.25, "nan": np.nan}[fault]
            faulty = ("late", lambda: (_Late(n, step, alloc), matrices[0]))
        rows.insert(draw(st.integers(0, len(rows))), faulty)
    return horizon, stride, rows


def _outcome(call):
    try:
        return call(), None
    except Exception as exc:  # compared with the reference's exception
        return None, exc


@settings(max_examples=200, deadline=None)
@given(case=_batches())
def test_run_batch_rows_match_a_reference_run_alone(case):
    horizon, stride, rows = case
    batch, error = _outcome(lambda: run_batch([row() for _, row in rows], horizon, stride=stride))
    refs = [_outcome(lambda row=row: _reference_run(*row(), horizon, stride)) for _, row in rows]
    failed = [(exc.step, r, exc) for r, (_, exc) in enumerate(refs) if exc is not None]
    if not failed:
        assert error is None, repr(error)
        for r, (ref, _) in enumerate(refs):
            for name in _TRACE_FIELDS:
                got, want = getattr(batch[r], name), getattr(ref, name)
                assert np.array_equal(got, want), f"row {r} field {name}"
        return
    # Rows step in lockstep and in row order within a step, so the batch
    # stops at the row whose run alone fails first.
    _, r, want = min(failed, key=lambda f: f[:2])
    assert type(error) is type(want)
    assert str(error) in (str(want), f"row {r} ({rows[r][0]}): {want}")


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize(
    "n, horizon, block", [(2, 600, 256), (1000, 21, 2)], ids=["n2-K256", "n1000-K2"]
)
def test_run_batch_rows_match_a_reference_run_alone_over_many_blocks(n, horizon, block, stride):
    # Every batch _batches draws fits in one block; these span several, with
    # a shorter last one (600 = 256 + 256 + 88 and 21 = 10 x 2 + 1), so the
    # engine's block copy of the load matrices is compared too.  Two rows
    # share a matrix longer than the horizon, one has its own, and at N = 2
    # a row is driven by its own adversary.
    sla = SlaVector(np.full(n, 1.0 / n))
    params = PolicyParams(n_users=n, epsilon=0.05, eta=1.0 / 3.0)
    shared = bernoulli_gamma_fuzz(n, horizon + 50, seed=3)
    own = bernoulli_gamma_fuzz(n, horizon, seed=4)
    rows = [
        lambda: (make_policy("mw_prop", sla, params), shared),
        lambda: (proportional_greedy(shared, sla), shared),
        lambda: (OnlineProportional(sla), own),
    ]
    if n == 2:
        rows.append(lambda: (make_policy("mw", sla, params), QueueAdversary()))
    assert _Recorder(horizon, stride, (len(rows), n), [None] * len(rows)).block == block
    batch = run_batch([row() for row in rows], horizon, stride=stride)
    for r, row in enumerate(rows):
        ref = _reference_run(*row(), horizon, stride)
        for name in _TRACE_FIELDS:
            got, want = getattr(batch[r], name), getattr(ref, name)
            assert np.array_equal(got, want), f"row {r} field {name}"


def test_run_batch_rejects_an_empty_batch():
    with pytest.raises(ValueError, match="at least one"):
        run_batch([], horizon=3)


def test_run_batch_rejects_one_adaptive_source_in_two_rows():
    sla = SlaVector(np.array([0.5, 0.5]))
    shared = QueueAdversary()
    rows = [
        (StaticSla(sla), shared),
        (OnlineProportional(sla), QueueAdversary()),
        (OnlineProportional(sla), shared),
    ]
    with pytest.raises(ValueError, match=r"rows 0 \(static\) and 2 \(po\) share one adaptive"):
        run_batch(rows, horizon=3)


def test_run_batch_rejects_one_policy_in_two_rows():
    policy = OnlineWorkMaximizing()
    source = PrecomputedLoads(np.ones((3, 2)))
    with pytest.raises(ValueError, match=r"rows 0 \(owm\) and 1 \(owm\) share one policy"):
        run_batch([(policy, source), (policy, source)], horizon=3)


def test_an_offline_row_must_replay_its_own_source():
    # The greedy would serve a's loads of 0.1 while b's loads of 0.4 arrive.
    a = PrecomputedLoads(np.full((4, 2), 0.1))
    b = PrecomputedLoads(np.full((4, 2), 0.4))
    match = r"^row 0 \(simple_greedy\) replays another load source than its own$"
    with pytest.raises(ValueError, match=match):
        run(simple_greedy(a), b, 4)
    assert run(simple_greedy(b), b, 4).total_work.tolist() == [1.6, 1.6]


def test_run_batch_rejects_rows_that_disagree_on_n_users():
    rows = [
        (OnlineWorkMaximizing(), PrecomputedLoads(np.ones((3, 2)))),
        (OnlineWorkMaximizing(), PrecomputedLoads(np.ones((3, 3)))),
    ]
    match = r"rows 0 \(owm\) and 1 \(owm\) disagree on n_users: 2 and 3"
    with pytest.raises(ValueError, match=match):
        run_batch(rows, horizon=3)


def test_run_batch_mid_run_exhaustion_names_the_row_and_policy():
    class Dribble(_Rows):
        def next(self, t, alloc, active):
            if t > 3:
                raise LoadExhausted("dry")
            return super().next(t, alloc, active)

    sla = SlaVector(np.array([0.5, 0.5]))
    rows = [
        (StaticSla(sla), PrecomputedLoads(np.ones((5, 2)))),
        (OnlineWorkMaximizing(), _Rows(np.ones((5, 2)))),
        (OnlineProportional(sla), Dribble(np.ones((5, 2)))),
    ]
    match = r"^row 2 \(po\): load source exhausted at step 4: dry$"
    with pytest.raises(LoadExhausted, match=match):
        run_batch(rows, horizon=5)


def test_run_batch_invariant_violation_names_the_row_and_policy():
    sla = SlaVector(np.array([0.5, 0.5]))
    rows = [
        (StaticSla(sla), PrecomputedLoads(np.ones((3, 2)))),
        (OnlineWorkMaximizing(), _Rows(np.ones((3, 2)))),
        (OnlineProportional(sla), _Rows([[0.5, 0.5], [np.nan, 0.5], [0.5, 0.5]])),
    ]
    match = r"^row 2 \(po\): a load \[nan 0\.5\] at step 2 is negative, NaN or infinite$"
    with pytest.raises(InvariantViolation, match=match):
        run_batch(rows, horizon=3)


def test_run_batch_capacity_violation_names_the_row_and_first_step():
    class Late(_Recording):
        def decide(self, active):
            return np.array([0.9, 0.9]) if len(self.seen) >= 3 else super().decide(active)

    sla = SlaVector(np.array([0.5, 0.5]))
    rows = [
        (StaticSla(sla), PrecomputedLoads(np.ones((6, 2)))),
        (OnlineWorkMaximizing(), _Rows(np.ones((6, 2)))),
        (Late([0.5, 0.5]), PrecomputedLoads(np.ones((6, 2)))),
    ]
    match = (
        r"^row 2 \(recording\): an allocation \[0\.9 0\.9\] at step 4 "
        r"is negative, NaN or sums above 1$"
    )
    with pytest.raises(InvariantViolation, match=match):
        run_batch(rows, horizon=6)


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


def test_sla_vector_holds_a_read_only_copy_of_its_shares():
    # Fails without the copy: sla.beta was the caller's array, and writing
    # 0.9 into it left shares that sum to 1.4.
    beta = np.array([0.5, 0.5])
    sla = SlaVector(beta)
    beta[0] = 0.9
    assert sla.beta.tolist() == [0.5, 0.5]
    with pytest.raises(ValueError):
        sla.beta[0] = 0.9
    assert sla.beta.tolist() == [0.5, 0.5]


def test_policy_params_validation_and_canonical_boost():
    p = PolicyParams(n_users=4, epsilon=0.1, eta=0.25)
    assert p.boost == 0.1**2 / (8.0 * 4)
    with pytest.raises(TypeError):
        PolicyParams(n_users=4, epsilon=0.1, eta=0.25, boost=0.001)
    with pytest.raises(ValueError):
        PolicyParams(n_users=1, epsilon=0.05, eta=0.1)
    with pytest.raises(ValueError):
        PolicyParams(n_users=2, epsilon=0.2, eta=0.1)
    with pytest.raises(ValueError):
        PolicyParams(n_users=2, epsilon=0.05, eta=0.4)
