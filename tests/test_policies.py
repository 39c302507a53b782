"""Allocation policies: multiplicative-weights update rules, the static,
proportional and work-maximizing baselines, and the monitored growth
guarantees."""

from __future__ import annotations

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slasim import PolicyParams, SlaVector, policies, projection, run
from slasim.core import DegenerateSlaError, LemmaViolation
from slasim.policies import (
    LEMMA_SLACK,
    MultiplicativeWeights,
    OnlineProportional,
    OnlineWorkMaximizing,
    StaticSla,
    make_policy,
)
from slasim.projection import SMALL_N, project_truncated_simplex
from slasim.workloads import PrecomputedLoads, bernoulli_gamma_fuzz


def _params(n: int, eps: float = 0.05, eta: float = 1.0 / 3.0) -> PolicyParams:
    return PolicyParams(n_users=n, epsilon=eps, eta=eta)


def _under(policy: MultiplicativeWeights, h, active) -> np.ndarray:
    """The underserved mask of one step: the users of gain index 2."""
    return policy._step(h, active)[1] == 2


def _check(policy: MultiplicativeWeights, h, h_new, active, under) -> None:
    """Run the lemma monitors on one update given its underserved mask."""
    policy._check_lemmas(h, h_new, active, np.add(active, under, dtype=np.intp))


def _first_update(sla: SlaVector, params: PolicyParams, active) -> np.ndarray:
    """One update from the uniform start allocation 1/N."""
    policy = MultiplicativeWeights(sla, params)
    policy.reset(sla.n)
    return policy.decide(np.array(active))


# ---------------------------------------------------------------- update rule


def test_equal_gains_cancel_exactly():
    # Both users active and at their share: gains are equal, the common
    # exponential factor drops out in the projection.
    sla = SlaVector(np.array([0.5, 0.5]))
    out = _first_update(sla, _params(2), [True, True])
    assert np.array_equal(out, [0.5, 0.5])


def test_single_active_user_closed_form():
    # One served active user against one idle: exponent gap is eta, so the
    # new split is e^eta : 1 before flooring.
    sla = SlaVector(np.array([0.5, 0.5]))
    out = _first_update(sla, _params(2, eps=0.05), [True, False])
    e = np.exp(1.0 / 3.0)
    assert out[0] == pytest.approx(e / (1.0 + e), abs=1e-12)
    assert out[1] == pytest.approx(1.0 / (1.0 + e), abs=1e-12)


def _mw(beta, eps: float = 0.05, proportional: bool = False) -> MultiplicativeWeights:
    beta = np.asarray(beta, dtype=float)
    return MultiplicativeWeights(SlaVector(beta), _params(beta.size, eps), proportional)


def test_exact_share_counts_as_served():
    policy = _mw([0.3, 0.7])
    h = np.array([0.3, 0.7])
    active = np.array([True, True])
    under = _under(policy, h, active)
    assert not under.any()
    under = _under(policy, h - 1e-9, active)
    assert under.all()


def test_gain_is_exactly_zero_one_or_one_plus_boost():
    policy = _mw([0.5, 0.25, 0.25])
    h = np.array([0.2, 0.4, 0.4])
    factors, gain = policy._step(h, np.array([True, True, False]))
    under = gain == 2
    assert list(under) == [True, False, False]
    p = policy.params
    assert np.array_equal(factors, np.exp(p.eta * np.array([1.0 + p.boost, 1.0, 0.0])))


@pytest.mark.parametrize("proportional", [False, True], ids=["basic", "prop"])
@pytest.mark.parametrize("n", [2, 3, 7, 8, 1000])
def test_step_factors_are_exp_of_the_gain_bitwise(n, proportional):
    # decide looks the factor up in a table of three; it must be the very
    # exp(eta * gain) that the gain vector gives, bit for bit.
    rng = np.random.default_rng(n)
    policy = _mw(rng.dirichlet(np.ones(n)), proportional=proportional)
    p = policy.params
    seen = set()
    for _ in range(20):
        h = rng.dirichlet(np.ones(n))
        active = rng.random(n) < 0.6
        factors, gain = policy._step(h, active)
        under = gain == 2
        assert np.array_equal(factors, np.exp(p.eta * (active + p.boost * under)))
        seen.update(zip(active.tolist(), under.tolist()))
    assert seen == {(False, False), (True, False), (True, True)}


def test_underserved_user_gains_on_served_user():
    sla = SlaVector(np.array([0.7, 0.3]))
    out = _first_update(sla, _params(2), [True, True])
    # user 1 sits at 0.5, below their 0.7 share, and receives the boosted exponent
    assert out[0] > 0.5
    assert out[1] < 0.5
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_proportional_threshold_uses_active_share():
    policy = _mw([0.2, 0.3, 0.5], eps=0.1, proportional=True)
    active = np.array([True, True, False])
    h = np.array([0.35, 0.55, 0.10])
    # active share is 0.5; targets are (1-eps) * (0.4, 0.6, .)
    under = _under(policy, h, active)
    assert list(under) == [True, False, False]


def test_zero_active_share_never_underserved():
    policy = _mw([0.0, 0.5, 0.5], eps=0.1, proportional=True)
    active = np.array([True, False, False])
    h = np.array([0.2, 0.4, 0.4])
    under = _under(policy, h, active)
    assert not under.any()


def test_updates_stay_in_truncated_simplex(rng):
    sla = SlaVector(np.array([0.1, 0.2, 0.3, 0.4]))
    policy = MultiplicativeWeights(sla, _params(4, eps=0.08), proportional=True)
    policy.reset(4)
    for _ in range(200):
        h = policy.decide(rng.random(4) < 0.5)
        assert h.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(h >= 0.08 / 4 - 1e-15)


# ------------------------------------------------ the float step at small N


def _numpy_step(policy: MultiplicativeWeights, h, active) -> np.ndarray:
    """One update as `_step` and the numpy projection, the path of SMALL_N
    users and more."""
    factors, _ = policy._step(h, active)
    with mock.patch.object(projection, "SMALL_N", 2):
        return project_truncated_simplex(h * factors, policy.params.epsilon)


@pytest.mark.parametrize("monitor", [False, True], ids=["plain", "monitored"])
@pytest.mark.parametrize("proportional", [False, True], ids=["basic", "prop"])
@pytest.mark.parametrize("n", range(2, SMALL_N + 1))
def test_small_n_step_matches_the_numpy_step_bitwise(n, proportional, monitor):
    # Below SMALL_N users decide runs on Python floats; every allocation of
    # a fuzz run must be the numpy step's, bit for bit.  User 0 has a zero
    # share.  Some steps activate only user 0 (mw_prop's zero active share)
    # or nobody; others start from a point of the truncated simplex with an
    # active user exactly at their threshold, which counts as served.
    rng = np.random.default_rng(n)
    beta = 0.9 * rng.dirichlet(np.ones(n))
    beta[0] = 0.0
    policy = MultiplicativeWeights(SlaVector(beta), _params(n), proportional, monitor)
    policy.reset(n)
    assert policy._small == (n < SMALL_N)
    floor = policy.params.epsilon / n
    at_threshold = 0
    for t in range(600):
        active = rng.random(n) < 0.6
        if t % 10 == 3:
            active[:] = False
        elif t % 10 == 6:
            active = np.arange(n) == 0
        elif t % 10 == 8 and active[1:].any():
            threshold = policy._target
            if proportional:
                threshold = threshold / beta[active].sum()
            j = 1 + int(rng.choice(np.flatnonzero(active[1:])))
            if floor <= threshold[j] <= 1.0 - (n - 1) * floor:
                rest = 1.0 - threshold[j] - (n - 1) * floor
                h = np.insert(floor + rest * rng.dirichlet(np.ones(n - 1)), j, threshold[j])
                assert policy._step(h, active)[1][j] == 1
                policy._h = h
                at_threshold += 1
        want = _numpy_step(policy, policy._h, active)
        got = policy.decide(active)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), t
    assert at_threshold > 20


@pytest.mark.parametrize("n", [2, SMALL_N])
def test_a_monitored_decide_checks_its_own_update(n):
    # On floats or on numpy, decide hands its update to the same monitors:
    # an update that halves the one active user's allocation trips the
    # low-usage bound at step 1.
    policy = MultiplicativeWeights(
        SlaVector(np.full(n, 1.0 / n)), _params(n), monitor_lemmas=True
    )
    policy.reset(n)
    assert policy._small == (n < SMALL_N)
    shrunk = np.full(n, 1.0 / n)
    shrunk[0] *= 0.5
    message = (
        "step 1: active user allocation grew less than the (1 + eps*eta/4N) factor at low usage"
    )
    with mock.patch.object(policies, "project_truncated_simplex", lambda y, eps: shrunk):
        with pytest.raises(LemmaViolation, match=_exactly(message)):
            policy.decide(np.arange(n) == 0)


# ----------------------------------------------------- stabilization behavior


class _StaggeredJoin:
    """User 2 demands constantly; user 3 joins for good once user 2's
    allocation reaches 1 - eps; user 1 never demands anything."""

    n_users = 3

    def __init__(self, eps: float):
        self.eps = eps
        self.joined = False

    def reset(self):
        self.joined = False

    def next(self, t, alloc, active):
        if alloc[1] >= 1.0 - self.eps:
            self.joined = True
        load = np.array([0.0, 1.0, 0.0])
        if self.joined:
            load[2] = 1.0
        return load


def test_basic_variant_parks_at_sla_floor():
    # With shares (0.5, 0.3, 0.2) and only users 2 and 3 active, the basic
    # rule settles near (eps/3, 0.8 - eps/3, 0.2): user 3 stops gaining the
    # moment they reach exactly their SLA while user 2 keeps the rest.
    eps = 0.1
    sla = SlaVector(np.array([0.5, 0.3, 0.2]))
    policy = MultiplicativeWeights(sla, _params(3, eps=eps))
    trace = run(policy, _StaggeredJoin(eps), horizon=30000, stride=30000)
    h = trace.alloc[-1]
    assert h[0] == pytest.approx(eps / 3.0, abs=0.01)
    assert h[1] == pytest.approx(0.8 - eps / 3.0, abs=0.01)
    assert h[2] == pytest.approx(0.2, abs=0.01)


def test_proportional_variant_respects_sla_ratio():
    # Same scenario under the proportional rule: user 3 is boosted up to
    # (1 - eps) of their proportional share 2/5 of the active pool, so the
    # split lands near (0.6, 0.4) instead of the basic rule's (0.77, 0.2).
    eps = 0.1
    sla = SlaVector(np.array([0.5, 0.3, 0.2]))
    policy = MultiplicativeWeights(sla, _params(3, eps=eps), proportional=True)
    trace = run(policy, _StaggeredJoin(eps), horizon=30000, stride=30000)
    h = trace.alloc[-1]
    assert h[2] == pytest.approx((1.0 - eps) * 0.4, abs=0.01)
    assert h[1] == pytest.approx(1.0 - eps / 3.0 - (1.0 - eps) * 0.4, abs=0.01)
    # ratio lands within 15% of the SLA ratio 1.5; the basic rule gives 3.8
    assert h[1] / h[2] == pytest.approx(1.5, rel=0.15)


# ------------------------------------------------------------------ baselines


def test_static_always_returns_sla():
    sla = SlaVector(np.array([0.2, 0.3, 0.5]))
    policy = StaticSla(sla)
    policy.reset(3)
    for pattern in ([True, True, True], [False, False, False], [True, False, True]):
        assert np.array_equal(policy.decide(np.array(pattern)), sla.beta)


def test_proportional_baseline_renormalizes_over_actives():
    sla = SlaVector(np.array([0.2, 0.3, 0.5]))
    policy = OnlineProportional(sla)
    policy.reset(3)
    out = policy.decide(np.array([True, False, True]))
    # 0.2 + 0.5 is 0.7 in floating point, so each share is one division.
    assert np.array_equal(out, [0.2 / 0.7, 0.0, 0.5 / 0.7])
    # nobody active: fall back to the SLA itself
    assert np.array_equal(policy.decide(np.zeros(3, dtype=bool)), sla.beta)


def test_proportional_baseline_rejects_zero_active_share():
    sla = SlaVector(np.array([0.0, 0.5, 0.5]))
    policy = OnlineProportional(sla)
    policy.reset(3)
    with pytest.raises(DegenerateSlaError):
        policy.decide(np.array([True, False, False]))


def test_work_maximizing_rotates_service():
    policy = OnlineWorkMaximizing()
    policy.reset(3)
    # everyone starts served; only users 0 and 1 are busy
    out = policy.decide(np.array([True, True, False]))
    assert np.array_equal(out, [0.5, 0.5, 0.0])
    # user 2 turns busy: they wait while the served set drains
    out = policy.decide(np.array([True, True, True]))
    assert np.array_equal(out, [0.5, 0.5, 0.0])
    # served set finishes; the waiting set is promoted wholesale
    out = policy.decide(np.array([False, False, True]))
    assert np.array_equal(out, [0.0, 0.0, 1.0])
    # nobody busy at all: allocate nothing
    out = policy.decide(np.zeros(3, dtype=bool))
    assert np.array_equal(out, [0.0, 0.0, 0.0])


def test_work_maximizing_keeps_served_until_drained():
    policy = OnlineWorkMaximizing()
    policy.reset(2)
    assert np.array_equal(policy.decide(np.array([True, False])), [1.0, 0.0])
    # user 1 arrives while user 0 still holds the resource
    assert np.array_equal(policy.decide(np.array([True, True])), [1.0, 0.0])
    assert np.array_equal(policy.decide(np.array([False, True])), [0.0, 1.0])


# ------------------------------------------------------------------- monitors


@pytest.mark.parametrize("proportional", [False, True])
def test_monitored_run_raises_no_violations(proportional):
    sla = SlaVector(np.array([0.3, 0.3, 0.4]))
    policy = MultiplicativeWeights(
        sla, _params(3, eps=0.06), proportional=proportional, monitor_lemmas=True
    )
    source = bernoulli_gamma_fuzz(n_users=3, horizon=2000, seed=17)
    trace = run(policy, source, horizon=2000)
    assert trace.conservation_residual() < 1e-9


def _monitored(sla, proportional: bool = False) -> MultiplicativeWeights:
    """A monitored two-user policy whose checks report step 1, as in the
    first decide."""
    policy = MultiplicativeWeights(
        SlaVector(np.array(sla)), _params(2), proportional=proportional, monitor_lemmas=True
    )
    policy.reset(2)
    policy._t = 1
    return policy


def _exactly(message: str) -> str:
    return f"^{re.escape(message)}$"


def test_low_usage_growth_bound_triggers_when_violated():
    # Feed the monitor a poisoned update by hand: allocations that shrink
    # on an active user at low usage must raise.
    policy = _monitored([0.5, 0.5])
    h = np.array([0.05, 0.95])
    bad = np.array([0.04, 0.96])  # active user 0 shrank
    message = (
        "step 1: active user allocation grew less than the (1 + eps*eta/4N) factor at low usage"
    )
    with pytest.raises(LemmaViolation, match=_exactly(message)):
        _check(policy, h, bad, np.array([True, False]), np.array([False, False]))


_USER0 = np.array([True, False])
_BOOST = "step 1: underserved allocation grew less than the (1 + c') boost factor"


@pytest.mark.parametrize(
    "proportional, h_new, message",
    [
        pytest.param(
            False, [0.29, 0.71], "step 1: underserved allocation decreased", id="under-shrank"
        ),
        pytest.param(
            False,
            [0.32, 0.68],
            "step 1: served active allocation shrank below the (1 - eps*c) factor",
            id="served-shrank",
        ),
        pytest.param(False, [0.3, 0.7], _BOOST, id="basic-boost"),
        pytest.param(True, [0.3, 0.7], _BOOST + " at high usage", id="prop-boost"),
    ],
)
def test_each_monitor_trips_on_a_poisoned_update(proportional, h_new, message):
    # Two users with SLA (0.5, 0.5) move from h = (0.3, 0.7) to a hand-poisoned
    # h_new.  Both are active and user 0 is underserved, so usage is 1 > 1 - eps
    # and the low-usage monitor stays quiet; each case breaks one other monitor.
    policy = _monitored([0.5, 0.5], proportional)
    assert policy._floor_ok  # shares 0.5 clear the 2*eps/N floor
    h = np.array([0.3, 0.7])
    with pytest.raises(LemmaViolation, match=_exactly(message)):
        _check(policy, h, np.array(h_new), np.array([True, True]), _USER0)


def test_basic_boost_bound_is_not_checked_below_the_share_floor():
    # SLA (0.01, 0.99) at eps = 0.05: share 0.01 is below 2*eps/N = 0.05.  An
    # update that leaves h = (0.005, 0.995) unchanged, both users active and
    # user 0 underserved, breaks only the boost bound.  mw skips that bound
    # below the floor; mw_prop checks it whenever usage exceeds 1 - eps.
    h = np.array([0.005, 0.995])
    both = np.array([True, True])
    policy = _monitored([0.01, 0.99])
    assert not policy._floor_ok
    _check(policy, h, h.copy(), both, _USER0)
    with pytest.raises(LemmaViolation, match=_exactly(_BOOST + " at high usage")):
        _check(_monitored([0.01, 0.99], proportional=True), h, h.copy(), both, _USER0)


def test_monitor_slack_is_absolute():
    # A shortfall below the low-usage bound (1 + eps*eta/4N) * h passes
    # within LEMMA_SLACK and raises beyond it.
    sla = SlaVector(np.array([0.5, 0.5]))
    policy = MultiplicativeWeights(sla, _params(2), monitor_lemmas=True)
    policy.reset(2)
    h = np.array([0.05, 0.95])
    bound = (1.0 + policy._growth) * h[0]
    none = np.array([False, False])
    _check(policy, h, np.array([bound - 0.5 * LEMMA_SLACK, 0.95]), _USER0, none)
    with pytest.raises(LemmaViolation, match="grew less"):
        _check(policy, h, np.array([bound - 2.0 * LEMMA_SLACK, 0.95]), _USER0, none)


def _reference_lemmas(policy: MultiplicativeWeights, h, h_new, active, under) -> None:
    """The lemma monitors as ordered per-bound checks, one mask each, with
    c and c' from the policy's parameters; _check_lemmas must raise exactly
    when this does, with the same message."""

    def bound(users, lower, what):
        if (users & (h_new < lower - LEMMA_SLACK)).any():
            raise LemmaViolation(f"step {policy._t}: {what}")

    p, n = policy.params, policy.sla.n
    c = p.epsilon * p.eta / (4.0 * n)
    c_boost = p.epsilon * p.eta * p.boost / (2.0 * n)
    usage = float(h[active].sum())
    if usage <= 1.0 - p.epsilon:
        what = "active user allocation grew less than the (1 + eps*eta/4N) factor at low usage"
        bound(active, (1.0 + c) * h, what)
    if not policy.proportional:
        bound(under, h, "underserved allocation decreased")
        what = "served active allocation shrank below the (1 - eps*c) factor"
        bound(active & ~under, (1.0 - p.epsilon * c) * h, what)
    floor_ok = policy.sla.theory_applicable(p.epsilon)
    if (usage > 1.0 - p.epsilon) if policy.proportional else floor_ok:
        what = "underserved allocation grew less than the (1 + c') boost factor"
        at = " at high usage" if policy.proportional else ""
        bound(under, (1.0 + c_boost) * h, what + at)


def _raised(check) -> str | None:
    try:
        check()
    except LemmaViolation as exc:
        return str(exc)
    return None


@st.composite
def monitor_cases(draw, floor_ok: bool):
    """(sla, params, h, h_new, active, under) in a drawn usage regime.
    h_new is 2h, above every bound, except at up to three users, each set
    to some bound's lower - LEMMA_SLACK, one ulp below it or one above."""
    n = draw(st.integers(2, 8))
    eps = draw(st.floats(0.01, 0.1))
    eta = draw(st.floats(0.05, 1.0 / 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    beta = rng.dirichlet(np.ones(n))
    if floor_ok:
        beta = 0.5 / n + 0.5 * beta  # every share at least 0.5/N >= 2*eps/N
    else:
        beta[0] = 0.0
    # k active users carry usage u: at most 1 - eps at low usage, above it at high.
    low = draw(st.booleans())
    k = draw(st.integers(0, n - 1) if low else st.integers(1, n))
    u = draw(st.floats(0.01, 0.99 - eps) if low else st.floats(1.01 - eps, 1.0))
    u = 0.0 if k == 0 else 1.0 if k == n else u
    h = np.concatenate([u * rng.dirichlet(np.ones(k)), (1.0 - u) * rng.dirichlet(np.ones(n - k))])
    h = np.maximum(h, 1e-6)  # strictly positive, as every projection output is
    active = np.arange(n) < k
    order = rng.permutation(n)
    h, active = h[order], active[order]
    under = active & (rng.random(n) < 0.5)
    params = PolicyParams(n_users=n, epsilon=eps, eta=eta)
    c = eps * eta / (4.0 * n)
    factors = [1.0 + c, 1.0, 1.0 - eps * c, 1.0 + eps * eta * params.boost / (2.0 * n)]
    h_new = 2.0 * h
    near = st.tuples(st.integers(0, n - 1), st.sampled_from(factors), st.sampled_from([-1, 0, 1]))
    for j, f, ulp in draw(st.lists(near, max_size=3)):
        lower = f * h[j] - LEMMA_SLACK
        h_new[j] = np.nextafter(lower, ulp * np.inf) if ulp else lower
    assert (float(h[active].sum()) <= 1.0 - eps) == low
    return SlaVector(beta), params, h, h_new, active, under


@pytest.mark.parametrize("floor_ok", [True, False], ids=["floor-ok", "below-floor"])
@pytest.mark.parametrize("proportional", [False, True], ids=["basic", "prop"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fused_monitor_matches_the_per_bound_checks(proportional, floor_ok, data):
    sla, params, h, h_new, active, under = data.draw(monitor_cases(floor_ok))
    policy = MultiplicativeWeights(sla, params, proportional, monitor_lemmas=True)
    assert policy._floor_ok == floor_ok
    policy._t = 7
    expected = _raised(lambda: _reference_lemmas(policy, h, h_new, active, under))
    assert _raised(lambda: _check(policy, h, h_new, active, under)) == expected


def test_factory_builds_each_policy():
    sla = SlaVector(np.array([0.5, 0.5]))
    params = _params(2)
    assert make_policy("mw", sla, params).name == "mw"
    assert make_policy("mw_prop", sla, params).proportional
    assert make_policy("static", sla).name == "static"
    assert make_policy("po", sla).name == "po"
    assert make_policy("owm").name == "owm"
    with pytest.raises(ValueError, match="unknown policy"):
        make_policy("fifo")
    # The offline schedulers replay a load matrix and have no online policy.
    for offline in ("pg", "simple_greedy"):
        with pytest.raises(ValueError, match="unknown policy") as err:
            make_policy(offline, sla, params)
        assert str(err.value).endswith("(expected one of mw, mw_prop, static, po, owm)")
    with pytest.raises(ValueError):
        make_policy("mw", sla, None)
    for name in ("static", "po"):
        with pytest.raises(ValueError, match="needs an SLA vector"):
            make_policy(name)


def test_policy_rejects_mismatched_reset():
    sla = SlaVector(np.array([0.5, 0.5]))
    # Each SLA policy is sized by its SLA vector.
    for policy in (
        MultiplicativeWeights(sla, _params(2)),
        MultiplicativeWeights(sla, _params(2), proportional=True),
        StaticSla(sla),
        OnlineProportional(sla),
    ):
        policy.reset(2)
        with pytest.raises(ValueError, match="policy built for 2 users, asked for 3"):
            policy.reset(3)
    with pytest.raises(ValueError):
        MultiplicativeWeights(sla, _params(3))
