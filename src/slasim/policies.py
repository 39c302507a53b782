"""Allocation policies driven by busy/idle feedback.

Two multiplicative-weights policies carry the guarantees: both boost every
active user's weight, give an extra boost to active users that look
underserved, and re-project onto the truncated simplex so every user keeps
a floor allocation of eps/N.  They differ only in who counts as
underserved:

* basic: active users allocated strictly below their SLA share beta(i);
* proportional: active users allocated strictly below
  (1 - eps) * beta(i) / sum of active users' shares, i.e. below their
  SLA-proportional share of the whole resource.

Three baselines: a static policy that always allocates beta; a
proportional online policy that splits the resource among active users in
proportion to beta; and a work-maximizing greedy that splits uniformly
within a rotating "served" set.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from slasim import offline
from slasim.core import DegenerateSlaError, LemmaViolation, PolicyParams, SlaVector
from slasim.projection import project_truncated_simplex

LEMMA_SLACK = 1e-10


class _SlaPolicy:
    """A policy built for one SLA vector, and so for its number of users."""

    def __init__(self, sla: SlaVector):
        if sla is None:
            raise ValueError(f"policy '{self.name}' needs an SLA vector")
        self.sla = sla

    def reset(self, n_users: int) -> None:
        if n_users != self.sla.n:
            raise ValueError(f"policy built for {self.sla.n} users, asked for {n_users}")


class MultiplicativeWeights(_SlaPolicy):
    """Multiplicative-weights policy (basic or proportional variant).

    With monitor_lemmas=True the multiplicative-boost guarantees are
    checked at every step with absolute slack 1e-10 and a LemmaViolation
    is raised on the first failure.  Monitored bounds, with
    c = eps*eta/(4N) and c' = eps*eta*boost/(2N):

    * either variant, when active usage is at most 1 - eps: every active
      user's allocation grows by a factor (1 + c);
    * basic: underserved users never shrink, served active users shrink by
      at most a factor (1 - eps*c);
    * basic, provided every SLA share is at least 2*eps/N: underserved
      users grow by a factor (1 + c');
    * proportional, when active usage exceeds 1 - eps: underserved users
      grow by a factor (1 + c').
    """

    def __init__(
        self,
        sla: SlaVector,
        params: PolicyParams,
        proportional: bool = False,
        monitor_lemmas: bool = False,
    ):
        self.name = "mw_prop" if proportional else "mw"
        super().__init__(sla)
        if params.n_users != sla.n:
            raise ValueError(
                f"params sized for {params.n_users} users but SLA has {sla.n}"
            )
        self.params = params
        self.proportional = bool(proportional)
        self.monitor_lemmas = bool(monitor_lemmas)
        n = sla.n
        self._growth = params.epsilon * params.eta / (4.0 * n)
        self._boost_growth = params.epsilon * params.eta * params.boost / (2.0 * n)
        # The underserved-growth bound for the basic variant needs every
        # share to clear 2*eps/N; skip that monitor when it does not apply.
        self._floor_ok = sla.theory_applicable(params.epsilon)
        # Underserved below beta, or (1 - eps) * beta over the active share.
        self._target = (1.0 - params.epsilon) * sla.beta if proportional else sla.beta
        # exp(eta * gain) for gain 0 (idle), 1 (active), 1 + boost (underserved).
        self._factors = np.exp(params.eta * np.array([0.0, 1.0, 1.0 + params.boost]))
        self._h: Optional[np.ndarray] = None
        self._t = 0

    def reset(self, n_users: int) -> None:
        super().reset(n_users)
        self._h = np.full(n_users, 1.0 / n_users)
        self._t = 0

    def _step(self, h: np.ndarray, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-user step factors exp(eta * gain) and the underserved mask.

        Active users get gain 1, underserved active users 1 + boost, inactive
        users 0.  Exact equality with the threshold counts as served.
        """
        threshold = self._target
        if self.proportional:
            active_share = self.sla.beta[active].sum()
            # Zero-SLA users are never underserved.
            threshold = threshold / active_share if active_share > 0.0 else 0.0
        under = active & (h < threshold)
        return self._factors[np.add(active, under, dtype=np.intp)], under

    def decide(self, active: np.ndarray) -> np.ndarray:
        h = self._h
        self._t += 1
        factors, under = self._step(h, active)
        h_new = project_truncated_simplex(h * factors, self.params.epsilon)
        if self.monitor_lemmas:
            self._check_lemmas(h, h_new, active, under)
        self._h = h_new
        return h_new

    def _check_lemmas(
        self, h: np.ndarray, h_new: np.ndarray, active: np.ndarray, under: np.ndarray
    ) -> None:
        def bound(users: np.ndarray, lower: np.ndarray, what: str) -> None:
            if (users & (h_new < lower - LEMMA_SLACK)).any():
                raise LemmaViolation(f"step {self._t}: {what}")

        eps = self.params.epsilon
        usage = float(h[active].sum())
        if usage <= 1.0 - eps:
            what = "active user allocation grew less than the (1 + eps*eta/4N) factor at low usage"
            bound(active, (1.0 + self._growth) * h, what)
        if not self.proportional:
            bound(under, h, "underserved allocation decreased")
            what = "served active allocation shrank below the (1 - eps*c) factor"
            bound(active & ~under, (1.0 - eps * self._growth) * h, what)
        if (usage > 1.0 - eps) if self.proportional else self._floor_ok:
            what = "underserved allocation grew less than the (1 + c') boost factor"
            at = " at high usage" if self.proportional else ""
            bound(under, (1.0 + self._boost_growth) * h, what + at)


class StaticSla(_SlaPolicy):
    """Always allocate exactly the SLA shares; leftover capacity idles."""

    name = "static"

    def decide(self, active: np.ndarray) -> np.ndarray:
        return self.sla.beta


class OnlineProportional(_SlaPolicy):
    """Split the whole resource among active users in proportion to their
    SLA shares; allocate beta itself when nobody is active."""

    name = "po"

    def decide(self, active: np.ndarray) -> np.ndarray:
        beta = self.sla.beta
        if not active.any():
            return beta
        share = beta[active].sum()
        if share <= 0.0:
            raise DegenerateSlaError(
                "every active user has a zero SLA share; proportional split undefined"
            )
        return np.where(active, beta / share, 0.0)


class OnlineWorkMaximizing:
    """Uniform split within a served set, rotating service between busy
    users: the served set keeps its members while they stay busy, users
    turning busy wait in a backlog set, and when the served set drains the
    whole backlog set is promoted.  SLA-oblivious."""

    name = "owm"

    def __init__(self) -> None:
        self._served: Optional[np.ndarray] = None
        self._waiting: Optional[np.ndarray] = None

    def reset(self, n_users: int) -> None:
        # Everyone starts in the served set.
        self._served = np.ones(n_users, dtype=bool)
        self._waiting = np.zeros(n_users, dtype=bool)

    def decide(self, active: np.ndarray) -> np.ndarray:
        served = self._served & active  # users done with their work leave
        waiting = (self._waiting | ~self._served) & active  # idle users rejoin here
        if not served.any():
            served, waiting = waiting, np.zeros_like(waiting)
        self._served = served
        self._waiting = waiting
        count = int(served.sum())
        if count == 0:
            return np.zeros(active.size)
        return served / count


class PolicyType(NamedTuple):
    keys: tuple  # config keys the type reads besides type
    weight: int  # relative cost of one row per step, for the CLI's split of the rows
    build: Optional[Callable] = None  # online: (sla, params, monitor_lemmas) -> policy
    replay: Optional[Callable] = None  # offline: (loads, sla, capacity, stride) -> trace


def _mw(proportional: bool) -> Callable:
    return lambda sla, params, monitor: MultiplicativeWeights(sla, params, proportional, monitor)


# Every policy type a config can name, in the order error messages list
# them.  mw and mw_prop need both of their keys; capacity defaults to 1.
POLICY_TYPES = {
    "mw": PolicyType(("epsilon", "eta"), 15, _mw(False)),
    "mw_prop": PolicyType(("epsilon", "eta"), 15, _mw(True)),
    "static": PolicyType((), 4, lambda sla, params, monitor: StaticSla(sla)),
    "po": PolicyType((), 10, lambda sla, params, monitor: OnlineProportional(sla)),
    "owm": PolicyType((), 10, lambda sla, params, monitor: OnlineWorkMaximizing()),
    "pg": PolicyType(("capacity",), 10, replay=lambda *args: offline.proportional_greedy(*args)),
    "simple_greedy": PolicyType(
        ("capacity",), 11, replay=lambda loads, sla, *rest: offline.simple_greedy(loads, *rest)
    ),
}


def make_policy(
    name: str,
    sla: Optional[SlaVector] = None,
    params: Optional[PolicyParams] = None,
    monitor_lemmas: bool = False,
):
    """Instantiate an online policy from its config type."""
    spec = POLICY_TYPES.get(name)
    if spec is None or spec.build is None:
        online = ", ".join(t for t, s in POLICY_TYPES.items() if s.build is not None)
        raise ValueError(f"unknown policy '{name}' (expected one of {online})")
    if spec.keys and params is None:
        raise ValueError(f"policy '{name}' needs both an SLA vector and parameters")
    return spec.build(sla, params, monitor_lemmas)
