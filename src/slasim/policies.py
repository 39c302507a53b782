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

from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from slasim import offline
from slasim.core import DegenerateSlaError, LemmaViolation, PolicyParams, SlaVector
from slasim.projection import SMALL_N, project_truncated_simplex

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

    One fused test per step checks every armed bound; the bounds run one
    by one, in the order above, only to name the first that failed.

    Below SMALL_N users, as in every bundled config, a step runs on Python
    floats (`_float_step`), bit for bit the numpy step but without numpy's
    dispatch cost, and hands its update to the same `_check_lemmas`.
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
        # [high, low usage][gain]: the largest factor f an armed bound puts on h
        # (0.0: none); for h > 0, fl(f * h) - slack grows with f: it trips iff one does.
        self._tightest = [
            np.array([max((f for u, f, _ in self._bounds(low) if g in u), default=0.0)
                      for g in range(3)])
            for low in (False, True)
        ]
        self._small = n < SMALL_N  # then _float_step reads these lists
        if self._small:
            self._floats = (self._target.tolist(), sla.beta.tolist(), self._factors.tolist())
        self._h: Optional[np.ndarray] = None
        self._t = 0

    def reset(self, n_users: int) -> None:
        super().reset(n_users)
        self._h = np.full(n_users, 1.0 / n_users)
        self._t = 0

    def _step(self, h: np.ndarray, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-user step factors exp(eta * gain) and the gain index: 0 for
        inactive users, 1 for served active users, 2 for underserved ones
        (gain 1 + boost).  Exact equality with the threshold counts as served."""
        threshold = self._target
        if self.proportional:
            active_share = self.sla.beta[active].sum()
            # Zero-SLA users are never underserved.
            threshold = threshold / active_share if active_share > 0.0 else 0.0
        gain = np.add(active, active & (h < threshold), dtype=np.intp)
        return self._factors.take(gain), gain

    def decide(self, active: np.ndarray) -> np.ndarray:
        h = self._h
        self._t += 1
        if self._small:
            h_new = self._float_step(h, active)
        else:
            factors, gain = self._step(h, active)
            h_new = project_truncated_simplex(h * factors, self.params.epsilon)
            if self.monitor_lemmas:
                self._check_lemmas(h, h_new, active, gain)
        self._h = h_new
        return h_new

    def _float_step(self, h: np.ndarray, active: np.ndarray) -> np.ndarray:
        """`_step`, the product and the projection on Python floats: the
        same IEEE operations in the same order, so the same bits.  Fewer
        than SMALL_N shares sum left to right in numpy, as `_numpy_sum` does."""
        threshold, beta, factors = self._floats
        h_list, seen = h.tolist(), active.tolist()
        if self.proportional:
            active_share = offline._numpy_sum([b for b, a in zip(beta, seen) if a])
            threshold = [t / active_share if active_share > 0.0 else 0.0 for t in threshold]
        gain = [a + (a and v < t) for v, a, t in zip(h_list, seen, threshold)]
        y = [v * factors[g] for v, g in zip(h_list, gain)]
        h_new = project_truncated_simplex(y, self.params.epsilon)
        if self.monitor_lemmas:
            self._check_lemmas(h, h_new, active, np.array(gain, dtype=np.intp))
        return h_new

    def _bounds(self, low_usage: bool) -> Iterator[tuple[tuple, float, str]]:
        """The bounds armed in a usage regime, in check order: (gain
        indices of the users bound, factor on h, message)."""
        if low_usage:
            what = "active user allocation grew less than the (1 + eps*eta/4N) factor at low usage"
            yield (1, 2), 1.0 + self._growth, what
        if not self.proportional:
            yield (2,), 1.0, "underserved allocation decreased"
            what = "served active allocation shrank below the (1 - eps*c) factor"
            yield (1,), 1.0 - self.params.epsilon * self._growth, what
        if (not low_usage) if self.proportional else self._floor_ok:
            what = "underserved allocation grew less than the (1 + c') boost factor"
            at = " at high usage" if self.proportional else ""
            yield (2,), 1.0 + self._boost_growth, what + at

    def _check_lemmas(
        self, h: np.ndarray, h_new: np.ndarray, active: np.ndarray, gain: np.ndarray
    ) -> None:
        low_usage = float(h[active].sum()) <= 1.0 - self.params.epsilon
        if (h_new < self._tightest[low_usage].take(gain) * h - LEMMA_SLACK).any():
            for users, factor, what in self._bounds(low_usage):
                if (np.isin(gain, users) & (h_new < factor * h - LEMMA_SLACK)).any():
                    raise LemmaViolation(f"step {self._t}: {what}")


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
        share = beta[active].sum()
        if share > 0.0:
            return np.where(active, beta / share, 0.0)
        if not active.any():
            return beta
        raise DegenerateSlaError(
            "every active user has a zero SLA share; proportional split undefined"
        )


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
        count = np.count_nonzero(served)
        if count == 0:
            served, waiting = waiting, np.zeros_like(waiting)
            count = np.count_nonzero(served)
        self._served, self._waiting = served, waiting
        if count == 0:
            return np.zeros(active.size)
        return served / count


class PolicyType(NamedTuple):
    keys: tuple  # config keys the type reads besides type
    weight: int  # relative cost of one row per step, for the CLI's split of the rows
    build: Optional[Callable] = None  # online: (sla, params, monitor_lemmas) -> policy
    replay: Optional[Callable] = None  # offline: (source, sla, capacity) -> row


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
        ("capacity",), 11, replay=lambda source, sla, cap: offline.simple_greedy(source, cap)
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
