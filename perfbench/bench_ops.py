"""The benchmark's workloads, their correctness checks and output digests.

An op has two timed parts.  Set-up imports slasim, parses the config and
builds the load source; the body runs every schedule of the workload,
online and offline, plus offline bounds, metrics and output writing.  The
benchmark makes the inputs from its seed and calls only public slasim
functions.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import shutil
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

import numpy as np

CONSERVATION_TOL = 1e-9  # relative, as SimulationTrace.conservation_residual
WORK_CAP_SLACK = 1e-6  # absolute, as the CLI's work <= offline optimum check
ADVERSARY_OPT_TOL = 1e-9  # absolute, as acceptance criterion 8


@dataclass
class Op:
    """Inputs and outputs of one op."""

    horizon: int
    steps: int  # simulated policy-steps: horizon x schedules run
    cfg: object = None
    loads: Optional[np.ndarray] = None
    sla: object = None
    params: object = None
    source: object = None
    summary: Optional[dict] = None
    totals: dict = field(default_factory=dict)  # policy -> (total_work, final_queue)
    residuals: dict = field(default_factory=dict)  # policy -> conservation residual
    opt: Optional[float] = None


class ConfigWorkload:
    """A bundled config run through cli.parse_config + cli.run_experiment.

    Only the seed line of the config is rewritten, in a copy; output goes
    to a directory of the benchmark's own through SLASIM_OUTPUT_DIR.
    """

    def __init__(self, name: str, config: str, seeded: bool):
        self.name = name
        self.config = config
        self.seeded = seeded

    def required_files(self, root: str) -> list[str]:
        return [os.path.join(root, "configs", self.config)]

    def prepare(self, root: str, seed: int, workdir: str) -> None:
        with open(os.path.join(root, "configs", self.config), encoding="utf-8") as fh:
            text = fh.read()
        if self.seeded:
            text, count = re.subn(r"(?m)^seed\s*=.*$", f"seed = {seed}", text)
            if count != 1:
                raise ValueError(f"{self.config}: expected one seed line, found {count}")
        self.config_path = os.path.join(workdir, self.config)
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.out_dir = os.path.join(workdir, "out")
        os.environ["SLASIM_OUTPUT_DIR"] = self.out_dir

    def reset_output(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def setup(self, m) -> Op:
        cfg, errors, _ = m.cli.parse_config(self.config_path)
        if errors:
            raise ValueError("config errors: " + "; ".join(errors))
        steps = cfg.horizon * len(cfg.policies)
        op = Op(horizon=cfg.horizon, steps=steps, cfg=cfg)
        if cfg.workload_type == "synthetic_gamma":
            source = m.workloads.synthetic_gamma(cfg.sla, cfg.horizon, cfg.seed, cfg.schedule)
            op.loads = source.matrix[: cfg.horizon]
        return op

    def body(self, m, op: Op) -> None:
        op.summary = m.cli.run_experiment(op.cfg)

    def check(self, m, op: Op) -> list[str]:
        cfg, summary = op.cfg, op.summary
        T = cfg.horizon
        adversary = cfg.workload_type == "adversary"
        fails = []
        if not adversary:
            opt = m.offline.offline_optimal_value(op.loads, 0.0)
            if summary["offline_optimal_eps0"] != opt:
                fails.append(
                    f"summary optimum {summary['offline_optimal_eps0']!r} differs from "
                    f"the optimum over the benchmark's own loads {opt!r}"
                )
            load_total = float(op.loads.sum())
        else:
            load_total = float(T)  # every adversary step's loads sum to one
        for pc in cfg.policies:
            key = f"policy.{pc.name}"
            total = summary[f"{key}.total_work"]
            backlog = summary[f"{key}.final_queue_l1"]
            residual = abs(total + backlog - load_total) / max(1.0, load_total)
            if not residual <= CONSERVATION_TOL:
                fails.append(f"{pc.name}: conservation residual {residual:.3e}")
            if adversary:
                opt = summary[f"{key}.offline_optimal_eps0"]
                if not abs(opt - T) <= ADVERSARY_OPT_TOL:
                    fails.append(f"{pc.name}: adversary offline optimum {opt!r} != {T}")
                if not backlog >= math.sqrt(T / 40.0):
                    fails.append(f"{pc.name}: final backlog {backlog!r} < sqrt(T/40)")
            if not total <= opt + WORK_CAP_SLACK:
                fails.append(f"{pc.name}: total work {total!r} above offline optimum {opt!r}")
            if pc.type == "pg":
                best = m.offline.offline_optimal_value(op.loads, 1.0 - pc.capacity)
                if not abs(total - best) <= WORK_CAP_SLACK:
                    fails.append(f"{pc.name}: pg work {total!r} != offline optimum {best!r}")
            fails += self._check_csv(pc.name, T, total)
        return fails

    def _check_csv(self, name: str, horizon: int, total: float) -> list[str]:
        path = os.path.join(self.out_dir, f"cumulative_work_{name}.csv")
        with open(path, encoding="utf-8") as fh:
            last = fh.read().rstrip("\n").rsplit("\n", 1)[-1]
        t, value = last.split(",")
        if int(t) != horizon or float(value) != total:
            return [f"{name}: last CSV row {last!r} does not read back total_work {total!r}"]
        return []

    def fingerprint(self, op: Op) -> tuple[str, int]:
        """sha256 and byte count of the summary without its wallclock_seconds
        line, which differs on every run, and of every CSV."""
        h = hashlib.sha256()
        size = 0
        with open(os.path.join(self.out_dir, "summary"), "rb") as fh:
            for line in fh:
                if not line.startswith(b"wallclock_seconds="):
                    h.update(line)
                    size += len(line)
        for name in sorted(os.listdir(self.out_dir)):
            if name.endswith(".csv"):
                with open(os.path.join(self.out_dir, name), "rb") as fh:
                    data = fh.read()
                h.update(name.encode())
                h.update(data)
                size += len(data)
        return h.hexdigest(), size


class WideWorkload:
    """Library-level run at N = 1000 users on Bernoulli-Gamma fuzz loads.

    SLA 0.5 * Dirichlet(1) + 0.5 / N; eps = 0.05, eta = 1/3.  mw and
    mw_prop run with the lemma monitors armed and stride = horizon, then
    the offline optimum over the same loads.
    """

    N_USERS = 1000
    HORIZON = 4000
    EPSILON = 0.05
    ETA = 1.0 / 3.0
    POLICIES = ("mw", "mw_prop")

    name = "wide_n1000"

    def required_files(self, root: str) -> list[str]:
        return []

    def prepare(self, root: str, seed: int, workdir: str) -> None:
        n = self.N_USERS
        self.seed = seed
        self.beta = 0.5 * np.random.default_rng((seed, 1)).dirichlet(np.ones(n)) + 0.5 / n

    def reset_output(self) -> None:
        pass

    def setup(self, m) -> Op:
        n, T = self.N_USERS, self.HORIZON
        op = Op(horizon=T, steps=T * len(self.POLICIES))
        op.sla = m.core.SlaVector(self.beta)
        op.params = m.core.PolicyParams(n_users=n, epsilon=self.EPSILON, eta=self.ETA)
        op.source = m.workloads.bernoulli_gamma_fuzz(n, T, self.seed)
        return op

    def body(self, m, op: Op) -> None:
        T = op.horizon
        for name in self.POLICIES:
            policy = m.policies.make_policy(name, op.sla, op.params, monitor_lemmas=True)
            trace = m.core.run(policy, op.source, T, stride=T)
            op.totals[name] = (trace.total_work, trace.final_queue)
            op.residuals[name] = trace.conservation_residual()
        op.opt = m.offline.offline_optimal_value(op.source.matrix, 0.0)

    def check(self, m, op: Op) -> list[str]:
        fails = []
        for name, (work, _) in op.totals.items():
            residual = op.residuals[name]
            if not residual <= CONSERVATION_TOL:
                fails.append(f"{name}: conservation residual {residual:.3e}")
            total = float(work.sum())
            if not total <= op.opt + WORK_CAP_SLACK:
                fails.append(f"{name}: total work {total!r} above offline optimum {op.opt!r}")
        return fails

    def fingerprint(self, op: Op) -> tuple[str, int]:
        """sha256 of each policy's total_work and final_queue bytes and the
        optimum; nothing is written, so the byte count is 0."""
        h = hashlib.sha256()
        for name, (work, queue) in op.totals.items():
            h.update(name.encode())
            h.update(work.tobytes())
            h.update(queue.tobytes())
        h.update(repr(op.opt).encode())
        return h.hexdigest(), 0


WORKLOADS = {
    "t60k_config": ConfigWorkload("t60k_config", "synthetic_t60k.cfg", seeded=True),
    "wide_n1000": WideWorkload(),
    # Deterministic source: the seed is recorded but changes nothing.
    "adversary": ConfigWorkload("adversary", "adversary.cfg", seeded=False),
}

MODULES = ("cli", "core", "metrics", "offline", "policies", "projection", "workloads")


def trace_points(m) -> list[tuple[object, str, str, bool]]:
    """(owner, attribute, span name, split by first argument) for every
    name the package looks up at call time, so a wrapper there sees every
    call into the layer."""
    pol, wl, off, met = m.policies, m.workloads, m.offline, m.metrics
    points = [
        (m.cli, "parse_config", "cli.parse_config", False),
        (m.cli, "run_experiment", "cli.run_experiment", False),
        (m.cli, "run_simulation", "core.run", True),
        (m.core, "run", "core.run", True),
        (pol, "project_truncated_simplex", "projection.project", False),
        (wl.QueueAdversary, "next", "workloads.adversary_next", False),
        (wl, "synthetic_gamma", "workloads.build", False),
        (wl, "bernoulli_gamma_fuzz", "workloads.build", False),
        (met, "sla_window_stats", "metrics.sla_window_stats", False),
    ]
    for cls in (pol.MultiplicativeWeights, pol.StaticSla, pol.OnlineProportional,
                pol.OnlineWorkMaximizing):
        points.append((cls, "decide", "policies.decide", True))
    for name in ("proportional_greedy", "simple_greedy", "offline_optimal_value"):
        points.append((off, name, f"offline.{name}", False))
    for name in ("cumulative_work", "queue_two_norm", "work_difference"):
        points.append((met, name, "metrics.series", False))
    return points


def modules_namespace(sys_modules) -> SimpleNamespace:
    return SimpleNamespace(**{name: sys_modules[f"slasim.{name}"] for name in MODULES})
