"""Command-line front end: run or validate experiment configs.

Configs are INI files (configparser syntax, # or ; comments) with one
section per policy:

    [workload]            type, horizon, sla, and type-specific keys
    [run]                 stride, profile (debug arms the lemma monitors)
    [policy <name>]       type = mw | mw_prop | static | po | owm |
                          pg | simple_greedy, plus parameters
    [metrics]             work_difference, sla_window, tau, window_stride,
                          queue_norms
    [output]              dir (overridden by SLASIM_OUTPUT_DIR)

The workload and policy sections read `type` and that type's own keys.
Any other section or key is a config error, so a misspelled or misplaced setting
never leaves its default in force unnoticed.

`run` writes one CSV per requested series plus a `summary` file of
key=value lines.  Exit codes: 0 success, 1 config error, 2 runtime
assertion failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from slasim import metrics as metrics_mod
from slasim import offline, policies, workloads
from slasim.core import (
    InvariantViolation,
    PolicyParams,
    SimulationTrace,
    SlaVector,
    run_batch,
    # run_experiment batches its online policies and no longer calls this
    # name; it stays bound to the single-policy run because perfbench looks
    # it up to trace runs by policy.
    run as run_simulation,  # noqa: F401
)

OUTPUT_DIR_ENV = "SLASIM_OUTPUT_DIR"
OFFLINE_TYPES = ("pg", "simple_greedy")
WORK_CAP_SLACK = 1e-6
# Keys each workload type reads besides type, horizon and sla.
WORKLOAD_KEYS = {
    "example1": (),
    "synthetic_gamma": ("seed", "schedule"),
    "bernoulli_gamma": ("seed", "p", "mean"),
    "trace_csv": ("path",),
    "adversary": (),
}
# Keys parse_config reads in the other fixed sections; the workload and
# policy sections are checked against the keys of their own type.
SECTION_KEYS = {
    "run": ("stride", "profile"),
    "metrics": ("work_difference", "sla_window", "tau", "window_stride", "queue_norms"),
    "output": ("dir",),
}


class ConfigError(ValueError):
    """The config file is syntactically or semantically invalid."""


@dataclass
class PolicyConfig:
    name: str
    type: str
    params: Optional[PolicyParams] = None  # mw and mw_prop only
    capacity: float = 1.0  # offline types only


@dataclass
class ExperimentConfig:
    path: str
    workload_type: str
    horizon: int
    sla: SlaVector
    seed: int = 0
    trace_path: Optional[str] = None
    burst_probability: float = 0.5
    burst_mean: Optional[float] = None
    schedule: tuple = workloads.DEFAULT_SCHEDULE
    stride: int = 1
    assert_lemmas: bool = True
    policies: list[PolicyConfig] = field(default_factory=list)
    work_difference: list[tuple[str, str]] = field(default_factory=list)
    sla_window_policy: Optional[str] = None
    tau: int = 500
    window_stride: Optional[int] = None
    queue_norms: bool = True
    output_dir: str = "out"


def _parse_float(raw: str, what: str, errors: list[str]) -> Optional[float]:
    try:
        return float(raw)
    except ValueError:
        errors.append(f"{what}: expected a number, got {raw!r}")
        return None


def _parse_int(raw: str, what: str, errors: list[str]) -> Optional[int]:
    try:
        return int(raw)
    except ValueError:
        errors.append(f"{what}: expected an integer, got {raw!r}")
        return None


def _parse_bool(raw: str, what: str, errors: list[str]) -> Optional[bool]:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    errors.append(f"{what}: expected true/false, got {raw!r}")
    return None


def _check_keys(section: str, keys, known, errors: list[str]) -> None:
    for key in keys:
        if key not in known:
            errors.append(f"{section} {key}: unknown key (expected one of {', '.join(known)})")


def _parse_schedule(raw: str, errors: list[str]):
    """Period list like 'bulk 2 3; bulk 1 2; uniform 2 3' (1-based users)."""
    schedule = []
    for idx, chunk in enumerate(raw.split(";")):
        parts = chunk.split()
        if len(parts) != 3 or parts[0] not in ("bulk", "uniform"):
            errors.append(
                f"workload schedule period {idx + 1}: expected 'bulk|uniform <a> <b>', got {chunk.strip()!r}"
            )
            continue
        a = _parse_int(parts[1], f"schedule period {idx + 1} user", errors)
        b = _parse_int(parts[2], f"schedule period {idx + 1} user", errors)
        if a is not None and b is not None:
            schedule.append((parts[0], a - 1, b - 1))
    return tuple(schedule)


def parse_config(path: str) -> tuple[Optional[ExperimentConfig], list[str], list[str]]:
    """Read and check a config; returns (config-or-None, errors, warnings)."""
    errors: list[str] = []
    warnings: list[str] = []
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        return None, [f"config syntax: {exc}"], []

    if not parser.has_section("workload"):
        return None, ["missing [workload] section"], []
    for section in parser.sections():
        if section in SECTION_KEYS:
            _check_keys(section, parser[section], SECTION_KEYS[section], errors)
        elif section != "workload" and not section.startswith("policy "):
            errors.append(
                f"unknown section [{section}] (expected workload, run, "
                f"policy <name>, metrics or output)"
            )
    wl = parser["workload"]
    wl_type = wl.get("type", "").strip()
    if wl_type not in WORKLOAD_KEYS:
        errors.append(
            f"workload type must be one of {', '.join(WORKLOAD_KEYS)}, got {wl_type!r}"
        )
    else:
        _check_keys("workload", wl, ("type", "horizon", "sla") + WORKLOAD_KEYS[wl_type], errors)
    horizon = _parse_int(wl.get("horizon", "0"), "workload horizon", errors) or 0
    if horizon < 1:
        errors.append(f"workload horizon must be a positive integer, got {horizon}")

    sla = None
    if "sla" not in wl:
        errors.append("workload is missing the sla key (comma-separated shares)")
    else:
        try:
            shares = [float(v) for v in wl["sla"].split(",")]
            sla = SlaVector(np.array(shares))
        except ValueError as exc:
            errors.append(f"workload sla: {exc}")

    seed = _parse_int(wl.get("seed", "0"), "workload seed", errors) or 0
    trace_path = wl.get("path", None)
    burst_p = _parse_float(wl.get("p", "0.5"), "workload p", errors)
    if burst_p is not None and not 0.0 < burst_p <= 1.0:
        errors.append(f"workload p must lie in (0, 1], got {burst_p}")
    burst_mean = (
        _parse_float(wl["mean"], "workload mean", errors) if "mean" in wl else None
    )
    if burst_mean is not None and not (burst_mean > 0.0 and math.isfinite(burst_mean)):
        errors.append(f"workload mean must be positive and finite, got {burst_mean}")
    schedule = workloads.DEFAULT_SCHEDULE
    if "schedule" in wl:
        schedule = _parse_schedule(wl["schedule"], errors)

    if sla is not None:
        n = sla.n
        if wl_type == "example1":
            if n != 3:
                errors.append(f"example1 needs exactly 3 users, sla has {n}")
            if horizon % 3 != 0:
                errors.append(f"example1 horizon must be divisible by 3, got {horizon}")
        if wl_type == "synthetic_gamma":
            periods = len(schedule) or 1
            if horizon % periods != 0:
                errors.append(
                    f"synthetic_gamma horizon must be divisible by {periods}, got {horizon}"
                )
            for idx, (_, a, b) in enumerate(schedule):
                if not (0 <= a < n and 0 <= b < n and a != b):
                    errors.append(
                        f"schedule period {idx + 1}: users must be distinct and in 1..{n}"
                    )
        if wl_type == "adversary" and n != 2:
            errors.append(f"adversary workload needs exactly 2 users, sla has {n}")
    if wl_type == "trace_csv" and not trace_path:
        errors.append("trace_csv workload needs a path key")
    if wl_type == "trace_csv" and trace_path and not os.path.exists(trace_path):
        errors.append(f"trace file not found: {trace_path}")

    run_sec = parser["run"] if parser.has_section("run") else {}
    stride = _parse_int(run_sec.get("stride", "1"), "run stride", errors)
    if stride is not None and stride < 1:
        errors.append(f"run stride must be a positive integer, got {stride}")
    profile = run_sec.get("profile", "debug").strip().lower()
    if profile not in ("debug", "release"):
        errors.append(f"run profile must be debug or release, got {profile!r}")
        profile = "debug"

    policy_configs: list[PolicyConfig] = []
    for section in parser.sections():
        if not section.startswith("policy "):
            continue
        name = section[len("policy ") :].strip()
        sec = parser[section]
        ptype = sec.get("type", "").strip()
        if not name:
            errors.append(f"[{section}]: policy name is empty")
            continue
        if any(p.name == name for p in policy_configs):
            errors.append(f"duplicate policy name {name!r}")
            continue
        if ptype not in policies.POLICY_NAMES + OFFLINE_TYPES:
            errors.append(
                f"policy {name}: type must be one of "
                f"{', '.join(policies.POLICY_NAMES + OFFLINE_TYPES)}, got {ptype!r}"
            )
            continue
        pc = PolicyConfig(name=name, type=ptype)
        known = ["type"]
        if ptype in ("mw", "mw_prop"):
            known += ["epsilon", "eta", "boost"]
            if "epsilon" not in sec or "eta" not in sec:
                errors.append(f"policy {name}: type {ptype} needs epsilon and eta")
            else:
                eps = _parse_float(sec["epsilon"], f"policy {name} epsilon", errors)
                eta = _parse_float(sec["eta"], f"policy {name} eta", errors)
                boost = (
                    _parse_float(sec["boost"], f"policy {name} boost", errors)
                    if "boost" in sec
                    else None
                )
                if sla is not None and eps is not None and eta is not None:
                    try:
                        pc.params = PolicyParams(
                            n_users=sla.n, epsilon=eps, eta=eta, boost=boost
                        )
                    except ValueError as exc:
                        errors.append(f"policy {name}: {exc}")
                    else:
                        if not sla.theory_applicable(eps):
                            warnings.append(
                                f"policy {name}: some SLA share falls below 2*epsilon/N "
                                f"= {2 * eps / sla.n}; the multiplicative-boost "
                                f"guarantees need beta(i) >= 2*epsilon/N"
                            )
        if ptype in OFFLINE_TYPES:
            known.append("capacity")
            if "capacity" in sec:
                cap = _parse_float(sec["capacity"], f"policy {name} capacity", errors)
                if cap is not None:
                    pc.capacity = cap
            if not (0.0 < pc.capacity <= 1.0):
                errors.append(f"policy {name}: capacity must lie in (0, 1], got {pc.capacity}")
        _check_keys(section, sec, known, errors)
        policy_configs.append(pc)
    if not policy_configs:
        errors.append("no [policy <name>] sections found")

    if wl_type == "adversary":
        for pc in policy_configs:
            if pc.type in OFFLINE_TYPES:
                errors.append(
                    f"policy {pc.name}: offline schedulers cannot be driven by the "
                    f"adversary workload (loads adapt to one online policy)"
                )

    met = parser["metrics"] if parser.has_section("metrics") else {}
    known = {p.name for p in policy_configs}
    work_diff: list[tuple[str, str]] = []
    if "work_difference" in met:
        for pair in met["work_difference"].split(","):
            pair = pair.strip()
            if not pair:
                continue
            if ":" not in pair:
                errors.append(f"metrics work_difference: expected a:b pairs, got {pair!r}")
                continue
            first, second = (p.strip() for p in pair.split(":", 1))
            for p in (first, second):
                if p not in known:
                    errors.append(f"metrics work_difference: unknown policy {p!r}")
            work_diff.append((first, second))
    sla_window_policy = met.get("sla_window", "").strip() or None
    if sla_window_policy is not None and sla_window_policy not in known:
        errors.append(f"metrics sla_window: unknown policy {sla_window_policy!r}")
    tau = _parse_int(met.get("tau", "500"), "metrics tau", errors)
    if tau is not None and tau < 1:
        errors.append(f"metrics tau must be a positive integer, got {tau}")
    window_stride = (
        _parse_int(met["window_stride"], "metrics window_stride", errors)
        if "window_stride" in met
        else None
    )
    if window_stride is not None and window_stride < 1:
        errors.append(f"metrics window_stride must be a positive integer, got {window_stride}")
    queue_norms = True
    if "queue_norms" in met:
        parsed = _parse_bool(met["queue_norms"], "metrics queue_norms", errors)
        if parsed is not None:
            queue_norms = parsed
    if sla_window_policy is not None:
        if stride != 1:
            errors.append("metrics sla_window needs run stride = 1 (full trace)")
        if tau is not None and tau > horizon >= 1:
            errors.append(f"metrics tau must lie in [1, horizon], got {tau}")
    if wl_type == "adversary" and work_diff:
        warnings.append(
            "work_difference under the adversary workload compares runs with "
            "different realized loads unless the policies coincide"
        )

    out_sec = parser["output"] if parser.has_section("output") else {}
    output_dir = os.environ.get(OUTPUT_DIR_ENV) or out_sec.get("dir", "out")

    if errors or sla is None:
        return None, errors, warnings
    cfg = ExperimentConfig(
        path=path,
        workload_type=wl_type,
        horizon=horizon,
        sla=sla,
        seed=seed,
        trace_path=trace_path,
        burst_probability=burst_p,
        burst_mean=burst_mean,
        schedule=schedule,
        stride=stride,
        assert_lemmas=profile == "debug",
        policies=policy_configs,
        work_difference=work_diff,
        sla_window_policy=sla_window_policy,
        tau=tau,
        window_stride=window_stride,
        queue_norms=queue_norms,
        output_dir=output_dir,
    )
    return cfg, errors, warnings


def _policy_echo(cfg: ExperimentConfig) -> list[str]:
    lines = []
    for pc in cfg.policies:
        params = pc.params
        if params is None:
            continue
        if params.canonical_boost:
            lines.append(f"policy {pc.name}: boost = {params.boost!r} (canonical)")
        else:
            canonical = PolicyParams(
                n_users=params.n_users, epsilon=params.epsilon, eta=params.eta
            )
            lines.append(
                f"policy {pc.name}: boost = {params.boost!r} "
                f"(override; canonical would be {canonical.boost!r})"
            )
    return lines


def _build_source(cfg: ExperimentConfig):
    if cfg.workload_type == "example1":
        return workloads.example1_instance(cfg.horizon)
    if cfg.workload_type == "synthetic_gamma":
        return workloads.synthetic_gamma(cfg.sla, cfg.horizon, cfg.seed, cfg.schedule)
    if cfg.workload_type == "bernoulli_gamma":
        return workloads.bernoulli_gamma_fuzz(
            cfg.sla.n, cfg.horizon, cfg.seed, cfg.burst_probability, cfg.burst_mean
        )
    if cfg.workload_type == "trace_csv":
        source = workloads.load_trace_csv(cfg.trace_path)
        if source.n_users != cfg.sla.n:
            raise ConfigError(
                f"trace has {source.n_users} users but sla has {cfg.sla.n}"
            )
        if source.horizon < cfg.horizon:
            raise ConfigError(
                f"trace provides {source.horizon} steps, config asks for {cfg.horizon}"
            )
        return source
    if cfg.workload_type == "adversary":
        return None  # one adversary instance per driven policy
    raise ConfigError(f"unhandled workload type {cfg.workload_type!r}")


_CSV_BLOCK_ROWS = 4096


def _format(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_series(path: str, report: metrics_mod.SeriesReport) -> None:
    # Each value is written as the repr of a Python float, as _format does.
    # Rows are formatted a block at a time, so memory stays flat on long series.
    steps = np.asarray(report.steps)
    values = np.asarray(report.values, dtype=np.float64)
    if values.ndim == 1:
        header = "t,value"
        row = "{},{!r}\n".format
    else:
        header = "t," + ",".join(f"user{i + 1}" for i in range(values.shape[1]))

        def row(t, vals):
            return f"{t}," + ",".join(map(repr, vals)) + "\n"

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(values), _CSV_BLOCK_ROWS):
            block = slice(lo, lo + _CSV_BLOCK_ROWS)
            fh.write("".join(map(row, steps[block].tolist(), values[block].tolist())))


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run every configured policy, write CSVs and the summary file."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    shared_source = _build_source(cfg)
    shared_loads = shared_source.matrix[: cfg.horizon] if shared_source is not None else None

    traces: dict[str, SimulationTrace] = {}
    realized: dict[str, np.ndarray] = {}
    summary: dict[str, object] = {
        "workload": cfg.workload_type,
        "horizon": cfg.horizon,
        "n_users": cfg.sla.n,
        "seed": cfg.seed,
    }

    # Every online policy runs as one row of a single lockstep batch, in
    # config order; each adversary row gets its own QueueAdversary.
    adversary = cfg.workload_type == "adversary"
    online = [pc for pc in cfg.policies if pc.type not in OFFLINE_TYPES]
    rows = [
        (
            policies.make_policy(pc.type, cfg.sla, pc.params, cfg.assert_lemmas),
            workloads.QueueAdversary() if adversary else shared_source,
        )
        for pc in online
    ]
    batch = run_batch(rows, cfg.horizon, stride=cfg.stride) if rows else []
    online_runs = {pc.name: (trace, source) for pc, trace, (_, source) in zip(online, batch, rows)}

    for pc in cfg.policies:
        if pc.type in OFFLINE_TYPES:
            if pc.type == "pg":
                trace = offline.proportional_greedy(
                    shared_loads, cfg.sla, pc.capacity, stride=cfg.stride
                )
            else:
                trace = offline.simple_greedy(shared_loads, pc.capacity, stride=cfg.stride)
            loads_used = shared_loads
        else:
            trace, source = online_runs[pc.name]
            if adversary:
                loads_used = None  # reconstruct from the trace when unthinned
                if trace.is_full:
                    loads_used = trace.load
                summary[f"policy.{pc.name}.adversary_phases"] = len(source.phase_log)
            else:
                loads_used = shared_loads
        traces[pc.name] = trace
        if loads_used is not None:
            realized[pc.name] = loads_used

        prefix = f"policy.{pc.name}"
        summary[f"{prefix}.type"] = pc.type
        summary[f"{prefix}.total_work"] = float(trace.total_work.sum())
        summary[f"{prefix}.final_queue_l1"] = float(trace.final_queue.sum())
        summary[f"{prefix}.final_queue_l2"] = float(np.sqrt((trace.final_queue**2).sum()))

    if shared_loads is not None:
        shared_opt = offline.offline_optimal_value(shared_loads, 0.0)
        summary["offline_optimal_eps0"] = shared_opt
    for pc in cfg.policies:
        loads_used = realized.get(pc.name)
        if loads_used is None:
            continue
        opt0 = offline.offline_optimal_value(loads_used, 0.0)
        if adversary:
            summary[f"policy.{pc.name}.offline_optimal_eps0"] = opt0
            summary[f"policy.{pc.name}.offline_gap"] = opt0 - float(
                traces[pc.name].total_work.sum()
            )
        if pc.params is not None:
            summary[f"policy.{pc.name}.offline_optimal_rest"] = (
                offline.offline_optimal_value(loads_used, pc.params.epsilon)
            )
        total = float(traces[pc.name].total_work.sum())
        if total > opt0 + WORK_CAP_SLACK:
            raise InvariantViolation(
                f"policy {pc.name} reports {total} work, above the offline optimum {opt0}"
            )

    for name, trace in traces.items():
        _write_series(
            os.path.join(cfg.output_dir, f"cumulative_work_{name}.csv"),
            metrics_mod.cumulative_work(trace),
        )
    if cfg.queue_norms:
        for name, trace in traces.items():
            report = metrics_mod.queue_two_norm(trace)
            _write_series(os.path.join(cfg.output_dir, f"queue_two_norm_{name}.csv"), report)
            summary[f"policy.{name}.queue_l2_final"] = report.metadata["final"]
            summary[f"policy.{name}.queue_l2_time_avg"] = report.metadata["time_average"]
    for a, b in cfg.work_difference:
        report = metrics_mod.work_difference(traces[a], traces[b])
        _write_series(os.path.join(cfg.output_dir, f"work_difference_{a}_{b}.csv"), report)
        summary[f"work_difference.{a}.{b}.final"] = report.metadata["final"]
    if cfg.sla_window_policy is not None:
        trace = traces[cfg.sla_window_policy]
        stats = metrics_mod.sla_window_stats(trace, cfg.sla, cfg.tau, cfg.window_stride)
        report = metrics_mod.SeriesReport(
            name=f"sla_window[{cfg.sla_window_policy}]",
            steps=stats.starts,
            values=stats.gaps,
        )
        _write_series(
            os.path.join(cfg.output_dir, f"sla_window_{cfg.sla_window_policy}.csv"), report
        )
        prefix = f"policy.{cfg.sla_window_policy}.sla_window"
        summary[f"{prefix}.tau"] = stats.tau
        summary[f"{prefix}.stride"] = stats.stride
        for i in range(cfg.sla.n):
            summary[f"{prefix}.user{i + 1}.min"] = float(stats.mins[i])
            summary[f"{prefix}.user{i + 1}.max"] = float(stats.maxs[i])
            summary[f"{prefix}.user{i + 1}.mean"] = float(stats.means[i])
            summary[f"{prefix}.user{i + 1}.std"] = float(stats.stds[i])

    with open(os.path.join(cfg.output_dir, "summary"), "w", encoding="utf-8") as fh:
        for key, value in summary.items():
            fh.write(f"{key}={_format(value)}\n")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="slasim", description="Simulate SLA-aware resource-sharing policies."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config")
    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config")
    args = parser.parse_args(argv)

    try:
        cfg, errors, warnings = parse_config(args.config)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    for line in warnings:
        print(f"warning: {line}")
    if errors:
        for line in errors:
            print(f"error: {line}", file=sys.stderr)
        return 1

    if args.command == "validate":
        for line in _policy_echo(cfg):
            print(line)
        print(f"ok: {args.config}")
        return 0

    started = time.perf_counter()
    try:
        summary = run_experiment(cfg)
    except (ConfigError, workloads.TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - started
    print(f"wrote {cfg.output_dir}/summary ({len(summary)} keys) in {elapsed:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
