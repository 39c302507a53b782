"""Command-line front end: run or validate experiment configs.

Configs are INI files (configparser syntax, # or ; comments) with one
section per policy:

    [workload]            type, horizon, sla, and type-specific keys
    [run]                 stride, profile (debug arms the lemma monitors)
    [policy <name>]       type and type-specific keys
    [metrics]             work_difference, sla_window, tau, window_stride
    [output]              dir (overridden by SLASIM_OUTPUT_DIR)

The workload and policy sections read `type` and that type's own keys
(WORKLOAD_KEYS, policies.POLICY_TYPES).  Any other section or key is a
config error, so a misspelled or misplaced setting never leaves its
default in force unnoticed.  The multiplicative-weights boost is derived
as epsilon**2 / (8 N) and `validate` echoes it.

parse_config is the one place a config is judged: it also reads a trace_csv
trace and checks its format, user count and length, so `validate` and `run`
reject the same configs.  Under the adversary workload, where each policy
sees its own loads, work_difference is a config error and the stride must
be 1, so every policy's work is checked against its own offline optimum.
`run` writes every policy's cumulative work and queue 2-norm CSVs, one CSV
per requested metric series, and a `summary` file of key=value lines.

`run` uses up to 2 CPUs: one worker process runs group 1 of the policies
while this process runs group 0.  _split_rows forms the groups statically,
longest first over the POLICY_TYPES weights (mw and mw_prop 15,
simple_greedy 11, pg, po and owm 10, static 4).  Rows are independent, so
any split writes the same bytes.  A config of one policy starts no worker,
an error in group 0 is reported before one in group 1, and the benchmark's
tracer sees only this process, so traced runs miss the worker group's spans.
Exit codes: 0 success, 1 config error, 2 runtime failure (a broken
invariant, or an SLA split with every competing share zero), 3 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from slasim import metrics as metrics_mod
from slasim import offline, policies, workloads
from slasim.core import (
    DegenerateSlaError,
    InvariantViolation,
    PolicyParams,
    SimulationTrace,
    SlaVector,
    run_batch,
    run as run_simulation,  # noqa: F401  (unused here; perfbench traces runs by this name)
)

OUTPUT_DIR_ENV = "SLASIM_OUTPUT_DIR"
WORK_CAP_SLACK = 1e-6
# Keys each workload type reads besides type, horizon and sla.
WORKLOAD_KEYS = {
    "example1": (),
    "synthetic_gamma": ("seed", "schedule"),
    "bernoulli_gamma": ("seed",),
    "trace_csv": ("path",),
    "adversary": (),
}
# Keys parse_config reads in the other fixed sections; the workload and
# policy sections are checked against the keys of their own type.
SECTION_KEYS = {
    "run": ("stride", "profile"),
    "metrics": ("work_difference", "sla_window", "tau", "window_stride"),
    "output": ("dir",),
}
# Value rules for _read: what the value must be, and the test it passes.
POSITIVE_INT = ("be a positive integer", lambda v: v >= 1)
UNIT_INTERVAL = ("lie in (0, 1]", lambda v: 0.0 < v <= 1.0)


@dataclass
class PolicyConfig:
    name: str
    type: str
    params: Optional[PolicyParams] = None  # mw and mw_prop only
    capacity: float = 1.0  # offline types only


@dataclass
class ExperimentConfig:
    """A checked config; parse_config sets every field and holds the defaults."""

    workload_type: str
    horizon: int
    sla: SlaVector
    seed: int
    trace: Optional[workloads.PrecomputedLoads]  # trace_csv only
    schedule: tuple
    stride: int
    assert_lemmas: bool
    policies: list[PolicyConfig]
    work_difference: list[tuple[str, str]]
    sla_window_policy: Optional[str]
    tau: int
    window_stride: Optional[int]
    output_dir: str


def _read(raw: str, where: str, errors: list[str], kind=int, rule=None):
    """Parse raw as kind (int or float) and add one error if it does not
    parse or breaks rule.  Returns None only if it does not parse, so checks
    that combine values still see a value that breaks its own rule."""
    try:
        value = kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        errors.append(f"{where}: expected {noun}, got {raw!r}")
        return None
    if rule is not None and not rule[1](value):
        errors.append(f"{where} must {rule[0]}, got {value}")
    return value


def _check_keys(section: str, keys, known, errors: list[str]) -> None:
    for key in keys:
        if key not in known:
            errors.append(f"{section} {key}: unknown key (expected one of {', '.join(known)})")


def _parse_schedule(raw: str, errors: list[str]):
    """Period list like 'bulk 2 3; bulk 1 2; uniform 2 3' (1-based users)."""
    schedule = []
    for idx, chunk in enumerate(raw.split(";")):
        where = f"workload schedule period {idx + 1}"
        parts = chunk.split()
        if len(parts) != 3 or parts[0] not in ("bulk", "uniform"):
            errors.append(f"{where}: expected 'bulk|uniform <a> <b>', got {chunk.strip()!r}")
            continue
        a = _read(parts[1], f"{where} user", errors)
        b = _read(parts[2], f"{where} user", errors)
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
    # A horizon that does not parse is reported once; 0 passes the checks below.
    horizon = _read(wl.get("horizon", "0"), "workload horizon", errors, rule=POSITIVE_INT) or 0

    sla = None
    if "sla" not in wl:
        errors.append("workload is missing the sla key (comma-separated shares)")
    else:
        try:
            shares = [float(v) for v in wl["sla"].split(",")]
            sla = SlaVector(np.array(shares))
        except ValueError as exc:
            errors.append(f"workload sla: {exc}")

    seed = _read(wl.get("seed", "0"), "workload seed", errors)
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
            for idx, (kind, a, b) in enumerate(schedule):
                where = f"workload schedule period {idx + 1}"
                if not (0 <= a < n and 0 <= b < n and a != b):
                    errors.append(f"{where}: users must be distinct and in 1..{n}")
                elif kind == "bulk" and sla.beta[a] + sla.beta[b] <= 0.0:
                    errors.append(f"{where}: bulk pair has zero total SLA")
        if wl_type == "adversary" and n != 2:
            errors.append(f"adversary workload needs exactly 2 users, sla has {n}")
    trace = None
    trace_path = wl.get("path")
    if wl_type == "trace_csv" and not trace_path:
        errors.append("trace_csv workload needs a path key")
    elif wl_type == "trace_csv":
        try:
            trace = workloads.load_trace_csv(trace_path)
        except FileNotFoundError:
            errors.append(f"trace file not found: {trace_path}")
        except (workloads.TraceFormatError, UnicodeDecodeError) as exc:
            errors.append(f"workload path {trace_path}: {exc}")
        else:
            if sla is not None and trace.n_users != sla.n:
                errors.append(f"trace has {trace.n_users} users but sla has {sla.n}")
            if trace.horizon < horizon:
                errors.append(f"trace provides {trace.horizon} steps, config asks for {horizon}")

    run_sec = parser["run"] if parser.has_section("run") else {}
    stride = _read(run_sec.get("stride", "1"), "run stride", errors, rule=POSITIVE_INT)
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
        spec = policies.POLICY_TYPES.get(ptype)
        if spec is None:
            types = ", ".join(policies.POLICY_TYPES)
            errors.append(f"policy {name}: type must be one of {types}, got {ptype!r}")
            continue
        pc = PolicyConfig(name=name, type=ptype)
        if "epsilon" in spec.keys:
            if "epsilon" not in sec or "eta" not in sec:
                errors.append(f"policy {name}: type {ptype} needs epsilon and eta")
            else:
                eps = _read(sec["epsilon"], f"policy {name} epsilon", errors, float)
                eta = _read(sec["eta"], f"policy {name} eta", errors, float)
                if sla is not None and eps is not None and eta is not None:
                    try:
                        pc.params = PolicyParams(n_users=sla.n, epsilon=eps, eta=eta)
                    except ValueError as exc:
                        errors.append(f"policy {name}: {exc}")
                    else:
                        if not sla.theory_applicable(eps):
                            warnings.append(
                                f"policy {name}: some SLA share falls below 2*epsilon/N "
                                f"= {2 * eps / sla.n}; the multiplicative-boost "
                                f"guarantees need beta(i) >= 2*epsilon/N"
                            )
        if "capacity" in spec.keys:
            pc.capacity = _read(
                sec.get("capacity", "1"), f"policy {name} capacity", errors, float, UNIT_INTERVAL
            )
        if wl_type == "adversary" and spec.build is None:
            errors.append(
                f"policy {name}: offline schedulers cannot be driven by the "
                f"adversary workload (loads adapt to one online policy)"
            )
        _check_keys(section, sec, ("type",) + spec.keys, errors)
        policy_configs.append(pc)
    if not policy_configs:
        errors.append("no [policy <name>] sections found")

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
    tau = _read(met.get("tau", "500"), "metrics tau", errors, rule=POSITIVE_INT)
    window_stride = None
    if "window_stride" in met:
        window_stride = _read(
            met["window_stride"], "metrics window_stride", errors, rule=POSITIVE_INT
        )
    if sla_window_policy is not None:
        if stride is not None and stride != 1:
            errors.append("metrics sla_window needs run stride = 1 (full trace)")
        if tau is not None and tau > horizon >= 1:
            errors.append(f"metrics tau must lie in [1, horizon], got {tau}")
    if wl_type == "adversary" and work_diff:
        errors.append(
            "metrics work_difference is undefined under the adversary workload "
            "(each policy sees its own loads)"
        )
    if wl_type == "adversary" and stride is not None and stride != 1:
        errors.append(
            "run stride must be 1 under the adversary workload "
            "(each policy's offline optimum needs all of its loads)"
        )

    out_sec = parser["output"] if parser.has_section("output") else {}
    output_dir = os.environ.get(OUTPUT_DIR_ENV) or out_sec.get("dir", "out")

    if errors or sla is None:
        return None, errors, warnings
    cfg = ExperimentConfig(
        workload_type=wl_type,
        horizon=horizon,
        sla=sla,
        seed=seed,
        trace=trace,
        schedule=schedule,
        stride=stride,
        assert_lemmas=profile == "debug",
        policies=policy_configs,
        work_difference=work_diff,
        sla_window_policy=sla_window_policy,
        tau=tau,
        window_stride=window_stride,
        output_dir=output_dir,
    )
    return cfg, errors, warnings


def _policy_echo(cfg: ExperimentConfig) -> list[str]:
    return [
        f"policy {pc.name}: boost = {pc.params.boost!r} (canonical)"
        for pc in cfg.policies
        if pc.params is not None
    ]


def _build_source(cfg: ExperimentConfig):
    if cfg.workload_type == "example1":
        return workloads.example1_instance(cfg.horizon)
    if cfg.workload_type == "synthetic_gamma":
        return workloads.synthetic_gamma(cfg.sla, cfg.horizon, cfg.seed, cfg.schedule)
    if cfg.workload_type == "bernoulli_gamma":
        return workloads.bernoulli_gamma_fuzz(cfg.sla.n, cfg.horizon, cfg.seed)
    # trace_csv replays the trace parse_config loaded; adversary has no shared
    # source, as each driven policy gets its own QueueAdversary.
    return cfg.trace


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


class _Finished(NamedTuple):
    """One policy's summary entries, by the part of the summary they sit in,
    its cumulative work if a work difference names the policy, and its
    adversary phases and offline optima."""

    totals: dict
    norms: dict
    window: dict
    cumulative: Optional[metrics_mod.SeriesReport]
    phases: Optional[int]  # adversary rows
    optimum_eps0: Optional[float]  # adversary rows: of the row's own loads
    optimum_rest: Optional[float]  # mw and mw_prop rows: at the policy's epsilon


def _finish(pc: PolicyConfig, trace: SimulationTrace, loads, phases, cfg) -> _Finished:
    """Write one policy's CSVs, and its SLA window CSV if it is the window
    target, and return what the summary and the work differences need."""
    name = pc.name
    prefix = f"policy.{name}"
    totals = {
        f"{prefix}.total_work": float(trace.total_work.sum()),
        f"{prefix}.final_queue_l1": float(trace.final_queue.sum()),
        f"{prefix}.final_queue_l2": float(np.sqrt((trace.final_queue**2).sum())),
    }
    cumulative = metrics_mod.cumulative_work(trace)
    _write_series(os.path.join(cfg.output_dir, f"cumulative_work_{name}.csv"), cumulative)
    report = metrics_mod.queue_two_norm(trace)
    _write_series(os.path.join(cfg.output_dir, f"queue_two_norm_{name}.csv"), report)
    norms = {
        f"{prefix}.queue_l2_final": report.metadata["final"],
        f"{prefix}.queue_l2_time_avg": report.metadata["time_average"],
    }
    window = {}
    if name == cfg.sla_window_policy:
        stats = metrics_mod.sla_window_stats(trace, cfg.sla, cfg.tau, cfg.window_stride)
        report = metrics_mod.SeriesReport(
            name=f"sla_window[{name}]", steps=stats.starts, values=stats.gaps
        )
        _write_series(os.path.join(cfg.output_dir, f"sla_window_{name}.csv"), report)
        window[f"{prefix}.sla_window.tau"] = stats.tau
        window[f"{prefix}.sla_window.stride"] = stats.stride
        for i in range(cfg.sla.n):
            window[f"{prefix}.sla_window.user{i + 1}.min"] = float(stats.mins[i])
            window[f"{prefix}.sla_window.user{i + 1}.max"] = float(stats.maxs[i])
            window[f"{prefix}.sla_window.user{i + 1}.mean"] = float(stats.means[i])
            window[f"{prefix}.sla_window.user{i + 1}.std"] = float(stats.stds[i])
    # Only work differences read the series afterwards; leaving the others
    # out keeps them from being held or sent back from the worker.
    if not any(name in pair for pair in cfg.work_difference):
        cumulative = None
    rest = None if pc.params is None else offline.offline_optimal_value(loads, pc.params.epsilon)
    eps0 = None if phases is None else offline.offline_optimal_value(loads, 0.0)
    return _Finished(totals, norms, window, cumulative, phases, eps0, rest)


def _split_rows(pcs: list[PolicyConfig]) -> tuple[list, list]:
    """The rows as two groups, each in config order.  Longest first: each
    row, by falling POLICY_TYPES weight (config order among equals), joins
    the group of smaller total weight, group 0 on a tie."""
    group, totals = {}, [0, 0]
    for pc in sorted(pcs, key=lambda pc: -policies.POLICY_TYPES[pc.type].weight):
        g = group[pc.name] = int(totals[1] < totals[0])
        totals[g] += policies.POLICY_TYPES[pc.type].weight
    return tuple([pc for pc in pcs if group[pc.name] == g] for g in (0, 1))


def _run_group(pcs: list[PolicyConfig], source, cfg: ExperimentConfig) -> dict[str, _Finished]:
    """Run a group of rows, the online ones as one lockstep batch and each
    offline one as a replay of the shared loads, and finish each row where
    its trace lives, so no per-step array leaves the process.  Under the
    adversary (no shared source) each online row gets its own adversary."""
    adversary = source is None
    shared = None if adversary else source.matrix[: cfg.horizon]
    types = policies.POLICY_TYPES
    online = [pc for pc in pcs if types[pc.type].build is not None]
    built = [types[pc.type].build(cfg.sla, pc.params, cfg.assert_lemmas) for pc in online]
    sources = [workloads.QueueAdversary() if adversary else source for _ in online]
    traces = run_batch(zip(built, sources), cfg.horizon, stride=cfg.stride) if online else []
    finished = {}
    for pc, trace, row_source in zip(online, traces, sources):
        # An adversary run has stride 1, so its trace holds all its loads.
        own = (trace.load, len(row_source.phase_log)) if adversary else (shared, None)
        finished[pc.name] = _finish(pc, trace, *own, cfg)
    for pc in pcs:
        if types[pc.type].replay is not None:
            trace = types[pc.type].replay(shared, cfg.sla, pc.capacity, cfg.stride)
            finished[pc.name] = _finish(pc, trace, shared, None, cfg)
    return finished


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run every configured policy, write CSVs and the summary file; a worker
    process runs group 1 of _split_rows while this process runs group 0."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    source = _build_source(cfg)
    here, there = _split_rows(cfg.policies)
    if not there:
        finished = _run_group(here, source, cfg)
    else:
        # Imported here: a config of one policy never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=1)
        try:
            job = pool.submit(_run_group, there, source, cfg)
            finished = _run_group(here, source, cfg)
            finished.update(job.result())
        finally:
            pool.shutdown(cancel_futures=True)

    summary: dict[str, object] = {
        "workload": cfg.workload_type,
        "horizon": cfg.horizon,
        "n_users": cfg.sla.n,
        "seed": cfg.seed,
    }
    for pc in cfg.policies:
        done = finished[pc.name]
        if done.phases is not None:
            summary[f"policy.{pc.name}.adversary_phases"] = done.phases
        summary[f"policy.{pc.name}.type"] = pc.type
        summary.update(done.totals)

    # Under the adversary each row's group computed its own eps=0 optimum.
    if source is not None:
        opt0 = offline.offline_optimal_value(source.matrix[: cfg.horizon], 0.0)
        summary["offline_optimal_eps0"] = opt0
    for pc in cfg.policies:
        done = finished[pc.name]
        total = done.totals[f"policy.{pc.name}.total_work"]
        if done.optimum_eps0 is not None:
            opt0 = done.optimum_eps0
            summary[f"policy.{pc.name}.offline_optimal_eps0"] = opt0
            summary[f"policy.{pc.name}.offline_gap"] = opt0 - total
        if done.optimum_rest is not None:
            summary[f"policy.{pc.name}.offline_optimal_rest"] = done.optimum_rest
        if total > opt0 + WORK_CAP_SLACK:
            raise InvariantViolation(
                f"policy {pc.name} reports {total} work, above the offline optimum {opt0}"
            )

    for pc in cfg.policies:
        summary.update(finished[pc.name].norms)
    for a, b in cfg.work_difference:
        report = metrics_mod.work_difference(finished[a].cumulative, finished[b].cumulative)
        _write_series(os.path.join(cfg.output_dir, f"work_difference_{a}_{b}.csv"), report)
        summary[f"work_difference.{a}.{b}.final"] = report.metadata["final"]
    if cfg.sla_window_policy is not None:
        summary.update(finished[cfg.sla_window_policy].window)

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
    except InvariantViolation as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 2
    except DegenerateSlaError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - started
    print(f"wrote {cfg.output_dir}/summary ({len(summary)} keys) in {elapsed:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
