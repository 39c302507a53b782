"""slasim benchmark: time per simulated step, set-up time and memory.

    python3 perfbench/run.py --workload t60k_config --seed 1 --seconds 40 --trace 0

Runs ops of one workload one after another in this process, with BLAS and
OpenMP pinned to one thread, for about ``--seconds`` seconds.  Every op
re-imports slasim, so set-up time includes the import.  With ``--trace 0``
the last stdout line holds the end-to-end metrics, timed in reference
seconds (host seconds scaled for the host's speed, see bench_ref); with
``--trace 1`` it holds per-layer metrics in host seconds from traced ops,
interleaved with untraced ops that give the tracing overhead.  Results,
with the environment and output digests, go to ``.bench_build/perfbench/``
in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:  # numpy reads these when it is first imported
    os.environ[_var] = "1"

import numpy  # noqa: E402

from bench_ops import WORKLOADS, modules_namespace, trace_points  # noqa: E402
from bench_ref import REF_NOMINAL_S, HostSpeed  # noqa: E402
from bench_trace import Tracer, is_traced  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
MIN_OPS = 3  # ops per untraced run, however long they take
# Set-ups without a body, run before each untraced op while fewer than
# EXTRA_SETUPS have run, so that setup_s is a median over the whole run.
SETUPS_PER_OP = 3
EXTRA_SETUPS = 15

# ROADMAP Baseline, measured before this benchmark existed: (workload,
# traced quantity, baseline value, unit).
BASELINE = (
    ("t60k_config", "core.run.mw_prop per step", 44.0, "us"),
    ("t60k_config", "core.run.owm per step", 15.0, "us"),
    ("t60k_config", "core.run.po per step", 14.0, "us"),
    ("t60k_config", "core.run.static per step", 7.5, "us"),
    ("t60k_config", "projection.project per call", 22.0, "us"),
    ("t60k_config", "offline.proportional_greedy per call", 2.1, "s"),
    ("wide_n1000", "projection.project per call", 68.0, "us"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha(root: str):
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "slasim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(ROOT),
        "src_sha256": source_digest(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def fresh_start() -> None:
    """Forget every slasim module, so the next import runs afresh, and collect garbage."""
    for name in [n for n in sys.modules if n == "slasim" or n.startswith("slasim.")]:
        del sys.modules[name]
    gc.collect()


def import_slasim():
    importlib.import_module("slasim.cli")
    return modules_namespace(sys.modules)


class Runner:
    """Runs ops of one workload and keeps their samples."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: set[str] = set()
        self.setup_s: list[float] = []
        self.op_log: list[dict] = []
        self.host: HostSpeed | None = None  # set for untraced runs only

    def timed_setup(self, trace_points=None):
        """Import slasim afresh and run the workload's set-up; returns (m, op, seconds).

        With trace_points, the tracer wraps them right after the import.
        """
        started = time.perf_counter()
        m = import_slasim()
        if trace_points is not None:
            for owner, attr, name, split in trace_points(m):
                self.tracer.wrap(owner, attr, name, split)
        op = self.workload.setup(m)
        return m, op, time.perf_counter() - started

    def setup_only(self) -> None:
        fresh_start()
        try:
            _, _, seconds = self.timed_setup()
        except Exception:
            self.failures.append("set-up: " + traceback.format_exc(limit=3))
            return
        self.setup_s.append(seconds)

    def op(self, traced: bool) -> dict | None:
        """One op; returns its sample, or None if it failed."""
        wl = self.workload
        self.attempted += 1
        wl.reset_output()
        fresh_start()
        label = f"op {self.attempted}{' (traced)' if traced else ''}"
        try:
            if traced:
                self.tracer.op_id += 1
                root = self.tracer.open(self.tracer.name_id("op"))
                try:
                    m, op, setup = self.timed_setup(trace_points)
                    started = time.perf_counter()
                    wl.body(m, op)
                    body = time.perf_counter() - started
                finally:
                    self.tracer.close(root)
                    self.tracer.restore()
                fails = [f"not restored: {n}" for n in self.tracer.check_restored()]
            else:
                m, op, setup = self.timed_setup()
                fails = [
                    f"traced in an untraced op: {owner.__name__}.{attr}"
                    for owner, attr, _, _ in trace_points(m)
                    if is_traced(getattr(owner, attr))
                ]
                host = self.host
                if host is not None:
                    host.start()
                started = time.perf_counter()
                try:
                    wl.body(m, op)
                finally:
                    if host is not None:
                        host.stop()
                body = time.perf_counter() - started - (host.spent if host is not None else 0.0)
            fails += wl.check(m, op)
            digest, output_bytes = wl.fingerprint(op)
        except Exception:
            self.failures.append(f"{label}: " + traceback.format_exc(limit=5))
            print(f"{label}: FAILED", flush=True)
            return None
        if fails:
            self.failures += [f"{label}: {f}" for f in fails]
            print(f"{label}: FAILED checks: {fails}", flush=True)
            return None
        self.digests.add(digest)
        self.setup_s.append(setup)
        sample = {
            "traced": traced,
            "setup_s": setup,
            "body_s": body,
            "steps": op.steps,
            "horizon": op.horizon,
            "steps_per_s": op.steps / body,
            "output_bytes": output_bytes,
            "digest": digest,
        }
        if traced:
            sample["op_id"] = self.tracer.op_id
        self.op_log.append(sample)
        print(
            f"{label}: setup {setup:.4f} s, body {body:.3f} s, "
            f"{sample['steps_per_s']:.1f} steps/s, digest {digest[:16]}",
            flush=True,
        )
        return sample


def median(values):
    return statistics.median(values) if values else 0.0


def run_untraced(runner: Runner, seconds: float) -> dict:
    """Untraced ops; times are in reference seconds (see bench_ref)."""
    started = time.perf_counter()
    walls: list[float] = []
    host = runner.host = HostSpeed()
    host.block()
    rates: list[float] = []
    setups: list[float] = []
    extra = 0
    while True:
        t0 = time.perf_counter()
        first_setup, first_op = len(runner.setup_s), len(runner.op_log)
        for _ in range(min(SETUPS_PER_OP, EXTRA_SETUPS - extra)):
            runner.setup_only()
            extra += 1
        runner.op(traced=False)
        host.block()
        setup_slowdown = host.setup_slowdown()
        setups += [s / setup_slowdown for s in runner.setup_s[first_setup:]]
        for sample in runner.op_log[first_op:]:
            sample["setup_slowdown"] = setup_slowdown
            sample["body_slowdown"] = host.body_slowdown()
            rates.append(sample["steps_per_s"] * sample["body_slowdown"])
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        if len(walls) >= MIN_OPS and elapsed + median(walls) > seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        f"samples: {len(rates)} ops for steps_per_s, {len(setups)} set-ups for setup_s; "
        f"host seconds: {median([s['steps_per_s'] for s in runner.op_log]):.1f} steps/s, "
        f"set-up {median(runner.setup_s):.4f} s; reference kernel median "
        f"{median(host.blocks) * 1e3:.3f} ms (nominal {REF_NOMINAL_S * 1e3:.3f} ms) "
        f"over {len(host.blocks)} blocks, {sum(map(len, host.samples))} samples during ops",
        flush=True,
    )
    return {
        "steps_per_s": {"value": median(rates), "unit": "1/s"},
        "setup_s": {"value": median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
    }


def layer_metrics(tables: list[dict], samples: list[dict], overhead: float) -> dict:
    """Per-layer metrics per op: medians over traced ops for times, and
    counts from the first traced op (every traced op has the same counts)."""

    def per_op(fn):
        return median([fn(t, s) for t, s in zip(tables, samples)])

    def calls(t, prefix):
        return sum(c for name, (c, _, _) in t.items() if name == prefix or name.startswith(prefix + "."))

    def total(t, prefix, i):
        return sum((v[i] for name, v in t.items() if name == prefix or name.startswith(prefix + ".")), 0.0)

    def per_call(t, prefix, i, scale):
        n = calls(t, prefix)
        return scale * total(t, prefix, i) / n if n else 0.0

    metrics = {}

    def put(name, unit, fn):
        metrics[name] = {"value": per_op(fn), "unit": unit}

    def put_calls(prefix):
        metrics[f"{prefix}.calls"] = {"value": calls(tables[0], prefix), "unit": "count"}

    put_calls("projection.project")
    put("projection.project.us_per_call", "us", lambda t, s: per_call(t, "projection.project", 1, 1e6))
    for policy in ("mw", "mw_prop", "static", "po", "owm"):
        prefix = f"policies.decide.{policy}"
        put_calls(prefix)
        put(f"{prefix}.self_us", "us", lambda t, s, p=prefix: per_call(t, p, 2, 1e6))
    put_calls("core.run")
    put(
        "core.run.self_us_per_step",
        "us",
        lambda t, s: 1e6 * total(t, "core.run", 2) / (calls(t, "core.run") * s["horizon"])
        if calls(t, "core.run")
        else 0.0,
    )
    put_calls("workloads.adversary_next")
    put(
        "workloads.adversary_next.us_per_call",
        "us",
        lambda t, s: per_call(t, "workloads.adversary_next", 1, 1e6),
    )
    put_calls("workloads.build")
    put("workloads.build_s", "s", lambda t, s: total(t, "workloads.build", 1))
    for name in (
        "offline.proportional_greedy",
        "offline.offline_optimal_value",
        "metrics.sla_window_stats",
        "metrics.series",
        "cli.parse_config",
    ):
        put_calls(name)
        put(f"{name}.s", "s", lambda t, s, p=name: total(t, p, 1))
    put_calls("cli.run_experiment")
    put("cli.run_experiment.self_s", "s", lambda t, s: total(t, "cli.run_experiment", 2))
    metrics["cli.output_bytes"] = {"value": samples[0]["output_bytes"], "unit": "bytes"}
    put("trace.residual_s", "s", lambda t, s: t["op"][2])
    metrics["trace.spans"] = {"value": sum(c for c, _, _ in tables[0].values()), "unit": "count"}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def baseline_check(workload: str, table: dict, sample: dict) -> list[dict]:
    """Traced numbers beside the ROADMAP Baseline; flags a factor over 2."""
    rows = []
    for wl, what, base, unit in BASELINE:
        if wl != workload:
            continue
        name = what.split(" per ")[0]
        if name not in table:
            continue
        calls, total, _ = table[name]
        if what.endswith("per step"):
            value = 1e6 * total / (calls * sample["horizon"])
        else:
            value = total / calls * (1e6 if unit == "us" else 1.0)
        ratio = value / base
        rows.append({
            "quantity": what, "unit": unit, "baseline": base, "traced": value,
            "ratio": ratio, "flag": not (0.5 <= ratio <= 2.0),
        })
    return rows


def run_traced(runner: Runner, seconds: float, workload: str, seed: int) -> tuple[dict, list]:
    started = time.perf_counter()
    pairs: list[tuple[dict, dict]] = []
    while True:
        t0 = time.perf_counter()
        plain = runner.op(traced=False)
        traced = runner.op(traced=True)
        if plain is not None and traced is not None:
            pairs.append((plain, traced))
        pair_wall = time.perf_counter() - t0
        if pairs and time.perf_counter() - started + pair_wall > seconds:
            break
        if not pairs and runner.attempted >= 4:
            break
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    runner.tracer.save(os.path.join(OUT, "spans", f"{workload}-seed{seed}.npz"))
    if not pairs:
        return {}, []
    samples = [t for _, t in pairs]
    tables = [runner.tracer.layer_table(s["op_id"]) for s in samples]
    for table, sample in zip(tables, samples):
        wall = table["op"][1]
        accounted = sum(own for _, _, own in table.values())
        if abs(accounted - wall) > 1e-6 * wall:
            runner.failures.append(f"traced op {sample['op_id']}: self times {accounted} != wall {wall}")
    counts = {tuple(sorted((n, c) for n, (c, _, _) in t.items())) for t in tables}
    if len(counts) != 1:
        runner.failures.append("span call counts differ between traced ops")
    wall = lambda s: s["setup_s"] + s["body_s"]
    overhead = median([wall(t) for _, t in pairs]) - median([wall(p) for p, _ in pairs])
    print(f"samples: {len(pairs)} traced/untraced op pairs", flush=True)
    for name, (c, tot, own) in sorted(tables[0].items()):
        print(f"  span {name:45s} calls {c:8d}  total {tot:9.4f} s  self {own:9.4f} s", flush=True)
    checks = baseline_check(workload, tables[0], samples[0])
    for row in checks:
        print(
            f"  baseline {row['quantity']:40s} {row['baseline']:8.2f} {row['unit']:2s} "
            f"traced {row['traced']:10.3f}  x{row['ratio']:.2f}{'  FLAG' if row['flag'] else ''}",
            flush=True,
        )
    return layer_metrics(tables, samples, overhead), checks


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "slasim", "__init__.py")):
        print(f"error: no slasim package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    sys.path.insert(1, SRC)  # after this script's own directory
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    missing = [p for p in workload.required_files(ROOT) if not os.path.isfile(p)]
    if missing:
        print(f"error: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, args.workload)
    os.makedirs(workdir, exist_ok=True)
    workload.prepare(ROOT, args.seed, workdir)

    env = environment()
    print(f"environment: {json.dumps(env, sort_keys=True)}", flush=True)
    runner = Runner(workload, Tracer())
    baseline = []
    if args.trace:
        metrics, baseline = run_traced(runner, args.seconds, args.workload, args.seed)
    else:
        metrics = run_untraced(runner, args.seconds)
    imported = sys.modules.get("slasim")
    if imported is not None and not os.path.abspath(imported.__file__).startswith(SRC + os.sep):
        runner.failures.append(f"slasim imported from {imported.__file__}, not {SRC}")
    if len(runner.digests) > 1:
        runner.failures.append(f"ops disagree on outputs: {len(runner.digests)} digests")
    failed = runner.attempted - len(runner.op_log)
    correct = not runner.failures and runner.attempted > 0
    for line in runner.failures:
        print(f"failure: {line}", flush=True)
    print(f"digest: {','.join(sorted(runner.digests))}", flush=True)

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "digests": sorted(runner.digests),
        "failures": runner.failures,
        "ops": runner.op_log,
        "setup_samples_s": runner.setup_s,
        "reference_nominal_s": REF_NOMINAL_S,
        "reference_block_s": runner.host.blocks if runner.host else [],
        "reference_samples_s": runner.host.samples if runner.host else [],
        "baseline_check": baseline,
        "metrics": metrics,
    }
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
