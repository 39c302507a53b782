"""End-to-end acceptance gate.

Ten numbered checks, one per release requirement.  Each test prints a
single `acceptance N: PASS/FAIL (...)` line; run with

    pytest -s tests/test_acceptance.py

to see every verdict as it lands.  Numbered in execution order; the
shared fixtures (the 50-trace fuzz corpus and the ten seeded synthetic
runs) are built once and reused across checks.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.optimize import minimize

from slasim import (
    PolicyParams,
    SlaVector,
    project_truncated_simplex,
    run,
    run_batch,
)
from slasim import cli
from slasim.metrics import sla_window_stats
from slasim.offline import offline_optimal_value, proportional_greedy, simple_greedy
from slasim.policies import MultiplicativeWeights, make_policy
from slasim.workloads import (
    PrecomputedLoads,
    QueueAdversary,
    bernoulli_gamma_fuzz,
    example1_instance,
    example1_sla,
    load_trace_csv,
    synthetic_gamma,
    write_trace_csv,
)

from duals import switch_dual_bound
from entropy import kl_divergence

FUZZ_RUNS = 50
FUZZ_HORIZON = 10_000
SEED_RUNS = 10
SEED_HORIZON = 60_000


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------- fixtures


def _on_two_cpus(job, args, remote):
    """[job(arg) for arg in args], in order: the args in `remote` run in one
    spawned worker process while this process runs the others.  The jobs
    must be independent, and job a module-level function, so that it
    pickles.  Spawned, not forked: numpy's BLAS threads are running here.
    A worker that hangs fails the fixture after ten minutes."""
    pool = ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("spawn"))
    try:
        there = {arg: pool.submit(job, arg) for arg in args if arg in remote}
        here = {arg: job(arg) for arg in args if arg not in remote}
        return [here[arg] if arg in here else there[arg].result(timeout=600) for arg in args]
    finally:
        pool.shutdown(cancel_futures=True)


def _fuzz_batch(n: int) -> list:
    """The fuzz runs with N = n as one lockstep batch: (run index, record)
    for each, the record holding the run's loads and each rule's work."""
    runs = [k for k in range(FUZZ_RUNS) if 2 + k % 5 == n]
    records, rows = [], []
    for k in runs:
        rng = np.random.default_rng(1000 + k)
        beta = 0.5 * rng.dirichlet(np.ones(n)) + 0.5 / n
        sla = SlaVector(beta)
        params = PolicyParams(
            n_users=n,
            epsilon=(0.02, 0.05, 0.1)[k % 3],
            eta=(1.0 / 3.0, 0.2)[k % 2],
        )
        source = bernoulli_gamma_fuzz(n, FUZZ_HORIZON, seed=2000 + k)
        records.append((k, {"loads": source.matrix, "works": {}}))
        for prop in (False, True):
            policy = MultiplicativeWeights(
                sla, params, proportional=prop, monitor_lemmas=True
            )
            rows.append((policy, source))
    traces = run_batch(rows, horizon=FUZZ_HORIZON, stride=FUZZ_HORIZON)
    for i, trace in enumerate(traces):
        rule = ("basic", "prop")[i % 2]
        records[i // 2][1]["works"][rule] = float(trace.total_work.sum())
    return records


@pytest.fixture(scope="module")
def fuzz_corpus():
    """Fifty monitored fuzz runs of both update rules (criteria 4 and 5).

    Every run drives one basic and one proportional policy over the same
    random loads with the growth monitors armed; a single monitor trip
    aborts the whole suite.  Shares are mixed toward uniform so each one
    clears the 2*eps/N floor the basic rule's boost guarantee needs.  The
    runs of one N step as one lockstep batch, whose rows are bit for bit
    the runs alone; the batches for N = 4 and 5 run in a worker process.
    """
    records = [None] * FUZZ_RUNS
    for batch in _on_two_cpus(_fuzz_batch, range(2, 7), remote={4, 5}):
        for k, record in batch:
            records[k] = record
    return records


def _seeded_run(seed: int) -> dict:
    """One seeded synthetic experiment: the four online policies and the
    offline greedy at capacities 1 (pg) and 0.98 (restpg) as one lockstep
    batch over the shared loads, reduced to work totals, final queue norms
    and alg2's window means."""
    sla = SlaVector(np.array([0.2, 0.3, 0.5]))
    params = PolicyParams(n_users=3, epsilon=0.02, eta=1.0 / 3.0)
    source = synthetic_gamma(sla, horizon=SEED_HORIZON, seed=seed)
    online = {"alg2": "mw_prop", "static": "static", "po": "po", "owm": "owm"}
    batch = [(make_policy(name, sla, params), source) for name in online.values()]
    batch += [(proportional_greedy(source, sla, cap), source) for cap in (1.0, 0.98)]
    traces = dict(zip([*online, "pg", "restpg"], run_batch(batch, horizon=SEED_HORIZON)))
    totals = {key: float(trace.total_work.sum()) for key, trace in traces.items()}
    norms = {key: float(np.sqrt((traces[key].final_queue**2).sum())) for key in online}
    window_means = sla_window_stats(traces["alg2"], sla, tau=500, stride=100).means
    return {"totals": totals, "norms": norms, "window_means": window_means}


@pytest.fixture(scope="module")
def seeded_runs():
    """Ten seeded synthetic experiments shared by criteria 6 and 7.

    Each seed is one batch at stride 1, because sla_window_stats needs
    alg2's full trace; the odd seeds run in a worker process.
    """
    started = time.perf_counter()
    rows = _on_two_cpus(_seeded_run, range(SEED_RUNS), remote=range(1, SEED_RUNS, 2))
    return {"rows": rows, "elapsed": time.perf_counter() - started}


# ----------------------------------------------------------------- criteria


def _convex_oracle(y: np.ndarray, eps: float) -> np.ndarray:
    """Generic constrained solve of the same projection problem."""
    n = y.size
    yn = y / y.max()
    floor = eps / n
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = minimize(
            lambda x: float(np.sum(x * np.log(x / yn))),
            np.full(n, 1.0 / n),
            jac=lambda x: np.log(x / yn) + 1.0,
            bounds=[(floor, 1.0)] * n,
            constraints=[
                {
                    "type": "eq",
                    "fun": lambda x: x.sum() - 1.0,
                    "jac": lambda x: np.ones_like(x),
                }
            ],
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-14},
        )
    assert res.success, res.message
    return res.x


def test_criterion_01_projection_matches_convex_oracle():
    rng = np.random.default_rng(20240601)
    cases = []
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        y = rng.uniform(1e-3, 10.0, size=n) * 10.0 ** rng.integers(-3, 4)
        cases.append((y, float(rng.uniform(0.01, 0.95))))

    started = time.perf_counter()
    outputs = [project_truncated_simplex(y, eps) for y, eps in cases]
    elapsed = time.perf_counter() - started

    worst_coord = 0.0
    worst_gap = -np.inf
    for (y, eps), x in zip(cases, outputs):
        ref = _convex_oracle(y, eps)
        worst_coord = max(worst_coord, float(np.max(np.abs(x - ref))))
        yn = y / y.max()
        worst_gap = max(worst_gap, kl_divergence(x, yn) - kl_divergence(ref, yn))

    ok = worst_coord <= 1e-6 and worst_gap <= 1e-8 and elapsed < 1.0
    _verdict(
        1,
        ok,
        f"1000 instances, max coord diff {worst_coord:.2e} <= 1e-6, "
        f"max KL excess {worst_gap:.2e} <= 1e-8, {elapsed * 1e3:.0f} ms < 1 s",
    )


def test_criterion_02_offline_routes_agree():
    rng = np.random.default_rng(7)
    worst = 0.0
    started = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(2, 5))
        horizon = int(rng.integers(1, 51))
        loads = rng.uniform(0.0, 2.0 / n, size=(horizon, n))
        beta = rng.uniform(0.1, 1.0, size=n)
        sla = SlaVector(beta / beta.sum())
        for capacity in (1.0, 0.9):
            opt = offline_optimal_value(loads, eps=1.0 - capacity)
            source = PrecomputedLoads(loads)
            sg = run(simple_greedy(source, capacity), source, horizon).total_work.sum()
            pg = run(proportional_greedy(source, sla, capacity), source, horizon).total_work.sum()
            worst = max(worst, abs(sg - opt), abs(pg - opt))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 1.0
    _verdict(
        2,
        ok,
        f"200 instances x capacities (1, 0.9), max route disagreement "
        f"{worst:.2e} <= 1e-9, {elapsed * 1e3:.0f} ms < 1 s",
    )


def test_criterion_03_three_user_instance_totals():
    worst = 0.0
    for horizon in (6, 3000):
        source = example1_instance(horizon)
        static = run(make_policy("static", example1_sla()), source, horizon=horizon,
                     stride=horizon)
        pg = run(proportional_greedy(source, example1_sla()), source, horizon, stride=horizon)
        worst = max(
            worst,
            abs(static.total_work.sum() - 5.0 * horizon / 6.0),
            abs(pg.total_work.sum() - float(horizon)),
        )
    ok = worst <= 1e-9
    _verdict(
        3,
        ok,
        f"T=6 and T=3000: static = 5T/6 and proportional greedy = T, "
        f"max error {worst:.2e} <= 1e-9",
    )


def test_criterion_04_growth_monitors_hold_on_fuzz_corpus(fuzz_corpus):
    # The fixture already ran every step with monitors armed: reaching
    # this point means zero violations across both update rules.
    steps = FUZZ_RUNS * 2 * FUZZ_HORIZON
    _verdict(
        4,
        len(fuzz_corpus) == FUZZ_RUNS,
        f"{FUZZ_RUNS} fuzz runs x 2 rules x {FUZZ_HORIZON} steps "
        f"({steps} monitored updates), slack 1e-10, zero violations",
    )


def test_criterion_05_dual_certificates_bound_fuzz_work(fuzz_corpus):
    worst_certificate = np.inf  # tightest min-dual minus optimum (want ~0)
    worst_slack = np.inf  # smallest dual bound minus algorithm work
    for record in fuzz_corpus:
        loads = record["loads"]
        horizon = loads.shape[0]
        opt = offline_optimal_value(loads, 0.0)
        # The switch dual's value is linear in the switch point on each
        # side of the optimum, so sampling plus the exact argmin finds the
        # true minimum; every point is still checked for dual feasibility.
        prefix = np.concatenate([[0.0], np.cumsum(loads.sum(axis=1))])
        tstar = int(np.argmin(prefix + (horizon - np.arange(horizon + 1))))
        points = sorted(set(range(0, horizon + 1, 250)) | {0, horizon, tstar})
        best = min(switch_dual_bound(loads, s, 0.0) for s in points)
        worst_certificate = min(worst_certificate, abs(best - opt))
        for work in record["works"].values():
            worst_slack = min(worst_slack, best + 1e-9 - work)
    ok = worst_certificate <= 1e-9 and worst_slack >= 0.0
    _verdict(
        5,
        ok,
        f"min switch-dual equals the closed-form optimum to 1e-9 on all "
        f"{FUZZ_RUNS} traces; every run's work stays below the bound "
        f"(min slack {worst_slack:.3f})",
    )


def test_criterion_06_seeded_synthetic_comparisons(seeded_runs):
    rows = seeded_runs["rows"]
    beats_restpg = sum(r["totals"]["alg2"] >= r["totals"]["restpg"] for r in rows)
    under_pg = sum(
        r["totals"]["pg"] + 1e-9 >= r["totals"]["alg2"] for r in rows
    )
    ordered = sum(
        r["norms"]["static"] > r["norms"]["po"] > r["norms"]["alg2"] > r["norms"]["owm"]
        for r in rows
    )
    elapsed = seeded_runs["elapsed"]
    ok = (
        beats_restpg >= 9
        and under_pg == SEED_RUNS
        and ordered >= 8
        and elapsed < 120.0
    )
    _verdict(
        6,
        ok,
        f"(a) above restricted greedy {beats_restpg}/10 (need 9), "
        f"(b) below unrestricted greedy {under_pg}/10 (need 10), "
        f"(c) queue-norm ordering {ordered}/10 (need 8), "
        f"{elapsed:.0f} s < 120 s",
    )


def test_criterion_07_window_statistic_sign(seeded_runs):
    rows = seeded_runs["rows"]
    all_negative = sum(bool((r["window_means"] < 0.0).all()) for r in rows)
    ok = all_negative >= 8
    _verdict(
        7,
        ok,
        f"tau=500 stride=100: mean window gap negative for all three users "
        f"on {all_negative}/10 seeds (need 8)",
    )


def test_criterion_08_adversary_forces_sqrt_backlog():
    sla = SlaVector(np.array([0.5, 0.5]))
    params = PolicyParams(n_users=2, epsilon=0.05, eta=1.0 / 3.0)
    details = []
    ok = True
    for horizon in (1_000, 10_000):
        for name in ("mw", "owm", "po"):
            source = QueueAdversary()  # growth floor asserted every phase
            trace = run(make_policy(name, sla, params), source, horizon=horizon)
            backlog = float(trace.final_queue.sum())
            opt = offline_optimal_value(trace.load, 0.0)
            target = np.sqrt(horizon / 40.0)
            ok = (
                ok
                and backlog >= target
                and abs(opt - horizon) <= 1e-9
                and abs((opt - trace.total_work.sum()) - backlog) <= 1e-9
                and len(source.phase_log) > 0
            )
            details.append(f"{name}@{horizon}: {backlog:.1f}>={target:.1f}")
    _verdict(8, ok, "; ".join(details) + "; optimum = T and gap = backlog to 1e-9")


def test_criterion_09_gamma_sampler_moments():
    shape, scale = 2000.0, 1.0 / 4000.0
    mean, variance = shape * scale, shape * scale**2
    draws = np.random.default_rng(99).gamma(shape, scale, size=1_000_000)
    mean_err = abs(draws.mean() - mean) / mean
    var_err = abs(draws.var() - variance) / variance
    ok = mean_err <= 0.01 and var_err <= 0.03
    _verdict(
        9,
        ok,
        f"1e6 draws: mean off by {mean_err * 100:.3f}% (cap 1%), "
        f"variance off by {var_err * 100:.2f}% (cap 3%)",
    )


def test_criterion_10_bundled_trace_round_trip_and_metrics(tmp_path, monkeypatch):
    bundled = load_trace_csv("data/demo_trace.csv")
    matrix = bundled.matrix
    ok = matrix.shape == (14_628, 6)

    # Byte-identical round trip through the writer.
    copy = tmp_path / "copy.csv"
    write_trace_csv(copy, matrix)
    ok = ok and copy.read_bytes() == open("data/demo_trace.csv", "rb").read()

    # Full metric suite over the bundled config, redirected to tmp.
    out_dir = tmp_path / "out"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(out_dir))
    cfg, errors, _ = cli.parse_config("configs/trace_demo.cfg")
    assert errors == []
    summary = cli.run_experiment(cfg)

    total_load = float(matrix.sum())
    checks = []
    for name in ("alg2", "static", "pg"):
        served = float(summary[f"policy.{name}.total_work"])
        backlog = float(summary[f"policy.{name}.final_queue_l1"])
        l2 = float(summary[f"policy.{name}.final_queue_l2"])
        checks.append(abs(served + backlog - total_load) <= 1e-6 * total_load)
        checks.append(l2 <= backlog + 1e-9)  # norm ordering
        checks.append(served <= float(summary["offline_optimal_eps0"]) + 1e-6)
    # pairwise gap consistent with the totals it came from
    gap = float(summary["work_difference.pg.alg2.final"])
    checks.append(
        abs(
            gap
            - (
                float(summary["policy.pg.total_work"])
                - float(summary["policy.alg2.total_work"])
            )
        )
        <= 1e-9
    )
    # window statistics are internally ordered
    for i in range(1, 7):
        lo = float(summary[f"policy.alg2.sla_window.user{i}.min"])
        mid = float(summary[f"policy.alg2.sla_window.user{i}.mean"])
        hi = float(summary[f"policy.alg2.sla_window.user{i}.max"])
        checks.append(lo <= mid <= hi)
    ok = ok and all(checks) and (out_dir / "summary").exists()
    _verdict(
        10,
        ok,
        f"round trip byte-identical; conservation, norm and summary "
        f"consistency over {len(checks)} checks on the 14628-step trace",
    )


@pytest.mark.slow
def test_full_scale_synthetic_run():
    # Same comparison as criterion 6 at the full 3M-step horizon; several
    # minutes, excluded from the default run (select with -m slow).
    sla = SlaVector(np.array([0.2, 0.3, 0.5]))
    params = PolicyParams(n_users=3, epsilon=0.02, eta=1.0 / 3.0)
    horizon = 3_000_000
    source = synthetic_gamma(sla, horizon=horizon, seed=0)
    alg2 = run(make_policy("mw_prop", sla, params), source, horizon=horizon, stride=150)
    static = run(make_policy("static", sla), source, horizon=horizon, stride=150)
    pg = run(proportional_greedy(source, sla), source, horizon=horizon, stride=150)
    assert pg.total_work.sum() + 1e-6 >= alg2.total_work.sum()
    assert alg2.total_work.sum() > static.total_work.sum()
    for trace in (alg2, static):
        assert trace.conservation_residual() < 1e-9
