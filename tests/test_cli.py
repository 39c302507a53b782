"""Config parsing and the command-line entry points."""

from __future__ import annotations

import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from slasim import cli, metrics, offline, policies, workloads
from slasim.core import DegenerateSlaError, InvariantViolation, PolicyParams, SlaVector, run
from slasim.offline import offline_optimal_value
from slasim.workloads import synthetic_gamma


GOOD = """\
[workload]
type = example1
horizon = 60
sla = 0.5, 0.2, 0.3

[policy static]
type = static

[policy alg2]
type = mw_prop
epsilon = 0.02
eta = 0.3333333333333333

[policy pg]
type = pg

[metrics]
work_difference = pg:alg2
sla_window = alg2
tau = 30

[output]
dir = {out}
"""


ADVERSARY_STRIDE = (
    "run stride must be 1 under the adversary workload "
    "(each policy's offline optimum needs all of its loads)"
)


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_summary(out_dir) -> dict:
    summary = {}
    for line in (out_dir / "summary").read_text().splitlines():
        key, _, value = line.partition("=")
        summary[key] = value
    return summary


def test_parse_good_config(tmp_path):
    path = _write(tmp_path, GOOD.format(out=tmp_path / "out"))
    cfg, errors, warnings = cli.parse_config(path)
    assert errors == []
    assert cfg.workload_type == "example1"
    assert cfg.horizon == 60
    assert cfg.sla.beta.tolist() == [0.5, 0.2, 0.3]
    assert [p.name for p in cfg.policies] == ["static", "alg2", "pg"]
    assert cfg.work_difference == [("pg", "alg2")]
    assert cfg.sla_window_policy == "alg2"
    assert cfg.tau == 30
    # debug profile is the default: lemma monitors on
    assert cfg.assert_lemmas


def test_parse_collects_all_errors(tmp_path):
    text = """\
[workload]
type = example1
horizon = 61
sla = 0.7, 0.3

[policy a]
type = mw

[policy b]
type = nosuch
"""
    path = _write(tmp_path, text)
    cfg, errors, _ = cli.parse_config(path)
    assert cfg is None
    joined = "\n".join(errors)
    assert "divisible by 3" in joined
    assert "3 users" in joined
    assert "epsilon" in joined  # mw without parameters
    assert "nosuch" in joined
    assert len(errors) >= 4


def test_parse_rejects_invalid_sla_sum(tmp_path):
    text = """\
[workload]
type = example1
horizon = 60
sla = 0.7, 0.7, 0.7
"""
    path = _write(tmp_path, text)
    cfg, errors, _ = cli.parse_config(path)
    assert cfg is None
    assert any("sum to at most 1" in e for e in errors)


def test_parse_warns_when_shares_fall_below_theory_floor(tmp_path):
    text = """\
[workload]
type = example1
horizon = 60
sla = 0.9, 0.04, 0.06

[policy alg1]
type = mw
epsilon = 0.1
eta = 0.3
"""
    path = _write(tmp_path, text)
    cfg, errors, warnings = cli.parse_config(path)
    assert errors == []
    assert any("falls below 2*epsilon/N" in w for w in warnings)


def test_parse_rejects_duplicate_names_and_bad_pairs(tmp_path):
    text = """\
[workload]
type = example1
horizon = 60
sla = 0.5, 0.2, 0.3

[policy x]
type = static

[policy  x]
type = po

[metrics]
work_difference = x:ghost
"""
    path = _write(tmp_path, text)
    cfg, errors, _ = cli.parse_config(path)
    joined = "\n".join(errors)
    assert "duplicate" in joined
    assert "ghost" in joined


def test_parse_adversary_restrictions(tmp_path):
    text = """\
[workload]
type = adversary
horizon = 100
sla = 0.5, 0.5

[policy pg]
type = pg
"""
    path = _write(tmp_path, text)
    cfg, errors, _ = cli.parse_config(path)
    assert any("adversary" in e for e in errors)

    text = text.replace("sla = 0.5, 0.5", "sla = 0.3, 0.3, 0.4")
    path = _write(tmp_path, text, name="exp2.cfg")
    cfg, errors, _ = cli.parse_config(path)
    assert any("2 users" in e or "two users" in e for e in errors)


def test_parse_sla_window_needs_full_trace(tmp_path):
    text = """\
[workload]
type = example1
horizon = 60
sla = 0.5, 0.2, 0.3

[run]
stride = 5

[policy alg2]
type = mw_prop
epsilon = 0.02
eta = 0.3

[metrics]
sla_window = alg2
tau = 10
"""
    path = _write(tmp_path, text)
    cfg, errors, _ = cli.parse_config(path)
    assert any("stride" in e for e in errors)


def test_validate_echoes_policies_and_exits_zero(tmp_path, capsys):
    path = _write(tmp_path, GOOD.format(out=tmp_path / "out"))
    code = cli.main(["validate", path])
    out = capsys.readouterr().out
    assert code == 0
    assert f"ok: {path}" in out
    assert "policy alg2: boost =" in out
    assert "(canonical)" in out


BOUNDED = """\
[workload]
type = bernoulli_gamma
horizon = 60
sla = 0.5, 0.5

[run]

[policy s]
type = static

[metrics]
"""


def _bounded_with(section: str, line: str) -> str:
    return BOUNDED.replace(f"[{section}]\n", f"[{section}]\n{line}\n")


def _bounded_plus(section: str, *lines: str) -> str:
    return BOUNDED + f"\n[{section}]\n" + "".join(f"{line}\n" for line in lines)


SCHEDULED = """\
[workload]
type = synthetic_gamma
horizon = 60
sla = 0.5, 0.2, 0.3
seed = 7
schedule = bulk 1 2; uniform 2 3

[policy s]
type = static
"""


def _scheduled(schedule: str) -> str:
    return SCHEDULED.replace("bulk 1 2; uniform 2 3", schedule)


@pytest.mark.parametrize(
    "text, key",
    [
        pytest.param("[workload]\ntype = nope\n", "workload type", id="workload-type"),
        # Out-of-range values are config errors, never replaced by a default
        # or left to crash the run.
        # bernoulli_gamma bursts with a fixed probability and mean, so
        # neither is a key.
        pytest.param(
            _bounded_with("workload", "p = 0"), "workload p: unknown key", id="p-zero"
        ),
        pytest.param(
            _bounded_with("workload", "mean = -1"), "workload mean: unknown key", id="mean-negative"
        ),
        pytest.param(_bounded_with("run", "stride = 0"), "run stride", id="stride-zero"),
        pytest.param(_bounded_with("metrics", "tau = 0"), "metrics tau", id="tau-zero"),
        pytest.param(
            _bounded_with("metrics", "window_stride = 0"),
            "metrics window_stride",
            id="window_stride-zero",
        ),
        pytest.param(
            _bounded_plus("policy b", "type = pg", "capacity = 1.5"),
            "policy b capacity must lie in (0, 1], got 1.5",
            id="capacity-above-one",
        ),
        # Keys and sections nothing reads are config errors naming the
        # section and key, never dropped in favour of a default.
        pytest.param(
            _bounded_with("run", "empty_tolerance = -1"),
            "run empty_tolerance: unknown key",
            id="empty_tolerance-negative",
        ),
        pytest.param(
            _bounded_with("run", "assert_lemmas = true"),
            "run assert_lemmas: unknown key",
            id="assert_lemmas-unknown",
        ),
        pytest.param(
            _bounded_plus("policy pg", "type = pg", "capcity = 0.98"),
            "policy pg capcity: unknown key",
            id="misspelled-policy-key",
        ),
        pytest.param(
            _bounded_plus(
                "policy m", "type = mw_prop", "epsilon = 0.05", "eta = 0.3", "capacity = 0.5"
            ),
            "policy m capacity: unknown key",
            id="offline-key-under-mw_prop",
        ),
        pytest.param(
            _bounded_with("workload", "path = loads.csv"),
            "workload path: unknown key",
            id="trace-key-under-bernoulli_gamma",
        ),
        pytest.param(
            _bounded_with("policy s", "epsilon = 0.05"),
            "policy s epsilon: unknown key",
            id="mw-key-under-static",
        ),
        pytest.param(
            _bounded_plus("metric", "tau = 30"),
            "unknown section [metric]",
            id="unknown-section",
        ),
        # boost is derived from epsilon and queue norms are always written,
        # so neither is a key.
        pytest.param(
            _bounded_plus(
                "policy m", "type = mw_prop", "epsilon = 0.05", "eta = 0.3", "boost = 0.001"
            ),
            "policy m boost: unknown key",
            id="boost-under-mw_prop",
        ),
        pytest.param(
            _bounded_with("metrics", "queue_norms = true"),
            "metrics queue_norms: unknown key",
            id="queue_norms-unknown",
        ),
        pytest.param(
            _scheduled("burst 1 2"),
            "workload schedule period 1: expected 'bulk|uniform <a> <b>'",
            id="schedule-kind",
        ),
        pytest.param(
            _scheduled("bulk 1 1"),
            "workload schedule period 1: users must be distinct and in 1..3",
            id="schedule-same-user",
        ),
        # A bulk period sizes its jobs by the pair's SLA shares.
        pytest.param(
            _scheduled("bulk 1 2").replace("0.5, 0.2, 0.3", "0.0, 0.0, 1.0"),
            "workload schedule period 1: bulk pair has zero total SLA",
            id="schedule-zero-share-bulk",
        ),
        pytest.param(
            _scheduled("bulk 1 2; uniform two 3"),
            "workload schedule period 2 user: expected an integer, got 'two'",
            id="schedule-user-not-integer",
        ),
        # Each adversary row drives its own loads, so no two rows share the
        # loads a work difference needs.
        pytest.param(
            "[workload]\ntype = adversary\nhorizon = 100\nsla = 0.5, 0.5\n\n"
            "[policy m]\ntype = mw\nepsilon = 0.05\neta = 0.3\n\n"
            "[policy p]\ntype = po\n\n[metrics]\nwork_difference = m:p\n",
            "metrics work_difference is undefined under the adversary workload",
            id="adversary-work_difference",
        ),
        # Each policy's work is checked against the optimum of its own loads,
        # which only a stride-1 trace holds.
        pytest.param(
            "[workload]\ntype = adversary\nhorizon = 100\nsla = 0.5, 0.5\n\n"
            "[run]\nstride = 7\n\n[policy p]\ntype = po\n",
            ADVERSARY_STRIDE,
            id="adversary-stride",
        ),
    ],
)
def test_validate_reports_errors_and_exits_one(tmp_path, capsys, text, key):
    path = _write(tmp_path, text)
    code = cli.main(["validate", path])
    captured = capsys.readouterr()
    assert code == 1
    assert f"error: {key}" in captured.err


def test_unparsable_value_is_one_error(tmp_path):
    cases = [
        # A horizon that does not parse is not also reported as out of range.
        (
            BOUNDED.replace("horizon = 60", "horizon = abc"),
            "workload horizon: expected an integer, got 'abc'",
        ),
        # A stride that does not parse is not also reported as breaking the
        # full trace the SLA window needs.
        (
            _bounded_with("run", "stride = abc").replace(
                "[metrics]\n", "[metrics]\nsla_window = s\ntau = 30\n"
            ),
            "run stride: expected an integer, got 'abc'",
        ),
    ]
    for text, error in cases:
        path = _write(tmp_path, text)
        cfg, errors, _ = cli.parse_config(path)
        assert cfg is None
        assert errors == [error]


def _minimal_policy_config(workload: str, ptype: str) -> str:
    lines = [f"type = {ptype}"] + [
        f"{key} = {value}"
        for key, value in (("epsilon", "0.05"), ("eta", "0.3"), ("capacity", "0.9"))
        if key in policies.POLICY_TYPES[ptype].keys
    ]
    return (
        f"[workload]\ntype = {workload}\nhorizon = 60\nsla = 0.5, 0.5\n\n[policy p]\n"
        + "".join(f"{line}\n" for line in lines)
    )


@pytest.mark.parametrize("ptype", list(policies.POLICY_TYPES))
def test_each_policy_type_validates_and_builds(tmp_path, capsys, ptype):
    spec = policies.POLICY_TYPES[ptype]
    path = _write(tmp_path, _minimal_policy_config("bernoulli_gamma", ptype))
    assert cli.main(["validate", path]) == 0
    assert capsys.readouterr().err == ""

    path = _write(tmp_path, _minimal_policy_config("adversary", ptype), "adv.cfg")
    cfg, errors, _ = cli.parse_config(path)
    offline_error = (
        "policy p: offline schedulers cannot be driven by the adversary workload "
        "(loads adapt to one online policy)"
    )
    if spec.build is None:
        assert errors == [offline_error]
    else:
        assert errors == []
        sla = SlaVector(np.array([0.5, 0.5]))
        params = PolicyParams(n_users=2, epsilon=0.05, eta=0.3)
        assert policies.make_policy(ptype, sla, params).name == ptype


def test_schedule_key_sets_the_synthetic_periods(tmp_path, monkeypatch):
    path = _write(tmp_path, SCHEDULED)
    cfg, errors, _ = cli.parse_config(path)
    assert errors == []
    assert cfg.schedule == (("bulk", 0, 1), ("uniform", 1, 2))
    out = tmp_path / "out"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(out))
    assert cli.main(["run", path]) == 0
    loads = synthetic_gamma(SlaVector(np.array([0.5, 0.2, 0.3])), 60, 7, cfg.schedule).matrix
    assert float(_read_summary(out)["offline_optimal_eps0"]) == offline_optimal_value(loads)


def test_missing_config_exits_three(tmp_path, capsys):
    code = cli.main(["validate", str(tmp_path / "absent.cfg")])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


def test_run_example1_writes_expected_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    path = _write(tmp_path, GOOD.format(out=out))
    code = cli.main(["run", path])
    assert code == 0
    assert "wrote" in capsys.readouterr().out

    summary = _read_summary(out)
    horizon = 60
    assert float(summary["policy.static.total_work"]) == pytest.approx(
        5.0 * horizon / 6.0, abs=1e-9
    )
    # proportional greedy attains the full-capacity optimum on this instance
    assert float(summary["policy.pg.total_work"]) == pytest.approx(horizon, abs=1e-9)
    assert float(summary["offline_optimal_eps0"]) == pytest.approx(horizon, abs=1e-9)
    assert float(summary["work_difference.pg.alg2.final"]) > 0.0
    assert "policy.alg2.offline_optimal_rest" in summary
    assert "policy.alg2.sla_window.user1.mean" in summary

    for name in (
        "cumulative_work_static.csv",
        "cumulative_work_alg2.csv",
        "cumulative_work_pg.csv",
        "queue_two_norm_alg2.csv",
        "work_difference_pg_alg2.csv",
        "sla_window_alg2.csv",
    ):
        assert (out / name).exists(), name

    header = (out / "cumulative_work_alg2.csv").read_text().splitlines()[0]
    assert header == "t,value"
    header = (out / "sla_window_alg2.csv").read_text().splitlines()[0]
    assert header == "t,user1,user2,user3"


def test_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "out"
    path = _write(tmp_path, GOOD.format(out=out))
    assert cli.main(["run", path]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert cli.main(["run", path]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "summary" in first
    assert first == second


def test_series_csv_bytes_are_float_reprs(tmp_path):
    # The smallest subnormal, a tiny normal, a rounded sum, an integral
    # float past 2**53 and a negative difference, as work_difference has.
    steps = np.array([1, 2, 3, 4, 5], dtype=np.int64)
    values = np.array([5e-324, 1e-300, 0.1 + 0.2, 1e16, 0.1 - 0.3])
    path = tmp_path / "series.csv"
    workloads.write_csv(str(path), steps, values)
    assert path.read_bytes() == (
        b"t,value\n"
        b"1,5e-324\n"
        b"2,1e-300\n"
        b"3,0.30000000000000004\n"
        b"4,1e+16\n"
        b"5,-0.19999999999999998\n"
    )
    per_user = np.stack([values, -values[::-1]], axis=1)
    workloads.write_csv(str(path), steps, per_user)
    assert path.read_bytes() == (
        b"t,user1,user2\n"
        b"1,5e-324,0.19999999999999998\n"
        b"2,1e-300,-1e+16\n"
        b"3,0.30000000000000004,-0.30000000000000004\n"
        b"4,1e+16,-1e-300\n"
        b"5,-0.19999999999999998,-5e-324\n"
    )
    # Longer than one formatting block: the same bytes as one write per value.
    steps = np.arange(1, 10_001, dtype=np.int64)
    values = np.linspace(-1.0, 1.0, steps.size) ** 3
    workloads.write_csv(str(path), steps, values)
    expected = "t,value\n" + "".join(f"{t},{float(v)!r}\n" for t, v in zip(steps, values))
    assert path.read_text() == expected


def test_output_dir_env_override(tmp_path, monkeypatch):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(override))
    path = _write(tmp_path, GOOD.format(out=tmp_path / "ignored"))
    assert cli.main(["run", path]) == 0
    assert (override / "summary").exists()
    assert not (tmp_path / "ignored").exists()


ADVERSARY_CFG = Path(__file__).resolve().parents[1] / "configs" / "adversary.cfg"


def _bundled_adversary(out, run_keys: str) -> str:
    """configs/adversary.cfg with extra [run] keys and its output in out."""
    text = ADVERSARY_CFG.read_text().replace("[run]\n", f"[run]\n{run_keys}")
    return text.replace("dir = out/adversary", f"dir = {out}")


@pytest.mark.parametrize("command", ["validate", "run"])
def test_adversary_stride_is_a_config_error_for_validate_and_run(tmp_path, capsys, command):
    # At stride 7 the rows' traces would not hold their loads, and run used
    # to skip the work <= optimum check and its summary keys.
    out = tmp_path / "out"
    path = _write(tmp_path, _bundled_adversary(out, "stride = 7\n"))
    code = cli.main([command, path])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {ADVERSARY_STRIDE}\n"
    assert "ok:" not in captured.out
    assert not out.exists()


def test_run_adversary_summary_reports_gap(tmp_path):
    # Every policy of the bundled config, run at stride 1, is compared with
    # the optimum of its own loads.
    out = tmp_path / "out"
    text = _bundled_adversary(out, "stride = 1\n").replace("horizon = 10000", "horizon = 400")
    assert cli.main(["run", _write(tmp_path, text)]) == 0
    summary = _read_summary(out)
    for name in ("alg1", "owm", "po"):
        prefix = f"policy.{name}"
        assert float(summary[f"{prefix}.offline_optimal_eps0"]) == pytest.approx(400.0)
        gap = float(summary[f"{prefix}.offline_gap"])
        assert gap == pytest.approx(float(summary[f"{prefix}.final_queue_l1"]), abs=1e-9)
        assert gap >= np.sqrt(400.0 / 40.0)
        assert int(summary[f"{prefix}.adversary_phases"]) > 0
    assert "policy.alg1.offline_optimal_rest" in summary


DEMO_TRACE = Path(__file__).resolve().parents[1] / "data" / "demo_trace.csv"


def _trace_config(tmp_path, trace, horizon, sla):
    return f"""\
[workload]
type = trace_csv
horizon = {horizon}
path = {trace}
sla = {sla}

[policy po]
type = po

[policy pg]
type = pg

[output]
dir = {tmp_path / "out"}
"""


def _bad_trace_cases(tmp_path):
    malformed = tmp_path / "malformed.csv"
    malformed.write_text("t,user1,user2\n1,0.5\n")
    not_utf8 = tmp_path / "not_utf8.csv"
    not_utf8.write_bytes(b"t,user1\n1,\xff\n")
    six = "0.23, 0.18, 0.25, 0.12, 0.14, 0.08"
    return {
        "users": (
            _trace_config(tmp_path, DEMO_TRACE, 100, "0.5, 0.2, 0.3"),
            "trace has 6 users but sla has 3",
        ),
        "steps": (
            _trace_config(tmp_path, DEMO_TRACE, 20000, six),
            "trace provides 14628 steps, config asks for 20000",
        ),
        "malformed": (
            _trace_config(tmp_path, malformed, 1, "0.5, 0.5"),
            f"workload path {malformed}: line 2: expected 3 fields, got 2",
        ),
        "not-utf8": (
            _trace_config(tmp_path, not_utf8, 1, "1.0"),
            f"workload path {not_utf8}: 'utf-8' codec can't decode byte 0xff in position 10: "
            "invalid start byte",
        ),
    }


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("case", ["users", "steps", "malformed", "not-utf8"])
def test_bad_trace_is_a_config_error_for_validate_and_run(tmp_path, capsys, command, case):
    # The trace is read and checked at parse time, so validate rejects
    # what run rejects, and run writes nothing.
    text, message = _bad_trace_cases(tmp_path)[case]
    path = _write(tmp_path, text)
    code = cli.main([command, path])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {message}\n"
    assert "ok:" not in captured.out
    assert not (tmp_path / "out").exists()


def test_run_reads_the_trace_once(tmp_path, monkeypatch):
    trace = tmp_path / "trace.csv"
    workloads.write_trace_csv(trace, np.array([[0.5, 0.25], [0.0, 1.0], [0.25, 0.5]]))
    calls = []
    load = workloads.load_trace_csv

    def counting_load(path):
        calls.append(path)
        return load(path)

    monkeypatch.setattr(workloads, "load_trace_csv", counting_load)
    path = _write(tmp_path, _trace_config(tmp_path, trace, 3, "0.5, 0.5"))
    assert cli.main(["validate", path]) == 0
    assert calls == [str(trace)]  # validate reads and checks the trace
    calls.clear()
    assert cli.main(["run", path]) == 0
    assert calls == [str(trace)]  # run replays the trace parse_config read
    summary = _read_summary(tmp_path / "out")
    assert float(summary["policy.pg.total_work"]) == pytest.approx(2.5, abs=1e-12)


def test_run_bernoulli_gamma_with_offline_types_and_a_warning(tmp_path, capsys):
    # An mw policy whose SLA falls below 2*epsilon/N is a warning, not an
    # error; both offline types at full capacity reach the eps=0 optimum.
    out = tmp_path / "out"
    text = f"""\
[workload]
type = bernoulli_gamma
horizon = 300
sla = 0.9, 0.04, 0.06
seed = 4

[policy pg]
type = pg

[policy sg]
type = simple_greedy

[policy m]
type = mw
epsilon = 0.1
eta = 0.3

[output]
dir = {out}
"""
    path = _write(tmp_path, text)
    code = cli.main(["run", path])
    stdout = capsys.readouterr().out
    assert code == 0
    assert any(
        line.startswith("warning: policy m:") and "2*epsilon/N" in line
        for line in stdout.splitlines()
    )
    summary = _read_summary(out)
    opt0 = float(summary["offline_optimal_eps0"])
    loads = workloads.bernoulli_gamma_fuzz(3, 300, 4).matrix
    assert opt0 == offline_optimal_value(loads)
    for name in ("pg", "sg"):
        assert float(summary[f"policy.{name}.total_work"]) == pytest.approx(opt0, abs=1e-9)
    assert summary["policy.sg.type"] == "simple_greedy"


def test_run_malformed_trace_exits_one(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("t,user1,user2\n1,0.5\n")
    text = f"""\
[workload]
type = trace_csv
horizon = 1
path = {trace}
sla = 0.5, 0.5

[policy po]
type = po

[output]
dir = {tmp_path / "out"}
"""
    path = _write(tmp_path, text)
    code = cli.main(["run", path])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_invariant_failure_exits_two(tmp_path, monkeypatch, capsys):
    path = _write(tmp_path, GOOD.format(out=tmp_path / "out"))

    def boom(cfg):
        raise InvariantViolation("manufactured failure")

    monkeypatch.setattr(cli, "run_experiment", boom)
    code = cli.main(["run", path])
    assert code == 2
    assert "assertion failed: manufactured failure" in capsys.readouterr().err


WORK_CAP_SOURCES = {
    "shared": ("bernoulli_gamma", lambda: workloads.bernoulli_gamma_fuzz(2, 60, 0)),
    "adversary": ("adversary", workloads.QueueAdversary),
}


@pytest.mark.parametrize("case", list(WORK_CAP_SOURCES))
def test_work_above_the_offline_optimum_exits_two(tmp_path, monkeypatch, capsys, case):
    # One policy starts no worker, so its row is finished in this process,
    # where the optimum is patched to fall below the row's work.
    workload, make_source = WORK_CAP_SOURCES[case]
    out = tmp_path / "out"
    text = f"""\
[workload]
type = {workload}
horizon = 60
sla = 0.5, 0.5

[policy p]
type = po

[output]
dir = {out}
"""
    sla = SlaVector(np.array([0.5, 0.5]))
    work = float(run(policies.make_policy("po", sla), make_source(), 60).total_work.sum())
    assert work > 0.5
    monkeypatch.setattr(cli.offline, "offline_optimal_value", lambda loads, eps=0.0: 0.5)
    code = cli.main(["run", _write(tmp_path, text)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"assertion failed: policy p reports {work} work, above the offline optimum 0.5\n"
    )
    assert not (out / "summary").exists()


def test_bundled_configs_validate():
    for name in (
        "configs/example1.cfg",
        "configs/synthetic_t60k.cfg",
        "configs/adversary.cfg",
        "configs/synthetic_fullscale.cfg",
        "configs/trace_demo.cfg",
    ):
        cfg, errors, _ = cli.parse_config(name)
        assert errors == [], f"{name}: {errors}"
        assert cfg is not None


PO_SPLIT = "every active user has a zero SLA share; proportional split undefined"
PG_SPLIT = "all backlogged users have zero SLA share; proportional split undefined"
DEGENERATE_ROWS = {
    "po": "[policy p]\ntype = po\n",
    "pg": "[policy p]\ntype = pg\n",
    # One row in each group: po fails in the worker beside a healthy row.
    "po-in-worker": "[policy m]\ntype = mw\nepsilon = 0.05\neta = 0.3\n[policy p]\ntype = po\n",
    # Both groups fail: the error of group 0, the main process's, wins.
    "both-groups": "[policy p]\ntype = po\n[policy g]\ntype = pg\n",
}


@pytest.mark.parametrize("rows", list(DEGENERATE_ROWS), ids=list(DEGENERATE_ROWS))
def test_degenerate_sla_split_exits_two(tmp_path, capsys, rows):
    # A worker's exception must arrive here with its type and message.
    text = f"""\
[workload]
type = bernoulli_gamma
horizon = 60
sla = 1.0, 0.0

[run]
profile = release

{DEGENERATE_ROWS[rows]}
[output]
dir = {tmp_path / "out"}
"""
    path = _write(tmp_path, text)
    cfg, errors, _ = cli.parse_config(path)
    assert errors == []
    here, there = cli._split_rows(cfg.policies)
    if rows == "po-in-worker":
        assert [pc.name for pc in there] == ["p"]
    if rows == "both-groups":
        assert len(here) == len(there) == 1
    failing = next(pc for pc in here + there if pc.type in ("po", "pg"))
    message = PO_SPLIT if failing.type == "po" else PG_SPLIT
    code = cli.main(["run", path])
    assert code == 2
    assert capsys.readouterr().err == f"runtime error: {message}\n"
    assert multiprocessing.active_children() == []


WORKER = """\
[workload]
type = bernoulli_gamma
horizon = 400
sla = 0.5, 0.2, 0.3
seed = 11

[run]
stride = {stride}

[policy pg]
type = pg

[policy sg]
type = simple_greedy
capacity = 0.9

[policy m]
type = mw
epsilon = 0.05
eta = 0.3

[metrics]
work_difference = pg:m, m:sg, sg:pg
{window}
[output]
dir = {out}
"""


def _stalled_group(*args):
    """cli._run_group, but a minute late in the worker process."""
    if multiprocessing.parent_process() is not None:
        time.sleep(60.0)
    return _RUN_GROUP(*args)


_RUN_GROUP = cli._run_group


def test_group_zero_failure_stops_the_worker_at_once(tmp_path, monkeypatch):
    # po fails in group 0 within the first steps while the worker's group,
    # owm, stalls for a minute: run must raise at once and leave no child.
    text = f"""\
[workload]
type = bernoulli_gamma
horizon = 200
sla = 1.0, 0.0

[policy p]
type = po

[policy o]
type = owm

[output]
dir = {tmp_path / "out"}
"""
    cfg, errors, _ = cli.parse_config(_write(tmp_path, text))
    assert errors == []
    assert [[pc.name for pc in group] for group in cli._split_rows(cfg.policies)] == [["p"], ["o"]]
    monkeypatch.setattr(cli, "_run_group", _stalled_group)
    start = time.perf_counter()
    with pytest.raises(DegenerateSlaError, match=PO_SPLIT):
        cli.run_experiment(cfg)
    assert time.perf_counter() - start < 30.0
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("stride", [1, 7])
def test_offline_worker_outputs_match_library_calls(tmp_path, stride):
    out, expected = tmp_path / "out", tmp_path / "expected"
    expected.mkdir()
    window = "sla_window = pg\ntau = 50\n" if stride == 1 else ""
    path = _write(tmp_path, WORKER.format(stride=stride, window=window, out=out))
    cfg, errors, _ = cli.parse_config(path)
    assert errors == []
    summary = cli.run_experiment(cfg)
    assert multiprocessing.active_children() == []

    loads = workloads.bernoulli_gamma_fuzz(3, 400, 11).matrix
    params = PolicyParams(n_users=3, epsilon=0.05, eta=0.3)
    source = workloads.PrecomputedLoads(loads)
    traces = {
        "pg": run(offline.proportional_greedy(source, cfg.sla), source, 400, stride=stride),
        "sg": run(offline.simple_greedy(source, 0.9), source, 400, stride=stride),
        "m": run(
            policies.make_policy("mw", cfg.sla, params),
            workloads.PrecomputedLoads(loads),
            horizon=400,
            stride=stride,
        ),
    }

    def same_bytes(name, report):
        workloads.write_csv(str(expected / name), report.steps, report.values)
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name

    cumulative = {name: metrics.cumulative_work(trace) for name, trace in traces.items()}
    for name in ("pg", "sg"):
        trace = traces[name]
        norms = metrics.queue_two_norm(trace)
        same_bytes(f"cumulative_work_{name}.csv", cumulative[name])
        same_bytes(f"queue_two_norm_{name}.csv", norms)
        assert summary[f"policy.{name}.total_work"] == float(trace.total_work.sum())
        assert summary[f"policy.{name}.final_queue_l1"] == float(trace.final_queue.sum())
        assert summary[f"policy.{name}.queue_l2_final"] == norms.metadata["final"]
        assert summary[f"policy.{name}.queue_l2_time_avg"] == norms.metadata["time_average"]
    for a, b in cfg.work_difference:
        report = metrics.work_difference(cumulative[a], cumulative[b])
        same_bytes(f"work_difference_{a}_{b}.csv", report)
        assert summary[f"work_difference.{a}.{b}.final"] == report.metadata["final"]
    if stride == 1:
        stats = metrics.sla_window_stats(traces["pg"], cfg.sla, 50)
        same_bytes("sla_window_pg.csv", metrics.SeriesReport("w", stats.starts, stats.gaps))
        for i in range(3):
            assert summary[f"policy.pg.sla_window.user{i + 1}.mean"] == float(stats.means[i])
            assert summary[f"policy.pg.sla_window.user{i + 1}.std"] == float(stats.stds[i])


def test_worker_write_failure_exits_three(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "cumulative_work_pg.csv").mkdir(parents=True)
    path = _write(tmp_path, WORKER.format(stride=1, window="", out=out))
    code = cli.main(["run", path])
    assert code == 3
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert multiprocessing.active_children() == []


def _same_finished(got: cli._Finished, want: cli._Finished) -> None:
    assert got._replace(cumulative=None) == want._replace(cumulative=None)
    assert (got.cumulative is None) == (want.cumulative is None)
    if want.cumulative is not None:
        for name in ("steps", "values"):
            assert np.array_equal(getattr(got.cumulative, name), getattr(want.cumulative, name))
        got_meta, want_meta = dict(got.cumulative.metadata), dict(want.cumulative.metadata)
        assert np.array_equal(got_meta.pop("total_load"), want_meta.pop("total_load"))
        assert got_meta == want_meta


def _shared_optimum(source, cfg):
    """The eps=0 optimum run_experiment hands both groups; None under the adversary."""
    return None if source is None else offline_optimal_value(source.matrix[: cfg.horizon])


def _group_configs(tmp_path):
    """A mixed online/offline config (two rows of each kind, a window and
    work differences) and the bundled adversary config, both at horizon 400."""
    mixed = WORKER.format(stride=1, window="sla_window = m\ntau = 50\n", out=tmp_path / "mixed")
    mixed += "\n[policy o]\ntype = owm\n"
    adversary = _bundled_adversary(tmp_path / "adv", "").replace("horizon = 10000", "horizon = 400")
    cfgs = {}
    for name, text in (("mixed", mixed), ("adversary", adversary)):
        cfg, errors, _ = cli.parse_config(_write(tmp_path, text, f"{name}.cfg"))
        assert errors == []
        cfgs[name] = cfg
    return cfgs


@pytest.mark.parametrize("case", ["mixed", "adversary"])
def test_every_split_of_the_rows_gives_the_same_outputs(tmp_path, case):
    # Rows are independent, so running any two-way partition of them as two
    # groups writes the bytes and returns the entries of one group of all.
    cfg = _group_configs(tmp_path)[case]
    source = cli._build_source(cfg)
    opt0 = _shared_optimum(source, cfg)
    cfg.output_dir = str(tmp_path / "whole")
    os.makedirs(cfg.output_dir)
    whole = cli._run_group(cfg.policies, source, opt0, cfg)
    files = {p.name: p.read_bytes() for p in Path(cfg.output_dir).iterdir()}
    first, *rest = cfg.policies
    for mask in range(2 ** len(rest)):
        one = [first] + [pc for k, pc in enumerate(rest) if mask >> k & 1]
        other = [pc for pc in cfg.policies if pc not in one]
        cfg.output_dir = str(tmp_path / f"split{mask}")
        os.makedirs(cfg.output_dir)
        parts = cli._run_group(one, source, opt0, cfg)
        parts.update(cli._run_group(other, source, opt0, cfg))
        assert {p.name: p.read_bytes() for p in Path(cfg.output_dir).iterdir()} == files
        assert parts.keys() == whole.keys()
        for name, done in whole.items():
            _same_finished(parts[name], done)


def test_a_group_steps_all_its_rows_in_one_batch(tmp_path, monkeypatch):
    # Online and offline rows alike, in config order; an empty group steps none.
    calls = []

    def counted(rows, horizon, **kwargs):
        rows = list(rows)
        calls.append([policy.name for policy, _ in rows])
        return _RUN_BATCH(rows, horizon, **kwargs)

    cfg = _group_configs(tmp_path)["mixed"]
    os.makedirs(cfg.output_dir)
    monkeypatch.setattr(cli, "run_batch", counted)
    source = cli._build_source(cfg)
    opt0 = _shared_optimum(source, cfg)
    assert list(cli._run_group(cfg.policies, source, opt0, cfg)) == ["pg", "sg", "m", "o"]
    assert cli._run_group([], source, opt0, cfg) == {}
    assert calls == [["pg", "simple_greedy", "mw", "owm"]]


_RUN_BATCH = cli.run_batch


def test_split_rows_is_longest_first_over_the_type_weights():
    # The splits the README states for the bundled configs; each group
    # keeps config order.
    def names(groups):
        return [[pc.name for pc in group] for group in groups]

    def split(path):
        cfg, errors, _ = cli.parse_config(path)
        assert errors == []
        return names(cli._split_rows(cfg.policies))

    assert split("configs/synthetic_t60k.cfg") == [["alg2", "static", "pg"], ["po", "owm", "restpg"]]
    assert split("configs/adversary.cfg") == [["alg1"], ["owm", "po"]]
    one = [cli.PolicyConfig("a", "static")]
    assert names(cli._split_rows(one)) == [["a"], []]
    # Equal weights: config order decides, and a tie goes to group 0.
    tie = [cli.PolicyConfig(name, "po") for name in "abc"]
    assert names(cli._split_rows(tie)) == [["a", "c"], ["b"]]


def test_a_one_row_config_starts_no_worker(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(multiprocessing, "Process", refuse)
    text = GOOD.format(out=tmp_path / "out")
    one = text[: text.index("[policy alg2]")] + "[output]\ndir = " + str(tmp_path / "out") + "\n"
    assert cli.main(["run", _write(tmp_path, one, "one.cfg")]) == 0
    assert (tmp_path / "out" / "summary").exists()
    # The patch is in force: a config of two rows asks for the worker.
    two = text[: text.index("[policy pg]")] + "[output]\ndir = " + str(tmp_path / "two") + "\n"
    with pytest.raises(AssertionError, match="a worker process was started"):
        cli.main(["run", _write(tmp_path, two, "two.cfg")])


def test_group_job_runs_in_a_spawned_worker(tmp_path):
    # A spawned worker starts from a fresh import, as the default start
    # method does on some platforms: the job and its arguments must travel
    # by pickle alone and give what the job gives in this process.  One
    # group holds an online and an offline row, the other an adversary row.
    cfgs = _group_configs(tmp_path)
    jobs = {
        "mixed": [pc for pc in cfgs["mixed"].policies if pc.name in ("m", "sg")],
        "adversary": [pc for pc in cfgs["adversary"].policies if pc.name == "alg1"],
    }
    local, local_bytes = {}, {}
    for case, pcs in jobs.items():
        cfg = cfgs[case]
        os.makedirs(cfg.output_dir)
        source = cli._build_source(cfg)
        local[case] = cli._run_group(pcs, source, _shared_optimum(source, cfg), cfg)
        local_bytes[case] = {p.name: p.read_bytes() for p in Path(cfg.output_dir).iterdir()}
    spawn, remote = multiprocessing.get_context("spawn"), {}
    for case, pcs in jobs.items():
        reader, writer = spawn.Pipe(duplex=False)
        source = cli._build_source(cfgs[case])
        args = (writer, pcs, source, _shared_optimum(source, cfgs[case]), cfgs[case])
        worker = spawn.Process(target=cli._group_job, args=args)
        worker.start()
        writer.close()
        remote[case] = reader.recv()
        worker.join()
    for case, cfg in cfgs.items():
        assert {p.name: p.read_bytes() for p in Path(cfg.output_dir).iterdir()} == local_bytes[case]
        assert remote[case].keys() == local[case].keys()
        for name, done in local[case].items():
            _same_finished(remote[case][name], done)
    assert sorted(local_bytes["mixed"]) == [
        "cumulative_work_m.csv",
        "cumulative_work_sg.csv",
        "queue_two_norm_m.csv",
        "queue_two_norm_sg.csv",
        "sla_window_m.csv",
    ]
    assert list(local["mixed"]["m"].optima) == ["policy.m.offline_optimal_rest"]
    assert local["mixed"]["sg"].optima == {}
    alg1 = local["adversary"]["alg1"]
    assert alg1.totals["policy.alg1.adversary_phases"] > 0
    assert alg1.optima["policy.alg1.offline_optimal_eps0"] == pytest.approx(400.0)
