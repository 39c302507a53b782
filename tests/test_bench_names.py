"""The slasim names the benchmark harness looks up in its traced mode.

perfbench/bench_ops.py lists every function and method it wraps to time a
layer; a renamed or moved name would break only the traced benchmark runs,
so this checks each one resolves on the imported package.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
from pathlib import Path

import slasim.cli  # noqa: F401  (imports every slasim module)

BENCH_OPS = Path(__file__).resolve().parents[1] / "perfbench" / "bench_ops.py"


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_ops", BENCH_OPS)
    bench_ops = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their annotations through sys.modules.
    monkeypatch.setitem(sys.modules, "bench_ops", bench_ops)
    spec.loader.exec_module(bench_ops)
    points = bench_ops.trace_points(bench_ops.modules_namespace(sys.modules))
    assert points
    for owner, attr, _, _ in points:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
        # A method is wrapped on its class, so each class must define its own.
        if inspect.isclass(owner):
            assert attr in vars(owner), f"{owner.__name__}.{attr} is inherited"
