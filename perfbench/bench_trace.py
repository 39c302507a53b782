"""Span tracer that times slasim's layers from outside the package.

The tracer replaces module and class attributes that slasim looks up at
call time with timing wrappers.  Each call records a span: name, start,
end, parent span and op id, kept in flat in-memory arrays and written out
once, when the benchmark ends.  ``restore`` puts every original object
back and ``check_restored`` proves that it did.

A layer's self time is its span's duration minus the durations of its
direct child spans, so the self times of every span in an op, the op's
root span included, add up to the op's wall time.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

# Attribute set on every wrapper, so a caller can tell a traced function
# from the original.
MARK = "__perfbench_traced__"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._op = array("i")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._restored: list[tuple[object, str, object]] = []
        self.op_id = -1

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._op.append(self.op_id)
        self._end.append(float("nan"))
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, by_first_arg: bool = False) -> None:
        """Trace every call of ``owner.attr`` as span ``name``.

        With ``by_first_arg`` the span is named ``name.<first arg>.name``,
        which splits policy methods and runs by policy type.
        """
        original = getattr(owner, attr)
        tracer = self
        if by_first_arg:
            ids: dict[str, int] = {}

            @functools.wraps(original)
            def traced(*args, **kwargs):
                key = args[0].name
                nid = ids.get(key)
                if nid is None:
                    nid = ids[key] = tracer.name_id(f"{name}.{key}")
                idx = tracer.open(nid)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.close(idx)

        else:
            fixed = self.name_id(name)

            @functools.wraps(original)
            def traced(*args, **kwargs):
                idx = tracer.open(fixed)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.close(idx)

        setattr(traced, MARK, True)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._restored = self._patched
        self._patched = []

    def check_restored(self) -> list[str]:
        """Names that do not hold their original object after ``restore``."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._restored
            if getattr(owner, attr) is not original
        ]

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self._op, dtype=np.int32).copy(),
        }

    def layer_table(self, op_id: int) -> dict[str, tuple[int, float, float]]:
        """Per span name in one op: (calls, total seconds, self seconds)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        mask = a["op"] == op_id
        names = a["name"][mask]
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur[mask], minlength=k)
        self_s = np.bincount(names, weights=own[mask], minlength=k)
        return {
            self.names[i]: (int(calls[i]), float(total[i]), float(self_s[i]))
            for i in range(k)
            if calls[i]
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def is_traced(obj) -> bool:
    return bool(getattr(obj, MARK, False))
