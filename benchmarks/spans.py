"""Span recorder for the traced benchmark run.

The program itself carries no instrumentation.  ``Tracer.install`` wraps the
public functions listed in ``TRACED`` from the outside, in every ``levstab``
module that holds a reference to them (functions imported by name are
rebound too), and ``Tracer.remove`` puts the originals back.

Each wrapped call is a span (name, start, end, parent).  Spans of the
per-evaluation functions in ``HOT`` run hundreds of thousands of times per
operation, so they are only aggregated; every other span is also kept in
``spans`` and written out with the run record.  Self time is a span's
duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute) -> span name.  "Class.method" patches the class.
TRACED = {
    ("levstab.linearized", "PeriodicMatrix.at"): "linearized.at",
    ("levstab.linearized", "fd_jacobian"): "linearized.fd_jacobian",
    ("levstab.plant", "steady_state"): "plant.steady_state",
    ("levstab.plant", "rhs"): "plant.rhs",
    ("levstab.plant", "rhs_hybrid"): "plant.rhs",
    ("levstab.plant", "integrate"): "plant.integrate",
    ("levstab.plant", "write_trajectory_csv"): "plant.write_trajectory_csv",
    ("levstab.floquet", "monodromy"): "floquet.monodromy",
    ("levstab.floquet", "sweep"): "floquet.sweep",
    ("levstab.floquet", "boundary_crossings"): "floquet.boundary_crossings",
    ("levstab.floquet", "write_map_csv"): "floquet.write_map_csv",
    ("levstab.floquet", "write_map_metadata"): "floquet.write_map_metadata",
    ("levstab.validation", "run_battery"): "validation.run_battery",
    ("levstab.validation", "tongue_edges"): "validation.tongue_edges",
    ("levstab.validation", "pick_stable_gains"): "validation.pick_stable_gains",
    ("levstab.boundaries", "all_ellipses"): "boundaries.all_ellipses",
    ("levstab.config", "load_config"): "config.load_config",
}
HOT = {"linearized.at", "plant.steady_state", "plant.rhs"}


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Collects spans and per-name call counts, total and self times."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [span id, child time]
        self._patched: list[tuple] = []

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so that every call records a span called ``name``."""
        stat = self.stats.setdefault(name, Stat())
        keep = name not in HOT
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans) if keep else -1
            parent = stack[-1][0] if stack else -1
            if keep:
                self.spans.append(None)
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if keep:
                    self.spans[span_id] = (span_id, name, start, end, parent)
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def install(self) -> None:
        """Wrap every function in TRACED wherever a levstab module binds it."""
        for (modname, attr), name in TRACED.items():
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[meth]
                self._patch(cls, meth, self.span(name, original))
                continue
            original = getattr(owner, attr)
            wrapped = self.span(name, original, _RESULT_HOOKS.get(name))
            for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "levstab"]:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapped)

    def _patch(self, obj, attr: str, value) -> None:
        self._patched.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def remove(self) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Number of kept ``child_name`` spans whose direct parent is a
        ``parent_name`` span."""
        names = {s[0]: s[1] for s in self.spans if s is not None}
        return sum(
            1
            for s in self.spans
            if s is not None and s[1] == child_name and names.get(s[4]) == parent_name
        )


def _monodromy_result(tracer: Tracer, result) -> None:
    tracer.count("monodromy_nfev", result.stats["nfev"])


def _sweep_result(tracer: Tracer, result) -> None:
    tracer.count("cell_errors", len(result.errors))


def _crossings_result(tracer: Tracer, result) -> None:
    tracer.count("crossings_found", len(result))


_RESULT_HOOKS = {
    "floquet.monodromy": _monodromy_result,
    "floquet.sweep": _sweep_result,
    "floquet.boundary_crossings": _crossings_result,
}
