"""Per-function call counts and self time for the nashblowup package,
recorded from outside the package.

`Tracer.installed()` replaces every public module-level function of the
traced modules at every module binding that refers to it: the defining
module, the package `__init__` re-export and each `from .x import f` copy
(`groebner.buchberger`, `limits.buchberger`, `cli.buchberger`, ...).  All
bindings of one function share one wrapper, so a span is named after the
defining module whichever binding the caller went through.

Spans are timed with the clock the tracer is given, perf_counter unless the
caller passes another, such as a RefClock's now.  A span's self time is its
duration minus the time covered by the spans it caused.  Spans nest strictly (the package is single-threaded), so the self
times of all spans add up to the time covered by the outermost spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "nashblowup"
TRACED_MODULES = ("cli", "groebner", "hilbert", "hjac", "limits", "linalg", "parser")


class FunctionStats:
    __slots__ = ("calls", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counters: dict[str, int] = {}

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount


# counters taken from a call's arguments (before) and its result (after)
_BEFORE = {"groebner.buchberger": lambda st, args: st.add("input_gens", len(args[0]))}
_AFTER = {
    "groebner.buchberger": lambda st, r: st.add("output_size", len(r)),
    "hjac.maximal_minors": lambda st, r: st.add(
        "nonzero", sum(1 for _, d in r if not d.is_zero())),
    "hjac.nash_ideal": lambda st, r: st.add("generators", len(r.generators)),
}


def traced_name(value) -> str | None:
    """'module.function' for a public module-level function of a traced
    module, else None."""
    if not inspect.isfunction(value) or value.__name__.startswith("_"):
        return None
    module = value.__module__ or ""
    prefix = PACKAGE + "."
    if not module.startswith(prefix) or module[len(prefix):] not in TRACED_MODULES:
        return None
    if value.__qualname__ != value.__name__:
        return None
    return f"{module[len(prefix):]}.{value.__name__}"


def package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Spans kept in memory as per-function totals."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.stats: dict[str, FunctionStats] = {}
        self.root_s = 0.0  # time covered by outermost spans
        self._children: list[float] = []  # child time of each open span
        self._bindings: list[tuple] = []

    def _wrap(self, fn, name: str):
        stats = self.stats.setdefault(name, FunctionStats())
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        children = self._children
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(stats, args)
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats.calls += 1
                stats.self_s += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
                else:
                    self.root_s += elapsed
            if after is not None:
                after(stats, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every binding for the duration of the block."""
        wrappers = {}
        try:
            for module in package_modules():
                for attr, value in list(vars(module).items()):
                    name = traced_name(value)
                    if name is None:
                        continue
                    if value not in wrappers:
                        wrappers[value] = self._wrap(value, name)
                    setattr(module, attr, wrappers[value])
                    self._bindings.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in reversed(self._bindings):
                setattr(module, attr, value)
            self._bindings.clear()

    def self_total(self) -> float:
        return sum(st.self_s for st in self.stats.values())

    def table(self) -> list[str]:
        """Human-readable per-function and per-module breakdown."""
        lines = [f"{'function':40s} {'calls':>9s} {'self_s':>10s}"]
        modules: dict[str, float] = {}
        for name in sorted(self.stats, key=lambda n: -self.stats[n].self_s):
            st = self.stats[name]
            if not st.calls:
                continue
            module = name.split(".")[0]
            modules[module] = modules.get(module, 0.0) + st.self_s
            extra = " ".join(f"{k}={v}" for k, v in sorted(st.counters.items()))
            lines.append(f"{name:40s} {st.calls:9d} {st.self_s:10.4f} {extra}".rstrip())
        for module, total in sorted(modules.items(), key=lambda kv: -kv[1]):
            lines.append(f"module {module:33s} {'':9s} {total:10.4f}")
        return lines
