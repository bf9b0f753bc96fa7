"""Span tracer that wraps cohomolab's functions from outside the package.

A Target names one function or method.  Installing a Tracer replaces it in
every namespace that binds it (module-level functions are often imported into
several modules, and some modules import them inside function bodies, which
reads the defining module at call time), records one span per call, and puts
the originals back on exit.

Spans are kept in memory as parallel arrays: name, parent span, job id,
start and end (perf_counter_ns).  They are properly nested because the run is
single-threaded, so a span's self time is its duration minus the durations of
its direct children.  `span_stats` turns a span set into per-name figures.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter
from typing import Any, Callable, NamedTuple


class Target(NamedTuple):
    """One traced callable: `owner.attr`, reported under `name`.

    `count(args, result, before)` returns the amount added to the counter
    `stat` after each call; `before(args)` runs just before the call.
    """

    name: str
    owner: Any
    attr: str
    stat: str | None = None
    count: Callable[[tuple, Any, Any], int] | None = None
    before: Callable[[tuple], Any] | None = None


class Tracer:
    """Context manager that wraps the targets in the given namespaces."""

    def __init__(self, targets: list[Target], namespaces: list):
        self.targets = targets
        self.namespaces = namespaces
        self.counters = [0] * len(targets)
        self.job = 0
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self._restore: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        try:
            for idx, target in enumerate(self.targets):
                self._install(idx, target)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _install(self, idx: int, target: Target) -> None:
        if isinstance(target.owner, type):
            original = target.owner.__dict__[target.attr]
            if not inspect.isfunction(original):
                raise TypeError(f"{target.name}: only plain methods can be traced")
            self._patch(target.owner, target.attr, original, self._wrap(idx, original))
            return
        original = getattr(target.owner, target.attr)
        wrapper = self._wrap(idx, original)
        for ns in self.namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patch(ns, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, idx: int, fn: Callable) -> Callable:
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends, stack = self.span_start, self.span_end, self._stack
        counters = self.counters
        count, before = self.targets[idx].count, self.targets[idx].before
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(names)
            names.append(idx)
            parents.append(stack[-1])
            jobs.append(tracer.job)
            starts.append(0)
            ends.append(0)
            stack.append(span)
            pre = before(args) if before is not None else None
            starts[span] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if count is not None:
                counters[idx] += count(args, result, pre)
            return result

        return traced

    def stats(self) -> dict[str, dict[str, float]]:
        """Per-target calls, total_s, self_s and counter, over all spans so far."""
        per_name = span_stats(self.span_name, self.span_parent,
                              self.span_start, self.span_end)
        out = {}
        for idx, target in enumerate(self.targets):
            calls, total_ns, self_ns = per_name.get(idx, (0, 0, 0))
            row = {"calls": calls, "total_s": total_ns / 1e9, "self_s": self_ns / 1e9}
            if target.stat is not None:
                row[target.stat] = self.counters[idx]
            out[target.name] = row
        return out


def span_stats(names, parents, starts, ends) -> dict[int, tuple[int, int, int]]:
    """Map each span name to (calls, inclusive time, self time).

    Spans must be listed in start order with every parent before its
    children.  Inclusive time counts only spans with no ancestor of the same
    name, so recursion is not counted twice; self time is a span's duration
    minus the durations of its direct children.
    """
    n = len(names)
    child_ns = [0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child_ns[p] += ends[i] - starts[i]
    calls: Counter = Counter()
    total: Counter = Counter()
    self_t: Counter = Counter()
    open_spans: list[int] = []
    open_names: Counter = Counter()
    for i in range(n):
        while open_spans and open_spans[-1] != parents[i]:
            open_names[names[open_spans.pop()]] -= 1
        name = names[i]
        dur = ends[i] - starts[i]
        calls[name] += 1
        self_t[name] += dur - child_ns[i]
        if open_names[name] == 0:
            total[name] += dur
        open_spans.append(i)
        open_names[name] += 1
    return {name: (calls[name], total[name], self_t[name]) for name in calls}
