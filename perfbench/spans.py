"""Span tracing from outside a program.

A :class:`Tracer` wraps chosen functions for the length of a traced pass and
restores them afterwards.  Every wrapped call records one span: metric name,
start and end (``perf_counter_ns``), the enclosing span and the pass it
belongs to.  Spans live in flat ``array`` buffers, about 28 bytes each, so a
pass with a few million primitive calls stays in memory until it is written
out with :meth:`Tracer.save`.

A call made while a span of the same metric is open (``sat_add_raw`` calling
``sat_raw``, ``encode`` calling ``saturate``) runs unrecorded: its time and
work already belong to the outer span, so ``calls`` counts entries into a
layer, not every function inside it.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from types import ModuleType
from typing import Callable

import numpy as np

WRAPPED = "__perfbench_wrapped__"


@dataclass(frozen=True)
class Probe:
    """One function to wrap.

    ``owner.attr`` is where the function is defined.  A module-level
    function is also wrapped in every module given to :meth:`Tracer.install`
    that imported it by name, because calls through those names never look
    at ``owner``.  ``metric`` is the span name, or a function of
    ``(args, kwargs)`` returning it.  After the call,
    ``count(counts, args, kwargs, result, token)`` adds to the layer
    counters, where ``token`` is whatever ``before(args, kwargs)`` returned.
    """

    owner: object
    attr: str
    metric: str | Callable
    count: Callable | None = None
    before: Callable | None = None


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._open: list[int] = []  # open spans per metric id
        self.metric = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.pass_of = array("i")
        self.passes: list[str] = []
        self.counts: dict[str, dict[str, float]] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- passes and counters --------------------------------------------------

    def begin_pass(self, label: str) -> None:
        """Start a new pass id; later spans and counts belong to it."""
        self.passes.append(label)
        self.counts[label] = defaultdict(float)

    def metric_id(self, name: str) -> int:
        mid = self._ids.get(name)
        if mid is None:
            mid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return mid

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn: Callable, probe: Probe) -> Callable:
        static = self.metric_id(probe.metric) if isinstance(probe.metric, str) else None
        metric_of, count, before = probe.metric, probe.count, probe.before
        open_, stack = self._open, self._stack
        metric, start, end, parent, pass_of = (
            self.metric, self.start, self.end, self.parent, self.pass_of
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mid = static if static is not None else self.metric_id(metric_of(args, kwargs))
            if open_[mid]:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            index = len(start)
            metric.append(mid)
            parent.append(stack[-1] if stack else -1)
            pass_of.append(len(self.passes) - 1)
            start.append(0)
            end.append(0)
            stack.append(index)
            open_[mid] += 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                open_[mid] -= 1
                stack.pop()
                start[index] = t0
                end[index] = t1
            if count is not None:
                count(self.counts[self.passes[-1]], args, kwargs, result, token)
            return result

        setattr(wrapper, WRAPPED, True)
        return wrapper

    def install(self, probes: list[Probe], modules: list[ModuleType]) -> None:
        """Wrap every probe's function wherever ``modules`` bind it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for probe in probes:
                original = vars(probe.owner)[probe.attr]
                wrapper = self._wrap(original, probe)
                owners = [probe.owner] if isinstance(probe.owner, type) else modules
                for owner in owners:
                    for name, value in list(vars(owner).items()):
                        if value is original:
                            self._patches.append((owner, name, original))
                            setattr(owner, name, wrapper)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put back every original function, last patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- output ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "metric": np.frombuffer(self.metric, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "pass_of": np.frombuffer(self.pass_of, dtype=np.int32),
        }

    def save(self, path) -> None:
        """Write all spans, with the metric and pass names, as one ``.npz``."""
        np.savez(
            path,
            names=np.array(self.names),
            passes=np.array(self.passes),
            **self.arrays(),
        )


def wrapped_attributes(owners) -> list[str]:
    """Names of tracer wrappers still bound on any of ``owners``."""
    return [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner in owners
        for name, value in vars(owner).items()
        if getattr(value, WRAPPED, False)
    ]


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    A child is clipped to its parent's interval, and overlapping children
    count once (the union of their intervals).  Single-threaded traces never
    overlap, but the arithmetic does not rely on it.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    children = np.flatnonzero(parent >= 0)
    if children.size == 0:
        return duration.copy()
    p = parent[children]
    s = np.maximum(start[children], start[p])
    e = np.maximum(np.minimum(end[children], end[p]), s)
    order = np.lexsort((s, p))
    p, s, e = p[order], s[order], e[order]
    # Shift every parent's children into a disjoint time band so that one
    # running maximum of end times restarts at each parent.
    base = int(start.min())
    band = int(end.max()) - base + 1
    group = np.cumsum(np.r_[0, p[1:] != p[:-1]])
    s = s - base + group * band
    e = e - base + group * band
    reach = np.maximum.accumulate(e)
    covered_from = np.maximum(s, np.r_[s[0], reach[:-1]])
    covered = np.maximum(e - covered_from, 0)
    cover = np.zeros(len(start), dtype=np.int64)
    np.add.at(cover, p, covered)
    return duration - cover


def span_cost_ns(calls: int = 20000) -> float:
    """Host time one traced call adds around a no-op, in ns, before any
    counter runs.  A parent's self time includes this once per traced child
    call, so it bounds how far tracing inflates the self time of a layer
    that makes many small calls."""
    box = ModuleType("calibration")
    exec("def noop():\n    pass\n", box.__dict__)

    def timed() -> int:
        noop = box.noop
        t0 = perf_counter_ns()
        for _ in range(calls):
            noop()
        return perf_counter_ns() - t0

    bare = timed()
    tracer = Tracer()
    tracer.begin_pass("calibration")
    tracer.install([Probe(box, "noop", "noop")], [box])
    try:
        traced = timed()
    finally:
        tracer.restore()
    return (traced - bare) / calls
