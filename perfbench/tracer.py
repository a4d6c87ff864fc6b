"""Layer spans recorded from outside the package.

The tracer rebinds the names that dbdetect's modules look up at call time
(``dbdetect.detectors.solve_max``, ``dbdetect.rng.substream``, ...) to thin
wrappers that record one span per call, so nothing under ``src/`` changes.
Spans live in memory on a per-thread stack and are aggregated or written out
only after the traced rounds end.

A span's self time is its wall duration minus the durations of the child
spans opened on the same thread.  Trials that the risk harness hands to its
thread pool become ``experiments.harness.trial`` spans on the worker threads,
whose parent is the harness point span on the main thread; the main thread's
wait on the pool is a ``experiments.harness.wait`` span, which counts as
neither busy nor self time.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

HARNESS = "experiments.harness"
TRIAL = "experiments.harness.trial"
WAIT = "experiments.harness.wait"

# Fields of one recorded span.  CPU is the process CPU time the span used,
# recorded for harness points only (it shows how much of the pool's lane time
# did any work at all, e.g. under the interpreter lock).
NAME, SPAN_ID, PARENT, START, END, SELF, WORK, CPU = range(8)


class _Frame:
    __slots__ = ("name", "span_id", "parent", "start", "child", "work", "cpu")

    def __init__(self, name, span_id, parent):
        self.name = name
        self.span_id = span_id
        self.parent = parent
        self.start = 0.0
        self.child = 0.0
        self.work = None
        self.cpu = None


class _ThreadState:
    def __init__(self, ident: int):
        self.ident = ident
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._installed: list[tuple] = []
        self.main_ident = threading.get_ident()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState(threading.get_ident())
            with self._lock:
                self._threads.append(state)
        return state

    def _open(self, name, parent=None, cpu=False) -> _Frame:
        state = self._state()
        if parent is None and state.stack:
            parent = state.stack[-1].span_id
        frame = _Frame(name, next(self._ids), parent)
        state.stack.append(frame)
        if cpu:
            frame.cpu = time.process_time()
        frame.start = time.perf_counter()
        return frame

    def _close(self, frame: _Frame) -> None:
        end = time.perf_counter()
        if frame.cpu is not None:
            frame.cpu = time.process_time() - frame.cpu
        state = self._state()
        state.stack.pop()
        duration = end - frame.start
        if state.stack:
            state.stack[-1].child += duration
        state.spans.append(
            (frame.name, frame.span_id, frame.parent, frame.start, end,
             duration - frame.child, frame.work, frame.cpu)
        )

    def current_span(self):
        stack = self._state().stack
        return stack[-1].span_id if stack else None

    def wrap(self, name: str, fn, work=None, parent=None):
        """Return ``fn`` recording one span per call.  ``work(args, kwargs,
        result)`` may attach a count of work done to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name, parent, cpu=name == HARNESS)
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    frame.work = work(args, kwargs, result)
                return result
            finally:
                self._close(frame)

        return traced

    def install(self, bindings) -> None:
        """Rebind ``(module, attribute, span name, work)`` entries.  Entries
        naming the same function share one wrapper."""
        wrappers: dict[int, object] = {}
        for module, attr, name, work in bindings:
            original = getattr(module, attr)
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                wrapper = wrappers[id(original)] = self.wrap(name, original, work)
            self._installed.append((module, attr, original))
            setattr(module, attr, wrapper)

    def install_pool(self, module) -> None:
        """Replace ``module.ThreadPoolExecutor`` by one whose ``map`` records a
        trial span per task on the worker and a wait span on the caller."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                trial = tracer.wrap(TRIAL, fn, parent=tracer.current_span())
                frame = tracer._open(WAIT)
                try:
                    results = list(super().map(trial, *iterables, **kwargs))
                finally:
                    tracer._close(frame)
                return iter(results)

        self._installed.append((module, "ThreadPoolExecutor", module.ThreadPoolExecutor))
        module.ThreadPoolExecutor = TracedPool

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def spans(self) -> list[tuple]:
        """All closed spans as ``(thread, span)`` pairs."""
        with self._lock:
            threads = list(self._threads)
        return [(t.ident, span) for t in threads for span in t.spans]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def account(tracer: Tracer, window_s: float, threads: int) -> dict:
    """Split ``threads x window_s`` lane-seconds into span self times,
    harness idle, serial idle and unattributed main-thread time.

    * harness idle: per harness point of wall P, ``threads * P`` minus the
      main thread's time outside pool waits minus the worker trial spans;
    * serial idle: the ``threads - 1`` lanes left unused while the main thread
      runs outside harness points;
    * unattributed: main-thread time in the window not inside any span.

    ``residual_s`` is lane time minus the sum of the four parts; it is zero
    when spans nest and the pool never runs more than ``threads`` trials at
    once.
    """
    records = tracer.spans()
    main = tracer.main_ident
    by_parent: dict = {}
    for ident, span in records:
        by_parent.setdefault(span[PARENT], []).append(span)

    self_total = 0.0
    points_wall = 0.0
    harness_idle = 0.0
    main_top = 0.0
    for ident, span in records:
        duration = span[END] - span[START]
        if span[NAME] != WAIT:
            self_total += span[SELF]
        if ident == main and span[PARENT] is None:
            main_top += duration
        if span[NAME] == HARNESS:
            points_wall += duration
            children = by_parent.get(span[SPAN_ID], [])
            waited = sum(c[END] - c[START] for c in children if c[NAME] == WAIT)
            trials = sum(c[END] - c[START] for c in children if c[NAME] == TRIAL)
            harness_idle += threads * duration - (duration - waited) - trials

    lane_s = threads * window_s
    serial_idle = (threads - 1) * (window_s - points_wall)
    unattributed = window_s - main_top
    return {
        "lane_s": lane_s,
        "self_s": self_total,
        "harness_idle_s": harness_idle,
        "serial_idle_s": serial_idle,
        "unattributed_s": unattributed,
        "residual_s": lane_s - self_total - harness_idle - serial_idle - unattributed,
    }
