"""In-memory span recorder for the traced run.

:meth:`Tracer.installed` wraps public functions of the program for the
duration of a traced run and restores them afterwards; untraced runs never
touch the program.  Every call through a wrapped function records one span
``(id, name, start_ns, end_ns, parent, rid, tag, n)``:

* ``parent`` is the id of the enclosing synchronous span (a context
  variable, so concurrent asyncio tasks do not adopt each other's spans);
* ``rid`` is the id of the benchmark request that caused the span;
* ``tag`` names the cell and ``n`` counts the work: rows of a kernel call,
  operations of an emitted or optimized schedule, layers of a compiled
  kernel (``tag`` is ``"error"`` when the call raised).

Ids come from an ``itertools.count`` and finished spans are appended to a
list, both atomic under the interpreter lock, so threads may record
concurrently.

Metric-instrument calls (``Histogram.observe``, ``Counter.inc``,
``Gauge.set``, ``Gauge.set_max``) take about a microsecond and happen
several times per request, so they are recorded as a call count and summed
time instead of spans.  They are only made from the event-loop thread.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import gzip
import itertools
import json
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

#: id of the benchmark request the current task serves (-1: none)
REQUEST_ID: contextvars.ContextVar[int] = contextvars.ContextVar("perfbench_rid", default=-1)
_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar("perfbench_span", default=-1)


class Span(NamedTuple):
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int
    rid: int
    tag: str
    n: int

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def cell_name(dag: Any) -> str:
    """The label the program gives a schedule's kernel, e.g. ``path(3)-n3-r3``."""
    return f"{dag.factor}-n{dag.n}-r{dag.r}"


class Tracer:
    """Records spans around wrapped calls; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.metric_calls = 0
        self.metric_ns = 0
        self._ids = itertools.count()
        self._patches: list[tuple[Any, str, Any]] = []

    @contextlib.contextmanager
    def span(self, name: str, rid: int | None = None) -> Iterator[None]:
        """Record a span around a block of the benchmark's own code."""
        sid = next(self._ids)
        parent = _CURRENT.get()
        token = _CURRENT.set(sid)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            _CURRENT.reset(token)
            who = REQUEST_ID.get() if rid is None else rid
            self.spans.append(Span(sid, name, start, end, parent, who, "", 0))

    # -- wrapping ----------------------------------------------------------

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Callable[..., Any]) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper))

    def wrap(
        self, owner: Any, attr: str, name: str, tag: Callable[..., tuple[str, int]] | None = None
    ) -> None:
        """Record a span around every call of the function ``owner.attr``.

        ``tag(args, result)`` gives the span's ``tag`` and ``n``; it runs
        after the span has ended, so it costs the measured call nothing.
        """
        original = getattr(owner, attr)
        spans, ids = self.spans, self._ids

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = next(ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(sid)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                _CURRENT.reset(token)
                spans.append(Span(sid, name, start, perf_counter_ns(), parent, REQUEST_ID.get(), "error", 0))
                raise
            end = perf_counter_ns()
            _CURRENT.reset(token)
            label, n = tag(args, result) if tag is not None else ("", 0)
            spans.append(Span(sid, name, start, end, parent, REQUEST_ID.get(), label, n))
            return result

        self._patch(owner, attr, original, wrapper)

    def wrap_async(self, owner: Any, attr: str, name: str) -> None:
        """Record a span around every await of the coroutine ``owner.attr``.

        The program runs with no current span and no request id: a task it
        starts (the service's flusher) copies the context and would carry
        them into every later span.
        """
        original = getattr(owner, attr)

        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = next(self._ids)
            parent, rid = _CURRENT.get(), REQUEST_ID.get()
            tokens = _CURRENT.set(-1), REQUEST_ID.set(-1)
            start = perf_counter_ns()
            try:
                return await original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                _CURRENT.reset(tokens[0])
                REQUEST_ID.reset(tokens[1])
                self.spans.append(Span(sid, name, start, end, parent, rid, "", 0))

        self._patch(owner, attr, original, wrapper)

    def count(self, owner: Any, attr: str) -> None:
        """Count calls of ``owner.attr`` and sum their time."""
        original = getattr(owner, attr)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                self.metric_ns += perf_counter_ns() - start
                self.metric_calls += 1

        self._patch(owner, attr, original, wrapper)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every measured public function of the program, then restore."""
        import repro.schedule
        import repro.schedule.optimize
        import repro.staticcheck
        import repro.staticcheck.validate
        from repro.observability.metrics import Counter, Gauge, Histogram
        from repro.schedule.compiled import CompiledSchedule
        from repro.serve.service import SortService

        def dag_tag(args: Any, dag: Any) -> tuple[str, int]:
            return cell_name(dag), dag.comparator_count + dag.block_sort_count

        try:
            # the program looks these up as module attributes at call time,
            # so replacing the attribute reaches every caller
            self.wrap(repro.staticcheck, "emit_schedule", "schedule.emit", dag_tag)
            self.wrap(
                repro.schedule,
                "compile_schedule",
                "schedule.compiled.compile",
                lambda args, kernel: (kernel.cell, kernel.num_layers),
            )
            self.wrap(
                repro.schedule.optimize,
                "optimize_schedule",
                "schedule.optimize",
                lambda args, result: dag_tag(args, result.optimized),
            )
            self.wrap(repro.staticcheck.validate, "validate_translation", "staticcheck.validate")
            self.wrap(
                CompiledSchedule,
                "run",
                "schedule.compiled.run",
                lambda args, out: (args[0].cell, int(np.shape(args[1])[0])),
            )
            self.wrap(SortService, "prewarm", "serve.service.prewarm")
            self.wrap_async(SortService, "submit", "serve.service.submit")
            for owner, attr in (
                (Histogram, "observe"),
                (Counter, "inc"),
                (Gauge, "set"),
                (Gauge, "set_max"),
            ):
                self.count(owner, attr)
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def select(self, name: str, tag: str | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name and (tag is None or s.tag == tag)]

    def seconds(self, name: str, tag: str | None = None) -> np.ndarray:
        return np.array([s.seconds for s in self.select(name, tag)])

    def self_seconds(self, name: str) -> np.ndarray:
        """Each span's duration minus the time its child spans cover."""
        children: dict[int, list[tuple[int, int]]] = {}
        for s in self.spans:
            if s.parent >= 0:
                children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
        return np.array(
            [s.seconds - _union_ns(children.get(s.id, [])) / 1e9 for s in self.select(name)]
        )

    def write(self, path: Path) -> None:
        """Write every span, in id order, as one JSON object per line (gzip)."""
        with gzip.open(path, "wt") as fh:
            for s in sorted(self.spans):
                fh.write(json.dumps(s._asdict()) + "\n")


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total, reach = 0, -1
    for start, end in sorted(intervals):
        if start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def coverage_s(starts: np.ndarray, ends: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Time of each ``[a, b]`` covered by the intervals ``[starts, ends]``.

    The intervals must be sorted and disjoint, as the spans of one thread
    are; the result is computed for every ``(a, b)`` pair at once.
    """
    if starts.size == 0:
        return np.zeros(np.shape(a))
    before = np.concatenate(([0], np.cumsum(ends - starts)))

    def covered_until(t: np.ndarray) -> np.ndarray:
        k = np.searchsorted(starts, t, side="right")  # intervals started by t
        last = np.maximum(k - 1, 0)
        partial = np.where(k > 0, np.minimum(t, ends[last]) - starts[last], 0)
        return before[last] + partial

    return covered_until(b) - covered_until(a)
