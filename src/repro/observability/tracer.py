"""Hierarchical phase spans: the tracer the sorting drivers talk to.

A :class:`Span` is one phase of the algorithm — a two-dimensional base sort,
a routing step, a whole merge level — with wall time, the paper's cost
attributes (``rounds``, ``comparisons``), and children for its sub-phases.
A full run therefore yields the paper's recursion as a tree::

    sort (backend=lattice, n=3, r=3)
    ├─ initial-block-sorts            kind=s2       dim=2
    └─ merge                          dim=3
       ├─ distribute                  kind=free
       ├─ column-merges
       │  └─ merge-base               kind=s2       dim=2
       ├─ interleave                  kind=free
       └─ cleanup
          ├─ block-sorts              kind=s2
          ├─ transposition ×2         kind=routing
          └─ final-block-sorts        kind=s2

Because spans wrap exactly the *charged* (parallel-time) phases, the tree is
itself a proof object: a full ``r``-dimensional sort contains exactly
``(r-1)**2`` spans of kind ``s2`` and ``(r-1)(r-2)`` of kind ``routing`` —
Theorem 1 read off telemetry instead of hand-rolled counters.

Disabled fast path
------------------
Drivers accept ``tracer=None`` and normalise it with :func:`coerce_tracer`,
which returns the module singleton :data:`NULL_TRACER`.  Its ``span()``
returns one shared no-op context manager — no allocation, no clock read, no
bus traffic — so an untraced run pays essentially nothing.  Check
``tracer.disabled`` before building expensive span attributes.
"""

from __future__ import annotations

from typing import Any, Iterator

from .events import EventBus, TraceEvent, clock

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "coerce_tracer", "point_emitter"]


class Span:
    """One phase of a run: name, attributes, wall-clock interval, children.

    Spans are context managers; entering pushes them on the owning tracer's
    stack (nesting = tree structure), exiting stamps the end time and
    publishes ``span_end`` with the final attributes.  Mutate attributes
    mid-phase with :meth:`set` (e.g. the measured rounds, known only after
    the phase ran).
    """

    __slots__ = ("name", "attrs", "start", "end", "children", "parent_id", "span_id", "_tracer")

    def __init__(self, name: str, attrs: dict[str, Any], span_id: int, tracer: "Tracer") -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id: int | None = None
        self.start: float = 0.0
        self.end: float | None = None
        self.children: list[Span] = []
        self._tracer = tracer

    # -- cost conveniences ---------------------------------------------
    @property
    def kind(self) -> str:
        """Charge category: ``"s2"``, ``"routing"``, ``"free"`` or ``""``."""
        return str(self.attrs.get("kind", ""))

    @property
    def rounds(self) -> int:
        """Synchronous rounds this span itself was charged (not children's)."""
        return int(self.attrs.get("rounds", 0))

    @property
    def duration(self) -> float:
        """Wall-clock seconds (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def set(self, **attrs: Any) -> "Span":
        """Update attributes in place; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def at(self, start: float, end: float) -> "Span":
        """Pin the interval to :data:`~repro.observability.events.clock`
        times measured elsewhere; entering and leaving then read no clock."""
        self.start, self.end = start, end
        return self

    # -- tree queries ---------------------------------------------------
    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def total_rounds(self) -> int:
        """Rounds charged in this subtree (sums only the leaf charges)."""
        return sum(s.rounds for s in self.walk())

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self, failed=exc_type is not None)
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        extra = f" kind={self.kind}" if self.kind else ""
        return f"Span({self.name!r}{extra}, rounds={self.rounds}, children={len(self.children)})"


class Tracer:
    """Builds the span tree and mirrors it onto an :class:`EventBus`.

    Parameters
    ----------
    bus:
        where ``span_start`` / ``span_end`` / ``point`` events are published;
        a private bus is created when omitted.  Subscribers attached to
        ``tracer.bus`` see the run live; the finished tree stays available
        on :attr:`roots` afterwards.
    """

    disabled = False

    def __init__(self, bus: EventBus | None = None) -> None:
        self.bus = bus if bus is not None else EventBus()
        #: finished + open top-level spans, in start order
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1

    # -- span lifecycle -------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """Create (not yet open) a span; use as ``with tracer.span(...):``."""
        span = Span(name, attrs, self._next_id, self)
        self._next_id += 1
        return span

    def _open(self, span: Span) -> None:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            span.parent_id = parent.span_id
            parent.children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        if span.end is None:  # not pinned by Span.at
            span.start = clock()
        if self.bus.active:
            self.bus.publish(
                TraceEvent(
                    kind="span_start",
                    name=span.name,
                    time=span.start,
                    span_id=span.span_id,
                    parent_id=span.parent_id,
                    attrs=dict(span.attrs),
                )
            )

    def _close(self, span: Span, failed: bool = False) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._stack.pop()
        if span.end is None:
            span.end = clock()
        if failed:
            span.attrs.setdefault("error", True)
        if self.bus.active:
            self.bus.publish(
                TraceEvent(
                    kind="span_end",
                    name=span.name,
                    time=span.end,
                    span_id=span.span_id,
                    parent_id=span.parent_id,
                    attrs=dict(span.attrs),
                )
            )

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def event(self, name: str, payload: Any = None, **attrs: Any) -> None:
        """Publish an instantaneous ``point`` event under the current span."""
        if not self.bus.active:
            return
        if payload is not None:
            attrs = dict(attrs, payload=payload)
        parent = self.current
        self.bus.publish(
            TraceEvent(
                kind="point",
                name=name,
                time=clock(),
                span_id=None,
                parent_id=parent.span_id if parent is not None else None,
                attrs=attrs,
            )
        )

    # -- tree queries ---------------------------------------------------
    def iter_spans(self) -> Iterator[Span]:
        """Every recorded span, depth-first from each root."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str | None = None, **attr_filters: Any) -> list[Span]:
        """Spans matching the name and/or exact attribute values."""
        out = []
        for span in self.iter_spans():
            if name is not None and span.name != name:
                continue
            if any(span.attrs.get(k) != v for k, v in attr_filters.items()):
                continue
            out.append(span)
        return out

    def count(self, name: str | None = None, **attr_filters: Any) -> int:
        """Number of spans matching (see :meth:`find`)."""
        return len(self.find(name, **attr_filters))

    def total_rounds(self) -> int:
        """Rounds charged across the whole recording."""
        return sum(root.total_rounds() for root in self.roots)


class _NullSpan:
    """The shared do-nothing span the disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Overhead-free stand-in used when no telemetry consumer exists.

    ``span()`` always returns the same preallocated no-op object and
    ``event()`` returns immediately; instrumentation sites can also skip
    attribute computation entirely by checking :attr:`disabled`.
    """

    disabled = True
    roots: tuple = ()

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, payload: Any = None, **attrs: Any) -> None:
        return None

    def iter_spans(self) -> Iterator[Span]:
        return iter(())

    def find(self, name: str | None = None, **attr_filters: Any) -> list[Span]:
        return []

    def count(self, name: str | None = None, **attr_filters: Any) -> int:
        return 0

    def total_rounds(self) -> int:
        return 0


#: module-wide singleton: what ``tracer=None`` normalises to
NULL_TRACER = NullTracer()


def coerce_tracer(tracer: "Tracer | NullTracer | EventBus | None") -> "Tracer | NullTracer":
    """Normalise an optional tracer argument to a usable tracer object.

    Accepts a bare :class:`~repro.observability.events.EventBus` as well —
    callers that only want the event stream (point events, span boundaries)
    pass their bus and get a fresh tracer publishing onto it.  This replaced
    the legacy ``trace=`` callable hook: subscribe a
    :class:`~repro.observability.events.CallbackSubscriber` to a bus and
    pass the bus.
    """
    if tracer is None:
        return NULL_TRACER
    if isinstance(tracer, EventBus):
        return Tracer(bus=tracer)
    return tracer


def point_emitter(tracer: "Tracer | NullTracer"):
    """An ``emit(name, payload)`` closure for the tracer, or ``None``.

    Instrumentation sites that publish intermediate *states* (lattice
    copies, sequence snapshots — the old ``trace`` events) call this once
    and skip both the event and the payload copy unless someone is actually
    listening: the emitter exists only when the tracer has an **active** bus.
    A span-only tracer (private bus, no subscribers) therefore pays nothing
    and its exports stay payload-free, exactly like the old ``trace=None``.
    """
    bus = getattr(tracer, "bus", None)
    if bus is None or not bus.active:
        return None
    return lambda name, payload: tracer.event(name, payload=payload)
