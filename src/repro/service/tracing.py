"""Request-scoped distributed tracing for the service stack.

A *trace* follows one request end to end: the transport hands the
handler a W3C-style ``traceparent`` (or the handler mints a fresh one),
:func:`start_trace` opens the root span, and every interesting stage —
cache tiers, executor queue wait, pool compute, remote shard hops, the
routing algorithm's own phases — wraps itself in :func:`span`. Spans
carry monotonic timestamps, a status, and free-form key/value
attributes; finished traces land in a bounded in-memory
:class:`TraceBuffer` queryable over HTTP (``GET /v1/traces``) and
renderable with ``repro trace``.

Propagation is by value, not by baggage: :func:`current_traceparent`
yields a ``00-<trace-id>-<span-id>-01`` string naming the active span,
the remote client attaches it as the HTTP ``traceparent`` header, and
the receiving handler starts its *own* trace whose root span is
parented on the caller's span id. Each node therefore buffers only the
spans it recorded; a cross-node span tree is reassembled by fetching
the same trace id from every node and merging on parent links (what
the CLI does).

Everything here is stdlib-only and cheap on the hot path: :class:`span`
costs one contextvar read when no trace is active, and a live span is a
slotted object stamped with counter-derived ids (one ``os.urandom``
call per *trace*, not per span) and wall-clock times derived from a
single per-trace anchor — so instrumentation can be unconditional even
on cache-hit requests (see ``benchmarks/bench_tracing.py`` for the
overhead gate).
"""

from __future__ import annotations

import logging as _stdlib_logging
import os
import threading
import time
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Mapping, cast

from .telemetry import Telemetry

__all__ = [
    "Span",
    "Trace",
    "TraceBuffer",
    "span",
    "start_trace",
    "current_traceparent",
    "format_traceparent",
    "parse_traceparent",
    "record_stage_spans",
]

_slow_log = _stdlib_logging.getLogger("repro.service.tracing")


def format_traceparent(trace_id: str, span_id: str) -> str:
    """Render a W3C ``traceparent`` value (version 00, sampled flag)."""
    return f"00-{trace_id}-{span_id}-01"


def parse_traceparent(value: str) -> tuple[str, str] | None:
    """Extract ``(trace_id, span_id)`` from a ``traceparent`` string.

    Returns ``None`` (rather than raising) on anything malformed — an
    unparseable header from a foreign client should start a fresh trace,
    not fail the request.
    """
    parts = value.strip().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, _flags = parts
    if len(version) != 2 or len(trace_id) != 32 or len(span_id) != 16:
        return None
    try:
        int(trace_id, 16)
        int(span_id, 16)
    except ValueError:
        return None
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return trace_id, span_id


@dataclass(slots=True)
class Span:
    """One timed operation within a trace.

    ``t0``/``t1`` are ``time.perf_counter`` readings, comparable only
    within the recording process — cross-node ordering uses parent
    links, never clocks. ``start_unix`` is wall time for display.
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start_unix: float
    t0: float
    t1: float | None = None
    status: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span wall time in seconds (0.0 while still open)."""
        return (self.t1 - self.t0) if self.t1 is not None else 0.0

    def set(self, key: str, value: Any) -> None:
        """Attach a key/value attribute (JSON-serializable values only)."""
        self.attrs[key] = value

    def to_doc(self) -> dict[str, Any]:
        """JSON-ready document (used by ``trace_get`` / ``/v1/traces``)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_unix": self.start_unix,
            "duration_seconds": self.duration,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "Span":
        """Rebuild a span from :meth:`to_doc` output (clients/CLI)."""
        sp = cls(
            trace_id=str(doc["trace_id"]),
            span_id=str(doc["span_id"]),
            parent_id=(
                str(doc["parent_id"]) if doc.get("parent_id") else None
            ),
            name=str(doc["name"]),
            start_unix=float(doc.get("start_unix", 0.0)),
            t0=0.0,
            t1=float(doc.get("duration_seconds", 0.0)),
            status=str(doc.get("status", "ok")),
            attrs=dict(doc.get("attrs") or {}),
        )
        return sp


class _NoopSpan:
    """Stand-in yielded by :func:`span` when no trace is active.

    ``status`` is writable (and never read) so error paths can mark a
    span failed without caring whether a trace is live.
    """

    __slots__ = ("status",)

    def __init__(self) -> None:
        self.status = "ok"

    def set(self, key: str, value: Any) -> None:
        pass


_NOOP = _NoopSpan()


@dataclass
class Trace:
    """All spans one node recorded for a single trace id.

    ``spans`` is ordered by completion time with the root span last; a
    multi-node request yields one :class:`Trace` per participating node,
    stitched together by span parentage (the remote node's root span is
    parented on the calling node's client span).
    """

    trace_id: str
    name: str
    node_id: str
    spans: list[Span]

    @property
    def root(self) -> Span:
        """The root span (last completed)."""
        return self.spans[-1]

    @property
    def duration(self) -> float:
        """Root-span duration in seconds."""
        return self.root.duration

    @property
    def start_unix(self) -> float:
        """Root-span wall-clock start."""
        return self.root.start_unix

    def to_doc(self) -> dict[str, Any]:
        """JSON-ready document (used by ``trace_get`` / ``/v1/traces``)."""
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "node_id": self.node_id,
            "start_unix": self.start_unix,
            "duration_seconds": self.duration,
            "status": self.root.status,
            "spans": [sp.to_doc() for sp in self.spans],
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "Trace":
        """Rebuild a trace from :meth:`to_doc` output (clients/CLI)."""
        return cls(
            trace_id=str(doc["trace_id"]),
            name=str(doc.get("name", "")),
            node_id=str(doc.get("node_id", "")),
            spans=[Span.from_doc(d) for d in doc.get("spans", [])],
        )


class _TraceState:
    """Mutable per-trace collector shared by all of a trace's spans.

    Owns the trace's entropy and clocks: span ids are minted by
    incrementing one random 64-bit counter (unique within the trace,
    collision-free across traces for all practical purposes) and span
    wall-clock starts are derived from a single ``time.time`` /
    ``perf_counter`` anchor pair — the hot path never touches
    ``os.urandom`` or ``time.time`` after trace start.
    """

    __slots__ = ("trace_id", "spans", "unix0", "p0", "_next_id")

    def __init__(
        self, trace_id: str | None, unix0: float, p0: float
    ) -> None:
        if trace_id is None:
            raw = os.urandom(24)
            trace_id = raw[:16].hex()
            seed = raw[16:]
        else:
            seed = os.urandom(8)
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self.unix0 = unix0
        self.p0 = p0
        self._next_id = int.from_bytes(seed, "big")

    def new_span_id(self) -> str:
        sid = self._next_id & 0xFFFFFFFFFFFFFFFF
        self._next_id = sid + 1
        # The all-zero span id is reserved by the traceparent spec.
        return format(sid or 1, "016x")


_CURRENT: ContextVar[tuple[_TraceState, Span] | None] = ContextVar(
    "repro_current_span", default=None
)


def current_traceparent() -> str | None:
    """``traceparent`` naming the active span, or ``None`` outside a trace.

    This is what :class:`~repro.service.cluster.RemoteShardClient`
    attaches to outbound shard requests so the owning node's spans join
    the caller's trace.
    """
    cur = _CURRENT.get()
    if cur is None:
        return None
    state, sp = cur
    return format_traceparent(state.trace_id, sp.span_id)


class span:
    """Open a child span of the current span for the enclosed block.

    No-op (yields an inert span) when no trace is active. The span's
    status flips to ``"error"`` if the block raises; the exception
    propagates unchanged.

    A class-based context manager (rather than a generator) because this
    sits on the service's warm path — cache-hit requests open spans too,
    and generator context managers cost roughly twice as much per
    enter/exit.
    """

    __slots__ = ("_name", "_attrs", "_state", "_span", "_token")

    def __init__(self, name: str, **attrs: Any) -> None:
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        cur = _CURRENT.get()
        if cur is None:
            self._token = None
            return cast(Span, _NOOP)
        state, parent = cur
        t0 = time.perf_counter()
        sp = Span(
            trace_id=state.trace_id,
            span_id=state.new_span_id(),
            parent_id=parent.span_id,
            name=self._name,
            start_unix=state.unix0 + (t0 - state.p0),
            t0=t0,
            attrs=self._attrs,
        )
        self._state = state
        self._span = sp
        self._token = _CURRENT.set((state, sp))
        return sp

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if self._token is None:
            return False
        sp = self._span
        if exc_type is not None:
            sp.status = "error"
        sp.t1 = time.perf_counter()
        self._state.spans.append(sp)
        _CURRENT.reset(self._token)
        return False


class start_trace:
    """Open a trace's root span and record the trace into ``buffer``.

    With a valid ``traceparent`` the trace id is inherited and the root
    span is parented on the caller's span (distributed continuation);
    otherwise a fresh trace id is minted. With ``buffer=None`` the whole
    block is a no-op — callers gate tracing by passing their buffer or
    not.
    """

    __slots__ = (
        "_name",
        "_buffer",
        "_traceparent",
        "_node_id",
        "_attrs",
        "_state",
        "_root",
        "_token",
    )

    def __init__(
        self,
        name: str,
        buffer: "TraceBuffer | None",
        *,
        traceparent: str | None = None,
        node_id: str = "",
        **attrs: Any,
    ) -> None:
        self._name = name
        self._buffer = buffer
        self._traceparent = traceparent
        self._node_id = node_id
        self._attrs = attrs

    def __enter__(self) -> Span:
        if self._buffer is None:
            self._token = None
            return cast(Span, _NOOP)
        parent_id: str | None = None
        trace_id: str | None = None
        if self._traceparent:
            parsed = parse_traceparent(self._traceparent)
            if parsed is not None:
                trace_id, parent_id = parsed
        unix0 = time.time()
        p0 = time.perf_counter()
        state = _TraceState(trace_id, unix0, p0)
        root = Span(
            trace_id=state.trace_id,
            span_id=state.new_span_id(),
            parent_id=parent_id,
            name=self._name,
            start_unix=unix0,
            t0=p0,
            attrs=self._attrs,
        )
        self._state = state
        self._root = root
        self._token = _CURRENT.set((state, root))
        return root

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if self._token is None:
            return False
        root = self._root
        if exc_type is not None:
            root.status = "error"
        root.t1 = time.perf_counter()
        state = self._state
        state.spans.append(root)
        _CURRENT.reset(self._token)
        buffer = self._buffer
        assert buffer is not None
        buffer.add(Trace(state.trace_id, self._name, self._node_id, state.spans))
        return False


def record_stage_spans(
    stages: Mapping[str, Mapping[str, Any]], prefix: str = "stage.", **attrs: Any
) -> None:
    """Synthesize child spans from a stage-profile dict.

    Pool workers cannot share the parent process's contextvars, so the
    routing phases are profiled in-worker
    (:class:`repro.routing.base.StageProfiler`) and shipped back as
    ``{stage: {"seconds": ..., "count": ...}}``; this helper turns them
    into spans under the *current* span (the compute span), laid out
    sequentially from its start. Durations are exact; the offsets are
    presentational. ``attrs`` are added to every span. No-op outside a
    trace.
    """
    cur = _CURRENT.get()
    if cur is None or not stages:
        return
    state, parent = cur
    offset = 0.0
    for stage_name in sorted(stages):
        info = stages[stage_name]
        seconds = float(info.get("seconds", 0.0))
        sp = Span(
            trace_id=state.trace_id,
            span_id=state.new_span_id(),
            parent_id=parent.span_id,
            name=prefix + stage_name,
            start_unix=parent.start_unix + offset,
            t0=parent.t0 + offset,
            t1=parent.t0 + offset + seconds,
            attrs={"count": int(info.get("count", 0)), **attrs},
        )
        state.spans.append(sp)
        offset += seconds


def _freeze(trace: Trace) -> tuple:
    """Flatten a trace into nested tuples of scalars for ring storage.

    Retaining 512 live ``Trace``/``Span`` object graphs makes every
    generational GC pass rescan thousands of tracked containers — a tax
    charged to *all* requests in proportion to their allocation rate.
    Scalar-only tuples are untracked by CPython's collector after the
    first pass, so a frozen ring costs the GC (almost) nothing.
    """
    return (
        trace.trace_id,
        trace.name,
        trace.node_id,
        trace.duration,
        tuple(
            (
                sp.span_id,
                sp.parent_id,
                sp.name,
                sp.start_unix,
                sp.t0,
                sp.t1,
                sp.status,
                tuple(sp.attrs.items()),
            )
            for sp in trace.spans
        ),
    )


def _thaw(entry: tuple) -> Trace:
    """Rebuild a :class:`Trace` from :func:`_freeze` output."""
    trace_id, name, node_id, _duration, spans_t = entry
    spans = [
        Span(
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            name=span_name,
            start_unix=start_unix,
            t0=t0,
            t1=t1,
            status=status,
            attrs=dict(attrs_t),
        )
        for (
            span_id,
            parent_id,
            span_name,
            start_unix,
            t0,
            t1,
            status,
            attrs_t,
        ) in spans_t
    ]
    return Trace(trace_id, name, node_id, spans)


class TraceBuffer:
    """Thread-safe ring buffer of finished traces.

    Holds the most recent ``capacity`` traces (default 512, evicting the
    oldest); traces slower than ``slow_threshold`` seconds are also
    emitted through the structured logger so they survive eviction. When
    a :class:`~repro.service.telemetry.Telemetry` is attached, the
    buffer keeps the ``trace_buffer_size`` gauge and
    ``traces_recorded`` / ``traces_dropped`` / ``traces_slow`` counters
    current. Entries are stored flattened (:func:`_freeze`) so the ring
    is invisible to the garbage collector; :meth:`get` and :meth:`list`
    rebuild :class:`Trace` objects on demand.
    """

    def __init__(
        self,
        capacity: int = 512,
        slow_threshold: float = 0.0,
        telemetry: Telemetry | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.slow_threshold = slow_threshold
        self._telemetry = telemetry
        self._lock = threading.Lock()
        self._traces: deque[tuple] = deque(maxlen=capacity)
        self._dropped = 0
        self._slow = 0

    def add(self, trace: Trace) -> None:
        """Record a finished trace (evicting the oldest at capacity)."""
        slow = (
            self.slow_threshold > 0.0
            and trace.duration >= self.slow_threshold
        )
        entry = _freeze(trace)
        with self._lock:
            evicted = len(self._traces) == self.capacity
            if evicted:
                self._dropped += 1
            self._traces.append(entry)
            if slow:
                self._slow += 1
            size = len(self._traces)
        if self._telemetry is not None:
            self._telemetry.set_gauge("trace_buffer_size", size)
            self._telemetry.incr("traces_recorded")
            if evicted:
                self._telemetry.incr("traces_dropped")
            if slow:
                self._telemetry.incr("traces_slow")
        if slow:
            _slow_log.warning(
                "slow trace %s (%s): %.6fs >= %.6fs threshold",
                trace.trace_id,
                trace.name,
                trace.duration,
                self.slow_threshold,
                extra={
                    "trace_id": trace.trace_id,
                    "span_id": trace.root.span_id,
                    "duration_seconds": trace.duration,
                },
            )

    def get(self, trace_id: str) -> Trace | None:
        """The buffered trace with ``trace_id``, or ``None``."""
        with self._lock:
            for entry in reversed(self._traces):
                if entry[0] == trace_id:
                    return _thaw(entry)
        return None

    def list(
        self, limit: int | None = None, slow_only: bool = False
    ) -> list[Trace]:
        """Buffered traces, newest first.

        ``slow_only`` keeps only traces at/above the slow threshold (all
        traces when no threshold is configured); ``limit`` caps the
        result length after filtering.
        """
        with self._lock:
            entries = list(reversed(self._traces))
        if slow_only and self.slow_threshold > 0.0:
            entries = [
                e for e in entries if e[3] >= self.slow_threshold
            ]
        if limit is not None:
            entries = entries[: max(0, limit)]
        return [_thaw(e) for e in entries]

    def __len__(self) -> int:
        return len(self._traces)

    @property
    def dropped(self) -> int:
        """Traces evicted by the ring since startup."""
        return self._dropped

    def stats(self) -> dict[str, Any]:
        """Buffer occupancy/eviction summary, JSON-ready."""
        with self._lock:
            return {
                "size": len(self._traces),
                "capacity": self.capacity,
                "dropped": self._dropped,
                "slow": self._slow,
                "slow_threshold_seconds": self.slow_threshold,
            }
