"""Structured trace events: spans with parent ids, serialized as JSON lines.

The optimizer emits one span per step of the paper's Figure 1 architecture
(normal optimization → candidate generation → CSE optimization), with
nested spans for each re-optimization pass, and the executor emits spans
per batch, per spool materialization, per query, and per operator
invocation. Events carry free-form attributes (candidate ids, subset
contents, row counts) so a trace alone reconstructs what the optimizer
considered, why, and where the execution wall time went.

Cross-thread propagation: span nesting is tracked per thread, but a
:class:`SpanContext` captured with :meth:`Tracer.current_context` can be
re-attached in another thread via :meth:`Tracer.attach` — that is how the
executor's pooled task runner parents every worker-thread task span under
the batch's root span instead of orphaning it (see
``repro.executor.executor``).
Every event also records the emitting thread's name, which becomes the
lane assignment in the Chrome trace exporter (:mod:`repro.obs.chrome`).

Timestamps are clock offsets from the tracer's creation — they order and
measure, but are not wall-clock datetimes. Written traces start with one
*header record* (``{"type": "trace_header", ...}``) carrying the
wall-clock base timestamp and the raw ``perf_counter`` epoch, so offsets
can be joined against query-log records from the same session; the event
records themselves keep plain offsets.

A tracer constructed with ``path=...`` owns that JSONL file: ``flush()``
appends the not-yet-written events, ``close()`` flushes and settles the
file, and a ``weakref.finalize`` hook flushes at interpreter exit so the
trace is never truncated when the owner forgets to close. A disabled
tracer (:data:`NULL_TRACER`) is a no-op, same contract as the metrics
registry.
"""

from __future__ import annotations

import json
import os
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter, time as wall_clock
from typing import Any, Callable, Dict, Iterator, List, Optional

#: The ``type`` tag of the header record written before any events.
TRACE_HEADER_TYPE = "trace_header"


@dataclass(frozen=True)
class SpanContext:
    """A portable reference to an open span (or to "no span").

    Capture one with :meth:`Tracer.current_context` in the thread that
    owns the span, hand it to another thread (e.g. inside a task spec),
    and re-establish parenting there with :meth:`Tracer.attach`."""

    span_id: Optional[int] = None


#: The empty context: attaching it is a no-op.
NULL_CONTEXT = SpanContext(None)


@dataclass
class TraceEvent:
    """One span (``duration`` set) or point event (``duration`` None)."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    duration: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    #: name of the thread that emitted the event — the Chrome exporter's
    #: lane assignment.
    thread: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """The JSONL payload for this event."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": round(self.start, 6),
        }
        if self.duration is not None:
            payload["duration"] = round(self.duration, 6)
        if self.thread is not None:
            payload["thread"] = self.thread
        if self.attrs:
            payload["attrs"] = self.attrs
        return payload


def _flush_pending(
    path: str,
    events: List[TraceEvent],
    lock: threading.Lock,
    header: Dict[str, Any],
    state: Dict[str, int],
) -> int:
    """Append ``events[state['flushed']:]`` to ``path`` (header first).

    Module-level (not a method) so ``weakref.finalize`` can call it after
    the tracer itself is unreachable: it closes over the shared event
    list, lock, and state cell, never the tracer."""
    with lock:
        pending = events[state["flushed"]:]
        if state["flushed"] == 0:
            mode = "w"
            lines = [json.dumps(header, sort_keys=True)]
        else:
            if not pending:
                return 0
            mode = "a"
            lines = []
        lines.extend(json.dumps(e.to_dict(), sort_keys=True) for e in pending)
        with open(path, mode, encoding="utf-8") as sink:
            sink.write("\n".join(lines) + "\n")
        state["flushed"] += len(pending)
        return len(pending)


class Tracer:
    """Collects spans/events; thread-safe, per-thread span nesting.

    ``path`` binds the tracer to a JSONL file with an explicit lifecycle
    (:meth:`flush` / :meth:`close`, plus an interpreter-exit finalizer).
    ``clock`` injects a deterministic time source for golden tests
    (defaults to :func:`time.perf_counter`)."""

    def __init__(
        self,
        enabled: bool = True,
        path: Optional[str] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.enabled = enabled
        self.path = path
        self.events: List[TraceEvent] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._clock = clock if clock is not None else perf_counter
        self._epoch = self._clock()
        self.header: Dict[str, Any] = {
            "type": TRACE_HEADER_TYPE,
            "version": 1,
            #: wall-clock instant of the tracer's epoch — add an event's
            #: ``start`` offset to get its wall-clock time.
            "wall_time_unix": round(wall_clock(), 6),
            #: the raw clock value the offsets are measured from.
            "perf_counter_epoch": round(self._epoch, 6),
            "pid": os.getpid(),
        }
        #: shared with the finalizer: how many events reached the file.
        self._flush_state = {"flushed": 0}
        self._finalizer: Optional[weakref.finalize] = None
        if path is not None:
            self._finalizer = weakref.finalize(
                self,
                _flush_pending,
                path,
                self.events,
                self._lock,
                self.header,
                self._flush_state,
            )

    # -- internals ---------------------------------------------------------

    def _now(self) -> float:
        return self._clock() - self._epoch

    def _allocate_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current_parent(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- context propagation -----------------------------------------------

    def current_context(self) -> SpanContext:
        """The innermost open span of *this* thread, as a portable handle."""
        if not self.enabled:
            return NULL_CONTEXT
        return SpanContext(self._current_parent())

    @contextmanager
    def attach(self, context: Optional[SpanContext]) -> Iterator[None]:
        """Parent this thread's subsequent spans under ``context``.

        The cross-thread half of trace propagation: a worker thread
        attaches the scheduling thread's context so its spans nest under
        the batch root instead of starting a disconnected tree."""
        if (
            not self.enabled
            or context is None
            or context.span_id is None
        ):
            yield
            return
        stack = self._stack()
        stack.append(context.span_id)
        try:
            yield
        finally:
            stack.pop()

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(
        self,
        name: str,
        /,
        *,
        parent: Optional[SpanContext] = None,
        **attrs: Any,
    ) -> Iterator[Optional[TraceEvent]]:
        """Open a nested span; its duration is set when the block exits.

        ``parent`` overrides the thread's implicit nesting for this span
        only (children opened inside still nest under it normally)."""
        if not self.enabled:
            yield None
            return
        parent_id = (
            parent.span_id if parent is not None else self._current_parent()
        )
        event = TraceEvent(
            name=name,
            span_id=self._allocate_id(),
            parent_id=parent_id,
            start=self._now(),
            attrs=dict(attrs),
            thread=threading.current_thread().name,
        )
        stack = self._stack()
        stack.append(event.span_id)
        try:
            yield event
        finally:
            stack.pop()
            event.duration = self._now() - event.start
            with self._lock:
                self.events.append(event)

    def event(self, name: str, /, **attrs: Any) -> None:
        """Record a point event under the current span."""
        if not self.enabled:
            return
        event = TraceEvent(
            name=name,
            span_id=self._allocate_id(),
            parent_id=self._current_parent(),
            start=self._now(),
            attrs=dict(attrs),
            thread=threading.current_thread().name,
        )
        with self._lock:
            self.events.append(event)

    # -- output ------------------------------------------------------------

    def to_jsonl(self, include_header: bool = False) -> str:
        """All events, start-ordered, one JSON object per line."""
        with self._lock:
            ordered = sorted(self.events, key=lambda e: e.start)
            lines = [json.dumps(e.to_dict(), sort_keys=True) for e in ordered]
        if include_header:
            lines.insert(0, json.dumps(self.header, sort_keys=True))
        return "\n".join(lines)

    def write(self, path: str) -> int:
        """Write header + events (start-ordered) to ``path``; returns the
        event count (the header record is not counted)."""
        text = self.to_jsonl(include_header=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        with self._lock:
            if path == self.path:
                # The bound file now holds everything; the finalizer and
                # later flushes must not append duplicates.
                self._flush_state["flushed"] = len(self.events)
            return len(self.events)

    def flush(self) -> int:
        """Append completed-but-unwritten events to the bound ``path``.

        The first flush (re)writes the file with the header record first;
        later flushes append, so a long-running session can stream its
        trace incrementally (events land in completion order). Returns
        the number of events written; no-op (0) without a ``path``."""
        if self.path is None:
            return 0
        return _flush_pending(
            self.path, self.events, self._lock, self.header,
            self._flush_state,
        )

    def close(self) -> int:
        """Flush the bound file and detach the exit finalizer (idempotent).

        Returns the number of events written by the final flush."""
        if self.path is None:
            return 0
        written = self.flush()
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        return written

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


#: The default, disabled tracer.
NULL_TRACER = Tracer(enabled=False)
