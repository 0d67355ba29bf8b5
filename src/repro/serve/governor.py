"""Resource governance: budgets, cooperative cancellation, admission.

The paper's pipeline makes shared-subexpression exploitation *strictly
optional*: the no-sharing plan is always a valid plan, so any failure of
the sharing machinery can degrade gracefully instead of failing the batch
(Roy et al.; Kathuria & Sudarshan). This module supplies the mechanisms the
:class:`~repro.api.Session` uses to make that contract operational under
heavy traffic:

* :class:`QueryBudget` — declarative per-batch limits: a wall-clock
  deadline, an optimizer deadline, and row/spool-size budgets.
* :class:`CancellationToken` — the budget instantiated for one run. It is
  threaded through :class:`~repro.executor.runtime.ExecutionContext` and
  checked cooperatively inside the executor iterators (one flag test plus
  one clock read per operator), so a runaway spool materialization or a
  pathological plan stops at the next operator boundary rather than
  stalling a whole parallel batch. Tokens are shared across every task of
  a parallel execution: cancelling one cancels the DAG.
* :class:`ResourceGovernor` — admission control: at most ``max_concurrent``
  batches execute at once, at most ``max_queue`` wait (bounded, optionally
  with a wait timeout); everything beyond that is rejected with
  :class:`~repro.errors.AdmissionError` instead of piling onto the pool.

All governor activity is observable through the session's
:class:`~repro.obs.MetricsRegistry` (``governor.*`` counters, gauges, and
histograms — exported via the existing Prometheus path) and, for
fallbacks, a ``governor_fallback`` event on the session's
:class:`~repro.obs.Tracer`.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from time import monotonic
from typing import Deque, Iterator, Optional

from ..errors import (
    AdmissionError,
    BudgetExceededError,
    GovernorError,
    QueryCancelledError,
    QueryTimeoutError,
)
from ..obs import NULL_REGISTRY, MetricsRegistry


@dataclass(frozen=True)
class QueryBudget:
    """Declarative per-batch resource limits (all optional).

    ``deadline_ms`` bounds the whole optimize+execute wall time;
    ``optimizer_deadline_ms`` additionally bounds just the optimizer (on
    expiry the batch is re-optimized without CSEs rather than failed).
    ``max_spool_rows`` / ``max_spool_bytes`` cap the total rows/bytes
    materialized into shared spools; ``max_rows`` caps the total rows
    flowing out of operators. With ``allow_fallback`` (the default), an
    optimizer failure or a spool-budget bust degrades to the paper's
    no-sharing baseline plan; deadline expiry always raises
    :class:`~repro.errors.QueryTimeoutError`."""

    deadline_ms: Optional[float] = None
    optimizer_deadline_ms: Optional[float] = None
    max_spool_rows: Optional[int] = None
    max_spool_bytes: Optional[float] = None
    max_rows: Optional[int] = None
    allow_fallback: bool = True

    def __post_init__(self) -> None:
        for name in ("deadline_ms", "optimizer_deadline_ms"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise GovernorError(f"{name} must be positive, got {value}")
        for name in ("max_spool_rows", "max_spool_bytes", "max_rows"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise GovernorError(
                    f"{name} must be non-negative, got {value}"
                )

    def start(self) -> "CancellationToken":
        """A fresh token for one run, with the deadline armed from now."""
        deadline = (
            monotonic() + self.deadline_ms / 1000.0
            if self.deadline_ms is not None
            else None
        )
        return CancellationToken(deadline=deadline, budget=self)

    def optimizer_deadline(self, token: Optional["CancellationToken"]) -> Optional[float]:
        """The absolute optimizer deadline: the earlier of the optimizer's
        own allowance and the run's overall deadline."""
        candidates = []
        if self.optimizer_deadline_ms is not None:
            candidates.append(monotonic() + self.optimizer_deadline_ms / 1000.0)
        if token is not None and token.deadline is not None:
            candidates.append(token.deadline)
        return min(candidates) if candidates else None


class CancellationToken:
    """Shared cancellation/budget state for one batch execution.

    Thread-safe: one token is shared by every task of a parallel
    execution. :meth:`check` is the cooperative checkpoint — one cancelled
    flag test plus (when a deadline is set) one monotonic clock read — so
    calling it per operator invocation keeps overhead in the noise.
    Budget charges (:meth:`charge_rows`, :meth:`charge_spool`) cancel the
    token on exhaustion so sibling tasks abort at their next checkpoint.
    """

    __slots__ = (
        "deadline",
        "budget",
        "charges_rows",
        "_lock",
        "_cancelled",
        "_reason",
        "_error_type",
        "_rows",
        "_spool_rows",
        "_spool_bytes",
    )

    def __init__(
        self,
        deadline: Optional[float] = None,
        budget: Optional[QueryBudget] = None,
    ) -> None:
        #: absolute :func:`time.monotonic` deadline, or None.
        self.deadline = deadline
        self.budget = budget
        #: precomputed so the executor skips row counting entirely when no
        #: row budget is set.
        self.charges_rows = budget is not None and budget.max_rows is not None
        self._lock = threading.Lock()
        self._cancelled = False
        self._reason = ""
        self._error_type = QueryCancelledError
        self._rows = 0
        self._spool_rows = 0
        self._spool_bytes = 0.0

    # -- cancellation ------------------------------------------------------

    @property
    def cancelled(self) -> bool:
        """True once the token was cancelled (any reason)."""
        return self._cancelled

    @property
    def reason(self) -> str:
        """The first cancellation reason, or '' while live."""
        return self._reason

    def cancel(
        self,
        reason: str = "cancelled",
        error_type: type = QueryCancelledError,
    ) -> None:
        """Cancel cooperatively: every subsequent :meth:`check` raises
        ``error_type(reason)``. The first cancellation wins."""
        with self._lock:
            if self._cancelled:
                return
            self._cancelled = True
            self._reason = reason
            self._error_type = error_type

    def check(self) -> None:
        """Raise if cancelled or past the deadline (the cooperative
        checkpoint called from the executor's operator loop)."""
        if self._cancelled:
            raise self._error_type(self._reason)
        deadline = self.deadline
        if deadline is not None and monotonic() >= deadline:
            self.cancel(
                "query deadline exceeded", error_type=QueryTimeoutError
            )
            raise QueryTimeoutError("query deadline exceeded")

    def remaining_seconds(self) -> Optional[float]:
        """Seconds until the deadline (None when unbounded)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - monotonic())

    def for_retry(self) -> "CancellationToken":
        """A fresh token for a fallback re-execution: keeps the original
        absolute deadline (the whole call stays bounded) but drops the
        budget limits — the no-sharing plan materializes no spools."""
        return CancellationToken(deadline=self.deadline)

    # -- budget charges ----------------------------------------------------

    @property
    def rows_charged(self) -> int:
        """Total operator-output rows charged so far (0 without a row
        budget) — the evidence the charge-exactly-once tests audit."""
        return self._rows

    def charge_rows(self, rows: int) -> None:
        """Charge ``rows`` operator-output rows against ``max_rows``."""
        budget = self.budget
        if budget is None or budget.max_rows is None:
            return
        with self._lock:
            self._rows += rows
            total = self._rows
        if total > budget.max_rows:
            message = (
                f"row budget exceeded: {total} rows > "
                f"max_rows={budget.max_rows}"
            )
            self.cancel(message, error_type=BudgetExceededError)
            raise BudgetExceededError(message)

    def charge_spool(self, rows: int, size_bytes: float) -> None:
        """Charge one spool materialization against the spool budgets."""
        budget = self.budget
        if budget is None or (
            budget.max_spool_rows is None and budget.max_spool_bytes is None
        ):
            return
        with self._lock:
            self._spool_rows += rows
            self._spool_bytes += size_bytes
            message = None
            # A zero row budget forbids materialization outright — even an
            # empty spool (a consumer whose predicate selects no rows) must
            # degrade to the no-sharing baseline, or the `> 0` comparison
            # below would admit it.
            if budget.max_spool_rows == 0:
                message = (
                    "spool budget exceeded: spool materialized with "
                    "max_spool_rows=0"
                )
            elif (
                budget.max_spool_rows is not None
                and self._spool_rows > budget.max_spool_rows
            ):
                message = (
                    f"spool budget exceeded: {self._spool_rows} rows > "
                    f"max_spool_rows={budget.max_spool_rows}"
                )
            elif (
                budget.max_spool_bytes is not None
                and self._spool_bytes > budget.max_spool_bytes
            ):
                message = (
                    f"spool budget exceeded: {self._spool_bytes:.0f} bytes > "
                    f"max_spool_bytes={budget.max_spool_bytes}"
                )
        if message is not None:
            self.cancel(message, error_type=BudgetExceededError)
            raise BudgetExceededError(message)


class ResourceGovernor:
    """Admission control: bounded concurrency with a bounded FIFO queue.

    At most ``max_concurrent`` batches run at once. Up to ``max_queue``
    further batches wait, each for at most ``queue_timeout_ms`` (None =
    indefinitely); anything beyond either bound is rejected with
    :class:`~repro.errors.AdmissionError`.

    Queue order is *deterministic FIFO*: each waiter takes a ticket on
    arrival and a released slot always goes to the oldest waiting ticket.
    (A bare ``Semaphore`` makes no wake-up ordering promise — under
    contention waiters raced and admission order was whatever the OS
    scheduler picked; the micro-batching coordinator sits behind this
    queue, so arrival order must survive admission for its windows to be
    reproducible.) A new arrival never barges past existing waiters even
    when a slot is momentarily free.

    Metrics (``governor.*``): ``admitted`` / ``rejected`` counters, an
    ``active`` gauge, and a ``queue_wait_seconds`` histogram.
    """

    def __init__(
        self,
        max_concurrent: int = 4,
        max_queue: int = 16,
        queue_timeout_ms: Optional[float] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_concurrent < 1:
            raise GovernorError("max_concurrent must be positive")
        if max_queue < 0:
            raise GovernorError("max_queue must be non-negative")
        if queue_timeout_ms is not None and queue_timeout_ms <= 0:
            raise GovernorError("queue_timeout_ms must be positive")
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self.queue_timeout_ms = queue_timeout_ms
        self.registry = registry or NULL_REGISTRY
        self._cond = threading.Condition(threading.Lock())
        #: waiting tickets in arrival order; the head is next to admit.
        self._queue: Deque[int] = deque()
        self._next_ticket = 0
        self._active = 0

    @property
    def active(self) -> int:
        """Batches currently admitted (executing)."""
        with self._cond:
            return self._active

    @property
    def waiting(self) -> int:
        """Batches currently queued for admission."""
        with self._cond:
            return len(self._queue)

    def _admit_or_enqueue(self) -> Optional[int]:
        """Fast path under the lock: admit now (None) or return a ticket.

        Raises :class:`AdmissionError` when the queue is full."""
        with self._cond:
            # Admit immediately only when no one is already waiting — a
            # free slot must go to the queue head, not a new arrival.
            if self._active < self.max_concurrent and not self._queue:
                self._active += 1
                return None
            if len(self._queue) >= self.max_queue:
                self.registry.counter("governor.rejected")
                raise AdmissionError(
                    f"admission queue full ({len(self._queue)} waiting, "
                    f"max_queue={self.max_queue})"
                )
            ticket = self._next_ticket
            self._next_ticket += 1
            self._queue.append(ticket)
            return ticket

    def _wait_for_turn(self, ticket: int) -> None:
        """Block until ``ticket`` reaches the head with a free slot."""
        deadline = (
            monotonic() + self.queue_timeout_ms / 1000.0
            if self.queue_timeout_ms is not None
            else None
        )
        with self._cond:
            while not (
                self._queue[0] == ticket
                and self._active < self.max_concurrent
            ):
                remaining = (
                    None if deadline is None else deadline - monotonic()
                )
                if remaining is not None and remaining <= 0:
                    self._queue.remove(ticket)
                    # Our departure may unblock the new head.
                    self._cond.notify_all()
                    self.registry.counter("governor.rejected")
                    raise AdmissionError(
                        f"admission wait exceeded {self.queue_timeout_ms}ms "
                        f"({self.max_concurrent} batches active)"
                    )
                self._cond.wait(timeout=remaining)
            self._queue.popleft()
            self._active += 1
            # Further slots may be free (several releases can land before
            # the head wakes); let the next ticket re-check.
            self._cond.notify_all()

    @contextmanager
    def admit(self) -> Iterator["ResourceGovernor"]:
        """Acquire an execution slot for one batch (context manager)."""
        ticket = self._admit_or_enqueue()
        start = monotonic()
        if ticket is not None:
            self._wait_for_turn(ticket)
        self.registry.counter("governor.admitted")
        self.registry.observe(
            "governor.queue_wait_seconds", monotonic() - start
        )
        with self._cond:
            self.registry.gauge("governor.active", self._active)
        try:
            yield self
        finally:
            with self._cond:
                self._active -= 1
                self.registry.gauge("governor.active", self._active)
                self._cond.notify_all()
