"""Cross-session work sharing: dynamic micro-batching of in-flight queries.

The paper's machinery shares subexpressions *within* one submitted batch.
This module widens the sharing boundary to *concurrent sessions*: queries
that arrive close together in time — from different connections — are held
for a short micro-batching window, merged into one logical batch, optimized
once (Steps 1–3 run over the union, so cross-session common subexpressions
are detected exactly like intra-batch ones), and executed with each shared
spool materialized once and served to every consumer.

Protocol (one :class:`_Group` per window):

1. An arriving query joins an open group when its base-table set
   intersects the group's — the coarse Step-1 filter: a common
   subexpression requires a common base table, so table-disjoint queries
   gain nothing from a merged optimization and would only pay its
   latency. The first arrival becomes the *leader* and owns the window
   timer; later arrivals are *followers*.
2. The leader waits ``window_ms`` (or until ``max_group`` consumers have
   joined), closes the group, binds the concatenated SQL under
   slot-prefixed query names, optimizes it once (through the
   coordinator's own plan cache, keyed *after* the window closes so a
   mid-window catalog mutation re-keys the merged plan), and runs the
   merged bundle's producer tasks (``Executor.execute(spools_only=True)``)
   so every root spool is materialized exactly once, then published into
   a refcounted :class:`~repro.executor.runtime.SharedSpoolPool`.
3. Every consumer — leader included — then runs only *its own* query
   tasks on its own thread (``Executor.execute(queries=...)``) against a
   batch state holding the shared spools it attached (aliasing, never
   copying), after charging its own
   :class:`~repro.serve.governor.QueryBudget` for each spool it reads,
   exactly once, with the same amounts an isolated materialization would
   have charged. The last detach frees the spool.

Both phases are calls into the one task runner
(:mod:`repro.executor.executor`); this module owns only the window
protocol, the pool's refcounts, and the per-consumer charging.

Failure is never worse than not sharing: any error in the shared phase, or
a consumer's own budget bust, makes that consumer fall back to its
session's ordinary governed path (``submit`` returns ``None``).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Set, Tuple

from ..errors import ReproError
from ..executor.executor import BatchResult, BatchState
from ..executor.runtime import ExecutionMetrics, SharedSpoolPool
from ..executor.schedule import query_spool_read_counts
from ..obs import NULL_REGISTRY, MetricsRegistry, build_ledger
from ..storage.table import Table
from .cache import PlanCache, PlanCheck, cached_optimize, register_invalidation
from .fingerprint import batch_fingerprint, batch_tables, config_key

if TYPE_CHECKING:  # avoid the serve → api → serve import cycle
    from ..api import Session
    from ..logical.blocks import BoundBatch
    from ..optimizer.engine import OptimizationResult
    from ..storage.database import Database
    from .governor import QueryBudget


@dataclass
class SharedOutcome:
    """One consumer's share of a merged-batch execution."""

    #: the *merged* batch's optimization (plans for every consumer; this
    #: consumer's plans carry its ``s<slot>__`` name prefix).
    optimization: "OptimizationResult"
    #: this consumer's results, renamed back to its original query names.
    execution: BatchResult
    #: True when the merged plan came from the coordinator's plan cache.
    plan_cache_hit: bool
    #: this consumer's sharing ledger record: spools priced over every
    #: consumer's planned reads, per-query parts for this consumer's
    #: queries only, and measured columns from this consumer's run (the
    #: one consumer that claimed the producer phase also carries the
    #: write side).
    ledger: Dict[str, Any]


@dataclass
class _Consumer:
    """One session's pending query inside a group."""

    session: "Session"
    sql: str
    batch: "BoundBatch"
    budget: Optional["QueryBudget"]
    collect_op_stats: bool
    slot: int = 0


@dataclass
class _SharedRun:
    """Everything the consumers need after the leader's shared phase."""

    result: "OptimizationResult"
    cache_hit: bool
    pool: SharedSpoolPool
    #: root-level (cross-query) spool ids — the only ones served from the
    #: pool; spools nested inside one query's plan stay private to it.
    root_ids: FrozenSet[str]
    #: prefixed query name -> {cse_id: planned reads}.
    reads: Dict[str, Dict[str, int]]
    #: the producer phase's batch state (scan manager, spool span ids)
    #: minus its spool map — the pool owns the tables, so the last detach
    #: really frees them.
    state: BatchState
    #: producer-phase metrics (spool materializations, shared scans),
    #: already published to the registry by the producer's execute. The
    #: first consumer to *complete* claims them (under the group's lock)
    #: into its own result, so the completed outcomes still sum to an
    #: isolated execution whichever consumers fall back; None once claimed.
    producer_metrics: Optional[ExecutionMetrics]
    #: the plan-cache judgement owed when the merged entry was written
    #: since it was optimized; settled on the whole run by its last
    #: consumer to finish, the one that frees the last spool.
    check: Optional[PlanCheck] = None
    #: the whole run so far (producer plus every finished consumer) and
    #: how many consumers finished it or fell back, under the group lock.
    whole: ExecutionMetrics = field(default_factory=ExecutionMetrics)
    finished: int = 0
    fell_back: bool = False


class _Group:
    """An open micro-batching window: its consumers and lifecycle events."""

    def __init__(self, tables: Set[str]) -> None:
        self.consumers: List[_Consumer] = []
        #: union of the consumers' physical base tables (the merge filter).
        self.tables = tables
        self.closed = False
        #: guards the one-shot claim of the producer phase's metrics.
        self.lock = threading.Lock()
        #: set when max_group is reached — wakes the leader early.
        self.full = threading.Event()
        #: set (always, via the leader's finally) once the shared phase
        #: settled — successfully, solo, or with an error.
        self.ready = threading.Event()
        self.error: Optional[BaseException] = None
        self.shared: Optional[_SharedRun] = None


class SharedBatchCoordinator:
    """Merges concurrent sessions' queries into shared optimizations.

    Sits *behind* admission control: a session calls :meth:`submit` inside
    its governor's admit block, so the window never holds un-admitted
    work and governor concurrency limits still bound total in-flight
    queries. One coordinator may be shared by any number of sessions over
    the same database; buckets are keyed by (database identity, optimizer
    configuration) so only plan-compatible queries ever merge.

    ``window_ms`` is the micro-batching latency bound: the first arrival
    waits at most that long for sharing partners. ``0`` disables the
    coordinator entirely (every ``submit`` returns ``None``).
    """

    def __init__(
        self,
        window_ms: float = 5.0,
        max_group: int = 8,
        registry: Optional[MetricsRegistry] = None,
        plan_cache_size: int = 64,
    ) -> None:
        self.window_ms = float(window_ms)
        self.max_group = max(2, int(max_group))
        self.registry = registry or NULL_REGISTRY
        self.plan_cache_size = plan_cache_size
        self._lock = threading.Lock()
        #: (id(database), config key) -> open groups, newest last; a bucket
        #: is dropped with its last group, so it never outlives a window.
        self._open: Dict[Tuple[int, str], List[_Group]] = {}
        #: database -> plan cache for merged batches over it, dropped with
        #: the database (an id key would serve a dead database's plans to
        #: a new one that reuses its id).
        self._caches: "weakref.WeakKeyDictionary[Database, PlanCache]" = (
            weakref.WeakKeyDictionary()
        )

    @property
    def enabled(self) -> bool:
        """False when the window is zero (micro-batching off)."""
        return self.window_ms > 0

    def note_bypass(self) -> None:
        """Record a query that was gated out of the shared path."""
        self.registry.counter("coordinator.bypass")

    # -- window protocol ---------------------------------------------------

    def submit(
        self,
        session: "Session",
        sql: str,
        batch: "BoundBatch",
        budget: Optional["QueryBudget"] = None,
        collect_op_stats: bool = False,
    ) -> Optional[SharedOutcome]:
        """Offer one query batch for cross-session sharing.

        Blocks for at most the micro-batching window (leader) or until the
        group's shared phase settles (follower). Returns this consumer's
        :class:`SharedOutcome`, or ``None`` when the query should run on
        the session's ordinary path instead (coordinator disabled, solo
        window, shared-phase error, or this consumer's own budget bust)."""
        if not self.enabled:
            return None
        tables = set(batch_tables(batch))
        bucket = (id(session.database), config_key(session.options, session.cost_model))
        consumer = _Consumer(session, sql, batch, budget, collect_op_stats)
        group, leader = self._enlist(bucket, consumer, tables)
        if not leader:
            group.ready.wait()
        else:
            try:
                self._run_window(bucket, group, consumer.session)
            finally:
                group.ready.set()
        if group.error is not None or group.shared is None:
            return None
        return self._consume(group, consumer)

    def _enlist(
        self,
        bucket: Tuple[int, str],
        consumer: _Consumer,
        tables: Set[str],
    ) -> Tuple[_Group, bool]:
        """Join a table-overlapping open group, or open one as leader."""
        with self._lock:
            groups = self._open.setdefault(bucket, [])
            for group in groups:
                if not group.closed and (group.tables & tables):
                    consumer.slot = len(group.consumers)
                    group.consumers.append(consumer)
                    group.tables |= tables
                    if len(group.consumers) >= self.max_group:
                        group.closed = True
                        self._close_locked(bucket, group)
                        group.full.set()
                    return group, False
            group = _Group(tables)
            group.consumers.append(consumer)
            groups.append(group)
            return group, True

    def _close_locked(self, bucket: Tuple[int, str], group: _Group) -> None:
        """Take a closing group out of its bucket (caller holds the lock)."""
        groups = self._open.get(bucket)
        if groups and group in groups:
            groups.remove(group)
            if not groups:
                del self._open[bucket]

    def _run_window(
        self, bucket: Tuple[int, str], group: _Group, session: "Session"
    ) -> None:
        """Leader side: wait out the window, close, run the shared phase."""
        wait_start = perf_counter()
        group.full.wait(self.window_ms / 1000.0)
        with self._lock:
            group.closed = True
            self._close_locked(bucket, group)
        self.registry.counter("coordinator.windows")
        self.registry.observe(
            "coordinator.window_wait_seconds", perf_counter() - wait_start
        )
        self.registry.observe(
            "coordinator.group_size", float(len(group.consumers))
        )
        if len(group.consumers) == 1:
            # Nobody showed up: run on the ordinary path — the shared
            # machinery would only add overhead to an unshared query.
            self.registry.counter("coordinator.solo_windows")
            return
        self.registry.counter("coordinator.merged_batches")
        self.registry.counter(
            "coordinator.merged_consumers", len(group.consumers)
        )
        try:
            group.shared = self._produce(group, session)
        except Exception as error:  # noqa: BLE001 — sharing must never
            # fail a query the ordinary path could have served: every
            # consumer falls back and re-runs unshared.
            group.error = error
            self.registry.counter("coordinator.fallbacks")
            self.registry.counter("coordinator.fallback.shared_phase")
            session.tracer.event(
                "shared_fallback", stage="shared_phase",
                consumers=len(group.consumers), detail=str(error),
            )

    # -- shared phase (leader) ---------------------------------------------

    def _produce(self, group: _Group, session: "Session") -> _SharedRun:
        """Bind + optimize the merged batch; materialize spools once."""
        # Canonical slot order: sort consumers by their own batch
        # fingerprint so the merged batch's text — and therefore its
        # plan-cache key — depends only on *which* queries met in the
        # window, never on arrival order. Without this, every reshuffled
        # arrival of the same working set would be a cache miss.
        ordered = sorted(
            group.consumers, key=lambda c: batch_fingerprint(c.batch)
        )
        for slot, consumer in enumerate(ordered):
            consumer.slot = slot
        parts: List[str] = []
        names: List[str] = []
        for consumer in ordered:
            parts.append(consumer.sql.strip().rstrip(";").strip())
            names.extend(
                f"s{consumer.slot}__{q.name}" for q in consumer.batch.queries
            )
        with session.tracer.span(
            "share_window",
            consumers=len(group.consumers),
            queries=len(names),
        ):
            # One bind run over the concatenation gives the merged batch
            # consistent binder numbering; slot prefixes keep names unique
            # even when consumers submitted identical SQL.
            merged = session.bind(";\n".join(parts), names)
            # Keyed *after* the window closed, so the key snapshots the
            # catalog version current at optimization time: a table
            # mutation that lands mid-window bumps the version and
            # re-keys (and the mutation listener has already evicted any
            # stale merged entry).
            result, cache_hit, check = cached_optimize(
                self._plan_cache_for(session.database),
                session,
                merged,
                "shared_plan_cache_hit",
            )
            reads = query_spool_read_counts(result.bundle)
            run = self._materialize(session, result, reads)
            run.cache_hit, run.check = cache_hit, check
            session.tracer.event(
                "shared_merge",
                consumers=len(group.consumers),
                queries=len(names),
                spools=run.pool.published,
                cache_hit=cache_hit,
            )
            return run

    def _plan_cache_for(self, database) -> Optional[PlanCache]:
        if self.plan_cache_size <= 0:
            return None
        with self._lock:
            cache = self._caches.get(database)
            if cache is None:
                cache = PlanCache(self.plan_cache_size, registry=self.registry)
                self._caches[database] = cache
                register_invalidation(database, cache)
            return cache

    def _materialize(
        self,
        session: "Session",
        result: "OptimizationResult",
        reads: Dict[str, Dict[str, int]],
    ) -> _SharedRun:
        """Producer phase: every root spool, exactly once, into the pool."""
        executor = session.executor()
        state = executor.batch_state()
        # Ungoverned on purpose: each *consumer* charges its own budget
        # for the spools it reads at attach time, exactly once — the
        # producer must not double-charge the leader.
        produced = executor.execute(
            result.bundle, state=state, spools_only=True
        )
        pool = SharedSpoolPool()
        # Refcount = number of distinct consumers whose plans read the
        # spool (a consumer attaches once however many reads it performs).
        consumers_of: Dict[str, Set[str]] = {}
        for qname, counts in reads.items():
            slot = qname.split("__", 1)[0]
            for cse_id in counts:
                consumers_of.setdefault(cse_id, set()).add(slot)
        for cse_id, table in state.spools.items():
            pool.publish(cse_id, table, len(consumers_of.get(cse_id, ())))
        self.registry.counter("coordinator.spools_published", pool.published)
        if pool.freed:
            # Spools no query reads (only other spools' bodies did, in the
            # producer phase) are dropped at publication, never detached.
            self.registry.counter("coordinator.spools_freed", pool.freed)
        return _SharedRun(
            result=result,
            cache_hit=False,
            pool=pool,
            root_ids=frozenset(state.spools),
            reads=reads,
            state=replace(state, spools={}),
            producer_metrics=produced.metrics,
        )

    # -- consumer phase (every thread) -------------------------------------

    def _consume(
        self, group: _Group, consumer: _Consumer
    ) -> Optional[SharedOutcome]:
        """Run this consumer's plans against the shared spools."""
        shared = group.shared
        assert shared is not None
        session = consumer.session
        prefix = f"s{consumer.slot}__"
        my_plans = [
            qp for qp in shared.result.bundle.queries
            if qp.name.startswith(prefix)
        ]
        my_spools = sorted(
            {
                cse_id
                for qp in my_plans
                for cse_id in shared.reads.get(qp.name, ())
                if cse_id in shared.root_ids
            }
        )
        token = consumer.budget.start() if consumer.budget is not None else None
        attached: Dict[str, Table] = {}
        try:
            with session.tracer.span(
                "shared_consume", slot=consumer.slot, queries=len(my_plans)
            ):
                for cse_id in my_spools:
                    table = shared.pool.attach(cse_id)
                    attached[cse_id] = table
                    if token is not None:
                        # Mirror the charge an isolated run pays at
                        # materialization, once per consumer per spool.
                        token.charge_spool(
                            table.row_count,
                            table.row_count * table.row_width(),
                        )
                execution = session.executor().execute(
                    shared.result.bundle,
                    consumer.collect_op_stats,
                    token=token,
                    # A copy: query tasks add their inline spools to the
                    # state's map, and only attached ids may be detached.
                    state=replace(shared.state, spools=dict(attached)),
                    queries={qp.name for qp in my_plans},
                )
        except ReproError as error:
            # This consumer's own budget/limits tripped; its session
            # re-runs it unshared under a fresh token (the shared-attempt
            # charges are discarded with this token).
            self.registry.counter("coordinator.fallbacks")
            self.registry.counter("coordinator.fallback.consumer")
            session.tracer.event(
                "shared_fallback", stage="consumer", slot=consumer.slot,
                detail=str(error),
            )
            execution = None
        finally:
            for cse_id in attached:
                if shared.pool.detach(cse_id):
                    self.registry.counter("coordinator.spools_freed")
                    session.tracer.event("shared_spool_freed", spool=cse_id)
        if execution is None:
            self._finish(group, None, session)
            return None
        # Back to this consumer's own query names.
        execution.results = [
            replace(r, name=r.name[len(prefix):]) for r in execution.results
        ]
        execution.executed_plans = {
            name[len(prefix):]: plan
            for name, plan in execution.executed_plans.items()
        }
        with group.lock:
            produced, shared.producer_metrics = shared.producer_metrics, None
        if produced is not None:
            # Producer first, then this consumer: the accumulation order
            # of an isolated execution (spools, then queries).
            produced.merge(execution.metrics)
            execution.metrics = produced
        self._finish(group, execution.metrics, session)
        # Spools are priced over every consumer's planned reads (this
        # consumer's names de-prefixed): a spool's n is the merged batch's.
        ledger = build_ledger(
            shared.result.candidates,
            {
                name[len(prefix):] if name.startswith(prefix) else name: reads
                for name, reads in shared.reads.items()
            },
            execution.metrics.spool_stats,
            execution.metrics.scan_stats,
        )
        mine = {qp.name[len(prefix):] for qp in my_plans}
        ledger["queries"] = [
            q for q in ledger["queries"] if q["query"] in mine
        ]
        return SharedOutcome(
            optimization=shared.result,
            execution=execution,
            plan_cache_hit=shared.cache_hit,
            ledger=ledger,
        )

    def _finish(
        self,
        group: _Group,
        metrics: Optional[ExecutionMetrics],
        session: "Session",
    ) -> None:
        """Count one consumer out of the merged run (``metrics`` None: it
        fell back); the last one out settles the run's plan-cache check
        on the whole run — never on one consumer's part of it."""
        shared = group.shared
        if shared.check is None:
            return
        with group.lock:
            if metrics is None:
                shared.fell_back = True
            else:
                shared.whole.merge(metrics)
            shared.finished += 1
            last = shared.finished == len(group.consumers)
        if not last or shared.fell_back:
            return
        ledger = build_ledger(
            shared.result.candidates, shared.reads, shared.whole.spool_stats
        )
        shared.check.settle(shared.whole.cost_units, ledger, session.tracer)
