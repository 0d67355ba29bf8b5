"""A thread-safe, bounded LRU cache of optimization results.

A warm :meth:`repro.api.Session.execute` skips the optimizer entirely: the
chosen :class:`~repro.optimizer.engine.OptimizationResult` is returned from
here and re-executed. Entries are keyed by
(batch fingerprint, catalog version, config key) — see
:mod:`repro.serve.fingerprint` — and remember which physical tables their
batch reads so a mutation of one table only invalidates the plans that
could observe it.

An insert that keeps the written table's facts (its verified key) evicts
nothing: a plan depends on which tables it reads, not on what they hold.
The entries reading that table are marked instead, and the first
execution of a marked entry judges it (:class:`PlanCheck`): measured ÷
estimated cost units outside :data:`REPLAN_BAND`, or a spool whose
measured benefit came out negative, evicts the entry so the next lookup
re-optimizes it once; otherwise the mark is cleared. Any other mutation
(a key-breaking insert, ``load``, DDL, ``analyze``) evicts every plan
reading the table.

Every lookup increments exactly one of ``plan_cache.hit`` /
``plan_cache.miss`` in the session's :class:`MetricsRegistry`; evictions,
invalidations and judged-out entries are counted as
``plan_cache.eviction`` / ``plan_cache.invalidation`` /
``plan_cache.replan``. The same totals are kept locally (``hits``,
``misses``, …) so the cache is observable even with the null registry.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, Optional, Tuple

from ..logical.blocks import BoundBatch
from ..obs import NULL_REGISTRY, MetricsRegistry, Tracer
from ..optimizer.engine import OptimizationResult
from ..storage.database import Database
from .fingerprint import CacheKey, batch_tables, cache_key

if TYPE_CHECKING:  # avoid the serve → api → serve import cycle
    from ..api import Session


@dataclass
class CacheEntry:
    """One cached optimization result plus its invalidation scope."""

    result: OptimizationResult
    tables: FrozenSet[str]
    #: the batch the result was optimized from. Its only job is to keep
    #: that batch's statement memo (parse, bind, fingerprint) alive for
    #: exactly as long as this entry: a repeat of the text is then served
    #: without re-parsing, and eviction or invalidation frees the memo.
    batch: Optional[BoundBatch] = None
    #: fact-keeping appends to the entry's tables since its last judged
    #: run; non-zero marks the entry "written since optimized".
    writes: int = 0


#: The measured ÷ estimated cost units a written-to entry may show on its
#: first run and stay cached; the band cost estimates have stayed inside
#: on every workload since verified keys became optimizer facts.
REPLAN_BAND = (0.8, 1.25)


@dataclass
class PlanCheck:
    """The pending judgement of a marked entry's first run after a write.

    Handed out by :func:`cached_optimize` with a hit on a marked entry; the
    caller settles it with the run's measured cost units and sharing ledger
    once the whole run is done, or drops it when the run degraded or fell
    back (such a run says nothing about the plan)."""

    cache: "PlanCache"
    key: CacheKey
    entry: CacheEntry
    #: ``entry.writes`` at the lookup: a write landing during the run
    #: leaves the mark for the next run to judge.
    writes: int

    def settle(
        self, measured_units: float, ledger: Dict[str, Any], tracer: Tracer
    ) -> None:
        """Judge the run; an eviction emits a ``plan_cache_replan`` trace
        event carrying the measured ÷ estimated ratio."""
        est_cost = self.entry.result.est_cost
        ratio = measured_units / est_cost if est_cost > 0 else 1.0
        negative = any(spool["negative"] for spool in ledger["spools"])
        low, high = REPLAN_BAND
        if self.cache.settle(self, negative or not low <= ratio <= high):
            tracer.event(
                "plan_cache_replan",
                fingerprint=self.key[0][:12],
                ratio=round(ratio, 4),
                negative_spool=negative,
            )


class PlanCache:
    """Bounded LRU mapping cache keys to optimization results."""

    def __init__(
        self,
        capacity: int = 64,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be positive")
        self.capacity = capacity
        self.registry = registry or NULL_REGISTRY
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.replans = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- lookups -----------------------------------------------------------

    def get(self, key: CacheKey) -> Optional[OptimizationResult]:
        """The cached result for ``key``, or None; counts hit or miss."""
        entry = self.lookup(key)
        return entry.result if entry is not None else None

    def lookup(self, key: CacheKey) -> Optional[CacheEntry]:
        """The cached entry for ``key``, or None; counts hit or miss."""
        start = perf_counter()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                hit = False
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                hit = True
        # Registry has its own lock; never call it while holding ours.
        self.registry.counter("plan_cache.hit" if hit else "plan_cache.miss")
        if hit:
            self.registry.observe(
                "plan_cache.hit_seconds", perf_counter() - start
            )
        return entry

    def put(
        self,
        key: CacheKey,
        result: OptimizationResult,
        tables: FrozenSet[str],
        batch: Optional[BoundBatch] = None,
    ) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail if full.

        ``batch`` is the bound batch ``result`` was optimized from; the
        entry keeps it (and so its statement memo) alive."""
        evicted = 0
        # Invalidation matches on lowercased table names; normalize here so
        # a batch bound against mixed-case DDL still invalidates.
        tables = frozenset(t.lower() for t in tables)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = CacheEntry(result, tables, batch)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
        if evicted:
            self.registry.counter("plan_cache.eviction", evicted)

    # -- invalidation ------------------------------------------------------

    def table_written(self, table: Optional[str], facts_kept: bool) -> None:
        """The :class:`~repro.storage.database.Database` mutation hook:
        mark the entries reading ``table`` after a fact-keeping append,
        drop them after any other mutation (:meth:`invalidate`)."""
        if table is None or not facts_kept:
            self.invalidate(table)
            return
        with self._lock:
            for entry in self._entries.values():
                if table in entry.tables:
                    entry.writes += 1

    def settle(self, check: PlanCheck, replan: bool) -> bool:
        """Close ``check``: evict its entry when ``replan`` (True returned),
        else clear the mark unless another write landed since the lookup.
        An entry already gone or replaced is left alone."""
        with self._lock:
            if self._entries.get(check.key) is not check.entry:
                return False
            if not replan:
                if check.entry.writes == check.writes:
                    check.entry.writes = 0
                return False
            del self._entries[check.key]
            self.replans += 1
        self.registry.counter("plan_cache.replan")
        return True

    def invalidate(self, table: Optional[str] = None) -> int:
        """Drop entries reading ``table`` (all entries when None).

        :meth:`table_written` calls it for every mutation but a
        fact-keeping append, so a key-breaking insert, a ``load`` or DDL on
        one table removes exactly the plans whose batches touch it.
        Returns the number of entries dropped."""
        with self._lock:
            if table is None:
                dropped = len(self._entries)
                self._entries.clear()
            else:
                key_name = table.lower()
                stale = [
                    key
                    for key, entry in self._entries.items()
                    if key_name in entry.tables
                ]
                for key in stale:
                    del self._entries[key]
                dropped = len(stale)
            self.invalidations += dropped
        if dropped:
            self.registry.counter("plan_cache.invalidation", dropped)
        return dropped

    def clear(self) -> None:
        """Drop everything without counting invalidations."""
        with self._lock:
            self._entries.clear()


def register_invalidation(database: Database, cache: PlanCache) -> None:
    """Hook a plan cache to a database's mutation stream.

    The listener holds the cache weakly so sessions sharing a long-lived
    database (the test fixtures, a server process) do not leak caches:
    once a cache is collected, the first subsequent mutation unregisters
    the listener."""
    cache_ref = weakref.ref(cache)

    def _listener(table, facts_kept):
        target = cache_ref()
        if target is None:
            database.remove_mutation_listener(_listener)
        else:
            target.table_written(table, facts_kept)

    database.add_mutation_listener(_listener)


def cached_optimize(
    cache: Optional[PlanCache],
    session: "Session",
    batch: BoundBatch,
    hit_event: str,
    deadline: Optional[float] = None,
) -> "Tuple[OptimizationResult, bool, Optional[PlanCheck]]":
    """A (result, was_cache_hit, check) triple; a hit skips the optimizer.

    ``check`` is set on a hit of an entry written since it was optimized:
    the caller settles it after the run (:class:`PlanCheck`). The key
    snapshots the catalog version current at this call. A plan
    optimized under a ``deadline`` is cached only when the optimizer
    *finished* (expiry raises before reaching the put), so the cache never
    holds a partially optimized plan. ``hit_event`` is the trace event
    emitted on a hit; ``cache=None`` (caching off) always optimizes."""
    if cache is None:
        return session.optimize(batch, deadline=deadline), False, None
    key = cache_key(batch, session.database, session.options, session.cost_model)
    entry = cache.lookup(key)
    if entry is not None:
        session.tracer.event(hit_event, fingerprint=key[0][:12])
        writes = entry.writes
        check = PlanCheck(cache, key, entry, writes) if writes else None
        return entry.result, True, check
    result = session.optimize(batch, deadline=deadline)
    cache.put(key, result, batch_tables(batch), batch)
    return result, False, None
