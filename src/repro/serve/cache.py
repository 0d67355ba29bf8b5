"""A thread-safe, bounded LRU cache of optimization results.

A warm :meth:`repro.api.Session.execute` skips the optimizer entirely: the
chosen :class:`~repro.optimizer.engine.OptimizationResult` is returned from
here and re-executed. Entries are keyed by
(batch fingerprint, catalog version, config key) — see
:mod:`repro.serve.fingerprint` — and remember which physical tables their
batch reads so a mutation of one table only invalidates the plans that
could observe it.

Every lookup increments exactly one of ``plan_cache.hit`` /
``plan_cache.miss`` in the session's :class:`MetricsRegistry`; evictions
and invalidations are counted as ``plan_cache.eviction`` /
``plan_cache.invalidation``. The same totals are kept locally (``hits``,
``misses``, …) so the cache is observable even with the null registry.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, FrozenSet, Optional, Tuple

from ..logical.blocks import BoundBatch
from ..obs import NULL_REGISTRY, MetricsRegistry
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

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- lookups -----------------------------------------------------------

    def get(self, key: CacheKey) -> Optional[OptimizationResult]:
        """The cached result for ``key``, or None; counts hit or miss."""
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
        return entry.result if entry is not None else None

    def put(
        self,
        key: CacheKey,
        result: OptimizationResult,
        tables: FrozenSet[str],
    ) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail if full."""
        evicted = 0
        # Invalidation matches on lowercased table names; normalize here so
        # a batch bound against mixed-case DDL still invalidates.
        tables = frozenset(t.lower() for t in tables)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = CacheEntry(result=result, tables=tables)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
        if evicted:
            self.registry.counter("plan_cache.eviction", evicted)

    # -- invalidation ------------------------------------------------------

    def invalidate(self, table: Optional[str] = None) -> int:
        """Drop entries reading ``table`` (all entries when None).

        This is the :class:`~repro.storage.database.Database` mutation hook:
        sessions register ``cache.invalidate`` as a mutation listener, so an
        ``insert``/``load``/DDL on one table removes exactly the plans whose
        batches touch it. Returns the number of entries dropped."""
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

    def _listener(table):
        target = cache_ref()
        if target is None:
            database.remove_mutation_listener(_listener)
        else:
            target.invalidate(table)

    database.add_mutation_listener(_listener)


def cached_optimize(
    cache: Optional[PlanCache],
    session: "Session",
    batch: BoundBatch,
    hit_event: str,
    deadline: Optional[float] = None,
) -> "Tuple[OptimizationResult, bool]":
    """A (result, was_cache_hit) pair; a hit skips the optimizer.

    The key snapshots the catalog version current at this call. A plan
    optimized under a ``deadline`` is cached only when the optimizer
    *finished* (expiry raises before reaching the put), so the cache never
    holds a partially optimized plan. ``hit_event`` is the trace event
    emitted on a hit; ``cache=None`` (caching off) always optimizes."""
    if cache is None:
        return session.optimize(batch, deadline=deadline), False
    key = cache_key(batch, session.database, session.options, session.cost_model)
    cached = cache.get(key)
    if cached is not None:
        session.tracer.event(hit_event, fingerprint=key[0][:12])
        return cached, True
    result = session.optimize(batch, deadline=deadline)
    cache.put(key, result, batch_tables(batch))
    return result, False
