"""Execution context and metrics.

The executor counts the *same* cost units the optimizer estimates (see
:mod:`repro.optimizer.cost`), against actual row counts. That makes the
"execution time" rows of the reproduced experiment tables deterministic and
hardware-independent, while wall-clock time is also reported for reference.

Two optional observability layers sit on top (both off by default and
near-free when off):

* ``ExecutionContext.op_stats`` — per-operator actuals (invocations, rows
  out, inclusive wall time), keyed by ``id(plan node)``, for EXPLAIN
  ANALYZE.
* ``ExecutionMetrics.spool_stats`` — per-CSE spool accounting (writes vs.
  reads, rows per read, cost-unit attribution per Definition 5.1), always
  collected: the property suite asserts sharing invariants on it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..obs import NULL_REGISTRY, NULL_TRACER, MetricsRegistry, OperatorStats, Tracer
from ..optimizer.cost import CostModel
from ..storage.database import Database
from ..storage.table import Table

if TYPE_CHECKING:  # avoid the executor → serve → executor import cycle
    from ..serve.governor import CancellationToken
    from .scans import ScanManager


@dataclass
class SpoolStats:
    """Materialization vs. consumption accounting for one CSE spool.

    Definition 5.1 splits a spool's cost into the *initial* cost (evaluate
    the body once and write it: ``C_E + C_W``) and the per-consumer *usage*
    cost (``C_R``). ``write_cost_units``/``read_cost_units`` are the
    measured counterparts of those two terms."""

    writes: int = 0
    reads: int = 0
    rows_written: int = 0
    rows_read: int = 0
    #: rows returned by each individual read — the property suite asserts
    #: every entry equals ``rows_written`` (producer rows == consumer rows).
    read_row_counts: List[int] = field(default_factory=list)
    write_cost_units: float = 0.0
    #: the ``C_E`` share of ``write_cost_units`` — the body-evaluation
    #: charge alone, before the write charge; the sharing ledger uses
    #: the split to compute measured Def 5.1 savings.
    body_cost_units: float = 0.0
    read_cost_units: float = 0.0
    materialize_wall_time: float = 0.0
    #: cumulative wall time spent inside spool reads (all consumers).
    read_wall_time: float = 0.0

    def merge(self, other: "SpoolStats") -> None:
        """Accumulate another spool's stats into this one."""
        self.writes += other.writes
        self.reads += other.reads
        self.rows_written += other.rows_written
        self.rows_read += other.rows_read
        self.read_row_counts.extend(other.read_row_counts)
        self.write_cost_units += other.write_cost_units
        self.body_cost_units += other.body_cost_units
        self.read_cost_units += other.read_cost_units
        self.materialize_wall_time += other.materialize_wall_time
        self.read_wall_time += other.read_wall_time


@dataclass
class ScanStats:
    """Shared-scan accounting for one (table, needed-columns) group.

    The scan-leaf analogue of :class:`SpoolStats`: Def 5.1 with
    ``C_W = 0`` (nothing is written — consumers alias the same arrays)
    and ``C_R ≈ 0``, so the saving is ``(n - 1) · C_E``. The fields are
    formulated so merged totals are identical whichever consumer task
    performed the physical fetch."""

    #: consumer-side resolutions of this group (one per scan execution).
    reads: int = 0
    #: physical fetches actually performed (1 per batch when shared).
    physical_scans: int = 0
    #: the table's row count (merge keeps the max, not the sum).
    rows: int = 0
    #: rows actually produced by physical fetches.
    rows_scanned: int = 0
    #: cost units charged for the physical work (scan + shared filter).
    cost_units: float = 0.0

    @property
    def shared(self) -> int:
        """Reads served without a physical scan."""
        return max(0, self.reads - self.physical_scans)

    @property
    def rows_saved(self) -> int:
        """Rows the consumers did not have to re-scan."""
        return max(0, self.rows * self.reads - self.rows_scanned)

    def merge(self, other: "ScanStats") -> None:
        self.reads += other.reads
        self.physical_scans += other.physical_scans
        self.rows = max(self.rows, other.rows)
        self.rows_scanned += other.rows_scanned
        self.cost_units += other.cost_units


class SharedSpoolPool:
    """Refcounted spool storage for one coordinator-merged batch.

    The cross-session coordinator materializes each shared spool exactly
    once (the producer phase), then serves every consumer from this pool.
    ``publish`` records how many consumers will read a spool; each
    consumer ``attach``-es the spool's table (aliasing, never copying) and
    ``detach``-es when its queries finish. The last detach drops the
    pool's reference so the arrays become collectable as soon as no
    consumer result aliases them — spools never wait for the whole merged
    batch to drain.

    Thread-safe: consumers run on their own session threads.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tables: Dict[str, Table] = {}
        self._refcounts: Dict[str, int] = {}
        self.published = 0
        self.freed = 0

    def publish(self, cse_id: str, table: Table, consumers: int) -> None:
        """Register a materialized spool with its consumer refcount.

        A spool no consumer reads (``consumers == 0``) is dropped
        immediately — it never occupies the pool."""
        with self._lock:
            self.published += 1
            if consumers <= 0:
                self.freed += 1
                return
            self._tables[cse_id] = table
            self._refcounts[cse_id] = consumers

    def attach(self, cse_id: str) -> Table:
        """The published spool table for ``cse_id`` (error if unknown/freed)."""
        with self._lock:
            try:
                return self._tables[cse_id]
            except KeyError:
                from ..errors import ExecutionError

                raise ExecutionError(
                    f"shared spool {cse_id!r} attached after free "
                    "(refcount underflow) or before publication"
                ) from None

    def detach(self, cse_id: str) -> bool:
        """Drop one consumer reference; True when this detach freed it."""
        with self._lock:
            remaining = self._refcounts.get(cse_id, 0) - 1
            if remaining > 0:
                self._refcounts[cse_id] = remaining
                return False
            self._refcounts.pop(cse_id, None)
            if self._tables.pop(cse_id, None) is not None:
                self.freed += 1
                return True
            return False

    @property
    def live(self) -> int:
        """Spools currently held (published minus freed)."""
        with self._lock:
            return len(self._tables)


@dataclass
class ExecutionMetrics:
    """Deterministic work counters accumulated during execution."""

    cost_units: float = 0.0
    rows_scanned: int = 0
    rows_joined: int = 0
    rows_aggregated: int = 0
    rows_output: int = 0
    spool_rows_written: int = 0
    spool_rows_read: int = 0
    spools_materialized: int = 0
    operator_invocations: int = 0
    #: join/group-by key columns coded to dense integers.
    key_factorizations: int = 0
    #: always 0 since key coding stopped being memoized; kept readable
    #: for ``benchmarks/perf``, which still reports a reuse ratio.
    key_factor_reuses: int = 0
    spool_stats: Dict[str, SpoolStats] = field(default_factory=dict)
    #: per-(table, column-set) shared-scan accounting, keyed like
    #: ``"lineitem[l_orderkey+l_quantity]"``.
    scan_stats: Dict[str, ScanStats] = field(default_factory=dict)

    def spool(self, cse_id: str) -> SpoolStats:
        """The (created-on-demand) per-spool stats for ``cse_id``."""
        stats = self.spool_stats.get(cse_id)
        if stats is None:
            stats = self.spool_stats[cse_id] = SpoolStats()
        return stats

    def scan(self, key: str) -> ScanStats:
        """The (created-on-demand) per-scan-group stats for ``key``."""
        stats = self.scan_stats.get(key)
        if stats is None:
            stats = self.scan_stats[key] = ScanStats()
        return stats

    def merge(self, other: "ExecutionMetrics") -> None:
        """Accumulate another metrics object into this one."""
        self.cost_units += other.cost_units
        self.rows_scanned += other.rows_scanned
        self.rows_joined += other.rows_joined
        self.rows_aggregated += other.rows_aggregated
        self.rows_output += other.rows_output
        self.spool_rows_written += other.spool_rows_written
        self.spool_rows_read += other.spool_rows_read
        self.spools_materialized += other.spools_materialized
        self.operator_invocations += other.operator_invocations
        self.key_factorizations += other.key_factorizations
        for cse_id, stats in other.spool_stats.items():
            self.spool(cse_id).merge(stats)
        for key, scan in other.scan_stats.items():
            self.scan(key).merge(scan)

    def publish(self, registry: MetricsRegistry) -> None:
        """Mirror the totals into a registry as executor.* counters."""
        if not registry.enabled:
            return
        registry.counter("executor.cost_units", self.cost_units)
        registry.counter("executor.rows_scanned", self.rows_scanned)
        registry.counter("executor.rows_joined", self.rows_joined)
        registry.counter("executor.rows_aggregated", self.rows_aggregated)
        registry.counter("executor.rows_output", self.rows_output)
        registry.counter("executor.spool_rows_written", self.spool_rows_written)
        registry.counter("executor.spool_rows_read", self.spool_rows_read)
        registry.counter("executor.spools_materialized", self.spools_materialized)
        registry.counter("executor.spool_reads", sum(
            s.reads for s in self.spool_stats.values()
        ))
        registry.counter(
            "executor.operator_invocations", self.operator_invocations
        )
        if self.key_factorizations:
            registry.counter(
                "executor.key_factorizations", self.key_factorizations
            )
        if self.scan_stats:
            registry.counter("executor.scan.reads", sum(
                s.reads for s in self.scan_stats.values()
            ))
            registry.counter("executor.scan.physical", sum(
                s.physical_scans for s in self.scan_stats.values()
            ))
            registry.counter("executor.scan.shared", sum(
                s.shared for s in self.scan_stats.values()
            ))
            registry.counter("executor.scan.rows_saved", sum(
                s.rows_saved for s in self.scan_stats.values()
            ))


@dataclass
class ExecutionContext:
    """Shared state for one bundle execution: the database, materialized
    spools, accumulated metrics, and (optional) per-operator actuals."""

    database: Database
    cost_model: CostModel = field(default_factory=CostModel)
    spools: Dict[str, Table] = field(default_factory=dict)
    metrics: ExecutionMetrics = field(default_factory=ExecutionMetrics)
    registry: MetricsRegistry = field(default_factory=lambda: NULL_REGISTRY)
    #: ``id(plan node) -> OperatorStats``; None disables collection so the
    #: hot path pays a single ``is None`` check per operator.
    op_stats: Optional[Dict[int, OperatorStats]] = None
    #: cooperative cancellation/budget state, shared by every task of one
    #: batch (:mod:`repro.serve.governor`); None disables the checks so an
    #: ungoverned run pays a single ``is None`` branch per operator.
    token: Optional["CancellationToken"] = None
    #: trace sink; the disabled :data:`~repro.obs.NULL_TRACER` by default,
    #: so uninstrumented runs pay one ``enabled`` check per operator.
    tracer: Tracer = field(default_factory=lambda: NULL_TRACER)
    #: ``cse_id -> span_id`` of each spool's materialization span, so
    #: consumer-side reads can emit producer→consumer flow events. Shared
    #: batch-wide like ``spools`` (see ``BatchState`` for why that is safe).
    spool_spans: Dict[str, int] = field(default_factory=dict)
    #: batch-wide shared-scan manager (engine v2). None falls back to the
    #: per-consumer physical scan of v1.
    scans: Optional["ScanManager"] = None

    def stats_for(self, node: object) -> OperatorStats:
        """The (created-on-demand) stats slot for one plan node."""
        assert self.op_stats is not None
        stats = self.op_stats.get(id(node))
        if stats is None:
            stats = self.op_stats[id(node)] = OperatorStats()
        return stats

    def spool(self, cse_id: str) -> Table:
        """A materialized spool by id (error if missing)."""
        try:
            return self.spools[cse_id]
        except KeyError:
            from ..errors import ExecutionError

            raise ExecutionError(
                f"spool {cse_id!r} read before materialization"
            ) from None
