"""Shared table scans (engine v2).

The paper's spools share *derived* subexpressions; the :class:`ScanManager`
extends the same idea to the leaves of the DAG: within one batch execution,
each (table, needed-columns) group performs exactly one physical scan, and
every consumer aliases the same column arrays. Identical pushed-down
predicate sets additionally share their selection mask and the gathered
(filtered) columns.

In Def 5.1 terms the scan leaf is the best possible spool: ``C_W = 0``
(nothing is copied — consumers alias the arrays) and ``C_R ≈ 0``, so the
saving for ``n`` consumers is ``(n − 1) · C_E``. :class:`ScanStats`
records the evidence (``reads`` vs ``physical_scans``) for EXPLAIN
ANALYZE, the sharing ledger, and Prometheus.

Accounting is split so a single-consumer group charges exactly what the
legacy per-consumer scan charged: a raw fetch charges
``scan(rows, width, 0)`` and a predicate-mask computation charges
``filter(rows, n_conjuncts)`` — which sum to ``scan(rows, width, n)``
under the cost model. Per-key locks guarantee each physical charge
happens exactly once, so merged batch totals are deterministic and
identical in serial and parallel execution.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import ExecutionError
from ..expr.evaluator import Frame, evaluate_predicate, placeholder
from ..expr.expressions import ColumnRef, Expr, TableRef
from ..optimizer.physical import PhysScan
from .runtime import ExecutionContext

#: (physical table, frozenset of column names) — one physical scan each.
RawKey = Tuple[str, frozenset]


def scan_group_key(plan: PhysScan) -> Optional[RawKey]:
    """The (table, needed-columns) sharing group of a scan, or None when
    the scan needs something a shared raw fetch cannot provide."""
    names = set()
    for expr in plan.outputs:
        if not isinstance(expr, ColumnRef):
            return None
        names.add(expr.column)
    for conjunct in plan.conjuncts:
        for col in conjunct.columns():
            names.add(col.column)
    return (plan.table_ref.physical_name, frozenset(names))


def stats_key_for(key: RawKey) -> str:
    """Display/metric key for a scan group: ``table[col1+col2+...]``."""
    physical, names = key
    return f"{physical}[{'+'.join(sorted(names))}]"


class _RawEntry:
    """One fetched (table, columns) group: name → array plus table shape."""

    __slots__ = ("columns", "rows", "width")

    def __init__(self, columns: Dict[str, np.ndarray], rows: int, width: int):
        self.columns = columns
        self.rows = rows
        self.width = width


class _FilteredEntry:
    """One computed predicate's passing row indices (a gather by index
    scans the selection once, not once per column) plus lazily gathered
    filtered columns."""

    __slots__ = ("rows", "columns")

    def __init__(self, mask: np.ndarray):
        self.rows = np.flatnonzero(mask)
        self.columns: Dict[str, np.ndarray] = {}


class ScanManager:
    """Batch-wide scan sharing: exactly one physical fetch per group.

    One instance is shared by every :class:`ExecutionContext` of a batch
    (the same way the ``spools`` dict is shared). All caches use
    double-checked per-key locking, so concurrent consumers of the same
    group block on the fetch instead of duplicating it — the charge for
    the physical work lands in exactly one task's metrics, and the batch
    totals are deterministic."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._locks: Dict[object, threading.Lock] = {}
        self._raw: Dict[RawKey, _RawEntry] = {}
        self._filtered: Dict[Tuple[RawKey, Tuple[str, ...]], _FilteredEntry] = {}

    # -- keys and locks ----------------------------------------------------

    def _key_lock(self, key: object) -> threading.Lock:
        with self._lock:
            lock = self._locks.get(key)
            if lock is None:
                lock = self._locks[key] = threading.Lock()
            return lock

    @staticmethod
    def _conjunct_key(
        physical: str, conjuncts: Tuple[Expr, ...]
    ) -> Tuple[str, ...]:
        """Alias-independent canonical form of a pushed-down conjunct set.

        Every column reference is rewritten onto one canonical table
        instance, and the conjunct reprs are sorted — so the same
        predicate set over different instances/aliases of a table (and in
        any conjunct order) shares one mask."""
        canon_ref = TableRef(table=physical, instance=0)
        keys = []
        for conjunct in conjuncts:
            mapping: Dict[Expr, Expr] = {
                col: ColumnRef(canon_ref, col.column, col.data_type)
                for col in conjunct.columns()
            }
            keys.append(repr(conjunct.substitute(mapping)))
        return tuple(sorted(keys))

    # -- physical fetch ----------------------------------------------------

    def _raw_entry(self, key: RawKey, ctx: ExecutionContext) -> _RawEntry:
        entry = self._raw.get(key)
        if entry is not None:
            return entry
        with self._key_lock(("raw", key)):
            entry = self._raw.get(key)
            if entry is not None:
                return entry
            physical, names = key
            table = ctx.database.table(physical)
            columns = {name: table.stored_column(name) for name in sorted(names)}
            rows = table.row_count
            width = table.row_width()
            charge = ctx.cost_model.scan(rows, width, 0)
            ctx.metrics.rows_scanned += rows
            ctx.metrics.cost_units += charge
            stats = ctx.metrics.scan(stats_key_for(key))
            stats.physical_scans += 1
            stats.rows = max(stats.rows, rows)
            stats.rows_scanned += rows
            stats.cost_units += charge
            entry = _RawEntry(columns, rows, width)
            # Publish only after the charge: a reader that can see the
            # entry knows its physical cost is already accounted for.
            self._raw[key] = entry
            return entry

    # -- consumer resolution ----------------------------------------------

    def scan_frame(self, plan: PhysScan, ctx: ExecutionContext) -> Frame:
        """A consumer-keyed frame for ``plan``, shared physical work."""
        key = scan_group_key(plan)
        if key is None:
            raise ExecutionError(
                f"scan cannot produce {plan.outputs!r}"
            )
        entry = self._raw_entry(key, ctx)
        stats = ctx.metrics.scan(stats_key_for(key))
        stats.reads += 1
        stats.rows = max(stats.rows, entry.rows)
        exprs = set(plan.outputs)
        for conjunct in plan.conjuncts:
            exprs.update(conjunct.columns())
        frame = {expr: entry.columns[expr.column] for expr in exprs}
        frame = frame or placeholder(entry.rows)
        if not plan.conjuncts:
            return frame
        filtered = self._filtered_entry(key, plan, frame, entry, ctx, stats)
        out: Frame = {}
        for expr in exprs:
            column = filtered.columns.get(expr.column)
            if column is None:
                # Benign race: concurrent consumers may gather the same
                # column twice; setdefault keeps one winner. Gathers are
                # not charged, so duplicates do not skew totals.
                column = filtered.columns.setdefault(
                    expr.column, entry.columns[expr.column][filtered.rows]
                )
            out[expr] = column
        return out or placeholder(len(filtered.rows))

    def _filtered_entry(
        self,
        key: RawKey,
        plan: PhysScan,
        frame: Frame,
        raw: _RawEntry,
        ctx: ExecutionContext,
        stats,
    ) -> _FilteredEntry:
        canon = self._conjunct_key(key[0], plan.conjuncts)
        fkey = (key, canon)
        entry = self._filtered.get(fkey)
        if entry is not None:
            return entry
        with self._key_lock(("mask", fkey)):
            entry = self._filtered.get(fkey)
            if entry is not None:
                return entry
            mask = np.ones(raw.rows, dtype=bool)
            for conjunct in plan.conjuncts:
                mask &= evaluate_predicate(conjunct, frame)
            charge = ctx.cost_model.filter(raw.rows, len(plan.conjuncts))
            ctx.metrics.cost_units += charge
            stats.cost_units += charge
            entry = _FilteredEntry(mask)
            self._filtered[fkey] = entry
            return entry
