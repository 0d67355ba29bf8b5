"""The sharing-economics ledger: did each shared spool pay for itself?

Definition 5.1 of the paper prices a shared spool as an *initial* cost
paid once (evaluate the body, ``C_E``, plus write it, ``C_W``) and a
*usage* cost paid per consumer (``C_R``), so sharing across ``n``
consumers saves ``n*C_E - (C_E + C_W + n*C_R)``. The optimizer commits
to a spool based on the *estimated* values of those terms; this module
closes the loop by recomputing the same identity from the executor's
*measured* cost-unit attribution (:class:`~repro.executor.runtime
.SpoolStats` splits the materialization charge into body and write, and
accumulates per-read usage), yielding realized-vs-estimated savings per
spool and per query.

A spool with **negative measured savings** is sharing that lost money —
the exact feedback a future adaptive re-optimizer (ROADMAP item 4) or a
benefit-driven global selection needs; the ledger flags them, and the
session mirrors the flags into a ``negative_spool_benefit`` trace event,
the query log, and ``ledger.*`` Prometheus gauges.

All numbers are rounded to 4 decimals once, in :meth:`SharingLedger
.to_payload`, so the values shown in EXPLAIN ANALYZE, the query log,
``explain --why``, and ``/metrics`` are bit-identical.

Everything is duck-typed against plain attributes (``body_cost``,
``write_cost``, ``read_cost`` on candidates; the ``SpoolStats`` fields on
measurements), keeping :mod:`repro.obs` free of imports from the
optimizer and executor layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional

from .metrics import MetricsRegistry

_ROUND = 4


def _sharing_savings(
    body: float, write: float, read_total: float, consumers: int
) -> float:
    """Def 5.1: ``n*C_E - (C_E + C_W + n*C_R)`` with ``n*C_R`` pre-summed."""
    return consumers * body - (body + write + read_total)


@dataclass
class SpoolLedgerEntry:
    """Estimated vs. measured sharing economics for one spool."""

    cse_id: str
    #: consumers the optimizer planned for (plan-time spool reads).
    planned_consumers: int
    #: reads that actually happened.
    consumers: int
    rows_written: int = 0
    rows_read: int = 0
    # -- estimated (optimizer cost-model units, Def 5.1 terms) ----------
    est_body_cost: float = 0.0  # C_E
    est_write_cost: float = 0.0  # C_W
    est_read_cost: float = 0.0  # C_R, per consumer
    # -- measured (executor cost-unit attribution over actual rows) ----
    measured_body_cost: float = 0.0
    measured_write_cost: float = 0.0
    measured_read_total: float = 0.0
    # -- wall-clock, for reference (not used in the savings identity) --
    materialize_wall_time: float = 0.0
    read_wall_time: float = 0.0

    @property
    def est_savings(self) -> float:
        """Plan-time Def 5.1 savings over the planned consumer count."""
        return _sharing_savings(
            self.est_body_cost,
            self.est_write_cost,
            self.planned_consumers * self.est_read_cost,
            self.planned_consumers,
        )

    @property
    def measured_savings(self) -> float:
        """The same identity over measured costs and actual reads."""
        return _sharing_savings(
            self.measured_body_cost,
            self.measured_write_cost,
            self.measured_read_total,
            self.consumers,
        )

    @property
    def negative(self) -> bool:
        """True when sharing this spool lost money at run time."""
        return self.measured_savings < 0.0


@dataclass
class ScanLedgerEntry:
    """Sharing economics for one shared (table, column-set) scan group.

    A shared scan is spool sharing at the scan leaf with ``C_W = 0`` (the
    raw columns are zero-copy views, nothing is written) and ``C_R ~= 0``
    (handing a consumer the cached arrays costs no per-row work), so
    Def 5.1 collapses to savings ``(n - 1) * C_E``: every consumer past
    the first rides the one physical fetch for free."""

    key: str
    table: str
    columns: List[str] = field(default_factory=list)
    #: consumer-side reads served from the group.
    reads: int = 0
    #: physical fetches actually performed (1 when shared).
    physical_scans: int = 0
    #: rows in the table (one consumer's worth).
    rows: int = 0
    #: rows actually pulled from storage across physical fetches.
    rows_scanned: int = 0
    #: measured cost units charged for the physical work.
    cost_units: float = 0.0

    @property
    def shared(self) -> int:
        """Reads served without a physical fetch of their own."""
        return max(0, self.reads - self.physical_scans)

    @property
    def rows_saved(self) -> int:
        """Rows *not* re-fetched thanks to sharing."""
        return max(0, self.rows * self.reads - self.rows_scanned)

    @property
    def measured_savings(self) -> float:
        """Def 5.1 at the scan leaf: ``(n - 1) * C_E`` with ``C_E`` the
        measured per-fetch cost (``C_W = 0``, ``C_R ~= 0``)."""
        if self.physical_scans <= 0:
            return 0.0
        per_scan = self.cost_units / self.physical_scans
        return self.shared * per_scan


@dataclass
class QueryLedgerEntry:
    """One query's share of the batch's sharing savings."""

    query: str
    #: spool id -> number of reads this query performed.
    spool_reads: Dict[str, int] = field(default_factory=dict)
    est_savings: float = 0.0
    measured_savings: float = 0.0


@dataclass
class SharingLedger:
    """The batch-level ledger: per-spool and per-query entries."""

    spools: List[SpoolLedgerEntry] = field(default_factory=list)
    queries: List[QueryLedgerEntry] = field(default_factory=list)
    #: shared (table, column-set) scan groups with two or more readers.
    scans: List[ScanLedgerEntry] = field(default_factory=list)

    @property
    def est_savings(self) -> float:
        """Total plan-time Def 5.1 savings across shared spools."""
        return sum(entry.est_savings for entry in self.spools)

    @property
    def measured_savings(self) -> float:
        """Total realized savings across shared spools."""
        return sum(entry.measured_savings for entry in self.spools)

    @property
    def negative_spools(self) -> List[str]:
        """Spools whose measured benefit was negative."""
        return [entry.cse_id for entry in self.spools if entry.negative]

    def spool(self, cse_id: str) -> SpoolLedgerEntry:
        """One spool's entry by id (KeyError if absent)."""
        for entry in self.spools:
            if entry.cse_id == cse_id:
                return entry
        raise KeyError(cse_id)

    # -- surfaces -------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """The ledger as plain JSON-ready data, rounded once.

        Every surface (EXPLAIN ANALYZE, query log, ``/metrics``,
        ``explain --why``) renders from this payload, so the numbers
        agree bit-for-bit across them."""
        return {
            "spools": [
                {
                    "spool": e.cse_id,
                    "planned_consumers": e.planned_consumers,
                    "consumers": e.consumers,
                    "rows_written": e.rows_written,
                    "rows_read": e.rows_read,
                    "est_body_cost": round(e.est_body_cost, _ROUND),
                    "est_write_cost": round(e.est_write_cost, _ROUND),
                    "est_read_cost": round(e.est_read_cost, _ROUND),
                    "est_savings": round(e.est_savings, _ROUND),
                    "measured_body_cost": round(
                        e.measured_body_cost, _ROUND
                    ),
                    "measured_write_cost": round(
                        e.measured_write_cost, _ROUND
                    ),
                    "measured_read_total": round(
                        e.measured_read_total, _ROUND
                    ),
                    "measured_savings": round(e.measured_savings, _ROUND),
                    "materialize_wall_ms": round(
                        e.materialize_wall_time * 1000.0, _ROUND
                    ),
                    "read_wall_ms": round(
                        e.read_wall_time * 1000.0, _ROUND
                    ),
                    "negative": e.negative,
                }
                for e in self.spools
            ],
            "queries": [
                {
                    "query": q.query,
                    "spool_reads": dict(sorted(q.spool_reads.items())),
                    "est_savings": round(q.est_savings, _ROUND),
                    "measured_savings": round(q.measured_savings, _ROUND),
                }
                for q in self.queries
            ],
            "scans": [
                {
                    "scan": s.key,
                    "table": s.table,
                    "columns": list(s.columns),
                    "reads": s.reads,
                    "physical_scans": s.physical_scans,
                    "shared": s.shared,
                    "rows": s.rows,
                    "rows_scanned": s.rows_scanned,
                    "rows_saved": s.rows_saved,
                    "cost_units": round(s.cost_units, _ROUND),
                    "measured_savings": round(s.measured_savings, _ROUND),
                }
                for s in self.scans
            ],
            "est_savings": round(self.est_savings, _ROUND),
            "measured_savings": round(self.measured_savings, _ROUND),
            "negative_spools": self.negative_spools,
        }

    def publish(self, registry: MetricsRegistry) -> None:
        """Mirror the ledger into ``ledger.*`` metrics.

        Per-spool savings become labeled gauges (last batch wins — they
        are state, not accumulation); batch totals accumulate as
        counters."""
        if not registry.enabled:
            return
        payload = self.to_payload()
        for spool in payload["spools"]:
            labels = {"spool": spool["spool"]}
            registry.gauge(
                "ledger.spool_est_savings", spool["est_savings"],
                labels=labels,
            )
            registry.gauge(
                "ledger.spool_measured_savings",
                spool["measured_savings"],
                labels=labels,
            )
            registry.gauge(
                "ledger.spool_consumers", spool["consumers"], labels=labels
            )
        for scan in payload["scans"]:
            labels = {"scan": scan["scan"]}
            registry.gauge(
                "ledger.scan_reads", scan["reads"], labels=labels
            )
            registry.gauge(
                "ledger.scan_shared", scan["shared"], labels=labels
            )
            registry.gauge(
                "ledger.scan_rows_saved", scan["rows_saved"],
                labels=labels,
            )
            registry.gauge(
                "ledger.scan_measured_savings",
                scan["measured_savings"],
                labels=labels,
            )
        registry.gauge("ledger.scans_shared", len(self.scans))
        registry.gauge("ledger.spools_shared", len(self.spools))
        registry.gauge(
            "ledger.negative_spools", len(self.negative_spools)
        )
        registry.counter("ledger.batches", 1)
        registry.counter(
            "ledger.est_savings_total", payload["est_savings"]
        )
        registry.counter(
            "ledger.measured_savings_total", payload["measured_savings"]
        )

    def render(self, indent: str = "") -> str:
        """The ledger as text (the EXPLAIN ANALYZE / --why section)."""
        payload = self.to_payload()
        if not payload["spools"]:
            lines = [f"{indent}sharing ledger: no shared spools"]
            lines.extend(self._render_scans(payload, indent))
            return "\n".join(lines)
        lines = [f"{indent}sharing ledger (Def 5.1, cost units):"]
        for spool in payload["spools"]:
            flag = "  !! negative benefit" if spool["negative"] else ""
            lines.append(
                f"{indent}  spool {spool['spool']}: "
                f"consumers={spool['consumers']} "
                f"(planned {spool['planned_consumers']}), "
                f"rows={spool['rows_written']}{flag}"
            )
            lines.append(
                f"{indent}    est:      C_E={spool['est_body_cost']} "
                f"C_W={spool['est_write_cost']} "
                f"C_R={spool['est_read_cost']}/consumer "
                f"-> savings {spool['est_savings']}"
            )
            lines.append(
                f"{indent}    measured: C_E={spool['measured_body_cost']} "
                f"C_W={spool['measured_write_cost']} "
                f"sum(C_R)={spool['measured_read_total']} "
                f"-> savings {spool['measured_savings']} "
                f"(mat {spool['materialize_wall_ms']}ms, "
                f"reads {spool['read_wall_ms']}ms)"
            )
        if payload["queries"]:
            lines.append(f"{indent}  per-query attribution:")
            for query in payload["queries"]:
                reads = ", ".join(
                    f"{sid}x{n}"
                    for sid, n in query["spool_reads"].items()
                )
                lines.append(
                    f"{indent}    {query['query']}: "
                    f"est {query['est_savings']}, "
                    f"measured {query['measured_savings']}"
                    + (f" (reads {reads})" if reads else "")
                )
        lines.append(
            f"{indent}  total: est {payload['est_savings']}, "
            f"measured {payload['measured_savings']}"
        )
        lines.extend(self._render_scans(payload, indent))
        return "\n".join(lines)

    @staticmethod
    def _render_scans(payload: Dict[str, Any], indent: str) -> List[str]:
        """The shared-scans section (empty when no group was shared)."""
        if not payload["scans"]:
            return []
        lines = [f"{indent}shared scans (Def 5.1 at the leaf, C_W=0):"]
        for scan in payload["scans"]:
            lines.append(
                f"{indent}  scan {scan['scan']}: "
                f"{scan['physical_scans']} physical over "
                f"{scan['reads']} reads "
                f"({scan['shared']} shared), "
                f"rows saved {scan['rows_saved']}, "
                f"C_E={scan['cost_units']} "
                f"-> savings {scan['measured_savings']}"
            )
        return lines


def build_ledger(
    candidates: Iterable[Any],
    spool_stats: Mapping[str, Any],
    query_reads: Optional[Mapping[str, Mapping[str, int]]] = None,
    scan_stats: Optional[Mapping[str, Any]] = None,
) -> SharingLedger:
    """Assemble the ledger from plan-time and run-time evidence.

    ``candidates`` supplies the estimated Def 5.1 terms (objects with
    ``cse_id``, ``body_cost``, ``write_cost``, ``read_cost`` — the
    optimizer's :class:`~repro.cse.candidates.CandidateCse`);
    ``spool_stats`` the measured ones (``cse_id -> SpoolStats``); and
    ``query_reads`` the per-query spool-read counts observed in the
    executed plans (``query -> cse_id -> reads``), used both as the
    planned consumer count and for per-query attribution. Only spools
    that actually materialized appear. ``scan_stats`` (``stats key ->
    ScanStats``) adds shared-scan entries for every (table, column-set)
    group that served two or more consumer reads."""
    by_id: Dict[str, Any] = {}
    for candidate in candidates:
        by_id.setdefault(candidate.cse_id, candidate)
    query_reads = query_reads or {}
    planned: Dict[str, int] = {}
    for reads in query_reads.values():
        for cse_id, count in reads.items():
            planned[cse_id] = planned.get(cse_id, 0) + count

    ledger = SharingLedger()
    for cse_id in sorted(spool_stats):
        stats = spool_stats[cse_id]
        candidate = by_id.get(cse_id)
        measured_body = getattr(stats, "body_cost_units", 0.0)
        entry = SpoolLedgerEntry(
            cse_id=cse_id,
            # Query plans under-count consumers when a *stacked* spool's
            # body is itself a reader (§5.5), so never plan below what
            # actually read; a degraded run keeps the higher plan count.
            planned_consumers=max(planned.get(cse_id, 0), stats.reads),
            consumers=stats.reads,
            rows_written=stats.rows_written,
            rows_read=stats.rows_read,
            est_body_cost=(
                candidate.body_cost if candidate is not None else 0.0
            ),
            est_write_cost=(
                candidate.write_cost if candidate is not None else 0.0
            ),
            est_read_cost=(
                candidate.read_cost if candidate is not None else 0.0
            ),
            measured_body_cost=measured_body,
            measured_write_cost=max(
                0.0, stats.write_cost_units - measured_body
            ),
            measured_read_total=stats.read_cost_units,
            materialize_wall_time=stats.materialize_wall_time,
            read_wall_time=getattr(stats, "read_wall_time", 0.0),
        )
        ledger.spools.append(entry)

    for key in sorted(scan_stats or {}):
        stats = (scan_stats or {})[key]
        reads = getattr(stats, "reads", 0)
        if reads < 2:
            continue
        table, _, column_part = key.partition("[")
        columns = sorted(
            c for c in column_part.rstrip("]").split("+") if c
        )
        ledger.scans.append(
            ScanLedgerEntry(
                key=key,
                table=table,
                columns=columns,
                reads=reads,
                physical_scans=getattr(stats, "physical_scans", 0),
                rows=getattr(stats, "rows", 0),
                rows_scanned=getattr(stats, "rows_scanned", 0),
                cost_units=getattr(stats, "cost_units", 0.0),
            )
        )

    _attribute_queries(ledger, query_reads)
    return ledger


def estimated_ledger(
    candidates: Iterable[Any],
    query_reads: Mapping[str, Mapping[str, int]],
) -> SharingLedger:
    """A plan-time-only ledger (``explain --why``): estimated Def 5.1
    terms for every spool the plans read, measured columns all zero."""
    planned: Dict[str, int] = {}
    for reads in query_reads.values():
        for cse_id, count in reads.items():
            planned[cse_id] = planned.get(cse_id, 0) + count
    by_id: Dict[str, Any] = {}
    for candidate in candidates:
        by_id.setdefault(candidate.cse_id, candidate)
    ledger = SharingLedger()
    for cse_id in sorted(planned):
        candidate = by_id.get(cse_id)
        if candidate is None:
            continue
        ledger.spools.append(
            SpoolLedgerEntry(
                cse_id=cse_id,
                planned_consumers=planned[cse_id],
                consumers=0,
                est_body_cost=candidate.body_cost,
                est_write_cost=candidate.write_cost,
                est_read_cost=candidate.read_cost,
            )
        )
    _attribute_queries(ledger, query_reads)
    return ledger


def _attribute_queries(
    ledger: SharingLedger,
    query_reads: Mapping[str, Mapping[str, int]],
) -> None:
    """Per-query attribution: each read earns one body evaluation avoided,
    pays its usage cost, and carries an amortized share of the initial
    cost — so the per-query parts sum exactly to the per-spool savings."""
    for query_name in sorted(query_reads):
        reads = {
            cse_id: count
            for cse_id, count in query_reads[query_name].items()
            if count > 0
        }
        entry = QueryLedgerEntry(query=query_name, spool_reads=reads)
        for cse_id, count in reads.items():
            try:
                spool = ledger.spool(cse_id)
            except KeyError:
                continue
            if spool.planned_consumers > 0:
                entry.est_savings += spool.est_savings * (
                    count / spool.planned_consumers
                )
            if spool.consumers > 0:
                entry.measured_savings += spool.measured_savings * (
                    count / spool.consumers
                )
        ledger.queries.append(entry)
