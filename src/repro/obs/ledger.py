"""The sharing-economics ledger: did each shared spool pay for itself?

Definition 5.1 of the paper prices a shared spool as an *initial* cost
paid once (evaluate the body, ``C_E``, plus write it, ``C_W``) and a
*usage* cost paid per consumer (``C_R``), so sharing across ``n``
consumers saves ``n*C_E - (C_E + C_W + n*C_R)``. The optimizer commits
to a spool based on the *estimated* values of those terms; the ledger
closes the loop by recomputing the same identity from the executor's
*measured* cost-unit attribution (:class:`~repro.executor.runtime
.SpoolStats` splits the materialization charge into body and write, and
accumulates per-read usage), yielding realized-vs-estimated savings per
spool and per query.

The ledger is one plain record, built by :func:`build_ledger` and rounded
to 4 decimals there, once: EXPLAIN ANALYZE and ``explain --why``
(:func:`render_ledger`), the query log, and the ``ledger.*`` series
(:func:`publish_ledger`) all read that record, so their numbers are
bit-identical.

A spool whose **measured savings are negative** is sharing that lost
money, the feedback an adaptive re-optimizer or a benefit-driven global
selection needs. The record flags it only when its measured side is
complete, i.e. every planned consumer read the spool: a cross-session
consumer measures its own reads of a spool other sessions read too, and
one reader's share of a shared spool says nothing about whether the
spool paid. The session mirrors the flags into a
``negative_spool_benefit`` trace event and the ``ledger.negative_spools``
gauge.

The terms are read from plain attributes of candidates and of
``SpoolStats`` / ``ScanStats``, so :mod:`repro.obs` imports neither the
optimizer nor the executor.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional

from .metrics import MetricsRegistry

_ROUND = 4


def _savings(
    body: float, write: float, read_total: float, consumers: int
) -> float:
    """Def 5.1: ``n*C_E - (C_E + C_W + n*C_R)`` with ``n*C_R`` pre-summed."""
    return consumers * body - (body + write + read_total)


def build_ledger(
    candidates: Iterable[Any],
    query_reads: Mapping[str, Mapping[str, int]],
    spool_stats: Optional[Mapping[str, Any]] = None,
    scan_stats: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The batch's ledger record from plan-time and run-time evidence.

    ``candidates`` supplies the estimated Def 5.1 terms (the optimizer's
    :class:`~repro.cse.candidates.CandidateCse`); ``query_reads`` the
    per-query spool-read counts of the plans (``query -> cse_id ->
    reads``), which give the planned consumer count and the per-query
    attribution; ``spool_stats`` the measured terms (``cse_id ->
    SpoolStats``). With ``spool_stats`` the record lists the spools that
    materialized; without it, it is the plan-time ledger of
    ``explain --why``: every spool the plans read, measured columns zero.
    ``scan_stats`` (``stats key -> ScanStats``) adds an entry per (table,
    column-set) group that served two or more reads."""
    by_id: Dict[str, Any] = {}
    for candidate in candidates:
        by_id.setdefault(candidate.cse_id, candidate)
    planned: Dict[str, int] = {}
    for reads in query_reads.values():
        for cse_id, count in reads.items():
            planned[cse_id] = planned.get(cse_id, 0) + count

    spools: List[Dict[str, Any]] = []
    #: cse_id -> (est, measured, planned, consumers), unrounded.
    exact: Dict[str, tuple] = {}
    est_total = measured_total = 0.0
    for cse_id in sorted(planned if spool_stats is None else spool_stats):
        candidate = by_id.get(cse_id)
        if spool_stats is None:
            if candidate is None:
                continue
            consumers = written = read = 0
            n = planned[cse_id]
            body = write = read_total = mat_wall = read_wall = 0.0
        else:
            stats = spool_stats[cse_id]
            consumers = stats.reads
            # Query plans under-count consumers when a *stacked* spool's
            # body is itself a reader (§5.5), so never plan below what
            # actually read; a degraded run keeps the higher plan count.
            n = max(planned.get(cse_id, 0), consumers)
            written, read = stats.rows_written, stats.rows_read
            body = stats.body_cost_units
            write = max(0.0, stats.write_cost_units - body)
            read_total = stats.read_cost_units
            mat_wall = stats.materialize_wall_time
            read_wall = stats.read_wall_time
        if candidate is None:
            est_body = est_write = est_read = 0.0
        else:
            est_body = candidate.body_cost
            est_write = candidate.write_cost
            est_read = candidate.read_cost
        est = _savings(est_body, est_write, n * est_read, n)
        measured = _savings(body, write, read_total, consumers)
        exact[cse_id] = (est, measured, n, consumers)
        est_total += est
        measured_total += measured
        spools.append(
            {
                "spool": cse_id,
                "planned_consumers": n,
                "consumers": consumers,
                "rows_written": written,
                "rows_read": read,
                "est_body_cost": round(est_body, _ROUND),
                "est_write_cost": round(est_write, _ROUND),
                "est_read_cost": round(est_read, _ROUND),
                "est_savings": round(est, _ROUND),
                "measured_body_cost": round(body, _ROUND),
                "measured_write_cost": round(write, _ROUND),
                "measured_read_total": round(read_total, _ROUND),
                "measured_savings": round(measured, _ROUND),
                "materialize_wall_ms": round(mat_wall * 1000.0, _ROUND),
                "read_wall_ms": round(read_wall * 1000.0, _ROUND),
                # Judged only on a complete measured side: every planned
                # consumer read the spool.
                "negative": consumers >= n and measured < 0.0,
            }
        )

    # Each read earns one body evaluation avoided, pays its usage cost and
    # carries an amortized share of the initial cost, so the per-query
    # parts sum exactly to the per-spool savings.
    queries: List[Dict[str, Any]] = []
    for query_name in sorted(query_reads):
        reads = {
            cse_id: count
            for cse_id, count in query_reads[query_name].items()
            if count > 0
        }
        est_part = measured_part = 0.0
        for cse_id, count in reads.items():
            if cse_id not in exact:
                continue
            est, measured, n, consumers = exact[cse_id]
            if n > 0:
                est_part += est * (count / n)
            if consumers > 0:
                measured_part += measured * (count / consumers)
        queries.append(
            {
                "query": query_name,
                "spool_reads": dict(sorted(reads.items())),
                "est_savings": round(est_part, _ROUND),
                "measured_savings": round(measured_part, _ROUND),
            }
        )

    # A shared scan is spool sharing at the scan leaf with C_W = 0 (the raw
    # columns are zero-copy views) and C_R ~= 0, so Def 5.1 collapses to
    # (n - 1) * C_E: every read past the first rides the one fetch.
    scans: List[Dict[str, Any]] = []
    for key in sorted(scan_stats or ()):
        stats = scan_stats[key]
        if stats.reads < 2:
            continue
        table, _, column_part = key.partition("[")
        savings = (
            stats.shared * (stats.cost_units / stats.physical_scans)
            if stats.physical_scans > 0 else 0.0
        )
        scans.append(
            {
                "scan": key,
                "table": table,
                "columns": sorted(
                    c for c in column_part.rstrip("]").split("+") if c
                ),
                "reads": stats.reads,
                "physical_scans": stats.physical_scans,
                "shared": stats.shared,
                "rows": stats.rows,
                "rows_scanned": stats.rows_scanned,
                "rows_saved": stats.rows_saved,
                "cost_units": round(stats.cost_units, _ROUND),
                "measured_savings": round(savings, _ROUND),
            }
        )

    return {
        "spools": spools,
        "queries": queries,
        "scans": scans,
        "est_savings": round(est_total, _ROUND),
        "measured_savings": round(measured_total, _ROUND),
        "negative_spools": [s["spool"] for s in spools if s["negative"]],
    }


def publish_ledger(record: Dict[str, Any], registry: MetricsRegistry) -> None:
    """Mirror a ledger record into ``ledger.*`` metrics.

    Per-spool and per-scan values become labeled gauges (last batch wins:
    they are state, not accumulation); batch totals accumulate as
    counters."""
    if not registry.enabled:
        return
    for spool in record["spools"]:
        labels = {"spool": spool["spool"]}
        for key in ("est_savings", "measured_savings", "consumers"):
            registry.gauge(f"ledger.spool_{key}", spool[key], labels=labels)
    for scan in record["scans"]:
        labels = {"scan": scan["scan"]}
        for key in ("reads", "shared", "rows_saved", "measured_savings"):
            registry.gauge(f"ledger.scan_{key}", scan[key], labels=labels)
    registry.gauge("ledger.scans_shared", len(record["scans"]))
    registry.gauge("ledger.spools_shared", len(record["spools"]))
    registry.gauge("ledger.negative_spools", len(record["negative_spools"]))
    registry.counter("ledger.batches", 1)
    registry.counter("ledger.est_savings_total", record["est_savings"])
    registry.counter(
        "ledger.measured_savings_total", record["measured_savings"]
    )


def render_ledger(record: Dict[str, Any], indent: str = "") -> str:
    """A ledger record as text (the EXPLAIN ANALYZE / --why section)."""
    if not record["spools"]:
        lines = [f"{indent}sharing ledger: no shared spools"]
    else:
        lines = [f"{indent}sharing ledger (Def 5.1, cost units):"]
    for spool in record["spools"]:
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
    if record["spools"]:
        if record["queries"]:
            lines.append(f"{indent}  per-query attribution:")
        for query in record["queries"]:
            reads = ", ".join(
                f"{sid}x{n}" for sid, n in query["spool_reads"].items()
            )
            lines.append(
                f"{indent}    {query['query']}: "
                f"est {query['est_savings']}, "
                f"measured {query['measured_savings']}"
                + (f" (reads {reads})" if reads else "")
            )
        lines.append(
            f"{indent}  total: est {record['est_savings']}, "
            f"measured {record['measured_savings']}"
        )
    if record["scans"]:
        lines.append(f"{indent}shared scans (Def 5.1 at the leaf, C_W=0):")
    for scan in record["scans"]:
        lines.append(
            f"{indent}  scan {scan['scan']}: "
            f"{scan['physical_scans']} physical over "
            f"{scan['reads']} reads "
            f"({scan['shared']} shared), "
            f"rows saved {scan['rows_saved']}, "
            f"C_E={scan['cost_units']} "
            f"-> savings {scan['measured_savings']}"
        )
    return "\n".join(lines)
