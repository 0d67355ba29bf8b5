"""Shared table scans: one physical scan per (table, column-set) group.

The batch-level :class:`~repro.executor.scans.ScanManager` is spool
sharing applied at the scan leaf (Def 5.1 with ``C_W = 0``): every
consumer past the first rides the one physical fetch. These tests pin

* the sharing invariant itself — ``physical_scans == 1`` per group no
  matter how many consumers read it, with a ``scan.shared`` assertion;
* cost accounting — single-consumer totals identical with sharing on or
  off, and serial totals identical to parallel totals;
* the scheduler's scan-prewarm tasks and their dependency edges;
* the ledger/EXPLAIN/Prometheus surfaces derived from the stats.
"""

from __future__ import annotations

import pytest

from repro import OptimizerOptions, Session
from repro.executor.reference import evaluate_batch
from repro.obs import MetricsRegistry

#: two queries over the same join, different aggregates: with CSE off,
#: customer and orders are each scanned by both queries.
SHARED_SQL = """
    select c_nationkey, sum(l_extendedprice) as le
    from customer, orders, lineitem
    where c_custkey = o_custkey and o_orderkey = l_orderkey
    group by c_nationkey;

    select c_nationkey, sum(l_quantity) as lq
    from customer, orders, lineitem
    where c_custkey = o_custkey and o_orderkey = l_orderkey
    group by c_nationkey
"""


def _no_cse(db, **kwargs) -> Session:
    return Session(db, OptimizerOptions(enable_cse=False), **kwargs)


def _normalize(rows):
    return sorted(
        [
            tuple(round(v, 6) if isinstance(v, float) else v for v in row)
            for row in rows
        ],
        key=repr,
    )


class TestSharingInvariant:
    def test_one_physical_scan_per_group(self, small_db):
        outcome = _no_cse(small_db).execute(SHARED_SQL)
        stats = outcome.execution.metrics.scan_stats
        assert stats, "shared-scan stats must be populated"
        for key, group in stats.items():
            assert group.physical_scans == 1, key
        shared = {k: s.shared for k, s in stats.items()}
        assert shared["customer[c_custkey+c_nationkey]"] == 1
        assert shared["orders[o_custkey+o_orderkey]"] == 1
        saved = stats["orders[o_custkey+o_orderkey]"]
        assert saved.rows_saved == saved.rows

    def test_scan_shared_metric_published(self, small_db):
        registry = MetricsRegistry()
        _no_cse(small_db, registry=registry).execute(SHARED_SQL)
        counters = registry.snapshot()["counters"]
        assert counters["executor.scan.shared"] >= 2
        assert counters["executor.scan.physical"] < counters[
            "executor.scan.reads"
        ]
        assert counters["executor.scan.rows_saved"] > 0

    def test_rows_identical_with_and_without_sharing(self, small_db):
        batch = _no_cse(small_db).bind(SHARED_SQL)
        shared = _no_cse(small_db).execute(batch)
        unshared = _no_cse(small_db, shared_scans=False).execute(batch)
        oracle = evaluate_batch(small_db, batch)
        for query in batch.queries:
            want = _normalize(oracle[query.name])
            assert _normalize(
                shared.execution.query(query.name).rows
            ) == want
            assert _normalize(
                unshared.execution.query(query.name).rows
            ) == want

    def test_disabled_sharing_has_no_stats(self, small_db):
        outcome = _no_cse(small_db, shared_scans=False).execute(SHARED_SQL)
        assert outcome.execution.metrics.scan_stats == {}


class TestCostAccounting:
    def test_single_consumer_totals_unchanged(self, small_db):
        """With one consumer per group the split charge (raw fetch +
        predicate mask) must equal the legacy fused scan charge."""
        sql = (
            "select c_nationkey, sum(c_acctbal) as v from customer "
            "where c_nationkey < 10 group by c_nationkey"
        )
        shared = _no_cse(small_db).execute(sql)
        legacy = _no_cse(small_db, shared_scans=False).execute(sql)
        assert shared.execution.metrics.cost_units == pytest.approx(
            legacy.execution.metrics.cost_units, rel=1e-12
        )

    def test_serial_equals_parallel_totals(self, small_db):
        serial = _no_cse(small_db).execute(SHARED_SQL)
        parallel = _no_cse(small_db, workers=4).execute(SHARED_SQL)
        assert serial.execution.metrics.cost_units == pytest.approx(
            parallel.execution.metrics.cost_units, rel=1e-12
        )
        want = {
            k: (s.reads, s.physical_scans, s.rows, s.rows_scanned)
            for k, s in serial.execution.metrics.scan_stats.items()
        }
        got = {
            k: (s.reads, s.physical_scans, s.rows, s.rows_scanned)
            for k, s in parallel.execution.metrics.scan_stats.items()
        }
        assert want == got


class TestSchedule:
    def test_scan_tasks_emitted_first_with_edges(self, small_db):
        from repro.executor.schedule import build_schedule

        result = _no_cse(small_db).optimize(SHARED_SQL)
        schedule = build_schedule(result.bundle, include_scans=True)
        scans = [t for t in schedule.tasks if t.kind == "scan"]
        queries = [t for t in schedule.tasks if t.kind == "query"]
        assert scans, "shared groups must get prewarm tasks"
        # Only groups with >= 2 consumers are worth a task.
        labels = {t.label for t in scans}
        assert "customer[c_custkey+c_nationkey]" in labels
        assert "orders[o_custkey+o_orderkey]" in labels
        assert not any("lineitem" in label for label in labels)
        # Scan tasks come first and carry no dependencies; every query
        # reading a shared group depends on its prewarm task.
        for task in scans:
            assert task.deps == ()
            assert task.index < min(q.index for q in queries)
        scan_indices = {t.index for t in scans}
        for query in queries:
            assert scan_indices <= set(query.deps)

    def test_default_schedule_has_no_scan_tasks(self, small_db):
        from repro.executor.schedule import build_schedule

        result = _no_cse(small_db).optimize(SHARED_SQL)
        schedule = build_schedule(result.bundle)
        assert all(t.kind != "scan" for t in schedule.tasks)


class TestSurfaces:
    def test_ledger_carries_scan_entries(self, small_db):
        outcome = _no_cse(small_db).execute(SHARED_SQL)
        assert outcome.ledger is not None
        entries = {e.key: e for e in outcome.ledger.scans}
        assert "customer[c_custkey+c_nationkey]" in entries
        entry = entries["customer[c_custkey+c_nationkey]"]
        assert entry.reads == 2
        assert entry.physical_scans == 1
        assert entry.shared == 1
        assert entry.columns == ["c_custkey", "c_nationkey"]
        # Def 5.1 at the leaf: savings = shared reads * per-fetch cost.
        assert entry.measured_savings == pytest.approx(entry.cost_units)

    def test_ledger_render_keeps_no_spool_line(self, small_db):
        outcome = _no_cse(small_db).execute(SHARED_SQL)
        rendered = outcome.ledger.render()
        assert "no shared spools" in rendered
        assert "shared scans (Def 5.1 at the leaf" in rendered

    def test_single_read_groups_stay_out_of_ledger(self, small_db):
        outcome = _no_cse(small_db).execute(SHARED_SQL)
        keys = {e.key for e in outcome.ledger.scans}
        assert not any("lineitem" in key for key in keys)

    def test_explain_analyze_reports_totals(self, small_db):
        session = _no_cse(small_db)
        text = session.explain(SHARED_SQL, analyze=True)
        assert "Shared scans:" in text
        assert "shared scans (Def 5.1 at the leaf" in text

    def test_prometheus_ledger_gauges(self, small_db):
        registry = MetricsRegistry()
        _no_cse(small_db, registry=registry).execute(SHARED_SQL)
        gauges = registry.snapshot()["gauges"]
        labeled = [
            name for name in gauges if name.startswith("ledger.scan_shared")
        ]
        assert labeled, f"no ledger.scan_shared gauges in {sorted(gauges)}"

    def test_query_log_payload_matches_ledger(self, small_db, tmp_path):
        from repro.obs import QueryLog

        log = QueryLog(path=str(tmp_path / "q.jsonl"))
        session = _no_cse(small_db, query_log=log)
        outcome = session.execute(SHARED_SQL)
        record = log.records[-1]
        assert record["ledger"] == outcome.ledger.to_payload()
        assert record["ledger"]["scans"]
