"""An insert re-plans only what it moved.

``Database.insert`` refreshes the written table's statistics from the
appended rows and re-verifies its key; ``catalog.version`` stays. A cached
plan that reads the table survives while the key holds, marked "written
since optimized"; its first run is judged by measured ÷ estimated cost
units (``serve.cache.REPLAN_BAND``) and evicts the entry only outside the
band. A key-breaking insert, a ``load`` and a delete evict every plan that
reads the written table, and no other.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import MetricsRegistry, Session, Tracer
from repro.catalog.tpch import build_tpch_database
from repro.executor.reference import evaluate_batch
from repro.obs import parse_prometheus_text
from repro.serve import QueryBudget, SharedBatchCoordinator
from repro.serve import cache as plan_cache
from repro.views.maintenance import MaintenancePlanner
from repro.views.materialized import ViewManager

from .conftest import run_split_across_sessions
from .matrix import duplicate_first_row
from .rows import assert_same_rows

CUSTOMER_ORDERS = (
    "select c_mktsegment, sum(o_totalprice) as t, count(*) as n "
    "from customer, orders where c_custkey = o_custkey group by c_mktsegment"
)
ORDERS_LINEITEM = (
    "select o_orderpriority, sum(l_quantity) as q from orders, lineitem "
    "where o_orderkey = l_orderkey group by o_orderpriority"
)
LINEITEM_ONLY = "select l_returnflag, count(*) as n from lineitem group by l_returnflag"
SUPPLIER_ONLY = "select s_nationkey, count(*) as n from supplier group by s_nationkey"


@pytest.fixture()
def db():
    """A private database: every test here writes."""
    return build_tpch_database(scale_factor=0.001)


def _counters(registry):
    return registry.snapshot()["counters"]


def _oracle_equal(outcome, database, sql):
    batch = Session(database, plan_cache_size=0).bind(sql)
    expected = evaluate_batch(database, batch)
    for query in batch.queries:
        assert_same_rows(
            outcome.execution.query(query.name).rows, expected[query.name], query.name
        )


def _fresh_orders(database, count):
    """Copies of the first ``count`` orders and of all their line items,
    every order key moved past the stored ones: both tables keep their
    keys, and every join of orders with lineitem sees the copies."""
    orders, lineitem = database.table("orders"), database.table("lineitem")
    offset = int(orders.stored_column("o_orderkey").max())
    order_key = orders.schema.column_names.index("o_orderkey")
    line_key = lineitem.schema.column_names.index("l_orderkey")
    new_orders = [
        row[:order_key] + (row[order_key] + offset,) + row[order_key + 1:]
        for row in orders.rows()[:count]
    ]
    moved = {row[order_key] for row in orders.rows()[:count]}
    new_lines = [
        row[:line_key] + (row[line_key] + offset,) + row[line_key + 1:]
        for row in lineitem.rows()
        if row[line_key] in moved
    ]
    return new_orders, new_lines


class TestStatisticsRefresh:
    def test_insert_refreshes_statistics_in_place(self, db):
        version = db.catalog.version
        before = db.statistics("orders")
        rows, _ = _fresh_orders(db, 7)
        db.insert("orders", rows)
        after = db.statistics("orders")
        assert db.catalog.version == version
        assert after.row_count == db.table("orders").row_count
        assert after.primary_key == ("o_orderkey",)
        key = after.column("o_orderkey")
        assert key.ndv == before.column("o_orderkey").ndv + 7
        assert key.max_value == float(db.table("orders").stored_column("o_orderkey").max())
        # Histograms and MCVs are kept as collected.
        assert key.histogram is before.column("o_orderkey").histogram
        status = after.column("o_orderstatus")
        assert status.mcv == before.column("o_orderstatus").mcv
        # Every appended status is a known one (the MCVs list them all).
        assert status.ndv == before.column("o_orderstatus").ndv

    def test_ndv_stays_within_its_bounds(self, db):
        before = db.statistics("customer")
        db.insert("customer", [(10**7, "Customer#x", 3, "BUILDING", 1.0)])
        after = db.statistics("customer")
        for column in db.table("customer").schema.column_names:
            ndv = after.column(column).ndv
            assert ndv <= min(before.column(column).ndv + 1, after.row_count)
            truth = len(np.unique(db.table("customer").stored_column(column)))
            assert ndv >= truth, column
        # An integer column's NDV is capped by its range's width.
        assert after.column("c_nationkey").ndv == 25

    def test_duplicate_key_drops_the_key(self, db):
        version = db.catalog.version
        duplicate_first_row(db, "orders")
        stats = db.statistics("orders")
        assert stats.row_count == db.table("orders").row_count
        assert stats.primary_key == ()
        assert db.catalog.version == version

    def test_load_recomputes_statistics(self, db):
        customer = db.table("customer")
        half = {
            name: customer.column(name)[: customer.row_count // 2]
            for name in customer.schema.column_names
        }
        db.load("customer", half)
        stats = db.statistics("customer")
        assert stats.row_count == customer.row_count
        assert stats.column("c_custkey").ndv == customer.row_count
        assert stats.primary_key == ("c_custkey",)


class TestPlansSurviveFactKeepingAppends:
    def test_fresh_key_append_keeps_the_plan(self, db):
        registry = MetricsRegistry()
        session = Session(db, registry=registry)
        cold = session.execute(ORDERS_LINEITEM)
        orders, lines = _fresh_orders(db, 20)
        db.insert("orders", orders)
        db.insert("lineitem", lines)
        warm = session.execute(ORDERS_LINEITEM)
        assert warm.plan_cache_hit and warm.optimization is cold.optimization
        assert warm.execution.query("Q1").rows != cold.execution.query("Q1").rows
        _oracle_equal(warm, db, ORDERS_LINEITEM)
        counters = _counters(registry)
        assert counters["optimizer.batches"] == 1
        assert "plan_cache.invalidation" not in counters
        assert "plan_cache.replan" not in counters

    def test_duplicate_key_evicts_every_plan_reading_the_table(self, db):
        sessions = [Session(db), Session(db)]
        for session in sessions:
            for sql in (CUSTOMER_ORDERS, ORDERS_LINEITEM, LINEITEM_ONLY):
                session.execute(sql)
        duplicate_first_row(db, "orders")
        for session in sessions:
            assert not session.execute(CUSTOMER_ORDERS).plan_cache_hit
            assert not session.execute(ORDERS_LINEITEM).plan_cache_hit
            assert session.execute(LINEITEM_ONLY).plan_cache_hit
        _oracle_equal(sessions[0].execute(CUSTOMER_ORDERS), db, CUSTOMER_ORDERS)

    def test_out_of_band_entry_is_replanned_exactly_once(self, db):
        registry, tracer = MetricsRegistry(), Tracer()
        session = Session(db, registry=registry, tracer=tracer)
        session.execute(ORDERS_LINEITEM)
        assert session.execute(ORDERS_LINEITEM).plan_cache_hit
        # Doubling both tables under fresh keys keeps the keys and roughly
        # doubles the plan's measured work: out of band.
        orders, lines = _fresh_orders(db, db.table("orders").row_count)
        db.insert("orders", orders)
        db.insert("lineitem", lines)
        judged = session.execute(ORDERS_LINEITEM)
        assert judged.plan_cache_hit
        ratio = judged.measured_cost / judged.est_cost
        low, high = plan_cache.REPLAN_BAND
        assert not low <= ratio <= high
        _oracle_equal(judged, db, ORDERS_LINEITEM)
        events = [e for e in tracer.events if e.name == "plan_cache_replan"]
        assert [e.attrs["ratio"] for e in events] == [round(ratio, 4)]
        assert _counters(registry)["optimizer.batches"] == 1
        replanned = session.execute(ORDERS_LINEITEM)
        assert not replanned.plan_cache_hit
        for _ in range(2):
            assert session.execute(ORDERS_LINEITEM).plan_cache_hit
        counters = _counters(registry)
        assert counters["optimizer.batches"] == 2
        assert counters["plan_cache.replan"] == 1
        assert "plan_cache.invalidation" not in counters
        # The counter renders beside the invalidation counter.
        families = parse_prometheus_text(registry.render_prometheus())
        assert "repro_plan_cache_replan_total" in families

    def test_in_band_check_clears_the_mark(self, db, monkeypatch):
        registry = MetricsRegistry()
        session = Session(db, registry=registry)
        session.execute(ORDERS_LINEITEM)
        db.insert("orders", _fresh_orders(db, 3)[0])
        # No run has judged the entry yet: an out-of-band verdict on the
        # next one would evict it.
        judged = session.execute(ORDERS_LINEITEM)
        ratio = judged.measured_cost / judged.est_cost
        assert plan_cache.REPLAN_BAND[0] <= ratio <= plan_cache.REPLAN_BAND[1]
        # The mark is cleared: with the band shut, a hit without a write
        # is not judged again.
        monkeypatch.setattr(plan_cache, "REPLAN_BAND", (2.0, 2.0))
        assert session.execute(ORDERS_LINEITEM).plan_cache_hit
        assert session.execute(ORDERS_LINEITEM).plan_cache_hit
        assert "plan_cache.replan" not in _counters(registry)

    def test_degraded_run_is_not_judged(self, db, monkeypatch):
        registry = MetricsRegistry()
        session = Session(db, registry=registry)
        sql = ORDERS_LINEITEM + ";" + ORDERS_LINEITEM.replace("l_quantity", "l_extendedprice")
        assert session.execute(sql).optimization.stats.used_cses
        db.insert("orders", _fresh_orders(db, 3)[0])
        monkeypatch.setattr(plan_cache, "REPLAN_BAND", (2.0, 2.0))
        degraded = session.execute(sql, budget=QueryBudget(max_spool_rows=0))
        assert degraded.plan_cache_hit and degraded.fallback_reason == "spool_budget"
        assert "plan_cache.replan" not in _counters(registry)
        # The mark stayed for the next full run to judge.
        assert session.execute(sql).plan_cache_hit
        assert _counters(registry)["plan_cache.replan"] == 1


class TestWholesaleWritesEvictByTable:
    def test_load_evicts_only_plans_reading_the_table(self, db):
        registry = MetricsRegistry()
        session = Session(db, registry=registry)
        for sql in (SUPPLIER_ONLY, LINEITEM_ONLY):
            session.execute(sql)
        supplier = db.table("supplier")
        db.load("supplier", {
            name: supplier.column(name)[:5] for name in supplier.schema.column_names
        })
        after = session.execute(SUPPLIER_ONLY)
        assert not after.plan_cache_hit
        _oracle_equal(after, db, SUPPLIER_ONLY)
        assert session.execute(LINEITEM_ONLY).plan_cache_hit
        assert _counters(registry)["plan_cache.invalidation"] == 1

    def test_delete_evicts_only_plans_reading_the_table(self, db):
        views = ViewManager(db)
        views.create_view(
            "by_segment",
            "select c_mktsegment, count(*) as n from customer group by c_mktsegment",
        )
        views.refresh_all()
        planner = MaintenancePlanner(db, views)
        # The first write creates __delta_customer (DDL); warm up after it.
        planner.apply_insert("customer", [(10**7, "Customer#x", 3, "BUILDING", 1.0)])
        session = Session(db)
        session.execute(CUSTOMER_ORDERS)
        session.execute(ORDERS_LINEITEM)
        version = db.catalog.version
        doomed = db.table("customer").rows()[:3]
        planner.apply_delete("customer", doomed)
        assert db.catalog.version == version
        assert db.statistics("customer").row_count == db.table("customer").row_count
        after = session.execute(CUSTOMER_ORDERS)
        assert not after.plan_cache_hit
        _oracle_equal(after, db, CUSTOMER_ORDERS)
        assert session.execute(ORDERS_LINEITEM).plan_cache_hit


class TestMergedEntries:
    def test_coordinator_pair_hits_after_a_fresh_key_write(self, db):
        registry = MetricsRegistry()
        coordinator = SharedBatchCoordinator(
            window_ms=5000.0, max_group=2, registry=registry
        )
        sql = ORDERS_LINEITEM + ";" + CUSTOMER_ORDERS

        def round_of():
            _, outcomes = run_split_across_sessions(
                db, sql, coordinator, registry=registry
            )
            assert all(o is not None for o in outcomes)
            return outcomes

        round_of()
        assert all(o.plan_cache_hit for o in round_of())
        orders, lines = _fresh_orders(db, 20)
        db.insert("orders", orders)
        db.insert("lineitem", lines)
        after = round_of()
        assert all(o.plan_cache_hit for o in after)
        for outcome, part in zip(after, (ORDERS_LINEITEM, CUSTOMER_ORDERS)):
            _oracle_equal(outcome, db, part)
        # The check judged the whole merged run, in band, not a consumer's
        # part of it, which one consumer's measured units fall short of.
        est_cost = after[0].est_cost
        parts = sorted(o.measured_cost / est_cost for o in after)
        low, high = plan_cache.REPLAN_BAND
        assert parts[0] < low and low <= sum(parts) <= high
        assert all(o.plan_cache_hit for o in round_of())
        counters = _counters(registry)
        assert counters["coordinator.merged_batches"] == 4
        assert counters["optimizer.batches"] == 1
        assert "plan_cache.replan" not in counters


def test_concurrent_fresh_key_writes_and_reads(db):
    """Two writers append fresh-key orders while three sessions run a
    cached plan reading orders: no append is lost from the refreshed
    statistics, no write evicts, and every lookup is counted once."""
    registry = MetricsRegistry()
    sessions = [Session(db, registry=registry) for _ in range(3)]
    for session in sessions:
        session.execute(CUSTOMER_ORDERS)
    template = db.table("orders").rows()[:5]
    key = db.table("orders").schema.column_names.index("o_orderkey")
    rounds, errors = 40, []

    def write(writer):
        try:
            for step in range(rounds):
                base = 10**8 + writer * 10**6 + step * len(template)
                db.insert("orders", [
                    row[:key] + (base + i,) + row[key + 1:]
                    for i, row in enumerate(template)
                ])
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    def read(session):
        try:
            for _ in range(rounds):
                session.execute(CUSTOMER_ORDERS)
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=write, args=(w,), daemon=True) for w in range(2)]
    threads += [threading.Thread(target=read, args=(s,), daemon=True) for s in sessions]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    stats = db.statistics("orders")
    assert stats.row_count == db.table("orders").row_count
    assert stats.primary_key == ("o_orderkey",)
    # Every appended key is fresh: a refresh working from statistics a
    # concurrent one replaced would lose its predecessor's NDV growth.
    assert stats.column("o_orderkey").ndv == stats.row_count
    for session in sessions:
        _oracle_equal(session.execute(CUSTOMER_ORDERS), db, CUSTOMER_ORDERS)
    counters = _counters(registry)
    assert "plan_cache.invalidation" not in counters
    assert counters["plan_cache.hit"] + counters["plan_cache.miss"] == 3 * (rounds + 2)
