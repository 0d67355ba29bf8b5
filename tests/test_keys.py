"""Declared keys as optimizer facts (:mod:`repro.optimizer.keys`).

A declared primary key is a fact only while ``Database.analyze`` has
verified it on the stored rows: writes drop it with the statistics, delta
tables never have one, and declared keys are not enforced, so a duplicate
key must switch every reader off — the group-count bound, the memo's
identity aggregates and the key §4.2 construction adds — without changing
a row.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Session
from repro.catalog.statistics import is_unique
from repro.catalog.tpch import build_tpch_database
from repro.executor.reference import evaluate_batch
from repro.expr.expressions import TableRef
from repro.optimizer import keys
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.memo import BlockInfo, Memo
from repro.optimizer.physical import PhysIdentityAgg
from repro.storage.database import Database
from repro.workloads import scaleup_batch

from .rows import assert_same_rows

#: Five queries of a benchmark-harness Fig-8 batch: one signature, ranges
#: on ``c_nationkey`` and ``o_orderdate``, groupings over all three tables.
FIG8_BATCH = ";".join(
    "select {keys}, sum(l_extendedprice) as le, sum(l_quantity) as lq "
    "from customer, orders, lineitem{extra} "
    "where c_custkey = o_custkey and o_orderkey = l_orderkey{join} "
    "and o_orderdate < '{date}' and c_nationkey > {low} and c_nationkey < {high} "
    "group by {keys}".format(**query)
    for query in (
        dict(keys="n_regionkey", extra=", nation", join=" and c_nationkey = n_nationkey",
             date="1997-01-01", low=2, high=24),
        dict(keys="c_nationkey, c_mktsegment", extra="", join="",
             date="1994-06-01", low=1, high=23),
        dict(keys="o_orderstatus", extra="", join="", date="1996-08-01", low=0, high=22),
        dict(keys="c_nationkey", extra="", join="", date="1994-01-01", low=3, high=25),
        dict(keys="o_orderpriority", extra="", join="", date="1997-12-01", low=3, high=25),
    )
)

#: γ over orders ⋈ lineitem keyed by orders' key: the memo's combine over
#: orders ⋈ γ(lineitem) is an identity.
KEYED = (
    "select o_orderkey, o_orderdate, sum(l_quantity) as q from orders, lineitem "
    "where o_orderkey = l_orderkey group by o_orderkey, o_orderdate"
)


def assert_oracle_rows(session, sql):
    batch = session.bind(sql)
    outcome = session.execute(batch)
    oracle = evaluate_batch(session.database, batch)
    for query in batch.queries:
        assert_same_rows(
            outcome.execution.query(query.name).rows, oracle[query.name], query.name
        )
    return outcome


def identity_nodes(session, sql):
    bundle = session.optimize(sql).bundle
    plans = [body for _, body in bundle.root_spools] + [q.plan for q in bundle.queries]
    return [n for plan in plans for n in plan.walk() if isinstance(n, PhysIdentityAgg)]


@pytest.fixture()
def fresh_db():
    """A private SF 0.002 database the test may write to."""
    return build_tpch_database(scale_factor=0.002)


# -- the fact ------------------------------------------------------------------


def test_analyze_verifies_declared_keys(small_db):
    """Every TPC-H key holds on the generated rows but partsupp's: the
    generator draws (part, supplier) pairs at random, so some repeat, and
    ``analyze`` refuses the declared composite key."""
    for schema in small_db.catalog.tables():
        assert schema.primary_key
        verified = small_db.statistics(schema.name).primary_key
        assert verified == (() if schema.name == "partsupp" else schema.primary_key)
    estimator = CardinalityEstimator(small_db)
    assert [c.column for c in estimator.key_columns(TableRef("lineitem", 0))] == [
        "l_orderkey", "l_linenumber"
    ]
    assert estimator.key_columns(TableRef("partsupp", 1)) == ()
    # The same composite key, made to hold, is verified.
    partsupp = small_db.table("partsupp")
    n = partsupp.row_count
    db = Database()
    db.create_table(partsupp.schema, {
        name: partsupp.column(name) for name in partsupp.schema.column_names
    })
    db.load("partsupp", {
        **{name: partsupp.column(name) for name in partsupp.schema.column_names},
        "ps_partkey": np.arange(n) // 4 + 1,
        "ps_suppkey": np.arange(n) % 4 + 1,
    })
    db.analyze()
    assert db.statistics("partsupp").primary_key == ("ps_partkey", "ps_suppkey")


def test_writes_drop_the_fact_and_deltas_never_have_one(fresh_db):
    estimator = CardinalityEstimator(fresh_db)
    orders = TableRef("orders", 0)
    assert estimator.key_columns(orders)
    delta = TableRef("orders", 1, is_delta=True, storage_name="orders")
    assert estimator.key_columns(delta) == ()
    fresh_db.insert("orders", [fresh_db.table("orders").rows()[0]])
    assert estimator.key_columns(orders) == ()
    fresh_db.analyze("orders")  # the duplicate o_orderkey fails verification
    assert fresh_db.has_statistics("orders")
    assert estimator.key_columns(orders) == ()
    customer = fresh_db.table("customer")
    fresh_db.load(
        "customer", {name: customer.column(name) for name in customer.schema.column_names}
    )
    assert estimator.key_columns(TableRef("customer", 2)) == ()


def test_is_unique():
    n = 5000
    assert is_unique([np.arange(n)])
    assert not is_unique([np.arange(n) % 4999])
    sparse = np.arange(n, dtype=np.int64) * 10**9  # too sparse to direct-address
    assert is_unique([sparse, np.zeros(n, dtype=np.int64)])
    assert not is_unique([sparse % (10**9 * 17), np.arange(n) % 3])
    assert is_unique([np.arange(n) // 7, np.arange(n) % 7])  # composite
    assert not is_unique([np.arange(n) // 7, np.arange(n) % 3])
    assert is_unique([np.linspace(0.0, 1.0, n)])
    assert is_unique([np.empty(0, dtype=np.int64)])


# -- the fixpoint and the bound ---------------------------------------------------


def block_keys(db, sql):
    block = Session(db).bind(sql).queries[0].block
    info = BlockInfo(block, CardinalityEstimator(db))
    return block, info.keys


def test_uniqueness_needs_a_key_on_the_other_side(small_db):
    block, facts = block_keys(
        small_db,
        "select o_orderkey, count(*) as n from customer, orders "
        "where c_custkey = o_custkey group by o_orderkey",
    )
    customer, orders = sorted(block.tables, key=lambda t: t.table)
    (key,) = [k for k in block.group_keys]
    assert facts.determines([key], [customer, orders])
    block, facts = block_keys(
        small_db,
        "select o_orderkey, count(*) as n from customer, orders "
        "where c_nationkey = o_custkey group by o_orderkey",
    )
    assert not facts.determines(block.group_keys, block.tables)


def test_two_orders_on_o_custkey_do_not_determine_each_other(small_db):
    block, facts = block_keys(
        small_db,
        "select a.o_orderkey, count(*) as n from orders a, orders b "
        "where a.o_custkey = b.o_custkey group by a.o_orderkey",
    )
    first, second = block.tables
    key_of = {t: [c for c in facts.bit if c.table_ref == t and c.column == "o_orderkey"]
              for t in block.tables}
    assert not facts.determines(key_of[first], [first, second])
    assert not facts.determines(key_of[second], [first, second])
    assert facts.determines(key_of[first] + key_of[second], [first, second])


def test_mutually_determining_items_keep_one_in_the_product():
    # orders (item 0) and γ(lineitem) on l_orderkey (item 1), o_orderkey =
    # l_orderkey: bits 0 and 1 form one class, each item's key is its bit.
    item_keys, classes = [0b01, 0b10], [0b11]
    reach = [keys.close(own, classes) for own in (0b01, 0b10)]
    for order in ([0, 1], [1, 0]):
        kept = keys.bound_items(0b01, order, item_keys, reach)
        assert len(kept) == 1
    # A non-key join column fixes nothing: both stay.
    assert keys.bound_items(0b11, [0, 1], [0b100, 0b1000], [0b101, 0b1010]) == [0, 1]


def test_group_bound_uses_the_key_reduced_product(small_db):
    """γ(σ(customer) ⋈ σ(orders) ⋈ lineitem) on customer and orders columns:
    orders determines customer, so the estimate is at most σ(orders)."""
    session = Session(small_db)
    batch = session.bind(
        "select c_mktsegment, o_orderdate, o_orderpriority, sum(l_quantity) as q "
        "from customer, orders, lineitem where c_custkey = o_custkey "
        "and o_orderkey = l_orderkey and o_orderdate < '1996-01-01' "
        "group by c_mktsegment, o_orderdate, o_orderpriority"
    )
    memo = Memo(CardinalityEstimator(small_db))
    top = memo.build_block(batch.queries[0].block, "Q1")
    info = memo.block_infos[batch.queries[0].block.name]
    (orders,) = [t for t in info.tables if t.table == "orders"]
    assert top.est_rows <= info.base_rows[info.bit[orders]]


# -- identity aggregates and rows -----------------------------------------------------


def test_identity_aggregate_is_planned_and_right(small_db):
    session = Session(small_db)
    assert identity_nodes(session, KEYED)
    assert_oracle_rows(session, KEYED)


def test_fig8_spool_is_an_identity_over_customer(small_db):
    session = Session(small_db)
    bundle = session.optimize(FIG8_BATCH).bundle
    (spool_id, body), = bundle.root_spools
    assert isinstance(body.child, PhysIdentityAgg)
    assert {n.table_ref.table for n in body.walk() if hasattr(n, "table_ref")} >= {
        "customer", "orders", "lineitem"
    }
    for query in bundle.queries:
        assert not any(
            getattr(n, "table_ref", None) is not None and n.table_ref.table == "customer"
            for n in query.plan.walk()
        )
    assert_oracle_rows(session, FIG8_BATCH)


def test_duplicate_keys_switch_the_facts_off(fresh_db):
    """Declared keys are not enforced: after a duplicate ``o_orderkey`` and a
    duplicate ``c_custkey`` arrive through ``insert``, no plan may rely on
    them — before and after statistics are collected again."""
    fresh_db.insert("orders", [fresh_db.table("orders").rows()[3]])
    fresh_db.insert("customer", [fresh_db.table("customer").rows()[5]])
    for analyzed in (False, True):
        if analyzed:
            fresh_db.analyze()
            assert fresh_db.statistics("orders").primary_key == ()
            assert fresh_db.statistics("customer").primary_key == ()
            assert fresh_db.statistics("lineitem").primary_key
        session = Session(fresh_db)
        assert not identity_nodes(session, KEYED)
        for sql in (scaleup_batch(10), FIG8_BATCH, KEYED):
            assert_oracle_rows(session, sql)
