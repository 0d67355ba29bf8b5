"""The statement memo: a cached batch is parsed, bound and fingerprinted
once, and the memo lives exactly as long as the plan-cache entry holding
the bound batch."""

from __future__ import annotations

import copy
import gc
import sys
import threading
import uuid
import weakref
from collections import Counter

import pytest

from repro import OptimizerOptions, Session
from repro.catalog.schema import ColumnSchema, TableSchema
from repro.catalog.tpch import build_tpch_database
from repro.errors import BindError
from repro.obs import MetricsRegistry
from repro.optimizer.engine import Optimizer
from repro.serve import fingerprint
from repro.serve.fingerprint import cache_key
from repro.sql import parser
from repro.sql.binder import Binder
from repro.sql.parser import ParsedBatch, parse_batch
from repro.types import DataType


def _sql() -> str:
    """A two-query sharing batch whose text no other test parses."""
    tag = uuid.uuid4().hex[:10]
    return (
        f"select o_orderpriority, sum(l_extendedprice) as s_{tag} "
        "from orders, lineitem where o_orderkey = l_orderkey "
        "group by o_orderpriority;\n"
        "select o_orderstatus, sum(l_quantity) as q "
        "from orders, lineitem where o_orderkey = l_orderkey "
        "group by o_orderstatus"
    )


#: every binder path: WITH, outer join, EXISTS, IN list, BETWEEN, a DATE
#: literal, AVG, a scalar subquery in HAVING, ORDER BY.
RICH_SQL = """
with rich as (select c_custkey, c_nationkey, c_acctbal, c_mktsegment
              from customer where c_acctbal > -500)
select c_nationkey, avg(c_acctbal) as a, count(*) as n
from rich left join orders on c_custkey = o_custkey
where c_mktsegment in ('BUILDING', 'MACHINERY')
  and c_acctbal between -1000 and 10000
  and exists (select * from nation where n_nationkey = c_nationkey
              and n_regionkey >= 0)
group by c_nationkey
having sum(c_acctbal) > (select sum(c_acctbal) / 100 from customer)
order by a desc;
select n_name, sum(l_extendedprice) as revenue
from nation, customer, orders, lineitem
where n_nationkey = c_nationkey and c_custkey = o_custkey
  and o_orderkey = l_orderkey and o_orderdate >= date '1994-01-01'
group by n_name
"""


@pytest.fixture()
def calls(monkeypatch):
    """Counts of front-end and optimizer work, by function name."""
    counts: Counter = Counter()

    def spy(owner, name):
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    spy(parser, "tokenize")
    spy(Binder, "_bind_select")
    spy(fingerprint, "_query_text")
    spy(Optimizer, "optimize")
    return counts


@pytest.fixture()
def no_gc():
    """Automatic cyclic collection off: anything freed was freed by
    reference counting, i.e. was not part of a cycle."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _insert_copy_of_first_row(database, table_name):
    table = database.table(table_name)
    names = [c.name for c in table.schema.columns]
    row = tuple(
        v.item() if hasattr(v, "item") else v
        for v in (table.column(n)[0] for n in names)
    )
    database.insert(table_name, [row])


def _table_schema(name):
    return TableSchema(name, [ColumnSchema("x", DataType.INT)])


def _unmemoized(database, sql):
    """Bind ``sql`` from a private copy of its AST (a plain list, which
    the binder never memoizes)."""
    return Binder(database.catalog).bind_batch(copy.deepcopy(list(parse_batch(sql))))


class TestWorkCount:
    def test_warm_execute_skips_parse_bind_and_fingerprint(self, tiny_db, calls):
        registry = MetricsRegistry()
        session = Session(tiny_db, registry=registry)
        sql = _sql()
        cold = session.execute(sql)
        assert not cold.plan_cache_hit
        assert calls["tokenize"] == 1 and calls["_bind_select"] > 0
        assert calls["_query_text"] == 2 and calls["optimize"] == 1
        calls.clear()
        warm = session.execute(sql)
        assert warm.plan_cache_hit
        assert calls == Counter()
        counters = registry.snapshot()["counters"]
        assert counters["plan_cache.hit"] == 1
        assert counters["plan_cache.miss"] == 1

    def test_harness_shaped_sequence_skips_the_same_work(self, tiny_db, calls):
        session = Session(tiny_db)
        sql = _sql()
        session.execute(sql)
        calls.clear()
        statements = parse_batch(sql)
        bound = Binder(tiny_db.catalog).bind_batch(statements)
        key = cache_key(bound, tiny_db, session.options, session.cost_model)
        assert session.plan_cache.get(key) is not None
        assert calls == Counter()
        assert session.plan_cache.hits == 1

    def test_concurrent_binds_share_one_batch(self, tiny_db):
        session = Session(tiny_db, plan_cache_size=0)
        texts = [_sql() for _ in range(3)]
        workers, rounds = 8, 4
        barrier = threading.Barrier(workers)
        bound = [[] for _ in range(workers)]

        def bind(slot):
            barrier.wait()
            for _ in range(rounds):
                bound[slot].extend(session.bind(sql) for sql in texts)

        threads = [
            threading.Thread(target=bind, args=(slot,), daemon=True)
            for slot in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # Every result is still referenced, so each text has exactly one
        # bound batch however the threads interleaved.
        for index in range(len(texts)):
            batches = {id(b) for out in bound for b in out[index::len(texts)]}
            assert len(batches) == 1
        assert sum(map(len, bound)) == workers * rounds * len(texts)


class TestLifetime:
    def test_no_plan_cache_retains_nothing(self, tiny_db, monkeypatch, no_gc):
        refs = []
        real = Session.optimize

        def spy(self, target, *args, **kwargs):
            refs.append(weakref.ref(target))
            refs.append(weakref.ref(target.source))
            return real(self, target, *args, **kwargs)

        monkeypatch.setattr(Session, "optimize", spy)
        outcome = Session(tiny_db, plan_cache_size=0).execute(_sql())
        assert outcome.execution.results
        assert len(refs) == 2
        assert all(ref() is None for ref in refs)

    def test_plan_cache_entry_keeps_the_memo_alive(self, tiny_db, no_gc):
        session = Session(tiny_db)
        sql = _sql()
        session.execute(sql)
        parsed = weakref.ref(parse_batch(sql))
        assert isinstance(parsed(), ParsedBatch)
        session.plan_cache.clear()
        assert parsed() is None

    def test_insert_into_a_read_table_reparses_and_replans(self, calls):
        database = build_tpch_database(scale_factor=0.001)
        session = Session(database)
        sql = _sql()
        session.execute(sql)
        assert session.execute(sql).plan_cache_hit
        _insert_copy_of_first_row(database, "orders")
        calls.clear()
        outcome = session.execute(sql)
        assert not outcome.plan_cache_hit
        assert calls["tokenize"] == 1 and calls["_bind_select"] > 0
        assert calls["optimize"] == 1
        assert session.explain(sql) == session.explain(
            _unmemoized(database, sql)
        )

    def test_ddl_rebinds_without_reparsing(self, calls):
        database = build_tpch_database(scale_factor=0.001)
        session = Session(database)
        sql = _sql()
        first = session.bind(sql)
        name = f"memo_{uuid.uuid4().hex[:8]}"
        for ddl in (
            lambda: database.create_table(_table_schema(name)),
            lambda: database.drop_table(name),
        ):
            version = database.catalog.version
            ddl()
            assert database.catalog.version == version + 1
            calls.clear()
            again = session.bind(sql)
            assert calls["tokenize"] == 0 and calls["_bind_select"] > 0
            assert again is not first and again.source is first.source
            assert session.bind(sql) is again
            first = again

    def test_a_text_that_no_longer_binds_fails_every_time(self):
        database = build_tpch_database(scale_factor=0.001)
        session = Session(database)
        name = f"memo_{uuid.uuid4().hex[:8]}"
        database.create_table(_table_schema(name))
        database.insert(name, [(1,), (2,)])
        sql = f"select sum(x) as total from {name}"
        assert session.execute(sql).execution.results[0].rows == [(3,)]
        assert session.execute(sql).plan_cache_hit
        database.drop_table(name)
        messages = set()
        for _ in range(3):
            with pytest.raises(BindError) as error:
                session.execute(sql)
            messages.add(str(error.value))
        assert len(messages) == 1

    def test_version_is_read_before_binding(self, monkeypatch, calls):
        database = build_tpch_database(scale_factor=0.001)
        session = Session(database)
        sql = _sql()
        name = f"memo_{uuid.uuid4().hex[:8]}"
        real = Binder._bind_select  # the counting spy

        def racing(self, *args, **kwargs):
            if not database.catalog.has_table(name):
                database.create_table(_table_schema(name))
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Binder, "_bind_select", racing)
        first = session.bind(sql)
        binds = calls["_bind_select"]
        second = session.bind(sql)
        assert second is not first
        assert calls["_bind_select"] > binds
        assert session.bind(sql) is second


class TestKeys:
    def test_databases_get_their_own_bound_batches(self, tiny_db, small_db):
        sql = _sql()
        tiny = Session(tiny_db).bind(sql)
        small = Session(small_db).bind(sql)
        assert tiny is not small
        assert tiny.source is small.source

    def test_coordinator_names_do_not_collide_with_defaults(self, tiny_db):
        session = Session(tiny_db)
        sql = _sql()
        default = session.bind(sql)
        prefixed = session.bind(sql, ["s0__Q1", "s0__Q2"])
        assert [q.name for q in default.queries] == ["Q1", "Q2"]
        assert [q.name for q in prefixed.queries] == ["s0__Q1", "s0__Q2"]
        assert session.bind(sql) is default
        assert session.bind(sql, ["s0__Q1", "s0__Q2"]) is prefixed


class TestImmutability:
    def test_binding_never_writes_the_shared_ast(self, tiny_db, small_db):
        parsed = parse_batch(RICH_SQL)
        snapshot = copy.deepcopy(list(parsed))
        first = Binder(tiny_db.catalog).bind_batch(parsed)
        second = Binder(small_db.catalog).bind_batch(parsed)
        assert first is not second
        assert list(parsed) == snapshot

    def test_optimizing_a_shared_batch_never_writes_it(self, small_db):
        session = Session(small_db, OptimizerOptions(), plan_cache_size=0)
        batch = session.bind(RICH_SQL)
        snapshot = copy.deepcopy(batch.queries)
        first = session.explain(batch, costs=True)
        second = session.explain(batch, costs=True)
        assert first == second
        assert batch.queries == snapshot
        assert first == session.explain(
            _unmemoized(small_db, RICH_SQL), costs=True
        )
