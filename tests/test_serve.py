"""Unit tests for the serving layer: fingerprints, the plan cache, and
dependency schedules (``repro.serve``)."""

from __future__ import annotations

import threading

import pytest

from repro import CostModel, OptimizerOptions, Session
from repro.errors import ExecutionError
from repro.executor import Executor
from repro.obs import MetricsRegistry
from repro.serve import (
    PlanCache,
    batch_fingerprint,
    batch_tables,
    build_schedule,
    cache_key,
    config_key,
)
from repro.workloads import example1_batch


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


GROUPED = (
    "select c_nationkey, sum(c_acctbal) as t from customer "
    "where c_custkey > 5 and c_nationkey < 10 group by c_nationkey"
)


class TestFingerprint:
    def test_whitespace_and_conjunct_order_invariant(self, small_session):
        reordered = (
            "select   c_nationkey, sum(c_acctbal) as t\nfrom customer\n"
            "where c_nationkey < 10 and c_custkey > 5 group by c_nationkey"
        )
        assert batch_fingerprint(
            small_session.bind(GROUPED)
        ) == batch_fingerprint(small_session.bind(reordered))

    def test_from_clause_order_invariant(self, small_session):
        forward = small_session.bind(
            "select n_name, sum(c_acctbal) as t from nation, customer "
            "where n_nationkey = c_nationkey group by n_name"
        )
        backward = small_session.bind(
            "select n_name, sum(c_acctbal) as t from customer, nation "
            "where n_nationkey = c_nationkey group by n_name"
        )
        assert batch_fingerprint(forward) == batch_fingerprint(backward)

    def test_changed_constant_changes_fingerprint(self, small_session):
        other = GROUPED.replace("c_custkey > 5", "c_custkey > 6")
        assert batch_fingerprint(
            small_session.bind(GROUPED)
        ) != batch_fingerprint(small_session.bind(other))

    def test_changed_join_changes_fingerprint(self, small_session):
        base = (
            "select n_name, sum(c_acctbal) as t from nation, customer "
            "where n_nationkey = c_nationkey group by n_name"
        )
        other = base.replace("n_nationkey =", "n_regionkey =")
        assert batch_fingerprint(
            small_session.bind(base)
        ) != batch_fingerprint(small_session.bind(other))

    def test_batch_order_matters(self, small_session):
        ab = small_session.bind(
            "select r_name from region; select n_name from nation"
        )
        ba = small_session.bind(
            "select n_name from nation; select r_name from region"
        )
        assert batch_fingerprint(ab) != batch_fingerprint(ba)

    def test_batch_tables(self, small_session):
        batch = small_session.bind(example1_batch())
        assert batch_tables(batch) == frozenset(
            {"customer", "orders", "lineitem", "nation"}
        )

    def test_maintenance_batch_scope_excludes_its_delta(self):
        """§6.4: the delta table is the maintenance batch's input, so
        neither it nor the written base table is in the plan's
        invalidation scope — the other tables the views read are."""
        from repro.views.maintenance import MaintenancePlanner
        from repro.workloads.example1 import example1_views

        session = Session.tpch(scale_factor=0.0005)
        database = session.database
        planner = MaintenancePlanner(database, example1_views(database))
        batch, _ = planner.build_maintenance_batch(
            "customer", "__delta_customer"
        )
        assert batch_tables(batch) == frozenset(
            {"orders", "lineitem", "nation"}
        )
        row = (1, "Customer#again", 7, "BUILDING", 1.0)
        planner.apply_insert("customer", [row])
        planner.apply_insert("customer", [row])
        cache = planner.session.plan_cache
        assert (len(cache), cache.hits) == (1, 1)
        database.insert("orders", [database.table("orders").rows()[0]])
        assert len(cache) == 0

    def test_config_key_distinguishes_options(self):
        model = CostModel()
        assert config_key(OptimizerOptions(), model) != config_key(
            OptimizerOptions(enable_cse=False), model
        )
        assert config_key(OptimizerOptions(), model) == config_key(
            OptimizerOptions(), CostModel()
        )

    def test_cache_key_tracks_catalog_version(self):
        session = Session.tpch(scale_factor=0.0005)
        batch = session.bind(GROUPED)
        before = cache_key(
            batch, session.database, session.options, session.cost_model
        )
        session.database.analyze("customer")
        after = cache_key(
            batch, session.database, session.options, session.cost_model
        )
        assert before[0] == after[0]  # same query text
        assert before[1] != after[1]  # new catalog version


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------


KEY_A = ("a" * 64, 0, "cfg")
KEY_B = ("b" * 64, 0, "cfg")
KEY_C = ("c" * 64, 0, "cfg")


class TestPlanCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(0)

    def test_hit_miss_counters(self):
        registry = MetricsRegistry()
        cache = PlanCache(4, registry=registry)
        result = object()
        assert cache.get(KEY_A) is None
        cache.put(KEY_A, result, frozenset({"customer"}))
        assert cache.get(KEY_A) is result
        assert (cache.hits, cache.misses) == (1, 1)
        counters = registry.snapshot()["counters"]
        assert counters["plan_cache.hit"] == 1
        assert counters["plan_cache.miss"] == 1

    def test_lru_eviction_order(self):
        registry = MetricsRegistry()
        cache = PlanCache(2, registry=registry)
        a, b, c = object(), object(), object()
        cache.put(KEY_A, a, frozenset())
        cache.put(KEY_B, b, frozenset())
        assert cache.get(KEY_A) is a  # refresh A; B is now LRU
        cache.put(KEY_C, c, frozenset())
        assert cache.get(KEY_B) is None
        assert cache.get(KEY_A) is a
        assert cache.get(KEY_C) is c
        assert cache.evictions == 1
        assert registry.snapshot()["counters"]["plan_cache.eviction"] == 1

    def test_invalidate_by_table(self):
        cache = PlanCache(4)
        cache.put(KEY_A, object(), frozenset({"customer", "orders"}))
        cache.put(KEY_B, object(), frozenset({"nation"}))
        assert cache.invalidate("ORDERS") == 1
        assert cache.get(KEY_A) is None
        assert cache.get(KEY_B) is not None
        assert cache.invalidations == 1

    def test_invalidate_matches_mixed_case_put(self):
        """put() must normalize table names: invalidation matches on
        lower-cased names, so an entry stored under mixed-case DDL
        spelling used to survive the mutation that should drop it."""
        cache = PlanCache(4)
        cache.put(KEY_A, object(), frozenset({"Orders", "LineItem"}))
        # The database's mutation hook always fires lower-cased.
        assert cache.invalidate("lineitem") == 1
        assert cache.get(KEY_A) is None

    def test_mixed_case_ddl_invalidates_session_cache(self):
        """End to end: a mutation of a mixed-case table drops the cached
        plan of a batch reading it."""
        import numpy as np

        from repro import Session
        from repro.catalog.schema import ColumnSchema, TableSchema
        from repro.storage.database import Database
        from repro.types import DataType

        database = Database()
        database.create_table(
            TableSchema(
                name="CamelCase",
                columns=[ColumnSchema("cc_id", DataType.INT)],
            ),
            {"cc_id": np.arange(10, dtype=np.int64)},
        )
        session = Session(database)
        sql = "select cc_id from CamelCase"
        session.execute(sql)
        assert session.execute(sql).plan_cache_hit
        database.insert("CamelCase", [(99,)])
        assert not session.execute(sql).plan_cache_hit

    def test_invalidate_all(self):
        cache = PlanCache(4)
        cache.put(KEY_A, object(), frozenset({"customer"}))
        cache.put(KEY_B, object(), frozenset({"nation"}))
        assert cache.invalidate() == 2
        assert len(cache) == 0

    def test_concurrent_access_is_consistent(self):
        cache = PlanCache(8)
        keys = [(f"{i}" * 64, 0, "cfg") for i in range(16)]
        lookups_per_thread = 200
        errors = []

        def hammer(thread_index: int) -> None:
            try:
                for i in range(lookups_per_thread):
                    key = keys[(thread_index + i) % len(keys)]
                    if cache.get(key) is None:
                        cache.put(key, object(), frozenset({"customer"}))
                    if i % 50 == 0:
                        cache.invalidate("customer")
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= cache.capacity
        assert cache.hits + cache.misses == 8 * lookups_per_thread


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


class TestSchedule:
    def test_shared_spool_dag(self, small_session):
        result = small_session.optimize(example1_batch())
        assert result.stats.used_cses  # the batch shares a spool
        schedule = build_schedule(result.bundle)
        spools = [t for t in schedule.tasks if t.kind == "spool"]
        queries = [t for t in schedule.tasks if t.kind == "query"]
        assert [t.label for t in queries] == ["Q1", "Q2", "Q3"]
        assert spools, "kept CSEs must appear as spool tasks"
        # Every query reading a spool depends on that spool's task.
        spool_indices = {t.index for t in spools}
        assert all(set(q.deps) <= spool_indices for q in queries)
        assert any(q.deps for q in queries)
        # Consumers of one shared spool can run concurrently.
        assert schedule.width >= 2

    def test_topological_task_order(self, small_session):
        result = small_session.optimize(example1_batch())
        schedule = build_schedule(result.bundle)
        for task in schedule.tasks:
            assert all(dep < task.index for dep in task.deps)

    def test_describe_lists_dependencies(self, small_session):
        result = small_session.optimize(example1_batch())
        text = build_schedule(result.bundle).describe()
        assert "spool" in text
        assert "query Q1" in text
        assert "<-" in text  # at least one dependency edge rendered

    def test_independent_queries_have_no_deps(self, small_session):
        result = small_session.optimize(
            "select r_name from region; select n_name from nation"
        )
        schedule = build_schedule(result.bundle)
        assert all(t.kind == "query" and not t.deps for t in schedule.tasks)
        assert schedule.width == 2


    def test_select_picks_each_callers_tasks(self, small_session):
        """The three callers of the one runner differ only in selection:
        whole bundle, producers only, or named queries plus the spools
        they still need."""
        from repro.workloads import independent_pairs_batch

        result = small_session.optimize(independent_pairs_batch())
        schedule = build_schedule(result.bundle)
        spool_of = {
            t.index: t.label for t in schedule.tasks if t.kind == "spool"
        }
        assert len(spool_of) >= 2
        assert schedule.select() == schedule.tasks
        producers = schedule.select(spools_only=True)
        assert {t.kind for t in producers} == {"spool"}
        assert producers == [t for t in schedule.tasks if t.kind == "spool"]
        reader = next(
            t for t in schedule.tasks
            if t.kind == "query" and set(t.deps) & set(spool_of)
        )
        needed = {spool_of[d] for d in reader.deps if d in spool_of}
        mine = schedule.select(queries={reader.label})
        assert {t.label for t in mine if t.kind == "spool"} == needed
        assert [t.label for t in mine if t.kind == "query"] == [reader.label]
        # Every dependency of a selected task is itself selected.
        indices = {t.index for t in mine}
        assert all(set(t.deps) <= indices for t in mine)
        # Pre-published spools are neither run nor chased.
        attached = schedule.select(queries={reader.label}, present=needed)
        assert [t.kind for t in attached] == ["query"]


class TestParallelExecutorConstruction:
    def test_workers_must_be_positive(self, small_db):
        with pytest.raises(ExecutionError):
            Executor(small_db, workers=0)

    def test_session_workers_must_be_positive(self, small_db):
        # Session, Executor and Session.execute share one rule for
        # ``workers``; the constructor used to clamp 0 to 1 silently.
        with pytest.raises(ExecutionError, match="workers must be positive"):
            Session(small_db, workers=0)


class TestWarmExecuteSkipsOptimization:
    def test_no_optimizer_span_on_cache_hit(self, small_db):
        from repro import Tracer

        tracer = Tracer()
        session = Session(small_db, OptimizerOptions(), tracer=tracer)
        session.execute(example1_batch())
        cold_names = [e.name for e in tracer.events]
        assert "optimize" in cold_names
        cold_optimize_spans = cold_names.count("optimize")

        warm = session.execute(example1_batch())
        assert warm.plan_cache_hit
        warm_names = [e.name for e in tracer.events]
        # The warm run adds a plan_cache_hit event and no optimizer span.
        assert warm_names.count("optimize") == cold_optimize_spans
        assert "plan_cache_hit" in warm_names
