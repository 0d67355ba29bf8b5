"""Cross-session coordinator: micro-batching windows, shared spools,
budget accounting, and plan-cache invalidation."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import OptimizerOptions, Session
from repro.catalog.tpch import build_tpch_database
from repro.errors import BudgetExceededError, ExecutionError
from repro.executor.runtime import SharedSpoolPool
from repro.obs import DecisionJournal, MetricsRegistry
from repro.serve import QueryBudget, SharedBatchCoordinator
from repro.storage.worktable import WorkTable


#: a read-only database shared by tests that never mutate it.
DB = build_tpch_database(scale_factor=0.001)

#: overlapping two-table aggregations — the canonical sharing pair.
Q_PRIORITY = (
    "select o_orderpriority, sum(l_extendedprice) as s "
    "from orders, lineitem where o_orderkey = l_orderkey "
    "group by o_orderpriority"
)
Q_STATUS = (
    "select o_orderstatus, sum(l_quantity) as q "
    "from orders, lineitem where o_orderkey = l_orderkey "
    "group by o_orderstatus"
)


def _norm(rows):
    return sorted(
        [
            tuple(round(v, 4) if isinstance(v, float) else v for v in row)
            for row in rows
        ],
        key=repr,
    )


def _run_concurrent(jobs, timeout=60.0):
    """Run (name, fn) jobs on threads; return {name: result or exception}."""
    results = {}

    def wrap(name, fn):
        try:
            results[name] = fn()
        except BaseException as error:  # noqa: BLE001 — surfaced below
            results[name] = error

    threads = [
        threading.Thread(target=wrap, args=(name, fn), daemon=True)
        for name, fn in jobs
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    assert not any(t.is_alive() for t in threads), "coordinator deadlocked"
    for name, value in results.items():
        if isinstance(value, BaseException):
            raise AssertionError(f"job {name} raised") from value
    return results


# ---------------------------------------------------------------------------
# SharedSpoolPool refcounting
# ---------------------------------------------------------------------------


def _worktable(rows=3):
    from repro.types import DataType

    return WorkTable(
        name="t",
        column_names=["x"],
        column_types=[DataType.INT],
        columns={"x": np.arange(rows, dtype=np.int64)},
    )


class TestSharedSpoolPool:
    def test_last_detach_frees(self):
        pool = SharedSpoolPool()
        table = _worktable()
        pool.publish("E1", table, consumers=2)
        assert pool.attach("E1") is table
        assert pool.attach("E1") is table
        assert not pool.detach("E1")
        assert pool.live == 1
        assert pool.detach("E1")
        assert pool.live == 0
        assert pool.freed == 1

    def test_zero_consumer_spool_never_held(self):
        pool = SharedSpoolPool()
        pool.publish("E1", _worktable(), consumers=0)
        assert pool.live == 0
        assert pool.published == 1
        assert pool.freed == 1

    def test_attach_after_free_errors(self):
        pool = SharedSpoolPool()
        pool.publish("E1", _worktable(), consumers=1)
        pool.attach("E1")
        assert pool.detach("E1")
        with pytest.raises(ExecutionError):
            pool.attach("E1")

    def test_extra_detach_is_harmless(self):
        pool = SharedSpoolPool()
        pool.publish("E1", _worktable(), consumers=1)
        assert pool.detach("E1")
        assert not pool.detach("E1")
        assert pool.freed == 1


# ---------------------------------------------------------------------------
# Window protocol end-to-end
# ---------------------------------------------------------------------------


def _sessions(coordinator, registry, count=2, **kwargs):
    return [
        Session(DB, coordinator=coordinator, registry=registry, **kwargs)
        for _ in range(count)
    ]


def _counters(registry):
    return registry.snapshot()["counters"]


class TestCoordinatorMerging:
    def test_two_sessions_merge_and_rows_match_isolated(self):
        registry = MetricsRegistry()
        coordinator = SharedBatchCoordinator(
            window_ms=5000.0, max_group=2, registry=registry
        )
        s1, s2 = _sessions(coordinator, registry)
        results = _run_concurrent(
            [
                ("a", lambda: s1.execute(Q_PRIORITY)),
                ("b", lambda: s2.execute(Q_STATUS)),
            ]
        )
        counters = _counters(registry)
        assert counters.get("coordinator.merged_batches") == 1
        assert counters.get("coordinator.merged_consumers") == 2
        assert counters.get("coordinator.spools_published", 0) >= 1
        # Every published spool was freed by its last consumer detach.
        assert counters.get("coordinator.spools_freed") == counters.get(
            "coordinator.spools_published"
        )
        iso_a = Session(DB).execute(Q_PRIORITY)
        iso_b = Session(DB).execute(Q_STATUS)
        a, b = results["a"], results["b"]
        # Results are renamed back to each consumer's own query names.
        assert [r.name for r in a.execution.results] == ["Q1"]
        assert [r.name for r in b.execution.results] == ["Q1"]
        assert _norm(a.execution.results[0].rows) == _norm(
            iso_a.execution.results[0].rows
        )
        assert _norm(b.execution.results[0].rows) == _norm(
            iso_b.execution.results[0].rows
        )
        assert not a.degraded and not b.degraded
        # The merged optimization actually shared work across sessions.
        assert a.optimization.stats.used_cses

    def test_full_group_closes_before_window_expires(self):
        registry = MetricsRegistry()
        coordinator = SharedBatchCoordinator(
            window_ms=30000.0, max_group=2, registry=registry
        )
        s1, s2 = _sessions(coordinator, registry)
        start = time.perf_counter()
        _run_concurrent(
            [
                ("a", lambda: s1.execute(Q_PRIORITY)),
                ("b", lambda: s2.execute(Q_STATUS)),
            ]
        )
        # max_group reached -> the leader woke long before the 30s window.
        assert time.perf_counter() - start < 15.0
        assert _counters(registry).get("coordinator.merged_batches") == 1

    def test_solo_window_runs_ordinary_path(self):
        registry = MetricsRegistry()
        coordinator = SharedBatchCoordinator(
            window_ms=50.0, registry=registry
        )
        (session,) = _sessions(coordinator, registry, count=1)
        outcome = session.execute(Q_PRIORITY)
        counters = _counters(registry)
        assert counters.get("coordinator.solo_windows") == 1
        assert counters.get("coordinator.merged_batches") is None
        iso = Session(DB).execute(Q_PRIORITY)
        assert _norm(outcome.execution.results[0].rows) == _norm(
            iso.execution.results[0].rows
        )

    def test_disjoint_signatures_do_not_merge(self):
        registry = MetricsRegistry()
        coordinator = SharedBatchCoordinator(
            window_ms=400.0, max_group=2, registry=registry
        )
        s1, s2 = _sessions(coordinator, registry)
        barrier = threading.Barrier(2)

        def run(session, sql):
            barrier.wait()
            return session.execute(sql)

        _run_concurrent(
            [
                ("a", lambda: run(s1, "select c_nationkey from customer")),
                ("b", lambda: run(s2, "select p_size from part")),
            ]
        )
        counters = _counters(registry)
        assert counters.get("coordinator.merged_batches") is None
        assert counters.get("coordinator.solo_windows") == 2

    def test_window_zero_disables(self):
        registry = MetricsRegistry()
        coordinator = SharedBatchCoordinator(window_ms=0.0, registry=registry)
        (session,) = _sessions(coordinator, registry, count=1)
        session.execute(Q_PRIORITY)
        assert "coordinator.windows" not in _counters(registry)

    def test_session_private_coordinator_from_share_window_ms(self):
        coordinator = SharedBatchCoordinator(window_ms=25.0)
        session = Session(DB, coordinator=coordinator)
        assert session.coordinator is not None
        assert session.coordinator.enabled
        outcome = session.execute(Q_PRIORITY)
        iso = Session(DB).execute(Q_PRIORITY)
        assert _norm(outcome.execution.results[0].rows) == _norm(
            iso.execution.results[0].rows
        )

    def test_bound_batch_target_bypasses(self):
        registry = MetricsRegistry()
        coordinator = SharedBatchCoordinator(
            window_ms=50.0, registry=registry
        )
        (session,) = _sessions(coordinator, registry, count=1)
        session.execute(session.bind(Q_PRIORITY))
        counters = _counters(registry)
        assert counters.get("coordinator.bypass") == 1
        assert counters.get("coordinator.windows") is None

    def test_deadline_budget_bypasses(self):
        registry = MetricsRegistry()
        coordinator = SharedBatchCoordinator(
            window_ms=50.0, registry=registry
        )
        (session,) = _sessions(coordinator, registry, count=1)
        outcome = session.execute(
            Q_PRIORITY, budget=QueryBudget(deadline_ms=60000.0)
        )
        assert _counters(registry).get("coordinator.bypass") == 1
        assert not outcome.degraded

    def test_config_mismatch_never_merges(self):
        registry = MetricsRegistry()
        coordinator = SharedBatchCoordinator(
            window_ms=400.0, max_group=2, registry=registry
        )
        s_paper = Session(DB, coordinator=coordinator, registry=registry)
        s_greedy = Session(
            DB,
            OptimizerOptions(cse_strategy="greedy"),
            coordinator=coordinator,
            registry=registry,
        )
        _run_concurrent(
            [
                ("a", lambda: s_paper.execute(Q_PRIORITY)),
                ("b", lambda: s_greedy.execute(Q_STATUS)),
            ]
        )
        counters = _counters(registry)
        assert counters.get("coordinator.merged_batches") is None
        assert counters.get("coordinator.solo_windows") == 2


class TestCoordinatorBudgets:
    def test_spool_budget_charged_per_consumer_falls_back(self):
        registry = MetricsRegistry()
        coordinator = SharedBatchCoordinator(
            window_ms=5000.0, max_group=2, registry=registry
        )
        s1, s2 = _sessions(coordinator, registry)
        tight = QueryBudget(max_spool_rows=1)
        results = _run_concurrent(
            [
                ("a", lambda: s1.execute(Q_PRIORITY, budget=tight)),
                ("b", lambda: s2.execute(Q_STATUS)),
            ]
        )
        counters = _counters(registry)
        assert counters.get("coordinator.merged_batches") == 1
        # The budgeted consumer's attach charge busted its own budget; it
        # fell back to its ordinary path, where its lone query plans no
        # shared spools and runs clean under the same budget.
        assert counters.get("coordinator.fallback.consumer") == 1
        assert not results["a"].degraded
        assert not results["a"].optimization.bundle.root_spools
        # The unbudgeted consumer was untouched by its neighbour's budget.
        assert not results["b"].degraded
        iso_a = Session(DB).execute(Q_PRIORITY)
        assert _norm(results["a"].execution.results[0].rows) == _norm(
            iso_a.execution.results[0].rows
        )

    @pytest.mark.parametrize("budgeted", ["a", "b"])
    def test_producer_metrics_survive_a_consumer_fallback(self, budgeted):
        """Whichever consumer falls back on its own budget — the one that
        sorted into slot 0 or the other — the producer phase's write side
        is published exactly once and lands in the surviving consumer's
        result, so no ledger prices a spool nobody wrote."""
        registry = MetricsRegistry()
        coordinator = SharedBatchCoordinator(
            window_ms=5000.0, max_group=2, registry=registry
        )
        s1, s2 = _sessions(coordinator, registry)
        tight = QueryBudget(max_rows=1)

        def run(session, sql, name):
            try:
                return session.execute(
                    sql, budget=tight if name == budgeted else None
                )
            except BudgetExceededError:
                # The row cap re-trips on the unshared retry too; only
                # the neighbour's outcome matters here.
                return None

        results = _run_concurrent(
            [
                ("a", lambda: run(s1, Q_PRIORITY, "a")),
                ("b", lambda: run(s2, Q_STATUS, "b")),
            ]
        )
        counters = _counters(registry)
        assert counters.get("coordinator.fallback.consumer") == 1
        assert counters.get("coordinator.spools_published", 0) >= 1
        assert counters.get("executor.spools_materialized") == counters.get(
            "coordinator.spools_published"
        )
        assert counters.get("executor.spool_rows_written", 0) > 0
        survivor = results["b" if budgeted == "a" else "a"]
        metrics = survivor.execution.metrics
        assert metrics.spools_materialized == counters.get(
            "coordinator.spools_published"
        )
        assert survivor.ledger.spools
        for entry in survivor.ledger.spools:
            assert entry.rows_written > 0 and entry.consumers >= 1

    def test_generous_budget_stays_shared(self):
        registry = MetricsRegistry()
        coordinator = SharedBatchCoordinator(
            window_ms=5000.0, max_group=2, registry=registry
        )
        s1, s2 = _sessions(coordinator, registry)
        roomy = QueryBudget(max_spool_rows=1_000_000)
        results = _run_concurrent(
            [
                ("a", lambda: s1.execute(Q_PRIORITY, budget=roomy)),
                ("b", lambda: s2.execute(Q_STATUS, budget=roomy)),
            ]
        )
        counters = _counters(registry)
        assert counters.get("coordinator.merged_batches") == 1
        assert counters.get("coordinator.fallbacks") is None
        assert not results["a"].degraded and not results["b"].degraded


class TestMergedPlanCache:
    def _merge_round(self, coordinator, registry, sessions=None):
        s1, s2 = sessions or _sessions(coordinator, registry)
        return _run_concurrent(
            [
                ("a", lambda: s1.execute(Q_PRIORITY)),
                ("b", lambda: s2.execute(Q_STATUS)),
            ]
        )

    def test_second_window_hits_merged_plan_cache(self):
        registry = MetricsRegistry()
        coordinator = SharedBatchCoordinator(
            window_ms=5000.0, max_group=2, registry=registry
        )
        cold = self._merge_round(coordinator, registry)
        warm = self._merge_round(coordinator, registry)
        assert not cold["a"].plan_cache_hit
        assert warm["a"].plan_cache_hit and warm["b"].plan_cache_hit
        assert _norm(warm["a"].execution.results[0].rows) == _norm(
            cold["a"].execution.results[0].rows
        )

    def test_mid_window_mutation_evicts_merged_plan(self):
        database = build_tpch_database(scale_factor=0.001)
        registry = MetricsRegistry()
        coordinator = SharedBatchCoordinator(
            window_ms=5000.0, max_group=2, registry=registry
        )
        s1 = Session(database, coordinator=coordinator, registry=registry)
        s2 = Session(database, coordinator=coordinator, registry=registry)

        def round_of(sessions):
            a, b = sessions
            return _run_concurrent(
                [
                    ("a", lambda: a.execute(Q_PRIORITY)),
                    ("b", lambda: b.execute(Q_STATUS)),
                ]
            )

        round_of((s1, s2))
        warm = round_of((s1, s2))
        assert warm["a"].plan_cache_hit

        # Third window: the leader opens, and while it is still waiting a
        # mutation lands on a table the merged plan reads. The merged
        # entry must be evicted (listener) *and* the close-time key must
        # see the bumped catalog version — either alone would do; both
        # guarantee the stale plan cannot be served.
        table = database.table("orders")
        names = [c.name for c in table.schema.columns]
        row = tuple(
            v.item() if hasattr(v, "item") else v
            for v in (table.column(n)[0] for n in names)
        )
        outcomes = {}

        def leader():
            outcomes["a"] = s1.execute(Q_PRIORITY)

        def follower():
            outcomes["b"] = s2.execute(Q_STATUS)

        t1 = threading.Thread(target=leader, daemon=True)
        t1.start()
        time.sleep(0.5)  # leader is parked inside its window
        database.insert("orders", [row])
        t2 = threading.Thread(target=follower, daemon=True)
        t2.start()
        t1.join(60.0)
        t2.join(60.0)
        assert not t1.is_alive() and not t2.is_alive()
        assert not outcomes["a"].plan_cache_hit
        assert not outcomes["b"].plan_cache_hit
        counters = _counters(registry)
        assert counters.get("plan_cache.invalidation", 0) >= 1
        iso = Session(database).execute(Q_PRIORITY)
        assert _norm(outcomes["a"].execution.results[0].rows) == _norm(
            iso.execution.results[0].rows
        )


class TestCoordinatorStrategy:
    def test_greedy_strategy_optimizes_merged_batch(self):
        registry = MetricsRegistry()
        coordinator = SharedBatchCoordinator(
            window_ms=5000.0, max_group=2, registry=registry
        )
        options = OptimizerOptions(cse_strategy="greedy")
        s1 = Session(
            DB, options, coordinator=coordinator, registry=registry
        )
        s2 = Session(
            DB, options, coordinator=coordinator, registry=registry
        )
        results = _run_concurrent(
            [
                ("a", lambda: s1.execute(Q_PRIORITY)),
                ("b", lambda: s2.execute(Q_STATUS)),
            ]
        )
        assert _counters(registry).get("coordinator.merged_batches") == 1
        assert results["a"].optimization.stats.strategy == "greedy"
        iso = Session(DB, options).execute(Q_PRIORITY)
        assert _norm(results["a"].execution.results[0].rows) == _norm(
            iso.execution.results[0].rows
        )

    def test_journal_names_shared_merge_and_strategy(self):
        registry = MetricsRegistry()
        coordinator = SharedBatchCoordinator(
            window_ms=5000.0, max_group=2, registry=registry
        )
        journal = DecisionJournal()
        s1 = Session(
            DB, coordinator=coordinator, registry=registry, journal=journal
        )
        s2 = Session(DB, coordinator=coordinator, registry=registry)
        _run_concurrent(
            [
                ("a", lambda: s1.execute(Q_PRIORITY)),
                ("b", lambda: s2.execute(Q_STATUS)),
            ]
        )
        merges = journal.events("shared_merge")
        # The journal entry exists only when this session led the window;
        # either way the window must have merged both consumers.
        assert _counters(registry).get("coordinator.merged_consumers") == 2
        if merges:
            assert merges[0]["consumers"] == 2
            assert merges[0]["strategy"] in ("paper", "greedy")


class TestCoordinatorStress:
    SQL_POOL = [
        Q_PRIORITY,
        Q_STATUS,
        (
            "select o_orderpriority, count(*) as c "
            "from orders, lineitem where o_orderkey = l_orderkey "
            "group by o_orderpriority"
        ),
        (
            "select c_nationkey, sum(o_totalprice) as t "
            "from customer, orders where c_custkey = o_custkey "
            "group by c_nationkey"
        ),
    ]

    def test_eight_threads_three_rounds_match_isolated(self):
        registry = MetricsRegistry()
        coordinator = SharedBatchCoordinator(
            window_ms=250.0, max_group=8, registry=registry
        )
        sessions = _sessions(coordinator, registry, count=8)
        oracle = {
            sql: _norm(
                Session(DB).execute(sql).execution.results[0].rows
            )
            for sql in self.SQL_POOL
        }
        for round_no in range(3):
            jobs = []
            for i, session in enumerate(sessions):
                sql = self.SQL_POOL[(i + round_no) % len(self.SQL_POOL)]
                jobs.append(
                    (f"r{round_no}t{i}", lambda s=session, q=sql: (q, s.execute(q)))
                )
            results = _run_concurrent(jobs, timeout=120.0)
            for sql, outcome in results.values():
                assert (
                    _norm(outcome.execution.results[0].rows) == oracle[sql]
                )
        counters = _counters(registry)
        # 24 executes across 3 rounds: sharing must actually have happened.
        assert counters.get("coordinator.merged_consumers", 0) >= 4
        assert counters.get("coordinator.spools_freed", 0) == counters.get(
            "coordinator.spools_published", 0
        )
