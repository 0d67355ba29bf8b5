"""Cross-session coordinator: micro-batching windows, shared spools,
budget accounting, and plan-cache invalidation."""

from __future__ import annotations

import gc
import threading
import time

import numpy as np
import pytest

from repro import OptimizerOptions, Session
from repro.catalog.tpch import build_tpch_database
from repro.errors import BudgetExceededError, ExecutionError
from repro.executor.runtime import SharedSpoolPool
from repro.obs import MetricsRegistry, Tracer
from repro.serve import QueryBudget, SharedBatchCoordinator
from repro.serve.fingerprint import batch_fingerprint
from repro.storage.table import Table

from .rows import assert_same_rows
from .selection_reference import reference_select


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
    from repro.catalog.schema import ColumnSchema, TableSchema
    from repro.types import DataType

    return Table(
        TableSchema("t", [ColumnSchema("x", DataType.INT)]),
        {"x": np.arange(rows, dtype=np.int64)},
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
        assert_same_rows(a.execution.results[0].rows, iso_a.execution.results[0].rows)
        assert_same_rows(b.execution.results[0].rows, iso_b.execution.results[0].rows)
        assert not a.degraded and not b.degraded
        # The merged optimization actually shared work across sessions.
        assert a.optimization.stats.used_cses

    def test_consumer_ledgers_price_spools_over_the_merged_reads(self):
        """Each consumer reads a shared spool once, but the spool serves
        both: every consumer's ledger prices it over the merged batch's
        planned reads, as one session running both queries does, and no
        consumer flags it as a loss on its own share of the reads."""
        registry = MetricsRegistry()
        tracer = Tracer()
        coordinator = SharedBatchCoordinator(
            window_ms=5000.0, max_group=2, registry=registry
        )
        s1, s2 = (
            Session(DB, coordinator=coordinator, registry=registry,
                    tracer=tracer)
            for _ in range(2)
        )
        results = _run_concurrent(
            [
                ("a", lambda: s1.execute(Q_PRIORITY)),
                ("b", lambda: s2.execute(Q_STATUS)),
            ]
        )
        assert _counters(registry).get("coordinator.merged_batches") == 1
        batch = Session(DB).execute(Q_PRIORITY + ";" + Q_STATUS).ledger
        expected = {
            s["spool"]: (s["planned_consumers"], s["est_savings"])
            for s in batch["spools"]
        }
        assert expected and all(n == 2 for n, _ in expected.values())
        for outcome in results.values():
            ledger = outcome.ledger
            assert {
                s["spool"]: (s["planned_consumers"], s["est_savings"])
                for s in ledger["spools"]
            } == expected
            assert ledger["negative_spools"] == []
            # Per-query parts name this consumer's own queries only.
            assert [q["query"] for q in ledger["queries"]] == ["Q1"]
        assert not [
            e for e in tracer.events if e.name == "negative_spool_benefit"
        ]
        assert registry.get("ledger.negative_spools") == 0

    def test_spools_no_query_reads_count_as_freed(self):
        """A root spool that only other spools' bodies read (a stacked CSE)
        is dropped when it is published; the registry must count it as
        freed, or every such merge reads as a leak."""
        registry = MetricsRegistry()
        coordinator = SharedBatchCoordinator(window_ms=5000.0, registry=registry)
        session = Session(DB, registry=registry)
        result = session.optimize(Q_PRIORITY + ";" + Q_STATUS)
        assert result.bundle.root_spools
        run = coordinator._materialize(session, result, reads={})
        counters = _counters(registry)
        assert run.pool.live == 0
        assert counters["coordinator.spools_published"] == len(result.bundle.root_spools)
        assert counters.get("coordinator.spools_freed") == len(result.bundle.root_spools)

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
        assert_same_rows(
            outcome.execution.results[0].rows, iso.execution.results[0].rows
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
        assert_same_rows(
            outcome.execution.results[0].rows, iso.execution.results[0].rows
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
        s_default = Session(DB, coordinator=coordinator, registry=registry)
        s_unpruned = Session(
            DB,
            OptimizerOptions(enable_heuristics=False),
            coordinator=coordinator,
            registry=registry,
        )
        _run_concurrent(
            [
                ("a", lambda: s_default.execute(Q_PRIORITY)),
                ("b", lambda: s_unpruned.execute(Q_STATUS)),
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
        assert_same_rows(
            results["a"].execution.results[0].rows, iso_a.execution.results[0].rows
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
        assert survivor.ledger["spools"]
        for entry in survivor.ledger["spools"]:
            assert entry["rows_written"] > 0 and entry["consumers"] >= 1

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
        assert_same_rows(
            warm["a"].execution.results[0].rows, cold["a"].execution.results[0].rows
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
        assert_same_rows(
            outcomes["a"].execution.results[0].rows, iso.execution.results[0].rows
        )

    def test_merged_plan_cache_dies_with_its_database(self):
        # A cache keyed by id(database) outlived it: its plans stayed
        # alive, and a later database reusing the id could be served them.
        database = build_tpch_database(scale_factor=0.002)
        registry = MetricsRegistry()
        coordinator = SharedBatchCoordinator(
            window_ms=5000.0, max_group=2, registry=registry
        )
        sessions = [
            Session(database, coordinator=coordinator, registry=registry)
            for _ in range(2)
        ]
        self._merge_round(coordinator, registry, sessions)
        assert _counters(registry).get("coordinator.merged_batches") == 1
        assert len(coordinator._caches) == 1
        assert coordinator._open == {}
        del database, sessions
        gc.collect()
        assert len(coordinator._caches) == 0


class TestCoordinatorStrategy:
    def test_greedy_strategy_optimizes_merged_batch(self):
        """The merged batch's one Step-3 pass shares, and costs no more
        than Roy et al.'s greedy selection (the oracle) finds for the same
        batch."""
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
        assert _counters(registry).get("coordinator.merged_batches") == 1
        merged = results["a"].optimization
        iso = Session(DB)
        ordered = sorted(
            (Q_PRIORITY, Q_STATUS),
            key=lambda sql: batch_fingerprint(iso.bind(sql)),
        )
        _, found = reference_select(
            DB, ";\n".join(ordered), OptimizerOptions(), ("greedy",)
        )
        assert merged.stats.used_cses
        assert merged.est_cost <= found["greedy"][0]
        iso = iso.execute(Q_PRIORITY)
        assert_same_rows(
            results["a"].execution.results[0].rows, iso.execution.results[0].rows
        )

    def test_trace_names_shared_merge_and_strategy(self):
        """One ``shared_merge`` event per merged window; it names no Step-3
        strategy, since there is one."""
        registry = MetricsRegistry()
        coordinator = SharedBatchCoordinator(
            window_ms=5000.0, max_group=2, registry=registry
        )
        # One tracer for both sessions: whichever leads the window emits
        # the merge event.
        tracer = Tracer()
        s1 = Session(
            DB, coordinator=coordinator, registry=registry, tracer=tracer
        )
        s2 = Session(
            DB, coordinator=coordinator, registry=registry, tracer=tracer
        )
        _run_concurrent(
            [
                ("a", lambda: s1.execute(Q_PRIORITY)),
                ("b", lambda: s2.execute(Q_STATUS)),
            ]
        )
        merges = [e.attrs for e in tracer.events if e.name == "shared_merge"]
        assert _counters(registry).get("coordinator.merged_consumers") == 2
        assert len(merges) == 1
        assert merges[0]["consumers"] == 2
        assert merges[0]["queries"] == 2
        assert "strategy" not in merges[0]

    def test_merged_plan_carries_no_session_journal(self):
        """Every session in a window receives the same (cached) merged
        optimization result, so it must not hold one session's decision
        trace."""
        registry = MetricsRegistry()
        coordinator = SharedBatchCoordinator(
            window_ms=5000.0, max_group=2, registry=registry
        )
        s1 = Session(
            DB, coordinator=coordinator, registry=registry, tracer=Tracer(),
        )
        s2 = Session(DB, coordinator=coordinator, registry=registry)
        results = _run_concurrent(
            [
                ("a", lambda: s1.execute(Q_PRIORITY)),
                ("b", lambda: s2.execute(Q_STATUS)),
            ]
        )
        assert _counters(registry).get("coordinator.merged_batches") == 1
        for outcome in results.values():
            assert not hasattr(outcome.optimization, "journal")
            assert not hasattr(outcome.optimization, "tracer")


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
            sql: Session(DB).execute(sql).execution.results[0].rows
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
                assert_same_rows(outcome.execution.results[0].rows, oracle[sql])
        counters = _counters(registry)
        # 24 executes across 3 rounds: sharing must actually have happened.
        assert counters.get("coordinator.merged_consumers", 0) >= 4
        assert counters.get("coordinator.spools_freed", 0) == counters.get(
            "coordinator.spools_published", 0
        )
