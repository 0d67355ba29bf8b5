"""Concurrency tests for the executor's task runner and shared-session
serving.

The contract under test: *how* a bundle's tasks are run is an
optimization only — inline (``workers=1``), on a thread pool
(``workers=N``), or split across two sessions behind one coordinator
(the "coordinator" mode below, whose consumers' outcomes are summed) —
results, deterministic metrics, and per-operator row counts are
identical, each kept CSE materializes exactly once, failures propagate to
the caller, and one Session can be hammered from many threads without
corrupting results or the plan cache.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro import OptimizerOptions, Session
from repro.errors import ExecutionError
from repro.executor import BatchResult, ExecutionMetrics, Executor
from repro.obs import MetricsRegistry, OperatorStats
from repro.serve import SharedBatchCoordinator
from repro.workloads import (
    example1_batch,
    independent_pairs_batch,
    scaleup_batch,
)

from .conftest import run_split_across_sessions

BATCHES = {
    "example1": example1_batch(),
    "pairs": independent_pairs_batch(),
    "scaleup6": scaleup_batch(6),
}


def _rows(execution):
    """(name, columns, rows) per query — full byte-level result identity."""
    return [
        (result.name, result.columns, result.rows)
        for result in execution.results
    ]


def _coordinated(db, sql, collect_op_stats=False):
    """Run ``sql`` split across two sessions behind one coordinator.

    Returns ``(merged, serial, summed)``: the merged optimization, its
    bundle executed inline by one isolated session (the reference), and
    the two consumers' executions summed into one :class:`BatchResult`
    whose results carry the merged ``s<slot>__`` names again."""
    _, outcomes = run_split_across_sessions(
        db,
        sql,
        SharedBatchCoordinator(window_ms=60000.0, max_group=2),
        collect_op_stats=collect_op_stats,
    )
    assert all(outcome is not None for outcome in outcomes)
    merged = outcomes[0].optimization
    # Both really went through the shared path (no fallback).
    assert outcomes[1].optimization is merged
    serial = Session(db, OptimizerOptions()).execute_bundle(
        merged, collect_op_stats=collect_op_stats, workers=1
    )
    by_slot = {}
    for result in serial.results:
        slot, name = result.name.split("__", 1)
        by_slot.setdefault(slot, []).append(
            (name, result.columns, result.rows)
        )
    summed = BatchResult(results=[], metrics=ExecutionMetrics())
    summed.op_stats = {} if collect_op_stats else None
    for outcome in outcomes:
        execution = outcome.execution
        summed.metrics.merge(execution.metrics)
        for node_id, stats in (execution.op_stats or {}).items():
            summed.op_stats.setdefault(node_id, OperatorStats()).merge(stats)
        # Which slot was this consumer? The one whose rows it returned.
        slot = next(
            s for s, rows in by_slot.items() if rows == _rows(execution)
        )
        del by_slot[slot]
        summed.results.extend(
            dataclasses.replace(result, name=f"{slot}__{result.name}")
            for result in execution.results
        )
    order = [result.name for result in serial.results]
    summed.results.sort(key=lambda result: order.index(result.name))
    return merged, serial, summed


def _run_mode(runs, batch, mode, collect_op_stats=False):
    """``(result, serial, other)`` for one batch in one mode: an int is a
    worker count, ``"coordinator"`` the cross-session split."""
    session, result, serial = runs[batch]
    if mode == "coordinator":
        return _coordinated(
            session.database, BATCHES[batch], collect_op_stats
        )
    if collect_op_stats:
        serial = session.execute_bundle(
            result, collect_op_stats=True, workers=1
        )
    other = session.execute_bundle(
        result, collect_op_stats=collect_op_stats, workers=mode
    )
    return result, serial, other


@pytest.fixture(scope="module")
def shared_spool_runs(small_db):
    """Serial and optimized bundles for both batches, computed once."""
    session = Session(small_db, OptimizerOptions())
    runs = {}
    for name, sql in BATCHES.items():
        result = session.optimize(sql)
        serial = session.execute_bundle(result, workers=1)
        runs[name] = (session, result, serial)
    return runs


@pytest.mark.parametrize("workers", [1, 2, 8, "coordinator"])
@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_parallel_results_identical_to_serial(
    shared_spool_runs, batch, workers
):
    _, serial, other = _run_mode(shared_spool_runs, batch, workers)
    assert _rows(other) == _rows(serial)


@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_deterministic_metrics_match_serial(shared_spool_runs, batch):
    for mode in (4, "coordinator"):
        result, serial, other = _run_mode(shared_spool_runs, batch, mode)
        for field in dataclasses.fields(ExecutionMetrics):
            want = getattr(serial.metrics, field.name)
            if isinstance(want, int):
                assert getattr(other.metrics, field.name) == want, (
                    mode, field.name
                )
        assert other.metrics.spools_materialized == len(
            result.bundle.root_spools
        )
        assert other.metrics.cost_units == pytest.approx(
            serial.metrics.cost_units
        )
        # One physical fetch per (table, column-set) group, however many
        # tasks — or sessions — read it.
        assert set(other.metrics.scan_stats) == set(serial.metrics.scan_stats)
        for key, scan in other.metrics.scan_stats.items():
            assert scan.physical_scans == 1, (mode, key)
            assert scan.reads == serial.metrics.scan_stats[key].reads


def test_each_kept_cse_materializes_exactly_once(shared_spool_runs):
    for mode in (8, "coordinator"):
        result, _, other = _run_mode(shared_spool_runs, "scaleup6", mode)
        assert result.stats.used_cses
        for cse_id in result.stats.used_cses:
            stats = other.metrics.spool_stats[cse_id]
            assert stats.writes == 1, f"{cse_id} materialized {stats.writes}x"
            assert stats.reads >= 2, f"{cse_id} is shared; expected 2+ reads"


def test_operator_stats_totals_match_serial(shared_spool_runs):
    for mode in (4, "coordinator"):
        result, serial, other = _run_mode(
            shared_spool_runs, "example1", mode, collect_op_stats=True
        )
        assert serial.op_stats is not None and other.op_stats is not None
        expected = set(serial.op_stats)
        if mode == "coordinator":
            # The producer phase serves consumers with different
            # collect_op_stats settings, so it records none: the spool
            # bodies' operators are the only ones without actuals.
            expected -= {
                id(node)
                for _, body in result.bundle.root_spools
                for node in body.walk()
            }
        assert set(other.op_stats) == expected
        for node_id in expected:
            stats = serial.op_stats[node_id]
            mirrored = other.op_stats[node_id]
            assert mirrored.rows_out == stats.rows_out
            assert mirrored.invocations == stats.invocations


def test_workers_1_runs_inline_without_a_pool(shared_spool_runs, monkeypatch):
    from repro.executor import executor as executor_module

    def no_pool(*args, **kwargs):
        raise AssertionError("workers=1 built a thread pool")

    monkeypatch.setattr(executor_module, "ThreadPoolExecutor", no_pool)
    session, result, serial = shared_spool_runs["example1"]
    before = threading.active_count()
    again = session.execute_bundle(result, workers=1)
    assert threading.active_count() == before
    assert _rows(again) == _rows(serial)


def test_registry_counts_parallel_batches(small_db):
    registry = MetricsRegistry()
    session = Session(
        small_db, OptimizerOptions(), registry=registry, workers=4
    )
    session.execute(BATCHES["example1"])
    counters = registry.snapshot()["counters"]
    assert counters["executor.parallel_batches"] == 1
    assert registry.snapshot()["gauges"]["executor.parallel_workers"] == 4


def test_worker_failure_propagates(shared_spool_runs):
    session, result, _ = shared_spool_runs["example1"]

    class FailingExecutor(Executor):
        def _execute_query(self, query_plan, ctx):
            if query_plan.name == "Q2":
                raise ExecutionError("injected Q2 failure")
            return super()._execute_query(query_plan, ctx)

    executor = FailingExecutor(
        session.database, session.cost_model, workers=4
    )
    with pytest.raises(ExecutionError, match="injected Q2 failure"):
        executor.execute(result.bundle)


class _CountingSpools(tuple):
    """A root_spools stand-in that counts full iterations."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_spool_body_lookup_is_hoisted(shared_spool_runs):
    """The spool-body map is built once per execute, not once per spool
    task: rebuilding dict(bundle.root_spools) inside every task rescans
    the bundle O(spools^2) across a wide DAG. Expected passes: one for
    build_schedule, one for the hoisted body map."""
    session, result, _ = shared_spool_runs["scaleup6"]
    bundle = result.bundle
    original = bundle.root_spools
    assert len(original) >= 1
    counting = _CountingSpools(original)
    bundle.root_spools = counting
    try:
        executor = Executor(session.database, session.cost_model, workers=4)
        executor.execute(bundle)
        iterations = counting.iterations
    finally:
        bundle.root_spools = original
    assert iterations == 2, (
        f"root_spools iterated {iterations}x; per-task dict rebuilds?"
    )


def test_task_seconds_observed_for_every_outcome(shared_spool_runs):
    """Task latency lands in the histogram on failure too (tagged by
    outcome), so failing tasks don't vanish from the p99."""
    session, result, _ = shared_spool_runs["example1"]
    registry = MetricsRegistry()

    class FailingExecutor(Executor):
        def _execute_query(self, query_plan, ctx):
            if query_plan.name == "Q2":
                raise ExecutionError("injected Q2 failure")
            return super()._execute_query(query_plan, ctx)

    executor = FailingExecutor(
        session.database, session.cost_model, registry=registry, workers=4
    )
    with pytest.raises(ExecutionError):
        executor.execute(result.bundle)
    errored = registry.histogram(
        "executor.task_seconds", labels={"outcome": "error"}
    )
    assert errored is not None and errored.count == 1
    succeeded = registry.histogram(
        "executor.task_seconds", labels={"outcome": "ok"}
    )
    # The shared spool materialized before Q2 could fail.
    assert succeeded is not None and succeeded.count >= 1


def test_task_seconds_tags_cancelled_tasks(shared_spool_runs):
    from repro.serve import QueryBudget

    session, result, _ = shared_spool_runs["example1"]
    assert result.bundle.root_spools
    registry = MetricsRegistry()
    executor = Executor(
        session.database, session.cost_model, registry=registry, workers=4
    )
    from repro.errors import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        executor.execute(
            result.bundle, token=QueryBudget(max_spool_rows=0).start()
        )
    cancelled = registry.histogram(
        "executor.task_seconds", labels={"outcome": "cancelled"}
    )
    assert cancelled is not None and cancelled.count >= 1


def test_threads_hammering_one_shared_session(small_db):
    """8 threads share one Session: mixed inline/pooled executes of the
    batches must all produce the reference rows, with no leaked errors and
    a consistent plan cache."""
    registry = MetricsRegistry()
    session = Session(small_db, OptimizerOptions(), registry=registry)
    expected = {
        name: _rows(session.execute(sql).execution)
        for name, sql in BATCHES.items()
    }
    rounds = 4
    errors = []
    mismatches = []
    ready = threading.Barrier(8)

    def hammer(thread_index: int) -> None:
        try:
            ready.wait(timeout=30)
            for i in range(rounds):
                name = sorted(BATCHES)[(thread_index + i) % len(BATCHES)]
                outcome = session.execute(
                    BATCHES[name], workers=4 if i % 2 == 0 else 1
                )
                if _rows(outcome.execution) != expected[name]:
                    mismatches.append((thread_index, name))
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=hammer, args=(t,)) for t in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert not mismatches
    # Every post-warmup lookup hit the cache; nothing invalidated it.
    counters = registry.snapshot()["counters"]
    assert counters["plan_cache.miss"] == len(BATCHES)
    assert counters["plan_cache.hit"] == 8 * rounds
    assert "plan_cache.invalidation" not in counters
