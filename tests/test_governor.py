"""Resource governor tests: budgets, cooperative cancellation, admission
control, and graceful degradation to the paper's no-sharing baseline.

The contract under test: governance is an *overlay* — an ungoverned run is
untouched; a governed run either completes normally, degrades to the
always-valid no-CSE plan (optimizer failure, spool-budget bust), or fails
fast with a typed error (deadline expiry, admission rejection) without
leaving partial state behind.
"""

from __future__ import annotations

import threading
import time
from time import monotonic, perf_counter

import pytest

from repro import OptimizerOptions, Session
from repro.errors import (
    AdmissionError,
    BudgetExceededError,
    GovernorError,
    OptimizerError,
    QueryCancelledError,
    QueryTimeoutError,
)
from repro.executor import Executor
from repro.obs import DecisionJournal, MetricsRegistry
from repro.serve import QueryBudget, ResourceGovernor
from repro.serve.governor import CancellationToken
from repro.workloads import example1_batch, scaleup_batch


# ---------------------------------------------------------------------------
# QueryBudget / CancellationToken units
# ---------------------------------------------------------------------------


class TestQueryBudget:
    def test_validation(self):
        with pytest.raises(GovernorError):
            QueryBudget(deadline_ms=0)
        with pytest.raises(GovernorError):
            QueryBudget(optimizer_deadline_ms=-1)
        with pytest.raises(GovernorError):
            QueryBudget(max_spool_rows=-1)
        # Zero row/byte caps are valid (force-fallback knob).
        QueryBudget(max_spool_rows=0, max_spool_bytes=0, max_rows=0)

    def test_start_arms_deadline(self):
        token = QueryBudget(deadline_ms=10_000).start()
        assert token.deadline is not None
        assert 9.0 < token.remaining_seconds() <= 10.0
        assert QueryBudget().start().deadline is None

    def test_optimizer_deadline_is_earlier_bound(self):
        budget = QueryBudget(deadline_ms=10_000, optimizer_deadline_ms=50)
        token = budget.start()
        deadline = budget.optimizer_deadline(token)
        assert deadline is not None
        assert deadline < token.deadline
        # Without an optimizer allowance the overall deadline applies.
        overall = QueryBudget(deadline_ms=10_000)
        assert overall.optimizer_deadline(overall.start()) is not None
        assert QueryBudget().optimizer_deadline(None) is None


class TestCancellationToken:
    def test_check_raises_after_cancel(self):
        token = CancellationToken()
        token.check()  # live token is a no-op
        token.cancel("stop now")
        with pytest.raises(QueryCancelledError, match="stop now"):
            token.check()

    def test_first_cancellation_wins(self):
        token = CancellationToken()
        token.cancel("first", error_type=BudgetExceededError)
        token.cancel("second", error_type=QueryTimeoutError)
        assert token.reason == "first"
        with pytest.raises(BudgetExceededError, match="first"):
            token.check()

    def test_expired_deadline_raises_timeout(self):
        token = CancellationToken(deadline=monotonic() - 1.0)
        with pytest.raises(QueryTimeoutError):
            token.check()
        assert token.cancelled
        assert token.remaining_seconds() == 0.0

    def test_row_budget_trips_and_cancels(self):
        token = QueryBudget(max_rows=100).start()
        assert token.charges_rows
        token.charge_rows(60)
        with pytest.raises(BudgetExceededError, match="max_rows=100"):
            token.charge_rows(60)
        assert token.cancelled
        with pytest.raises(BudgetExceededError):
            token.check()

    def test_spool_budget_trips_on_rows_and_bytes(self):
        token = QueryBudget(max_spool_rows=10).start()
        token.charge_spool(10, 80.0)
        with pytest.raises(BudgetExceededError, match="max_spool_rows"):
            token.charge_spool(1, 8.0)
        token = QueryBudget(max_spool_bytes=100.0).start()
        with pytest.raises(BudgetExceededError, match="max_spool_bytes"):
            token.charge_spool(100, 800.0)

    def test_unbudgeted_charges_are_noops(self):
        token = CancellationToken()
        assert not token.charges_rows
        token.charge_rows(10**9)
        token.charge_spool(10**9, 1e18)
        token.check()

    def test_for_retry_keeps_deadline_drops_budget(self):
        budget = QueryBudget(deadline_ms=10_000, max_spool_rows=0)
        token = budget.start()
        with pytest.raises(BudgetExceededError):
            token.charge_spool(1, 8.0)
        retry = token.for_retry()
        assert not retry.cancelled
        assert retry.budget is None
        assert retry.deadline == token.deadline
        retry.charge_spool(10**9, 1e18)  # no budget on the retry
        retry.check()


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestResourceGovernor:
    def test_validation(self):
        with pytest.raises(GovernorError):
            ResourceGovernor(max_concurrent=0)
        with pytest.raises(GovernorError):
            ResourceGovernor(max_queue=-1)
        with pytest.raises(GovernorError):
            ResourceGovernor(queue_timeout_ms=0)

    def test_serial_admissions_never_queue(self):
        registry = MetricsRegistry()
        governor = ResourceGovernor(max_concurrent=1, registry=registry)
        for _ in range(3):
            with governor.admit():
                assert governor.active == 1
        assert governor.active == 0
        counters = registry.snapshot()["counters"]
        assert counters["governor.admitted"] == 3
        assert "governor.rejected" not in counters
        assert registry.histogram("governor.queue_wait_seconds").count == 3

    def test_queue_full_rejects(self):
        registry = MetricsRegistry()
        governor = ResourceGovernor(
            max_concurrent=1, max_queue=0, registry=registry
        )
        with governor.admit():
            with pytest.raises(AdmissionError, match="queue full"):
                with governor.admit():
                    pass  # pragma: no cover - never admitted
        assert registry.snapshot()["counters"]["governor.rejected"] == 1
        # The slot freed correctly after the rejection.
        with governor.admit():
            assert governor.active == 1

    def test_wait_timeout_rejects(self):
        governor = ResourceGovernor(
            max_concurrent=1, max_queue=4, queue_timeout_ms=30
        )
        release = threading.Event()
        admitted = threading.Event()

        def hold():
            with governor.admit():
                admitted.set()
                release.wait(timeout=10)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert admitted.wait(timeout=5)
            start = perf_counter()
            with pytest.raises(AdmissionError, match="wait exceeded"):
                with governor.admit():
                    pass  # pragma: no cover - never admitted
            assert perf_counter() - start < 5.0
        finally:
            release.set()
            holder.join(timeout=10)
        assert governor.active == 0 and governor.waiting == 0

    def test_waiter_admitted_when_slot_frees(self):
        governor = ResourceGovernor(max_concurrent=1, max_queue=4)
        release = threading.Event()
        admitted = threading.Event()
        results = []

        def hold():
            with governor.admit():
                admitted.set()
                release.wait(timeout=10)

        def waiter():
            with governor.admit():
                results.append("ran")

        holder = threading.Thread(target=hold)
        holder.start()
        assert admitted.wait(timeout=5)
        queued = threading.Thread(target=waiter)
        queued.start()
        deadline = monotonic() + 5
        while governor.waiting == 0 and monotonic() < deadline:
            time.sleep(0.005)
        assert governor.waiting == 1
        release.set()
        queued.join(timeout=10)
        holder.join(timeout=10)
        assert results == ["ran"]

    def test_admission_order_is_fifo(self):
        """Under contention, waiters are admitted in strict arrival order.

        Regression test for the semaphore-based governor: a bare
        ``Semaphore`` wakes an arbitrary waiter, so under contention the
        admission order was scheduler-dependent. The ticket queue makes it
        deterministic — required for reproducible coordinator windows."""
        governor = ResourceGovernor(max_concurrent=1, max_queue=16)
        for _round in range(3):
            release = threading.Event()
            holding = threading.Event()
            order = []
            order_lock = threading.Lock()

            def hold():
                with governor.admit():
                    holding.set()
                    release.wait(timeout=10)

            def waiter(rank):
                with governor.admit():
                    with order_lock:
                        order.append(rank)

            holder = threading.Thread(target=hold)
            holder.start()
            assert holding.wait(timeout=5)
            waiters = []
            for rank in range(8):
                thread = threading.Thread(target=waiter, args=(rank,))
                thread.start()
                waiters.append(thread)
                # Confirm this waiter is queued before launching the next,
                # so arrival order is exactly 0..7.
                deadline = monotonic() + 5
                while governor.waiting <= rank and monotonic() < deadline:
                    time.sleep(0.001)
                assert governor.waiting == rank + 1
            release.set()
            holder.join(timeout=10)
            for thread in waiters:
                thread.join(timeout=10)
            assert order == list(range(8))
        assert governor.active == 0 and governor.waiting == 0

    def test_arrival_cannot_barge_past_waiters(self):
        """A new arrival with a momentarily free slot still queues behind
        existing waiters instead of stealing the slot."""
        governor = ResourceGovernor(max_concurrent=1, max_queue=4)
        release = threading.Event()
        holding = threading.Event()
        order = []

        def hold():
            with governor.admit():
                holding.set()
                release.wait(timeout=10)

        def waiter(tag):
            with governor.admit():
                order.append(tag)
                # Keep the slot briefly so the queue stays contended.
                time.sleep(0.01)

        holder = threading.Thread(target=hold)
        holder.start()
        assert holding.wait(timeout=5)
        first = threading.Thread(target=waiter, args=("first",))
        first.start()
        deadline = monotonic() + 5
        while governor.waiting < 1 and monotonic() < deadline:
            time.sleep(0.001)
        assert governor.waiting == 1
        release.set()
        holder.join(timeout=10)
        # Race a late arrival against the queued waiter: it must append
        # behind "first" even if the slot looks free at its arrival.
        second = threading.Thread(target=waiter, args=("second",))
        second.start()
        first.join(timeout=10)
        second.join(timeout=10)
        assert order == ["first", "second"]

    def test_session_admission_rejection(self, small_db):
        governor = ResourceGovernor(max_concurrent=1, max_queue=0)
        session = Session(small_db, OptimizerOptions(), governor=governor)
        with governor.admit():  # saturate from outside
            with pytest.raises(AdmissionError):
                session.execute(example1_batch())
        # After the slot frees, the session executes normally.
        assert session.execute(example1_batch()).execution.results

    def test_governor_inherits_session_registry(self, small_db):
        registry = MetricsRegistry()
        governor = ResourceGovernor(max_concurrent=2)
        session = Session(
            small_db, OptimizerOptions(), registry=registry,
            governor=governor,
        )
        session.execute(example1_batch())
        assert registry.snapshot()["counters"]["governor.admitted"] == 1


# ---------------------------------------------------------------------------
# Cooperative cancellation through the executor
# ---------------------------------------------------------------------------


class TestCancellationPropagation:
    def test_expired_deadline_kills_whole_dag(self, small_db):
        """An already-expired token aborts every task of a workers=4 DAG
        with QueryTimeoutError — none of the queries produce results."""
        session = Session(small_db, OptimizerOptions())
        result = session.optimize(scaleup_batch(6))
        assert result.bundle.root_spools  # the DAG really shares spools
        executor = Executor(small_db, session.cost_model, workers=4)
        token = CancellationToken(deadline=monotonic() - 1.0)
        with pytest.raises(QueryTimeoutError):
            executor.execute(result.bundle, token=token)

    def test_serial_executor_honours_token(self, small_db):
        session = Session(small_db, OptimizerOptions())
        result = session.optimize(example1_batch())
        token = CancellationToken(deadline=monotonic() - 1.0)
        with pytest.raises(QueryTimeoutError):
            session.execute_bundle(result, token=token)

    def test_budget_bust_leaves_no_partial_spools(self, small_db):
        """A spool-budget bust mid-DAG never publishes the violating spool:
        the shared map contains only fully materialized, fully charged
        spools afterwards."""
        session = Session(small_db, OptimizerOptions())
        result = session.optimize(example1_batch())
        assert result.bundle.root_spools
        executor = Executor(small_db, session.cost_model, workers=4)
        token = QueryBudget(max_spool_rows=0).start()
        state = executor.batch_state()
        with pytest.raises(BudgetExceededError):
            executor.execute(result.bundle, token=token, state=state)
        assert state.spools == {}

    def test_deadline_mid_execution_aborts_within_2x(
        self, small_db, monkeypatch
    ):
        """With every operator slowed to ~10ms, a deadline expiring mid-DAG
        (workers=4) aborts within 2x the deadline: expiry is noticed at the
        next per-operator checkpoint and in-flight siblings drain via the
        shared token instead of running to completion."""
        from repro.executor import iterators

        real_dispatch = iterators._dispatch

        def slow_dispatch(plan, ctx):
            time.sleep(0.01)
            return real_dispatch(plan, ctx)

        monkeypatch.setattr(iterators, "_dispatch", slow_dispatch)
        session = Session(small_db, OptimizerOptions())
        result = session.optimize(scaleup_batch(6))
        executor = Executor(small_db, session.cost_model, workers=4)
        deadline_s = 0.08
        token = CancellationToken(deadline=monotonic() + deadline_s)
        start = perf_counter()
        with pytest.raises(QueryTimeoutError):
            executor.execute(result.bundle, token=token)
        elapsed = perf_counter() - start
        assert elapsed < 2 * deadline_s, (
            f"abort took {elapsed:.3f}s for a {deadline_s:.3f}s deadline"
        )


# ---------------------------------------------------------------------------
# Graceful degradation through the Session
# ---------------------------------------------------------------------------


class TestFallback:
    SQL = example1_batch()

    def _governed_session(self, db, **kwargs):
        kwargs.setdefault("registry", MetricsRegistry())
        kwargs.setdefault("journal", DecisionJournal())
        return Session(db, OptimizerOptions(), **kwargs)

    def test_spool_budget_falls_back_to_baseline(self, small_db):
        session = self._governed_session(small_db)
        out = session.execute(
            self.SQL, budget=QueryBudget(max_spool_rows=0)
        )
        assert out.degraded and out.fallback_reason == "spool_budget"
        # The fallback executed the no-sharing plan: byte-identical rows
        # to an enable_cse=False session over the same database.
        baseline = Session(
            small_db, OptimizerOptions(enable_cse=False)
        ).execute(self.SQL)
        assert [
            (r.name, r.columns, r.rows) for r in out.execution.results
        ] == [
            (r.name, r.columns, r.rows) for r in baseline.execution.results
        ]
        assert out.execution.metrics.spools_materialized == 0
        counters = session.registry.snapshot()["counters"]
        assert counters["governor.fallbacks"] == 1
        assert counters["governor.fallback.spool_budget"] == 1
        events = session.journal.events("fallback")
        assert len(events) == 1
        assert events[0]["stage"] == "execution"
        assert events[0]["reason"] == "spool_budget"
        assert (
            session.registry.histogram(
                "governor.fallback_retry_seconds"
            ).count == 1
        )

    def test_spool_budget_fallback_parallel(self, small_db):
        session = self._governed_session(small_db, workers=4)
        out = session.execute(
            self.SQL, budget=QueryBudget(max_spool_rows=0)
        )
        assert out.degraded and out.fallback_reason == "spool_budget"
        reference = Session(small_db, OptimizerOptions()).execute(self.SQL)
        assert [r.row_count for r in out.execution.results] == [
            r.row_count for r in reference.execution.results
        ]

    def test_optimizer_deadline_falls_back(self, small_db):
        session = self._governed_session(small_db, plan_cache_size=0)
        out = session.execute(
            self.SQL,
            budget=QueryBudget(optimizer_deadline_ms=1e-6),
        )
        assert out.degraded and out.fallback_reason == "optimizer_deadline"
        # The degraded plan is the no-CSE baseline.
        assert not out.optimization.stats.used_cses
        assert out.execution.metrics.spools_materialized == 0
        counters = session.registry.snapshot()["counters"]
        assert counters["governor.fallback.optimizer_deadline"] == 1
        events = session.journal.events("fallback")
        assert events and events[0]["stage"] == "optimizer"

    def test_optimizer_error_falls_back(self, small_db, monkeypatch):
        session = self._governed_session(small_db, plan_cache_size=0)
        from repro.optimizer.engine import Optimizer

        real_optimize = Optimizer.optimize
        calls = {"n": 0}

        def flaky(self, batch):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OptimizerError("injected sharing-machinery failure")
            return real_optimize(self, batch)

        monkeypatch.setattr(Optimizer, "optimize", flaky)
        out = session.execute(self.SQL, budget=QueryBudget())
        assert out.degraded and out.fallback_reason == "optimizer_error"
        assert calls["n"] == 2  # failed once, retried without CSEs
        assert sum(r.row_count for r in out.execution.results) > 0
        events = session.journal.events("fallback")
        assert "injected sharing-machinery failure" in events[0]["detail"]

    def test_optimizer_error_without_budget_propagates(
        self, small_db, monkeypatch
    ):
        """Ungoverned executes keep today's contract: errors surface."""
        session = Session(small_db, OptimizerOptions(), plan_cache_size=0)
        from repro.optimizer.engine import Optimizer

        def broken(self, batch):
            raise OptimizerError("injected failure")

        monkeypatch.setattr(Optimizer, "optimize", broken)
        with pytest.raises(OptimizerError, match="injected failure"):
            session.execute(self.SQL)

    def test_allow_fallback_false_propagates(self, small_db):
        session = self._governed_session(small_db, plan_cache_size=0)
        with pytest.raises(BudgetExceededError):
            session.execute(
                self.SQL,
                budget=QueryBudget(max_spool_rows=0, allow_fallback=False),
            )

    def test_deadline_expiry_always_raises(self, small_db):
        session = self._governed_session(small_db)
        with pytest.raises(QueryTimeoutError):
            session.execute(
                self.SQL,
                budget=QueryBudget(deadline_ms=0.001),
                workers=4,
            )

    def test_default_budget_applies_to_every_execute(self, small_db):
        session = self._governed_session(
            small_db, default_budget=QueryBudget(max_spool_rows=0)
        )
        out = session.execute(self.SQL)
        assert out.degraded and out.fallback_reason == "spool_budget"
        # A per-call budget overrides the session default.
        ok = session.execute(self.SQL, budget=QueryBudget())
        assert not ok.degraded

    def test_degraded_plan_never_cached(self, small_db):
        """A fallback plan must not poison the cache: the next normal
        execute re-optimizes (miss) and gets the full CSE plan, which then
        serves warm hits."""
        session = self._governed_session(small_db, plan_cache_size=8)
        out = session.execute(
            self.SQL, budget=QueryBudget(optimizer_deadline_ms=1e-6)
        )
        assert out.degraded
        normal = session.execute(self.SQL)
        assert not normal.plan_cache_hit
        assert not normal.degraded
        assert normal.optimization.stats.used_cses
        warm = session.execute(self.SQL)
        assert warm.plan_cache_hit
        assert warm.optimization.stats.used_cses

    def test_query_log_records_degradation(self, small_db, tmp_path):
        from repro.obs import QueryLog

        log = QueryLog(path=str(tmp_path / "q.jsonl"))
        session = Session(small_db, OptimizerOptions(), query_log=log)
        session.execute(self.SQL, budget=QueryBudget(max_spool_rows=0))
        session.execute(self.SQL)
        records = log.records
        assert records[0]["degraded"] is True
        assert records[0]["fallback_reason"] == "spool_budget"
        assert records[1]["degraded"] is False
        assert "fallback_reason" not in records[1]

    def test_governor_metrics_render_as_prometheus(self, small_db):
        from repro.obs.exporter import parse_prometheus_text

        session = self._governed_session(
            small_db, governor=ResourceGovernor(max_concurrent=2)
        )
        session.execute(self.SQL, budget=QueryBudget(max_spool_rows=0))
        text = session.registry.render_prometheus()
        assert "repro_governor_fallbacks" in text
        assert "repro_governor_admitted" in text
        parse_prometheus_text(text)  # strict format check
