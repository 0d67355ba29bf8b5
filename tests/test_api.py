"""Tests for the public Session API."""

import re
from pathlib import Path

import pytest

import repro
from repro import (
    CostModel,
    ExecutionOutcome,
    MetricsRegistry,
    OptimizerOptions,
    ReproError,
    Session,
)
from repro.logical.blocks import BoundBatch


class TestSessionBasics:
    def test_tpch_constructor(self):
        session = Session.tpch(scale_factor=0.0005)
        assert session.database.table("lineitem").row_count > 0

    def test_bind_names(self, small_session):
        batch = small_session.bind(
            "select r_name from region; select n_name from nation",
            names=["first", "second"],
        )
        assert [q.name for q in batch.queries] == ["first", "second"]

    def test_default_names(self, small_session):
        batch = small_session.bind("select r_name from region")
        assert batch.queries[0].name == "Q1"

    def test_execute_returns_outcome(self, small_session):
        outcome = small_session.execute("select r_name from region")
        assert isinstance(outcome, ExecutionOutcome)
        assert outcome.est_cost > 0
        assert outcome.measured_cost > 0
        rows = outcome.execution.results[0].rows
        assert len(rows) == 5

    def test_optimize_accepts_bound_batch(self, small_session):
        batch = small_session.bind("select r_name from region")
        result = small_session.optimize(batch)
        assert result.bundle.queries[0].name == "Q1"

    def test_optimize_accepts_bound_query(self, small_session):
        batch = small_session.bind("select r_name from region")
        result = small_session.optimize(batch.queries[0])
        assert result.est_cost > 0

    def test_optimize_rejects_nonsense(self, small_session):
        with pytest.raises(ReproError):
            small_session.optimize(42)  # type: ignore[arg-type]

    def test_execute_bundle_reuses_plans(self, small_session):
        result = small_session.optimize("select r_name from region")
        execution = small_session.execute_bundle(result)
        assert execution.results[0].row_count == 5

    def test_explain_mentions_costs_and_plan(self, small_session):
        text = small_session.explain(
            "select c_nationkey, sum(c_acctbal) as t from customer "
            "group by c_nationkey"
        )
        assert "estimated cost" in text
        assert "HashAgg" in text
        assert "Scan customer" in text

    def test_explain_shows_spools(self, small_session):
        from repro.workloads import example1_batch

        text = small_session.explain(example1_batch())
        assert "Spool" in text
        assert "SpoolRead" in text

    def test_custom_cost_model(self, small_db):
        expensive_io = Session(
            small_db, cost_model=CostModel(io_page=100.0)
        ).optimize("select c_name from customer")
        cheap_io = Session(
            small_db, cost_model=CostModel(io_page=0.01)
        ).optimize("select c_name from customer")
        assert expensive_io.est_cost > cheap_io.est_cost

    def test_options_respected(self, small_db):
        from repro.workloads import example1_batch

        session = Session(small_db, OptimizerOptions(enable_cse=False))
        result = session.optimize(example1_batch())
        assert result.stats.candidates_generated == 0


class TestTpchKwargsForwarding:
    """Regression: Session.tpch used to swallow constructor kwargs
    (cost_model, registry, tracer, ...) instead of forwarding them."""

    def test_forwards_observability_and_config(self):
        from repro import MetricsRegistry, Tracer

        registry = MetricsRegistry()
        tracer = Tracer()
        model = CostModel(io_page=100.0)
        session = Session.tpch(
            scale_factor=0.0005,
            cost_model=model,
            registry=registry,
            tracer=tracer,
            workers=3,
            plan_cache_size=7,
        )
        assert session.cost_model is model
        assert session.registry is registry
        assert session.tracer is tracer
        assert session.workers == 3
        assert session.plan_cache is not None
        assert session.plan_cache.capacity == 7

    def test_forwarded_registry_records_activity(self):
        from repro import MetricsRegistry

        registry = MetricsRegistry()
        session = Session.tpch(scale_factor=0.0005, registry=registry)
        session.execute("select r_name from region")
        counters = registry.snapshot()["counters"]
        assert counters.get("optimizer.batches", 0) == 1
        assert "plan_cache.miss" in counters

    def test_plan_cache_can_be_disabled(self):
        session = Session.tpch(scale_factor=0.0005, plan_cache_size=0)
        assert session.plan_cache is None
        outcome = session.execute("select r_name from region")
        assert not outcome.plan_cache_hit


class TestParallelExecuteFlags:
    def test_parallel_true_on_serial_session(self, small_session):
        outcome = small_session.execute(
            "select r_name from region", workers=4
        )
        assert outcome.execution.results[0].row_count == 5

    def test_parallel_false_overrides_session_workers(self, small_db):
        session = Session(small_db, OptimizerOptions(), workers=4)
        assert session.executor(workers=1).workers == 1
        assert session.executor().workers == 4
        assert session.executor(workers=2).workers == 2

    def test_explicit_workers_win_over_default(self, small_db):
        registry = MetricsRegistry()
        session = Session(small_db, OptimizerOptions(), registry=registry)
        assert session.executor().workers == 1
        session.execute("select r_name from region")
        assert "executor.parallel_batches" not in (
            registry.snapshot()["counters"]
        )
        session.execute("select r_name from region", workers=2)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["executor.parallel_batches"] == 1
        assert snapshot["gauges"]["executor.parallel_workers"] == 2


def test_only_the_session_constructs_an_optimizer_or_executor():
    """One entry into the engine: ``api.py`` builds every ``Optimizer`` and
    ``Executor``; views, serving and the CLI go through a ``Session``."""
    root = Path(repro.__file__).parent
    constructed = re.compile(r"(?<!\w)(?<!class )(Optimizer|Executor)\(")
    offenders = [
        f"{path.relative_to(root)}:{number}: {line.strip()}"
        for path in sorted(root.rglob("*.py"))
        if path.name != "api.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if constructed.search(line)
    ]
    assert offenders == []
