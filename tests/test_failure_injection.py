"""Failure injection: the engine must fail loudly and precisely, never
silently return wrong results."""

import itertools

import numpy as np
import pytest

from repro import OptimizerOptions, Session
from repro.catalog.schema import ColumnSchema, TableSchema
from repro.errors import (
    BindError,
    CatalogError,
    ExecutionError,
    LexerError,
    OptimizerError,
    ParseError,
    StorageError,
    UnsupportedFeatureError,
)
from repro.executor.executor import Executor
from repro.executor.iterators import materialize_spool
from repro.executor.runtime import ExecutionContext
from repro.obs import MetricsRegistry
from repro.serve import SharedBatchCoordinator
from repro.workloads import independent_pairs_batch

from .conftest import run_split_across_sessions
from repro.expr.expressions import ColumnRef, TableRef
from repro.optimizer.physical import PhysScan, PhysSpoolRead
from repro.storage.database import Database
from repro.types import DataType


class TestFrontendFailures:
    @pytest.mark.parametrize(
        "sql, error",
        [
            ("select ~x from t", LexerError),
            ("select from t", ParseError),
            ("select a frm t", ParseError),
            ("select ghost from region", BindError),
            ("select r_name from ghost_table", BindError),
            ("select r_name from region where r_name > 3", BindError),
            ("select sum(r_regionkey) as s from region group by r_comment "
             "order by missing", BindError),
            ("select r_regionkey from region order by r_name",
             UnsupportedFeatureError),
        ],
    )
    def test_bad_sql(self, tiny_session, sql, error):
        with pytest.raises(error):
            tiny_session.bind(sql)

    def test_error_types_are_repro_errors(self):
        from repro.errors import ReproError

        for error in (
            LexerError("x", 0), ParseError("x"), BindError("x"),
            OptimizerError("x"), ExecutionError("x"), CatalogError("x"),
            StorageError("x"), UnsupportedFeatureError("x"),
        ):
            assert isinstance(error, ReproError)


class TestExecutorFailures:
    def test_dangling_spool_read(self, tiny_db):
        from repro.executor.iterators import execute_node

        read = PhysSpoolRead("nope", ())
        with pytest.raises(ExecutionError, match="nope"):
            execute_node(read, ExecutionContext(database=tiny_db))

    def test_spool_body_without_projection(self, tiny_db):
        scan = PhysScan(TableRef("region", 1), (), ())
        with pytest.raises(ExecutionError, match="projection"):
            materialize_spool("X", scan, ExecutionContext(database=tiny_db))

    def test_scan_of_dropped_table(self):
        db = Database()
        db.create_table(
            TableSchema("t", [ColumnSchema("a", DataType.INT)]),
            {"a": np.array([1, 2, 3])},
        )
        session = Session(db)
        result = session.optimize("select a from t")
        db.drop_table("t")
        with pytest.raises(CatalogError):
            session.execute_bundle(result)


class TestProducerFailure:
    """A spool producer that fails mid-batch, in each of the runner's three
    modes: one contract — typed error or oracle rows, never a partial spool
    or a leaked pool entry."""

    SQL = independent_pairs_batch()

    @pytest.fixture()
    def failing_second_spool(self, monkeypatch):
        """Make the batch's second spool materialization raise, once."""
        from repro.executor import executor as executor_module

        real = executor_module.materialize_spool
        calls = itertools.count(1)
        failed = []

        def flaky(cse_id, body, ctx):
            if next(calls) == 2:
                failed.append(cse_id)
                raise ExecutionError(f"injected failure producing {cse_id}")
            return real(cse_id, body, ctx)

        monkeypatch.setattr(executor_module, "materialize_spool", flaky)
        return failed

    @pytest.mark.parametrize("workers", [1, 4])
    def test_single_session_raises_root_cause(
        self, small_db, failing_second_spool, workers
    ):
        session = Session(small_db, OptimizerOptions())
        result = session.optimize(self.SQL)
        assert len(result.bundle.root_spools) >= 2
        executor = session.executor(workers)
        state = executor.batch_state()
        with pytest.raises(ExecutionError, match="injected failure producing"):
            executor.execute(result.bundle, state=state)
        (failed,) = failing_second_spool
        assert failed not in state.spools
        if workers == 1:
            # Inline, the first producer finished cleanly before the failure.
            assert len(state.spools) == 1

    def test_coordinator_falls_back_to_baseline_rows(
        self, small_db, failing_second_spool
    ):
        registry = MetricsRegistry()
        coordinator = SharedBatchCoordinator(
            window_ms=60000.0, max_group=2, registry=registry
        )
        halves, outcomes = run_split_across_sessions(
            small_db, self.SQL, coordinator, registry=registry
        )
        assert failing_second_spool, "the merged batch must share 2+ spools"
        counters = registry.snapshot()["counters"]
        assert counters.get("coordinator.merged_batches") == 1
        assert counters.get("coordinator.fallback.shared_phase") == 1
        assert counters.get("coordinator.spools_published") == counters.get(
            "coordinator.spools_freed"
        )
        baseline = Session(small_db, OptimizerOptions(enable_cse=False))
        for half, outcome in zip(halves, outcomes):
            assert outcome is not None and not outcome.degraded
            want = baseline.execute(half).execution
            assert [
                (r.name, r.columns, r.sorted_rows())
                for r in outcome.execution.results
            ] == [
                (r.name, r.columns, r.sorted_rows()) for r in want.results
            ]


class TestDataIntegrityFailures:
    def test_ragged_insert_rejected(self):
        db = Database()
        db.create_table(
            TableSchema(
                "t",
                [ColumnSchema("a", DataType.INT), ColumnSchema("b", DataType.INT)],
            )
        )
        with pytest.raises(StorageError):
            db.insert("t", [(1,)])

    def test_type_mismatch_insert_rejected(self):
        db = Database()
        db.create_table(TableSchema("t", [ColumnSchema("a", DataType.INT)]))
        with pytest.raises(StorageError):
            db.insert("t", [("not an int",)])

    def test_maintenance_on_unrefreshed_view(self, tiny_db):
        from repro.views.maintenance import MaintenancePlanner
        from repro.views.materialized import ViewManager

        manager = ViewManager(tiny_db)
        manager.create_view(
            "v",
            "select c_nationkey, sum(c_acctbal) as t from customer "
            "group by c_nationkey",
        )
        planner = MaintenancePlanner(tiny_db, manager)
        with pytest.raises(CatalogError, match="refreshed"):
            planner.apply_insert(
                "customer", [(99_999_999, "X", 1, "BUILDING", 1.0)]
            )

    def test_rejected_write_changes_nothing(self):
        """A write refused for a badly typed row, or for a view that was
        never refreshed, leaves the catalog, every view and the base table
        as they were — no leaked delta table, no half-merged views."""
        from repro.views.maintenance import MaintenancePlanner
        from repro.views.materialized import ViewManager

        db = Database()
        db.create_table(
            TableSchema(
                "t",
                [ColumnSchema("a", DataType.INT), ColumnSchema("b", DataType.INT)],
            )
        )
        db.insert("t", [(1, 10), (2, 20)])
        manager = ViewManager(db)
        manager.create_view("flat", "select a, b from t")
        manager.create_view("agg", "select a, sum(b) as s from t group by a")
        manager.refresh_all()
        planner = MaintenancePlanner(db, manager)
        planner.apply_insert("t", [(3, 30)])

        def state():
            return (
                db.catalog_version,
                sorted(db.catalog.table_names()),
                db.table("t").rows(),
                [
                    view.contents.rows()
                    for view in manager.views()
                    if view.contents is not None
                ],
            )

        before = state()
        with pytest.raises(StorageError):
            planner.apply_insert("t", [("x", 1)])
        assert state() == before

        manager.create_view("late", "select b from t")  # never refreshed
        with pytest.raises(CatalogError, match="refreshed"):
            planner.apply_insert("t", [(4, 40)])
        assert state() == before


class TestOptimizerGuards:
    def test_bad_cost_mode(self):
        with pytest.raises(ValueError):
            OptimizerOptions(cost_mode="wrong")

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            OptimizerOptions(alpha=2.0)

    def test_negative_max_candidates(self):
        # -1 used to reach definitions[:-1] and silently drop a candidate.
        with pytest.raises(ValueError):
            OptimizerOptions(max_candidates=-1)

    def test_negative_max_cse_optimizations(self):
        with pytest.raises(ValueError):
            OptimizerOptions(max_cse_optimizations=-1)

    def test_empty_batch(self, tiny_session):
        from repro.errors import ParseError

        with pytest.raises(ParseError):
            tiny_session.bind(";;")

    def test_results_survive_weird_but_legal_predicates(self, tiny_session):
        # Contradictory range: empty result, not a crash.
        outcome = tiny_session.execute(
            "select c_custkey from customer "
            "where c_nationkey > 10 and c_nationkey < 5"
        )
        assert outcome.execution.results[0].rows == []

    def test_always_true_or(self, tiny_session):
        outcome = tiny_session.execute(
            "select count(*) as n from customer "
            "where c_nationkey >= 0 or c_nationkey < 0"
        )
        total = tiny_session.database.table("customer").row_count
        assert outcome.execution.results[0].rows == [(total,)]
