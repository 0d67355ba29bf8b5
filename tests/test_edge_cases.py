"""Edge-case coverage: same-table equalities, inline spool definitions,
scalar binding across every node type, degenerate statistics."""

import numpy as np
import pytest

from repro import OptimizerOptions, Session
from repro.catalog.schema import ColumnSchema, TableSchema
from repro.catalog.statistics import ColumnStats
from repro.errors import ExecutionError
from repro.executor.executor import bind_scalars
from repro.executor.iterators import execute_node
from repro.executor.reference import evaluate_batch
from repro.executor.runtime import ExecutionContext
from repro.expr.expressions import (
    AggExpr,
    AggFunc,
    Arithmetic,
    ArithmeticOp,
    ColumnRef,
    Literal,
    TableRef,
    eq,
    gt,
    lt,
)
from repro.logical.blocks import OutputColumn, ScalarSubquery
from repro.optimizer.aggs import AggCompute
from repro.optimizer.physical import (
    PhysHashAgg,
    PhysProject,
    PhysScan,
    PhysSort,
    PhysSpoolDef,
    PhysSpoolRead,
)
from repro.storage.database import Database
from repro.types import DataType
from repro.workloads import nested_query


class TestSameTableEquality:
    def test_column_equality_within_one_table(self, tiny_session):
        """WHERE c_custkey = c_nationkey: a same-table equivalence class
        becomes a pushed-down scan conjunct."""
        sql = (
            "select c_custkey from customer "
            "where c_custkey = c_nationkey"
        )
        batch = tiny_session.bind(sql)
        outcome = tiny_session.execute(batch)
        oracle = evaluate_batch(tiny_session.database, batch)
        assert sorted(outcome.execution.results[0].rows) == sorted(oracle["Q1"])

    def test_transitive_same_table_equality(self, tiny_session):
        sql = (
            "select n_nationkey from nation "
            "where n_nationkey = n_regionkey"
        )
        outcome = tiny_session.execute(sql)
        table = tiny_session.database.table("nation")
        expected = int(
            (table.column("n_nationkey") == table.column("n_regionkey")).sum()
        )
        assert outcome.execution.results[0].row_count == expected


class TestInlineSpoolDef:
    def test_spool_def_node_executes(self, tiny_db):
        nation = TableRef("nation", 1)
        nid = ColumnRef(nation, "n_nationkey", DataType.INT)
        body = PhysProject(
            child=PhysScan(nation, (lt(nid, Literal(5)),), (nid,)),
            outputs=(OutputColumn("k0", nid),),
            est_rows=5,
        )
        read = PhysSpoolRead("S1", (("k0", nid),), est_rows=5)
        plan = PhysSpoolDef(spools=(("S1", body),), child=read)
        ctx = ExecutionContext(database=tiny_db)
        frame = execute_node(plan, ctx)
        assert sorted(frame[nid].tolist()) == [0, 1, 2, 3, 4]
        assert ctx.metrics.spools_materialized == 1

    def test_spool_def_idempotent(self, tiny_db):
        nation = TableRef("nation", 1)
        nid = ColumnRef(nation, "n_nationkey", DataType.INT)
        body = PhysProject(
            child=PhysScan(nation, (), (nid,)),
            outputs=(OutputColumn("k0", nid),),
        )
        read = PhysSpoolRead("S1", (("k0", nid),))
        inner = PhysSpoolDef(spools=(("S1", body),), child=read)
        outer = PhysSpoolDef(spools=(("S1", body),), child=inner)
        ctx = ExecutionContext(database=tiny_db)
        execute_node(outer, ctx)
        assert ctx.metrics.spools_materialized == 1  # second def is a no-op


class TestBindScalarsCoverage:
    T = TableRef("nation", 1)
    NID = ColumnRef(T, "n_nationkey", DataType.INT)
    SUB = ScalarSubquery("sq9", DataType.INT)

    def _mapping(self):
        return {self.SUB: Literal(3)}

    def test_hash_agg_compute_args(self):
        agg_out = AggExpr(AggFunc.SUM, self.NID)
        scaled = Arithmetic(ArithmeticOp.MUL, self.NID, self.SUB)
        plan = PhysHashAgg(
            child=PhysScan(self.T, (), (self.NID,)),
            keys=(),
            computes=(AggCompute(out=agg_out, func=AggFunc.SUM, arg=scaled),),
        )
        bound = bind_scalars(plan, self._mapping())
        arg = bound.computes[0].arg
        assert all(not isinstance(n, ScalarSubquery) for n in arg.walk())
        assert Literal(3) in list(arg.walk())

    def test_sort_items(self):
        plan = PhysSort(
            child=PhysScan(self.T, (), (self.NID,)),
            sort_items=((Arithmetic(ArithmeticOp.ADD, self.NID, self.SUB), True),),
        )
        bound = bind_scalars(plan, self._mapping())
        expr = bound.sort_items[0][0]
        assert all(not isinstance(n, ScalarSubquery) for n in expr.walk())

    def test_spool_def_rebinds_children(self):
        body = PhysProject(
            child=PhysScan(self.T, (gt(self.NID, self.SUB),), (self.NID,)),
            outputs=(OutputColumn("k0", self.NID),),
        )
        plan = PhysSpoolDef(
            spools=(("S", body),),
            child=PhysSpoolRead("S", (("k0", self.NID),)),
        )
        bound = bind_scalars(plan, self._mapping())
        scan = bound.spools[0][1].child
        assert all(
            not isinstance(n, ScalarSubquery)
            for c in scan.conjuncts
            for n in c.walk()
        )

    def test_index_scan_residual(self):
        from repro.optimizer.physical import PhysIndexScan

        plan = PhysIndexScan(
            table_ref=self.T,
            column=self.NID,
            low=0.0,
            high=None,
            low_inclusive=True,
            high_inclusive=True,
            residual=(gt(self.NID, self.SUB),),
            outputs=(self.NID,),
        )
        bound = bind_scalars(plan, self._mapping())
        assert all(
            not isinstance(n, ScalarSubquery)
            for c in bound.residual
            for n in c.walk()
        )


    def test_executed_plan_keeps_estimates(self, small_session):
        """Binding carries every estimate over: each node of the executed
        plan has its unbound node's ``est_cost`` and ``est_rows``."""
        outcome = small_session.execute(nested_query())
        (query,) = outcome.optimization.bundle.queries
        assert query.subquery_plans
        executed = outcome.execution.executed_plans[query.name]
        assert executed is not query.plan
        planned = list(query.plan.walk())
        bound = list(executed.walk())
        assert len(bound) == len(planned)
        assert [(n.est_cost, n.est_rows) for n in bound] == [
            (n.est_cost, n.est_rows) for n in planned
        ]
        assert all(n.est_cost > 0 for n in bound)


class TestDegenerateStatistics:
    def test_single_valued_column(self):
        values = np.full(100, 7, dtype=np.int64)
        stats = ColumnStats.collect(values, DataType.INT)
        assert stats.ndv == 1
        assert stats.min_value == stats.max_value == 7.0

    def test_estimator_on_constant_column(self):
        db = Database()
        db.create_table(
            TableSchema("t", [ColumnSchema("a", DataType.INT)]),
            {"a": np.full(50, 7, dtype=np.int64)},
        )
        db.analyze()
        from repro.optimizer.cardinality import CardinalityEstimator

        estimator = CardinalityEstimator(db)
        col = ColumnRef(TableRef("t", 1), "a", DataType.INT)
        assert estimator.selectivity(eq(col, Literal(7))) > 0.9
        assert estimator.selectivity(gt(col, Literal(7))) < 0.1
        assert estimator.selectivity(lt(col, Literal(100))) > 0.9

    def test_empty_table_queries(self):
        db = Database()
        db.create_table(
            TableSchema("t", [ColumnSchema("a", DataType.INT)]),
            {"a": np.empty(0, dtype=np.int64)},
        )
        db.analyze()
        session = Session(db)
        outcome = session.execute("select a from t where a > 3")
        assert outcome.execution.results[0].rows == []
        outcome = session.execute("select count(*) as n, sum(a) as s from t")
        assert outcome.execution.results[0].rows[0][0] == 0
