"""Tests for cost-annotated EXPLAIN and MCV statistics."""

import pytest

from repro import OptimizerOptions, Session
from repro.optimizer.explain import explain_with_costs, local_cost
from repro.optimizer.physical import PhysSpoolRead
from repro.workloads import ADAPTED_QUERIES, example1_batch
from repro.workloads.generator import random_spjg_batch, random_sql_batch

from .test_explain_golden import CASES

#: the golden cases, 60 seeds of each random generator, the TPC-H queries.
CORPUS = (
    sorted(CASES.items())
    + [(f"sql{seed}", random_sql_batch(seed)) for seed in range(60)]
    + [(f"spjg{seed}", random_spjg_batch(seed)) for seed in range(60)]
    + sorted(ADAPTED_QUERIES.items())
)


def _sections(bundle):
    """Every plan EXPLAIN renders: root spool bodies, subqueries, queries."""
    yield from (body for _, body in bundle.root_spools)
    for query in bundle.queries:
        yield from query.subquery_plans.values()
        yield query.plan


class TestAnnotatedExplain:
    def test_totals_accumulate(self, small_session):
        result = small_session.optimize("select r_name from region")
        node = result.bundle.queries[0].plan
        assert node.est_cost >= local_cost(node) > 0
        assert node.est_cost == pytest.approx(
            local_cost(node) + sum(c.est_cost for c in node.children())
        )

    def test_bundle_header_and_spools(self, small_session):
        result = small_session.optimize(example1_batch())
        text = explain_with_costs(result.bundle)
        assert "estimated bundle cost" in text
        assert "[local" in text and "total" in text
        assert "Spool E4" in text

    def test_spool_read_local_is_read_cost(self, small_session):
        result = small_session.optimize(example1_batch())
        (candidate,) = [c for c in result.candidates if c.cse_id == "E4"]
        reads = [
            node
            for query in result.bundle.queries
            for node in query.plan.walk()
            if isinstance(node, PhysSpoolRead)
        ]
        assert len(reads) == 3
        assert {local_cost(node) for node in reads} == {candidate.read_cost}
        (body,) = [body for _, body in result.bundle.root_spools]
        assert body.est_cost == candidate.body_cost

    def test_session_explain_costs_flag(self, small_session):
        text = small_session.explain(example1_batch(), costs=True)
        assert "[local" in text
        plain = small_session.explain(example1_batch())
        assert "[local" not in plain

    def test_costs_add_up_to_bundle_cost(self, small_db):
        """EXPLAIN prints what the search charged: the queries, subqueries
        and root spool bodies plus each root spool's C_W add up to the
        bundle's cost, and no operator's local share is negative."""
        mismatched, negative = [], []
        for name, sql in CORPUS:
            result = Session(small_db, OptimizerOptions()).optimize(sql)
            bundle = result.bundle
            write_costs = {c.cse_id: c.write_cost for c in result.candidates}
            total = sum(plan.est_cost for plan in _sections(bundle)) + sum(
                write_costs[cse_id] for cse_id, _ in bundle.root_spools
            )
            if total != pytest.approx(bundle.est_cost, rel=1e-9, abs=0):
                mismatched.append((name, total, bundle.est_cost))
            negative.extend(
                (name, node._describe_line())
                for plan in _sections(bundle)
                for node in plan.walk()
                if local_cost(node) < -1e-9
            )
        assert mismatched == []
        assert negative == []

    def test_cli_costs_flag(self):
        from tests.test_cli import run_cli

        code, output = run_cli(
            "--sf", "0.001", "explain", "--costs",
            "select c_nationkey, sum(c_acctbal) as t from customer "
            "group by c_nationkey",
        )
        assert code == 0 and "[local" in output


class TestMcvStatistics:
    def test_mcv_collected_for_low_ndv(self, small_db):
        stats = small_db.statistics("customer").column("c_mktsegment")
        assert stats.mcv
        assert sum(stats.mcv.values()) == pytest.approx(1.0, abs=0.01)

    def test_no_mcv_for_high_ndv(self, small_db):
        stats = small_db.statistics("customer").column("c_custkey")
        assert not stats.mcv

    def test_equality_uses_true_frequency(self, small_db):
        from repro.expr.expressions import ColumnRef, Literal, TableRef, eq
        from repro.optimizer.cardinality import CardinalityEstimator
        from repro.types import DataType

        estimator = CardinalityEstimator(small_db)
        seg = ColumnRef(
            TableRef("customer", 1), "c_mktsegment", DataType.STRING
        )
        sel = estimator.selectivity(eq(seg, Literal("BUILDING")))
        table = small_db.table("customer")
        actual = (
            (table.column("c_mktsegment") == "BUILDING").sum()
            / table.row_count
        )
        assert sel == pytest.approx(actual, abs=0.001)

    def test_absent_value_estimated_tiny(self, small_db):
        from repro.expr.expressions import ColumnRef, Literal, TableRef, eq
        from repro.optimizer.cardinality import CardinalityEstimator
        from repro.types import DataType

        estimator = CardinalityEstimator(small_db)
        seg = ColumnRef(
            TableRef("customer", 1), "c_mktsegment", DataType.STRING
        )
        sel = estimator.selectivity(eq(seg, Literal("NO-SUCH-SEGMENT")))
        assert sel < 0.01
