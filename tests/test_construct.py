"""Unit tests for CSE construction (paper §4.2, steps 1-6, Example 4)."""

import itertools

import pytest

from repro.cse.construct import (
    construct_cse,
    weakened_covering,
)
from repro.cse.manager import CseManager
from repro.cse.compatibility import compatibility_groups
from repro.cse.signature import TableSignature
from repro.errors import OptimizerError
from repro.expr.expressions import (
    ColumnRef,
    Comparison,
    ComparisonOp,
    Literal,
    TableRef,
    eq,
    gt,
    lt,
)
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.memo import Memo
from repro.optimizer.options import OptimizerOptions
from repro.sql.binder import bind_batch
from repro.types import DataType


def build_memo(db, sql):
    memo = Memo(CardinalityEstimator(db), OptimizerOptions())
    batch = bind_batch(db.catalog, sql)
    tops = [memo.build_block(q.block, q.name) for q in batch.queries]
    memo.build_root(tops)
    return memo, tops


def allocator():
    counter = itertools.count(1000)
    return lambda: next(counter)


EXAMPLE1_LIKE = (
    "select c_nationkey, c_mktsegment, sum(l_extendedprice) as le "
    "from customer, orders, lineitem "
    "where c_custkey = o_custkey and o_orderkey = l_orderkey "
    "  and o_orderdate < '1996-07-01' and c_nationkey > 0 and c_nationkey < 20 "
    "group by c_nationkey, c_mktsegment;"
    "select c_nationkey, sum(l_extendedprice) as le, sum(l_quantity) as lq "
    "from customer, orders, lineitem "
    "where c_custkey = o_custkey and o_orderkey = l_orderkey "
    "  and o_orderdate < '1996-07-01' and c_nationkey > 5 and c_nationkey < 25 "
    "group by c_nationkey"
)


class TestWeakenedCovering:
    T = TableRef("t", 1)

    def _col(self, name, dtype=DataType.INT):
        return ColumnRef(self.T, name, dtype)

    def test_common_conjuncts_factored(self):
        date = lt(self._col("d"), Literal(100))
        r1 = gt(self._col("n"), Literal(0))
        r2 = gt(self._col("n"), Literal(5))
        covering, residuals = weakened_covering([[date, r1], [date, r2]])
        assert date in covering
        assert residuals == [[r1], [r2]]

    def test_range_hull(self):
        """The paper's E5: nationkey ranges (0,20) and (5,25) hull to (0,25)."""
        n = self._col("n")
        first = [gt(n, Literal(0)), lt(n, Literal(20))]
        second = [gt(n, Literal(5)), lt(n, Literal(25))]
        covering, residuals = weakened_covering([first, second])
        assert Comparison(ComparisonOp.GT, n, Literal(0)) in covering
        assert Comparison(ComparisonOp.LT, n, Literal(25)) in covering
        assert residuals == [first, second]

    def test_empty_consumer_collapses_covering(self):
        r1 = gt(self._col("n"), Literal(0))
        covering, residuals = weakened_covering([[r1], []])
        assert covering == []
        assert residuals == [[r1], []]

    def test_one_sided_ranges(self):
        n = self._col("n")
        covering, _ = weakened_covering(
            [[gt(n, Literal(3))], [gt(n, Literal(7))]]
        )
        assert covering == [Comparison(ComparisonOp.GT, n, Literal(3))]

    def test_equality_contributes_point_range(self):
        n = self._col("n")
        covering, _ = weakened_covering(
            [[eq(n, Literal(4))], [eq(n, Literal(9))]]
        )
        assert Comparison(ComparisonOp.GE, n, Literal(4)) in covering
        assert Comparison(ComparisonOp.LE, n, Literal(9)) in covering

    def test_inclusive_bound_preferred_on_tie(self):
        n = self._col("n")
        covering, _ = weakened_covering(
            [[gt(n, Literal(5))], [Comparison(ComparisonOp.GE, n, Literal(5))]]
        )
        assert Comparison(ComparisonOp.GE, n, Literal(5)) in covering

    def test_non_range_conjuncts_dropped_from_covering(self):
        s = self._col("s", DataType.STRING)
        c1 = [eq(s, Literal("A"))]
        c2 = [eq(s, Literal("B"))]
        covering, residuals = weakened_covering([c1, c2])
        assert covering == []  # weakening: superset is sound
        assert residuals == [c1, c2]


class TestConstruction:
    @pytest.fixture()
    def consumers(self, tiny_db):
        memo, tops = build_memo(tiny_db, EXAMPLE1_LIKE)
        return memo, list(tops)

    def test_aggregated_cse(self, consumers, tiny_db):
        memo, tops = consumers
        definition = construct_cse(
            "E1", tops, memo.block_infos, allocator(),
            CardinalityEstimator(tiny_db),
        )
        block = definition.block
        # Step 1: the common equijoins survive.
        assert len(definition.joint_equalities) == 2
        # Step 3: weakened covering = common date conjunct + nationkey hull.
        texts = [repr(c) for c in definition.covering_conjuncts]
        assert any("o_orderdate" in t for t in texts)
        assert any("c_nationkey > 0" in t for t in texts)
        assert any("c_nationkey < 25" in t for t in texts)
        # Step 4: keys = union of consumer keys (+ residual columns).
        key_names = {k.column for k in block.group_keys}
        assert key_names == {"c_nationkey", "c_mktsegment"}
        # Aggregates unioned and de-duplicated.
        agg_args = {repr(a) for a in block.aggregates}
        assert len(block.aggregates) == 2  # sum(extendedprice), sum(quantity)
        # Step 5: outputs cover keys and aggregates.
        assert len(definition.outputs) == len(block.group_keys) + len(
            block.aggregates
        )
        # Fresh instances, one per slot.
        assert len({t.instance for t in block.tables}) == 3
        assert definition.signature == TableSignature(
            True, ("customer", "lineitem", "orders")
        )
        assert definition.est_rows > 0
        assert definition.row_width > 0

    def test_spj_cse(self, consumers, tiny_db):
        memo, tops = consumers
        joins = [
            g for g in memo.groups
            if g.kind == "join" and len(g.items) == 3 and g.signature is not None
        ]
        definition = construct_cse(
            "E2", joins, memo.block_infos, allocator(),
            CardinalityEstimator(tiny_db),
        )
        assert not definition.has_groupby
        assert definition.signature.has_groupby is False
        # Outputs are plain columns covering both consumers' requirements.
        names = {o.expr.column for o in definition.outputs}
        assert {"c_nationkey", "l_extendedprice"} <= names

    def test_trivial_cse_single_consumer(self, consumers, tiny_db):
        memo, tops = consumers
        definition = construct_cse(
            "T", [tops[0]], memo.block_infos, allocator(),
            CardinalityEstimator(tiny_db),
        )
        # A trivial CSE is "exactly the same as its only consumer" (§4.3):
        # all of the consumer's conjuncts become covering conjuncts.
        assert len(definition.consumer_groups) == 1
        assert definition.covering_conjuncts  # date + both nationkey bounds

    def test_mismatched_signatures_rejected(self, consumers, tiny_db):
        memo, tops = consumers
        join = [
            g for g in memo.groups
            if g.kind == "join" and len(g.items) == 2 and g.signature is not None
        ][0]
        with pytest.raises(OptimizerError):
            construct_cse(
                "X", [tops[0], join], memo.block_infos, allocator()
            )

    def test_empty_consumers_rejected(self, consumers):
        memo, _ = consumers
        with pytest.raises(OptimizerError):
            construct_cse("X", [], memo.block_infos, allocator())

    def test_estimate_rows_aggregated_smaller(self, consumers, tiny_db):
        memo, tops = consumers
        estimator = CardinalityEstimator(tiny_db)
        agg_def = construct_cse("A", tops, memo.block_infos, allocator(), estimator)
        joins = [
            g for g in memo.groups
            if g.kind == "join" and len(g.items) == 3 and g.signature is not None
        ]
        join_def = construct_cse("J", joins, memo.block_infos, allocator(), estimator)
        assert agg_def.est_rows < join_def.est_rows
