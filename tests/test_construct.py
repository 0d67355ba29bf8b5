"""Unit tests for CSE construction (paper §4.2, steps 1-6, Example 4)."""

import itertools

import pytest

from repro.cse.construct import construct_cse
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
from repro.expr.predicates import hull_comparison
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.memo import Memo
from repro.sql.binder import bind_batch
from repro.types import DataType

from .cse_reference import weaken_by_ids
from .cse_reference import weakened_covering as reference_covering


def build_memo(db, sql):
    memo = Memo(CardinalityEstimator(db))
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


def literal_kinds(conjuncts):
    """``(value type, data type)`` of each comparison's literal operand —
    what ``Literal`` equality ignores."""
    return [
        (type(c.right.value), c.right.data_type)
        for c in conjuncts
        if isinstance(c, Comparison) and isinstance(c.right, Literal)
    ]


def weakened_covering(residual_sets):
    """§4.2 step 3 as the optimizer runs it (over conjunct ids), checked
    against the expression-space oracle, literal types included."""
    covering, residuals = weaken_by_ids(residual_sets)
    expected, expected_residuals = reference_covering(residual_sets)
    assert (covering, residuals) == (expected, expected_residuals)
    assert [repr(c) for c in covering] == [repr(c) for c in expected]
    assert literal_kinds(covering) == literal_kinds(expected)
    return covering, residuals


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

    def test_int_bounds_stay_int_literals(self):
        n = self._col("n")
        covering, _ = weakened_covering(
            [[gt(n, Literal(0)), lt(n, Literal(20))], [gt(n, Literal(5)), lt(n, Literal(25))]]
        )
        assert literal_kinds(covering) == [(int, DataType.INT)] * 2
        # An int bound (as a lexer or a DATE literal makes it) is accepted too.
        assert literal_kinds([hull_comparison(n, ComparisonOp.GT, 0)]) == [
            (int, DataType.INT)
        ]

    def test_float_column_int_bounds_print_as_float(self):
        p = self._col("p", DataType.FLOAT)
        covering, _ = weakened_covering(
            [[gt(p, Literal(1000)), lt(p, Literal(5000))],
             [gt(p, Literal(2000)), lt(p, Literal(9000))]]
        )
        assert [repr(c) for c in covering] == ["(t#1.p > 1000.0)", "(t#1.p < 9000.0)"]
        assert literal_kinds(covering) == [(float, DataType.FLOAT)] * 2
        assert repr(hull_comparison(p, ComparisonOp.LT, 9000)) == "(t#1.p < 9000.0)"


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
        # Step 4: keys = union of consumer keys (+ residual columns), plus
        # customer's key: at this scale σ(customer) has ~114 rows, fewer
        # than 1/0.7 × the 125 (nation, segment) groups, so grouping by
        # c_custkey too costs no compression (see test_identity_key below).
        key_names = {k.column for k in block.group_keys}
        assert key_names == {"c_nationkey", "c_mktsegment", "c_custkey"}
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

    def test_identity_key(self, consumers, tiny_db, small_db):
        """A grouped covering whose estimate is at least
        ``PREAGG_MIN_COMPRESSION`` × the rows of the fewest-rows slot whose
        key fixes every key's slot adds that key: customer at SF 0.001, not
        at SF 0.002, where (nation, segment) compresses σ(customer)."""
        for db, added in ((tiny_db, True), (small_db, False)):
            memo, tops = build_memo(db, EXAMPLE1_LIKE)
            definition = construct_cse(
                "E1", tops, memo.block_infos, allocator(), CardinalityEstimator(db)
            )
            keys = {k.column for k in definition.group_keys}
            assert keys - {"c_nationkey", "c_mktsegment"} == (
                {"c_custkey"} if added else set()
            )
            # The estimate never exceeds σ(customer), which fixes every key.
            (customer,) = [t for t in definition.block.tables if t.table == "customer"]
            assert definition.est_rows <= CardinalityEstimator(db).table_rows(customer)

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

    def test_float_range_hull_prints_float_literals(self, tiny_db):
        """A merged range on a FLOAT column with integer literals prints
        float bounds in the covering predicate."""
        query = (
            "select c_nationkey, sum(o_totalprice) as v from customer, orders "
            "where c_custkey = o_custkey and o_totalprice > {} and o_totalprice < {} "
            "group by c_nationkey"
        )
        memo, tops = build_memo(
            tiny_db, query.format(1000, 5000) + ";" + query.format(2000, 9000)
        )
        definition = construct_cse(
            "F", tops, memo.block_infos, allocator(), CardinalityEstimator(tiny_db)
        )
        texts = [repr(c) for c in definition.covering_conjuncts]
        assert [t.split(".", 1)[1] for t in texts] == [
            "o_totalprice > 1000.0)", "o_totalprice < 9000.0)"
        ]
