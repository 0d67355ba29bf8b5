"""Tests for the cardinality estimator."""

import pytest

from repro.expr.expressions import (
    And,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Literal,
    Not,
    Or,
    TableRef,
    eq,
    gt,
    lt,
)
from repro.optimizer.cardinality import (
    CardinalityEstimator,
    DEFAULT_SELECTIVITY,
    cardenas,
)
from repro.types import DataType, date_to_int


@pytest.fixture()
def estimator(tiny_db):
    return CardinalityEstimator(tiny_db)


def cust(name, dtype=DataType.INT):
    return ColumnRef(TableRef("customer", 1), name, dtype)


def orders(name, dtype=DataType.INT):
    return ColumnRef(TableRef("orders", 2), name, dtype)


class TestBaseStatistics:
    def test_table_rows(self, estimator, tiny_db):
        assert estimator.table_rows(TableRef("customer", 1)) == float(
            tiny_db.table("customer").row_count
        )

    def test_column_ndv(self, estimator):
        assert estimator.column_ndv(cust("c_nationkey")) <= 25
        assert estimator.column_ndv(cust("c_custkey")) == float(
            estimator.table_rows(TableRef("customer", 1))
        )

    def test_width_of(self, estimator):
        width = estimator.width_of([cust("c_custkey"), cust("c_name", DataType.STRING)])
        assert width == 8 + 25


class TestSelectivity:
    def test_equality_literal(self, estimator):
        sel = estimator.selectivity(eq(cust("c_nationkey"), Literal(3)))
        assert 0 < sel <= 1.0 / 10  # ~1/25 with full stats

    def test_range_uses_histogram(self, estimator):
        date_col = orders("o_orderdate", DataType.DATE)
        mid = Literal(date_to_int("1995-05-01"), DataType.DATE)
        sel = estimator.selectivity(lt(date_col, mid))
        assert 0.35 < sel < 0.65  # roughly half the 1992-1998 span

    def test_range_extremes(self, estimator):
        date_col = orders("o_orderdate", DataType.DATE)
        early = Literal(date_to_int("1980-01-01"), DataType.DATE)
        late = Literal(date_to_int("2005-01-01"), DataType.DATE)
        assert estimator.selectivity(lt(date_col, early)) < 0.01
        assert estimator.selectivity(lt(date_col, late)) > 0.99

    def test_column_column_equality(self, estimator):
        sel = estimator.selectivity(eq(cust("c_custkey"), orders("o_custkey")))
        assert sel == pytest.approx(
            1.0 / estimator.column_ndv(cust("c_custkey"))
        )

    def test_and_or_not(self, estimator):
        a = gt(cust("c_nationkey"), Literal(10))
        b = lt(cust("c_nationkey"), Literal(20))
        sa, sb = estimator.selectivity(a), estimator.selectivity(b)
        assert estimator.selectivity(And((a, b))) == pytest.approx(sa * sb)
        assert estimator.selectivity(Or((a, b))) == pytest.approx(
            1 - (1 - sa) * (1 - sb)
        )
        assert estimator.selectivity(Not(a)) == pytest.approx(1 - sa)

    def test_true_false_literals(self, estimator):
        assert estimator.selectivity(Literal(True)) == 1.0
        assert estimator.selectivity(Literal(False)) == 0.0

    def test_unknown_shape_defaults(self, estimator):
        from repro.logical.blocks import ScalarSubquery

        pred = gt(cust("c_acctbal", DataType.FLOAT), ScalarSubquery("s"))
        assert estimator.selectivity(pred) == DEFAULT_SELECTIVITY

    def test_ne_complements_eq(self, estimator):
        col = cust("c_nationkey")
        eq_sel = estimator.selectivity(eq(col, Literal(3)))
        ne_sel = estimator.selectivity(
            Comparison(ComparisonOp.NE, col, Literal(3))
        )
        assert eq_sel + ne_sel == pytest.approx(1.0)


class TestJoinFactors:
    def test_class_factor_for_join_two_way(self, estimator):
        c = cust("c_custkey")
        o = orders("o_custkey")
        factor = estimator.class_factor_for_join(
            [estimator.column_ndv(c), estimator.column_ndv(o)]
        )
        # 1/max(ndv): the classic equijoin selectivity.
        assert factor == pytest.approx(
            1.0 / max(estimator.column_ndv(c), estimator.column_ndv(o))
        )

    def test_ndv_capped_by_rows(self, estimator):
        # An item's NDV is capped by its rows before the factor is taken.
        c = cust("c_custkey")
        o = orders("o_custkey")
        factor = estimator.class_factor_for_join(
            [min(estimator.column_ndv(c), 5.0), min(estimator.column_ndv(o), 5.0)]
        )
        assert factor == pytest.approx(1.0 / 5.0)

    def test_single_item_class_neutral(self, estimator):
        assert estimator.class_factor_for_join([10.0]) == 1.0
        assert estimator.class_factor_for_join([]) == 1.0


class TestGroupRows:
    def test_no_keys_single_group(self, estimator):
        assert estimator.group_rows(1000, ()) == 1.0

    def test_group_count_bounded(self, estimator):
        keys = (cust("c_nationkey"),)
        groups = estimator.group_rows(10_000, keys)
        assert 1.0 <= groups <= 25.0

    def test_more_keys_more_groups(self, estimator):
        one = estimator.group_rows(10_000, (cust("c_nationkey"),))
        two = estimator.group_rows(
            10_000, (cust("c_nationkey"), cust("c_mktsegment", DataType.STRING))
        )
        assert two >= one


class TestCardenas:
    def test_bounds(self):
        assert cardenas(100, 1000) <= 100
        assert cardenas(1_000_000, 10) <= 10.0001
        assert cardenas(1, 50) == 1

    def test_monotone_in_rows(self):
        assert cardenas(100, 50) <= cardenas(100, 500)

    def test_zero_rows(self):
        assert cardenas(100, 0) == 0.0

    def test_saturation(self):
        # Far more rows than domain: all values appear.
        assert cardenas(10, 1_000_000) == pytest.approx(10.0)


class TestIndexSupport:
    def test_match_fraction_range(self, estimator):
        date_col = orders("o_orderdate", DataType.DATE)
        conjunct = lt(date_col, Literal(date_to_int("1993-01-01"), DataType.DATE))
        fraction = estimator.index_match_fraction(date_col, conjunct)
        assert fraction is not None and 0 < fraction < 0.3

    def test_not_sargable(self, estimator):
        date_col = orders("o_orderdate", DataType.DATE)
        other = orders("o_orderkey")
        conjunct = lt(other, Literal(50))
        assert estimator.index_match_fraction(date_col, conjunct) is None
        ne = Comparison(ComparisonOp.NE, date_col, Literal(5, DataType.DATE))
        assert estimator.index_match_fraction(date_col, ne) is None
