"""Tests for query blocks and bound batches."""

import pytest

from repro.errors import OptimizerError
from repro.expr.expressions import (
    AggExpr,
    AggFunc,
    ColumnRef,
    TableRef,
    eq,
)
from repro.logical.blocks import BoundBatch, BoundQuery, OutputColumn, QueryBlock
from repro.types import DataType

A = TableRef("A", 1)
B = TableRef("B", 2)
C = TableRef("C", 3)


def col(table, name):
    return ColumnRef(table, name, DataType.INT)


class TestQueryBlock:
    def _block(self, **kw):
        defaults = dict(
            name="q",
            tables=(A, B),
            conjuncts=(eq(col(A, "k"), col(B, "k")),),
            output=(OutputColumn("k", col(A, "k")),),
        )
        defaults.update(kw)
        return QueryBlock(**defaults)

    def test_duplicate_instances_rejected(self):
        with pytest.raises(OptimizerError):
            self._block(tables=(A, A))

    def test_foreign_columns_rejected(self):
        with pytest.raises(OptimizerError):
            self._block(conjuncts=(eq(col(A, "k"), col(C, "k")),))

    def test_equivalence_classes(self):
        block = self._block()
        classes = block.equivalence_classes()
        assert classes.same_class(col(A, "k"), col(B, "k"))

    def test_columns_of(self):
        block = self._block()
        assert block.columns_of(A) == frozenset([col(A, "k")])
        assert block.columns_of(C) == frozenset()

    def test_required_columns(self):
        agg = AggExpr(AggFunc.SUM, col(B, "v"))
        block = self._block(
            group_keys=(col(A, "k"),),
            aggregates=(agg,),
            output=(OutputColumn("k", col(A, "k")), OutputColumn("s", agg)),
        )
        required = {(c.table_ref, c.column) for c in block.required_columns()}
        assert (B, "v") in required and (A, "k") in required

    def test_has_groupby(self):
        assert not self._block().has_groupby
        assert self._block(group_keys=(col(A, "k"),)).has_groupby
        assert self._block(
            aggregates=(AggExpr(AggFunc.COUNT, None),)
        ).has_groupby


class TestBatches:
    def test_duplicate_query_names_rejected(self):
        q = BoundQuery(name="q", block=QueryBlock(
            name="b1", tables=(A,), conjuncts=(),
            output=(OutputColumn("x", col(A, "x")),),
        ))
        q2 = BoundQuery(name="q", block=QueryBlock(
            name="b2", tables=(B,), conjuncts=(),
            output=(OutputColumn("y", col(B, "y")),),
        ))
        with pytest.raises(OptimizerError):
            BoundBatch(queries=[q, q2])

    def test_shared_instances_rejected(self):
        q1 = BoundQuery(name="q1", block=QueryBlock(
            name="b1", tables=(A,), conjuncts=(),
            output=(OutputColumn("x", col(A, "x")),),
        ))
        q2 = BoundQuery(name="q2", block=QueryBlock(
            name="b2", tables=(A,), conjuncts=(),
            output=(OutputColumn("x", col(A, "x")),),
        ))
        with pytest.raises(OptimizerError):
            BoundBatch(queries=[q1, q2])

    def test_lookup(self):
        q1 = BoundQuery(name="q1", block=QueryBlock(
            name="b1", tables=(A,), conjuncts=(),
            output=(OutputColumn("x", col(A, "x")),),
        ))
        batch = BoundBatch(queries=[q1])
        assert batch.query("q1") is q1
        with pytest.raises(OptimizerError):
            batch.query("nope")
