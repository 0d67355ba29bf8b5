"""Every non-STRING result column has its output type's dtype.

Aggregation computes MIN/MAX and SUM in float64; it casts the result back
to the output type's dtype (INT and DATE: int64) whenever no group is
NULL, and sums over no rows are zeros of that dtype. A column that holds
a NULL (NaN) stays float64. STRING outputs are decoded to objects at the
edge and are not checked here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Session
from repro.executor.executor import Executor
from repro.optimizer.physical import PhysProject, PhysSort, PhysSpoolDef
from repro.types import DataType
from repro.workloads import ADAPTED_QUERIES
from repro.workloads.generator import random_sql_batch

EDGE_SQL = {
    "max_date_by_group": "select o_custkey, max(o_orderdate) from orders group by o_custkey",
    "min_date_scalar": "select min(o_orderdate) as d from orders",
    "int_sum_no_rows": "select sum(o_custkey) as s from orders where o_custkey < 0",
    "float_sum_no_rows": "select sum(o_totalprice) as s from orders where o_custkey < 0",
    "grouped_sum_no_rows": (
        "select o_orderstatus, sum(o_custkey) as s from orders "
        "where o_custkey < 0 group by o_orderstatus"
    ),
    "min_max_int": (
        "select l_returnflag, min(l_linenumber) as lo, max(l_orderkey) as hi, "
        "count(*) as n from lineitem group by l_returnflag"
    ),
}


@pytest.fixture()
def checked_columns(monkeypatch):
    """Every (output type, column) pair ``Executor._run_named`` returns."""
    seen = []
    run_named = Executor._run_named

    def spy(self, plan, ctx):
        names, columns = run_named(self, plan, ctx)
        node = plan
        while isinstance(node, (PhysSort, PhysSpoolDef)):
            node = node.child
        assert isinstance(node, PhysProject)
        seen.extend(
            (out.expr.data_type, column) for out, column in zip(node.outputs, columns)
        )
        return names, columns

    monkeypatch.setattr(Executor, "_run_named", spy)
    return seen


def _assert_output_dtypes(seen):
    assert seen
    for data_type, column in seen:
        if data_type is DataType.STRING:
            continue
        expected = data_type.numpy_dtype
        if column.dtype == expected:
            continue
        # Only a NULL may widen a non-float column to float64.
        assert column.dtype == np.float64 and np.isnan(column).any(), (
            data_type, column.dtype
        )


@pytest.mark.parametrize("name", sorted(EDGE_SQL))
def test_aggregate_edges_keep_the_output_dtype(tiny_db, checked_columns, name):
    Session(tiny_db, plan_cache_size=0).execute(EDGE_SQL[name])
    _assert_output_dtypes(checked_columns)


def test_date_max_and_empty_int_sum_values(tiny_db):
    session = Session(tiny_db, plan_cache_size=0)
    rows = session.execute(EDGE_SQL["max_date_by_group"]).execution.results[0].rows
    assert (106, 9951) in rows
    assert all(type(date) is int for _, date in rows)
    empty = session.execute(EDGE_SQL["int_sum_no_rows"]).execution.results[0].rows
    assert empty == [(0,)] and type(empty[0][0]) is int


@pytest.mark.parametrize("name", sorted(ADAPTED_QUERIES))
def test_tpch_result_dtypes(tiny_db, checked_columns, name):
    Session(tiny_db, plan_cache_size=0).execute(ADAPTED_QUERIES[name])
    _assert_output_dtypes(checked_columns)


@pytest.mark.parametrize("seed", range(6))
def test_random_batch_result_dtypes(tiny_db, checked_columns, seed):
    Session(tiny_db, plan_cache_size=0).execute(random_sql_batch(seed))
    _assert_output_dtypes(checked_columns)
