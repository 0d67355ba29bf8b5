"""The aggregation kernel, pinned on both of its paths.

A hash aggregation numbers groups with ``_group_ids``; an aggregation whose
input is unique on its keys can pass ``gids = arange(n)`` instead (every row
its own group, in row order = first-appearance order). On frames unique on
their keys the two must agree column for column, value and dtype, for every
key type and every compute the optimizer emits, NaN arguments from
left-outer null extension included. Also here: a group with no live row
aggregates MIN/MAX (and AVG, bound as SUM / COUNT) to NULL, scalar
aggregates over no rows included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Session
from repro.executor import iterators
from repro.executor.iterators import _aggregate_column, _hash_agg
from repro.executor.reference import evaluate_query
from repro.executor.runtime import ExecutionContext
from repro.expr.expressions import AggExpr, AggFunc, ColumnRef, TableRef
from repro.optimizer.aggs import COUNT_STAR, AggCompute, combine_computes, direct_computes
from repro.optimizer.physical import PhysHashAgg, PhysIdentityAgg, PhysScan
from repro.types import DataType

T = TableRef("t", 0)
U = TableRef("u", 1)
K_INT = ColumnRef(T, "k_int", DataType.INT)
K_DATE = ColumnRef(T, "k_date", DataType.DATE)
K_STR = ColumnRef(T, "k_str", DataType.STRING)
K_FLOAT = ColumnRef(T, "k_float", DataType.FLOAT)
X_INT = ColumnRef(T, "x_int", DataType.INT)
X_FLOAT = ColumnRef(T, "x_float", DataType.FLOAT)
#: a column of the null-extended side of a left outer join: NaN = NULL
Y_NULLS = ColumnRef(U, "y", DataType.FLOAT)

KEYS = {
    "int": (K_INT,),
    "date": (K_DATE,),
    "string": (K_STR,),
    "float_nan": (K_FLOAT,),
    "composite": (K_DATE, K_STR),
}

DIRECT = direct_computes(
    [
        COUNT_STAR,
        AggExpr(AggFunc.SUM, X_INT),
        AggExpr(AggFunc.SUM, X_FLOAT),
        AggExpr(AggFunc.MIN, X_INT),
        AggExpr(AggFunc.MAX, X_FLOAT),
        AggExpr(AggFunc.SUM, Y_NULLS),
        AggExpr(AggFunc.MIN, Y_NULLS),
        AggExpr(AggFunc.MAX, Y_NULLS),
    ]
)
#: the combine step above a pre-aggregation of ``t`` (partials keyed by
#: their ``out``, the count under ``COUNT_STAR``) with ``u`` joined on.
COMBINE = combine_computes(
    [
        COUNT_STAR,
        AggExpr(AggFunc.SUM, X_FLOAT),
        AggExpr(AggFunc.MIN, X_INT),
        AggExpr(AggFunc.SUM, Y_NULLS),
        AggExpr(AggFunc.MAX, Y_NULLS),
    ],
    frozenset([T]),
)


def unique_frame(n: int, seed: int):
    """A frame of ``n`` rows, unique on every key set of :data:`KEYS`."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    k_float = (order * 0.5).astype(np.float64)
    if n:
        k_float[rng.integers(n)] = np.nan  # one NULL key: still unique
    y = rng.normal(size=n) * 100
    y[rng.random(n) < 0.3] = np.nan
    frame = {
        K_INT: order.astype(np.int64) * 3 - 7,
        K_DATE: (order + 9000).astype(np.int64),
        K_STR: (order * 11 + 5).astype(np.int64),
        K_FLOAT: k_float,
        X_INT: rng.integers(-50, 50, size=n).astype(np.int64),
        X_FLOAT: rng.normal(size=n) * 1000,
        Y_NULLS: y,
        COUNT_STAR: rng.integers(1, 9, size=n).astype(np.int64),
    }
    for compute in COMBINE:
        if isinstance(compute.arg, AggExpr) and compute.arg not in frame:
            frame[compute.arg] = rng.normal(size=n) * 10  # a partial aggregate
    return frame


def run_hash_agg(plan, frame, monkeypatch):
    """``_hash_agg`` over ``frame`` as its child's output."""
    monkeypatch.setattr(iterators, "execute_node", lambda child, ctx: frame)
    ctx = ExecutionContext(database=None)
    return _hash_agg(plan, ctx), ctx


def assert_same_column(got, want):
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n", [0, 1, 57])
@pytest.mark.parametrize("computes", [DIRECT, COMBINE], ids=["direct", "combine"])
@pytest.mark.parametrize("keys", list(KEYS.values()), ids=list(KEYS))
def test_arange_gids_equal_hash_grouping_on_unique_keys(keys, computes, n, monkeypatch):
    frame = unique_frame(n, seed=n + len(keys))
    child = PhysScan(T, (), tuple(frame))
    hashed, _ = run_hash_agg(PhysHashAgg(child, keys, computes), frame, monkeypatch)
    gids = np.arange(n, dtype=np.int64)
    for compute in computes:
        assert_same_column(
            _aggregate_column(compute, gids, n, frame, n), hashed[compute.out]
        )
    for key in keys:
        np.testing.assert_array_equal(hashed[key], frame[key])


@pytest.mark.parametrize("keys", list(KEYS.values()), ids=list(KEYS))
def test_identity_node_equals_hash_agg_and_charges_a_projection(keys, monkeypatch):
    frame = unique_frame(40, seed=3)
    child = PhysScan(T, (), tuple(frame))
    hashed, hash_ctx = run_hash_agg(PhysHashAgg(child, keys, DIRECT), frame, monkeypatch)
    plan = PhysIdentityAgg(child, keys, DIRECT)
    same, ctx = run_hash_agg(plan, frame, monkeypatch)
    assert list(same) == list(hashed)
    for key, column in hashed.items():
        assert_same_column(same[key], column)
    assert hash_ctx.metrics.key_factorizations == len(keys)
    assert ctx.metrics.key_factorizations == 0
    assert ctx.metrics.cost_units == ctx.cost_model.project(40, len(plan.outputs))
    assert "IdentityAgg" in plan.describe() and "HashAgg" not in plan.describe()


@pytest.mark.parametrize("func", [AggFunc.MIN, AggFunc.MAX])
@pytest.mark.parametrize("column", [X_INT, K_DATE, X_FLOAT], ids=["int", "date", "float"])
def test_scalar_min_max_over_no_rows_is_null(func, column, monkeypatch):
    frame = {column: np.empty(0, dtype=column.data_type.numpy_dtype)}
    compute = AggCompute(AggExpr(func, column), func, column)
    plan = PhysHashAgg(PhysScan(T, (), (column,)), (), (compute,))
    with np.errstate(invalid="raise"):
        out, _ = run_hash_agg(plan, frame, monkeypatch)
    assert np.isnan(out[compute.out]).all() and len(out[compute.out]) == 1


#: scalar aggregates over inputs that every row is filtered out of, and the
#: width of their one all-NULL row.
EMPTY_AGGREGATES = [
    (
        "select min(l_linenumber) as a, max(o_orderdate) as b from lineitem, orders "
        "where l_orderkey = o_orderkey and l_quantity < 0",
        2,
    ),
    # AVG binds as SUM / COUNT: over no rows that is 0 / 0, which is NULL.
    ("select avg(l_quantity) as a from lineitem where l_quantity < 0", 1),
    (
        "select avg(l_quantity) as a from lineitem, orders "
        "where l_orderkey = o_orderkey and o_totalprice < 0",
        1,
    ),
]


def test_empty_min_max_query_matches_the_oracle(tiny_db):
    """Every row is filtered out: MIN/MAX and AVG are NULL (the engine's
    NaN, the oracle's None), not sentinels or a division by zero."""
    for sql, width in EMPTY_AGGREGATES:
        session = Session(tiny_db)
        batch = session.bind(sql)
        with np.errstate(invalid="raise"):
            rows = session.execute(batch).execution.results[0].rows
        nulls = [tuple(None if v != v else v for v in row) for row in rows]
        assert nulls == evaluate_query(tiny_db, batch.queries[0]) == [(None,) * width], sql
