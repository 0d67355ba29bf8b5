"""Predicates cost what they filter.

* A constant WHERE conjunct is folded once, where the memo reads the
  block's conjuncts: TRUE drops it, FALSE or NULL empties the block, and a
  table-less conjunct over a scalar subquery filters at execution.
* A frame with no column keeps its row count (``count(*)`` over a scan or a
  cross join of column-less scans).
* A cross-table disjunction's range hulls are single-table filters its scans
  apply; the disjunction stays the join residual and the join keeps its
  unconditioned estimate.
* Executing Q1, Q6 and Q19 broadcasts no literal to a column.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from repro import OptimizerOptions, Session
from repro.executor.reference import evaluate_batch
from repro.expr.expressions import FALSE, Or
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.memo import BlockInfo
from repro.optimizer.physical import PhysHashJoin, PhysScan
from repro.workloads.tpch_queries import adapted_query

from .rows import assert_same_rows


def _check_against_oracle(session, sql):
    batch = session.bind(sql)
    outcome = session.execute(batch)
    oracle = evaluate_batch(session.database, batch)
    for result, query in zip(outcome.execution.results, batch.queries):
        assert_same_rows(result.rows, oracle[query.name], sql)
    return outcome


CONSTANT_CONJUNCTS = [
    "select n_name from nation where 1 = 0",
    "select n_name from nation where not (1 = 1)",
    "select n_name from nation where 1 < 2",
    "select n_name, r_name from nation, region "
    "where n_regionkey = r_regionkey and 2 < 1",
    "select n_name, r_name from nation, region "
    "where n_regionkey = r_regionkey and 1 < 2",
    "select n_name from nation where 'b' < 'a'",
    "select n_name from nation where (select count(*) as c from region) > 30",
    "select n_name from nation where (select count(*) as c from region) > 3",
    "select c_custkey, o_orderkey from customer left join orders "
    "on c_custkey = o_custkey and 1 = 0",
    "select c_custkey from customer where exists "
    "(select o_orderkey from orders where o_custkey = c_custkey and 0 = 1)",
]

COLUMN_LESS = [
    "select count(*) as c from nation",
    "select count(*) as c from nation, region where 1 = 1",
    "select count(*) as c from nation, region",
    "select count(*) as c from nation, region where n_regionkey = 1",
]


@pytest.mark.parametrize("shared_scans", [True, False], ids=["shared", "unshared"])
@pytest.mark.parametrize("sql", CONSTANT_CONJUNCTS + COLUMN_LESS)
def test_rows_match_the_oracle(tiny_db, sql, shared_scans):
    session = Session(tiny_db, OptimizerOptions(), shared_scans=shared_scans)
    _check_against_oracle(session, sql)


def test_count_star_counts_rows(tiny_db):
    session = Session(tiny_db)
    rows = session.execute("select count(*) as c from nation, region where 1 = 1")
    assert rows.execution.results[0].rows == [(125,)]


def _block_info(session, sql):
    block = session.bind(sql).queries[0].block
    return BlockInfo(block, CardinalityEstimator(session.database))


def test_constants_fold_where_the_memo_reads_conjuncts(tiny_db):
    session = Session(tiny_db)
    assert _block_info(session, "select n_name from nation where 1 < 2").noneq == []
    info = _block_info(
        session,
        "select n_name from nation, region where n_regionkey = r_regionkey and 2 < 1",
    )
    assert info.noneq_bits == [(FALSE, info.bits[0], 0.0)]


def test_q19_scans_apply_the_disjunction_hulls(tiny_db):
    session = Session(tiny_db)
    sql = adapted_query("Q19")
    info = _block_info(session, sql)
    (disjunction,) = [c for c in info.noneq if isinstance(c, Or)]
    hulls = [c for c in info.noneq if c is not disjunction]
    # p_size >= 1 and l_quantity >= 1 hold for every stored row (min/max).
    assert sorted(map(repr, hulls)) == [
        "(lineitem#1.l_quantity <= 20.0)", "(part#2.p_size <= 15)"
    ]
    assert all(len(hull.tables()) == 1 for hull in hulls)
    estimator = CardinalityEstimator(tiny_db)
    product = 1.0
    for conjunct, _, selectivity in info.noneq_bits:
        product *= selectivity
    assert math.isclose(product, estimator.selectivity(disjunction), rel_tol=1e-12)

    plan = session.optimize(sql).bundle.queries[0].plan
    scans = {n.table_ref.physical_name: n for n in plan.walk() if isinstance(n, PhysScan)}
    assert {repr(c) for c in scans["part"].conjuncts} == {"(part#2.p_size <= 15)"}
    assert {repr(c) for c in scans["lineitem"].conjuncts} == {
        "(lineitem#1.l_quantity <= 20.0)"
    }
    (join,) = [n for n in plan.walk() if isinstance(n, PhysHashJoin)]
    assert join.residual == (disjunction,)
    _check_against_oracle(session, sql)


def test_single_table_disjunctions_get_no_hull(tiny_db):
    info = _block_info(
        Session(tiny_db),
        "select n_name from nation where n_nationkey < 3 or n_nationkey > 20",
    )
    assert len(info.noneq) == 1


def test_filter_work_broadcasts_no_literal(tiny_db, monkeypatch):
    """Q1, Q6 and Q19 compare and compute with literal operands only: the
    evaluator allocates no n-row column for a constant while they run."""
    session = Session(tiny_db)
    batches = [session.bind(adapted_query(name)) for name in ("Q1", "Q6", "Q19")]
    full = np.full
    broadcasts = []

    def spy(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__", "").startswith("repro.expr"):
            broadcasts.append(args)
        return full(*args, **kwargs)

    monkeypatch.setattr(np, "full", spy)
    for batch in batches:
        session.execute(batch)
    assert broadcasts == []
