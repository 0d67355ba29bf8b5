"""200-seed differential suite: the engine must be frame-identical to the
row-at-a-time reference oracle.

Every seed-determined SPJG batch runs through a default :class:`Session`
(CSE sharing and shared table scans on) and through the oracle, and both
must produce identical frames. Handcrafted empty-result, NULL-extension
and ORDER-BY scenarios cover shapes the generator rarely produces.

The module and test names date from when this suite also compared a
morsel-streamed fused pipeline path against the operator-at-a-time one;
that path is gone and the names are kept so the suite's test ids stay
stable.
"""

from __future__ import annotations

import math

import pytest

from repro import Session
from repro.catalog.tpch import build_tpch_database
from repro.executor.reference import evaluate_batch
from repro.workloads import random_spjg_batch

#: read-only database shared by all seeds.
DB = build_tpch_database(scale_factor=0.0005)

SEED_COUNT = 200
CHUNK = 25

#: handcrafted shapes the generator rarely produces: empty results,
#: single-row results, NULL-extended outer-join columns, and an ORDER BY
#: over a NULL-extended key.
HANDCRAFTED = [
    "select c_nationkey, count(*) as n from customer "
    "where c_nationkey < -1 group by c_nationkey",
    "select n_name, c_acctbal from nation "
    "left join customer on n_nationkey = c_nationkey "
    "and c_acctbal > 9000 order by c_acctbal desc, n_name",
    "select c_nationkey, sum(c_acctbal) as v from customer "
    "where c_custkey <= 1 group by c_nationkey;"
    "select c_nationkey, count(*) as n from customer "
    "where c_custkey <= 1 group by c_nationkey",
]


def _null(v) -> bool:
    return v is None or (isinstance(v, float) and v != v)


def _sort_key(row):
    # Floats are compared with a tolerance, so they cannot participate in
    # the sort key; group-by keys (and any shared ORDER BY order) keep
    # matching rows aligned under the stable sort.
    return repr(
        tuple(
            "NULL" if _null(v) else (0.0 if isinstance(v, float) else v)
            for v in row
        )
    )


def _assert_rows_match(got, want, msg: str) -> None:
    # Vectorized (pairwise) and row-at-a-time summation accumulate in
    # different orders, so large aggregates agree only to relative
    # precision — compare floats with a tolerance, everything else exactly.
    assert len(got) == len(want), msg
    for g, w in zip(sorted(got, key=_sort_key), sorted(want, key=_sort_key)):
        assert len(g) == len(w), msg
        for a, b in zip(g, w):
            if _null(a) or _null(b):
                assert _null(a) and _null(b), msg
            elif isinstance(a, float) or isinstance(b, float):
                assert math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-6), msg
            else:
                assert a == b, msg


def check_batch(sql: str) -> None:
    session = Session(DB)
    batch = session.bind(sql)
    outcome = session.execute(batch)
    oracle = evaluate_batch(DB, batch)
    for query in batch.queries:
        _assert_rows_match(
            outcome.execution.query(query.name).rows,
            oracle[query.name],
            f"engine != oracle for {query.name}:\n{sql}",
        )


@pytest.mark.parametrize("chunk", range(0, SEED_COUNT, CHUNK))
def test_differential_at_production_morsel(chunk):
    for seed in range(chunk, chunk + CHUNK):
        check_batch(random_spjg_batch(seed))


@pytest.mark.parametrize("sql", HANDCRAFTED)
def test_handcrafted_scenarios(sql):
    check_batch(sql)
