"""Property-based end-to-end test: for random SPJG query batches, every
optimizer configuration produces plans whose results equal the oracle's.

This is the library's strongest invariant: exploiting similar
subexpressions — with any combination of heuristics, stacking, cost modes —
must never change query results.
"""

from unittest.mock import patch

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import OptimizerOptions, Session
from repro.catalog.tpch import build_tpch_database
from repro.executor.reference import evaluate_batch
from repro.optimizer import search

DB = build_tpch_database(scale_factor=0.0005)

#: join chains over the TPC-H schema: (tables, join predicates)
CHAINS = [
    (
        ["customer", "orders", "lineitem"],
        ["c_custkey = o_custkey", "o_orderkey = l_orderkey"],
    ),
    (
        ["nation", "customer", "orders"],
        ["n_nationkey = c_nationkey", "c_custkey = o_custkey"],
    ),
    (
        ["orders", "lineitem", "part"],
        ["o_orderkey = l_orderkey", "l_partkey = p_partkey"],
    ),
]

#: (column, low domain, high domain) for range predicates.
RANGES = {
    "customer": ("c_nationkey", 0, 25),
    "orders": ("o_totalprice", 1000, 400000),
    "lineitem": ("l_quantity", 1, 50),
    "nation": ("n_regionkey", 0, 5),
    "part": ("p_size", 1, 50),
}

GROUPINGS = {
    "customer": ["c_nationkey", "c_mktsegment"],
    "orders": ["o_orderstatus", "o_orderpriority"],
    "lineitem": ["l_returnflag"],
    "nation": ["n_regionkey"],
    "part": ["p_size"],
}

AGGREGATES = {
    "customer": "c_acctbal",
    "orders": "o_totalprice",
    "lineitem": "l_extendedprice",
    "nation": "n_nationkey",
    "part": "p_retailprice",
}


@st.composite
def random_query(draw):
    chain_index = draw(st.integers(0, len(CHAINS) - 1))
    tables, joins = CHAINS[chain_index]
    length = draw(st.integers(2, len(tables)))
    used = tables[:length]
    conjuncts = list(joins[: length - 1])
    # Random range predicates.
    for table in used:
        if draw(st.booleans()):
            column, low, high = RANGES[table]
            bound = draw(st.integers(low, high))
            op = draw(st.sampled_from(["<", ">", "<=", ">="]))
            conjuncts.append(f"{column} {op} {bound}")
    group_table = used[draw(st.integers(0, length - 1))]
    group_col = draw(st.sampled_from(GROUPINGS[group_table]))
    agg_table = used[draw(st.integers(0, length - 1))]
    agg_col = AGGREGATES[agg_table]
    agg = draw(st.sampled_from(["sum", "min", "max", "count"]))
    agg_sql = f"{agg}({agg_col})" if agg != "count" else "count(*)"
    return (
        f"select {group_col}, {agg_sql} as v from {', '.join(used)} "
        f"where {' and '.join(conjuncts)} group by {group_col}"
    )


@st.composite
def random_batch(draw):
    count = draw(st.integers(2, 4))
    return ";".join(draw(random_query()) for _ in range(count))


#: (options, naive initial-cost split) per configuration.
OPTION_SETS = [
    (OptimizerOptions(), False),
    (OptimizerOptions(enable_cse=False), False),
    (OptimizerOptions(enable_heuristics=False), False),
    (OptimizerOptions(), True),
]


def normalize(rows):
    return sorted(
        [
            tuple(round(v, 3) if isinstance(v, float) else v for v in row)
            for row in rows
        ],
        key=repr,
    )


class TestRandomBatches:
    @given(random_batch())
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_all_modes_match_oracle(self, sql):
        reference = None
        for options, naive in OPTION_SETS:
            session = Session(DB, options)
            batch = session.bind(sql)
            with patch.object(search, "NAIVE_COST_SPLIT", naive):
                outcome = session.execute(batch)
            if reference is None:
                reference = evaluate_batch(session.database, batch)
            for query in batch.queries:
                got = normalize(outcome.execution.query(query.name).rows)
                want = normalize(reference[query.name])
                assert got == want, (
                    f"{query.name} mismatch under {options} "
                    f"(naive split {naive}) for:\n{sql}"
                )

    @given(random_query())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_identical_twin_queries_share(self, sql):
        """A batch of two identical queries must produce identical results
        twice — and the CSE plan may serve both from one spool."""
        session = Session(DB)
        batch = session.bind(sql + ";" + sql)
        outcome = session.execute(batch)
        first = normalize(outcome.execution.results[0].rows)
        second = normalize(outcome.execution.results[1].rows)
        assert first == second
        oracle = evaluate_batch(session.database, batch)
        assert first == normalize(oracle["Q1"])
