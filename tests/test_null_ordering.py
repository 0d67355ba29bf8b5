"""NULL ordering through ORDER BY: engine and oracle must agree.

NULL-extended outer-join frames (PR 6) flow ``NaN`` into ORDER BY — in
numeric columns and in float-widened string-code columns alike (string keys
are mapped to pool sort ranks first, NULL staying NaN). The engine encodes
each sort key as dense rank codes with NULL ranking largest — NULLs last
ascending, first descending, for every type — and the reference oracle sorts with stable
per-key passes under the same rule. These tests pin the unit behavior
(including descending-tie stability, which a reversed-stable-sort
implementation breaks) and the engine↔oracle agreement on null-extended
frames, with a pinned-seed randomized sweep.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import OptimizerOptions, Session
from repro.executor.iterators import _rank_codes, sort_order_for
from repro.expr.evaluator import string_ranks
from repro.executor.reference import evaluate_batch
from repro.expr.expressions import ColumnRef, TableRef
from repro.types import DataType, string_pool

#: pinned seed for the randomized sweep (satellite regression anchor).
PINNED_SEED = 20260807

T = TableRef(table="t", instance=0)


def _col(name: str, data_type: DataType) -> ColumnRef:
    return ColumnRef(table_ref=T, column=name, data_type=data_type)


class TestRankCodes:
    def test_float_nan_ranks_largest(self):
        values = np.array([3.0, np.nan, 1.0, 2.0, np.nan])
        codes = _rank_codes(values)
        assert codes.dtype == np.int64
        assert list(codes) == [2, 3, 0, 1, 3]

    def test_object_none_ranks_largest(self):
        """What was an object-array None is a NaN code: same ranks."""
        b, a, c = string_pool.intern(["b", "a", "c"]).tolist()
        values = np.array([b, np.nan, a, np.nan, c])  # NaN code = NULL
        ranks = string_ranks(
            _col("s", DataType.STRING), values, string_pool.order()
        )
        assert list(_rank_codes(ranks)) == [1, 3, 0, 3, 2]

    def test_plain_int_dense_ranks(self):
        values = np.array([30, 10, 20, 10])
        assert list(_rank_codes(values)) == [2, 0, 1, 0]

    def test_empty(self):
        assert len(_rank_codes(np.array([], dtype=np.float64))) == 0


class TestSortOrder:
    def test_nulls_last_ascending_first_descending(self):
        col = _col("v", DataType.FLOAT)
        frame = {col: np.array([2.0, np.nan, 1.0])}
        asc = sort_order_for(((col, False),), frame)
        assert list(asc) == [2, 0, 1]
        desc = sort_order_for(((col, True),), frame)
        assert list(desc) == [1, 0, 2]

    def test_object_none_ordering(self):
        """What was an object-array None is a NaN code: same order."""
        col = _col("s", DataType.STRING)
        b, a = string_pool.intern(["b", "a"]).tolist()
        frame = {col: np.array([b, np.nan, a])}
        assert list(sort_order_for(((col, False),), frame)) == [2, 0, 1]
        assert list(sort_order_for(((col, True),), frame)) == [1, 0, 2]

    def test_descending_ties_keep_secondary_key_order(self):
        """Multi-key: a descending primary key must stay stable on ties,
        so the ascending secondary key decides — reversing a stable
        ascending sort (the old implementation) scrambles this."""
        a = _col("a", DataType.INT)
        b = _col("b", DataType.INT)
        frame = {
            a: np.array([1, 2, 1, 2]),
            b: np.array([10, 20, 30, 40]),
        }
        order = sort_order_for(((a, True), (b, False)), frame)
        ranked = [(frame[a][i], frame[b][i]) for i in order]
        assert ranked == [(2, 20), (2, 40), (1, 10), (1, 30)]


#: unmatched nations NULL-extend c_acctbal (NaN in the engine's frames,
#: None in the oracle's row tuples).
NULL_EXTENDED_SQL = (
    "select n_name, c_acctbal "
    "from nation left join customer on n_nationkey = c_nationkey "
    "and c_acctbal > 9900 "
    "order by c_acctbal {direction}, n_name"
)


def _canon(rows):
    """Order-preserving comparison form; NaN and None both mean NULL."""
    return [
        tuple(
            round(v, 6)
            if isinstance(v, float) and v == v
            else ("NULL" if v is None or v != v else v)
            for v in row
        )
        for row in rows
    ]


class TestEngineVsOracle:
    @pytest.mark.parametrize("direction", ["asc", "desc"])
    def test_null_extended_order_by(self, small_db, direction):
        sql = NULL_EXTENDED_SQL.format(direction=direction)
        session = Session(small_db)
        batch = session.bind(sql)
        outcome = session.execute(batch)
        oracle = evaluate_batch(small_db, batch)
        got = outcome.execution.results[0].rows
        # ORDER BY output: compare *in order*, not normalized.
        assert _canon(got) == _canon(oracle["Q1"])
        values = [row[1] for row in got]
        nulls = [i for i, v in enumerate(values)
                 if v is None or v != v]
        assert nulls, "the aggressive ON filter must leave NULL rows"
        if direction == "desc":
            assert nulls == list(range(len(nulls)))  # NULLs first
        else:
            assert nulls == list(
                range(len(values) - len(nulls), len(values))
            )  # NULLs last

    def test_oracle_handles_non_numeric_descending(self, small_db):
        """The old oracle negated values for descending keys — crashing
        on strings; stable per-key passes must not."""
        sql = (
            "select c_mktsegment, count(*) as n from customer "
            "group by c_mktsegment order by c_mktsegment desc"
        )
        session = Session(small_db)
        batch = session.bind(sql)
        outcome = session.execute(batch)
        oracle = evaluate_batch(small_db, batch)
        assert outcome.execution.results[0].rows == oracle["Q1"]

    def test_pinned_seed_randomized_sweep(self, small_db):
        """Randomized ORDER BY shapes over a null-extending join, pinned
        to one seed so a regression reproduces deterministically."""
        rng = np.random.default_rng(PINNED_SEED)
        session = Session(small_db, OptimizerOptions())
        order_cols = ["c_acctbal", "c_custkey", "c_mktsegment"]
        for _ in range(12):
            order_col = order_cols[int(rng.integers(0, len(order_cols)))]
            bound = 8800 + int(rng.integers(0, 1200))
            direction = "desc" if rng.integers(0, 2) else "asc"
            sql = (
                f"select n_name, {order_col} "
                "from nation left join customer "
                f"on n_nationkey = c_nationkey and c_acctbal > {bound} "
                f"order by {order_col} {direction}, n_name"
            )
            batch = session.bind(sql)
            outcome = session.execute(batch)
            oracle = evaluate_batch(small_db, batch)
            assert _canon(outcome.execution.results[0].rows) == _canon(
                oracle["Q1"]
            ), f"seed {PINNED_SEED}: mismatch for\n{sql}"
