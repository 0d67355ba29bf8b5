"""Three-valued logic tests: NULL comparisons, Kleene connectives, NULL-
skipping aggregation.

The widened surface introduces NULLs (outer-join null extension) into an
engine that was previously NULL-free. NULLs are NaN in float64 columns —
string columns hold pool codes, so a NULL string is a NaN code; the vectorized
evaluator (:func:`repro.expr.evaluator.evaluate3`) and the row-at-a-time
oracle (``_eval_scalar``) must agree on Kleene semantics exactly, and
aggregates must skip NULLs (with SQL's one wart: COUNT(*) counts them).
"""

import math

import numpy as np

from repro.executor.reference import _eval_scalar, evaluate_batch
from repro.expr.evaluator import evaluate3, null_mask
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
)
from repro.types import DataType, string_pool

T = TableRef("t", 1)
P = ColumnRef(T, "p", DataType.FLOAT)
Q = ColumnRef(T, "q", DataType.FLOAT)
S = ColumnRef(T, "s", DataType.STRING)

#: encode a Kleene truth value as a float column entry: the predicate
#: ``col > 0`` then evaluates to that truth value.
_ENCODE = {"T": 1.0, "F": -1.0, "N": float("nan")}
_VALUES = ["T", "F", "N"]

_AND = {  # Kleene AND truth table
    ("T", "T"): "T", ("T", "F"): "F", ("T", "N"): "N",
    ("F", "T"): "F", ("F", "F"): "F", ("F", "N"): "F",
    ("N", "T"): "N", ("N", "F"): "F", ("N", "N"): "N",
}
_OR = {  # Kleene OR truth table
    ("T", "T"): "T", ("T", "F"): "T", ("T", "N"): "T",
    ("F", "T"): "T", ("F", "F"): "F", ("F", "N"): "N",
    ("N", "T"): "T", ("N", "F"): "N", ("N", "N"): "N",
}
_NOT = {"T": "F", "F": "T", "N": "N"}


def _decode(true_mask, nulls, index):
    if nulls is not None and nulls[index]:
        return "N"
    return "T" if true_mask[index] else "F"


def _pair_frame():
    pairs = [(a, b) for a in _VALUES for b in _VALUES]
    return pairs, {
        P: np.array([_ENCODE[a] for a, _ in pairs]),
        Q: np.array([_ENCODE[b] for _, b in pairs]),
    }


class TestNullMask:
    def test_int_columns_have_no_nulls(self):
        assert null_mask(np.array([1, 2, 3], dtype=np.int64)) is None

    def test_float_without_nan(self):
        assert null_mask(np.array([1.0, 2.0])) is None

    def test_float_with_nan(self):
        mask = null_mask(np.array([1.0, float("nan")]))
        assert mask.tolist() == [False, True]

    def test_object_with_none(self):
        """What was an object-array None is a NaN code."""
        a, b = string_pool.intern(["a", "b"]).tolist()
        mask = null_mask(np.array([a, np.nan, b]))
        assert mask.tolist() == [False, True, False]
        assert null_mask(np.array([a, b], dtype=np.int64)) is None


class TestEvaluate3:
    def test_comparison_with_nan_is_null(self):
        frame = {P: np.array([1.0, float("nan"), -1.0])}
        true, nulls = evaluate3(gt(P, Literal(0)), frame)
        assert true.tolist() == [True, False, False]
        assert nulls.tolist() == [False, True, False]

    def test_comparison_with_none_string_is_null(self):
        a, b = string_pool.intern(["a", "b"]).tolist()
        frame = {S: np.array([a, np.nan, b])}
        true, nulls = evaluate3(eq(S, Literal("b")), frame)
        assert true.tolist() == [False, False, True]
        assert nulls.tolist() == [False, True, False]
        less = Comparison(ComparisonOp.LT, S, Literal("b"))
        true, nulls = evaluate3(less, frame)
        assert true.tolist() == [True, False, False]
        assert nulls.tolist() == [False, True, False]

    def test_null_free_frame_has_no_null_mask(self):
        frame = {P: np.array([1.0, -1.0])}
        true, nulls = evaluate3(gt(P, Literal(0)), frame)
        assert nulls is None
        assert true.tolist() == [True, False]

    def test_and_truth_table(self):
        pairs, frame = _pair_frame()
        expr = And((gt(P, Literal(0)), gt(Q, Literal(0))))
        true, nulls = evaluate3(expr, frame)
        for index, pair in enumerate(pairs):
            assert _decode(true, nulls, index) == _AND[pair], pair

    def test_or_truth_table(self):
        pairs, frame = _pair_frame()
        expr = Or((gt(P, Literal(0)), gt(Q, Literal(0))))
        true, nulls = evaluate3(expr, frame)
        for index, pair in enumerate(pairs):
            assert _decode(true, nulls, index) == _OR[pair], pair

    def test_not_truth_table(self):
        frame = {P: np.array([_ENCODE[v] for v in _VALUES])}
        true, nulls = evaluate3(Not(gt(P, Literal(0))), frame)
        for index, value in enumerate(_VALUES):
            assert _decode(true, nulls, index) == _NOT[value], value

    def test_nested_connectives(self):
        # (p > 0 AND NOT(q > 0)) OR (q > 0): exercises null propagation
        # through a nested expression on all nine input combinations.
        pairs, frame = _pair_frame()
        p3 = gt(P, Literal(0))
        q3 = gt(Q, Literal(0))
        expr = Or((And((p3, Not(q3))), q3))
        true, nulls = evaluate3(expr, frame)
        for index, (a, b) in enumerate(pairs):
            want = _OR[(_AND[(a, _NOT[b])], b)]
            assert _decode(true, nulls, index) == want, (a, b)


class TestOracleKleene:
    @staticmethod
    def _scalar(value):
        return {"T": True, "F": False, "N": None}[value]

    def test_comparison_with_null_operand(self):
        row = {P: None, Q: 1.0}
        assert _eval_scalar(gt(P, Literal(0)), row) is None
        assert _eval_scalar(eq(P, Q), row) is None
        ne = Comparison(ComparisonOp.NE, P, Q)
        assert _eval_scalar(ne, row) is None

    def test_and_or_not_truth_tables(self):
        for a in _VALUES:
            for b in _VALUES:
                row = {P: _ENCODE[a] if a != "N" else None,
                       Q: _ENCODE[b] if b != "N" else None}
                p3 = gt(P, Literal(0))
                q3 = gt(Q, Literal(0))
                got_and = _eval_scalar(And((p3, q3)), row)
                got_or = _eval_scalar(Or((p3, q3)), row)
                assert got_and == self._scalar(_AND[(a, b)]), (a, b)
                assert got_or == self._scalar(_OR[(a, b)]), (a, b)
            row = {P: _ENCODE[a] if a != "N" else None, Q: 1.0}
            got_not = _eval_scalar(Not(gt(P, Literal(0))), row)
            assert got_not == self._scalar(_NOT[a]), a

    def test_oracle_matches_vectorized_evaluator(self):
        """Differential: the oracle's scalar Kleene evaluation and the
        vectorized evaluate3 agree on every nine-way combination."""
        pairs, frame = _pair_frame()
        p3 = gt(P, Literal(0))
        q3 = gt(Q, Literal(0))
        for expr in [And((p3, q3)), Or((p3, q3)), Not(p3),
                     Or((And((p3, Not(q3))), q3))]:
            true, nulls = evaluate3(expr, frame)
            for index, (a, b) in enumerate(pairs):
                row = {P: _ENCODE[a] if a != "N" else None,
                       Q: _ENCODE[b] if b != "N" else None}
                scalar = _eval_scalar(expr, row)
                vector = _decode(true, nulls, index)
                assert scalar == self._scalar(vector), (expr, a, b)


class TestNullSkippingAggregation:
    def test_all_null_groups(self, tiny_session):
        """Customers with no order under an impossible ON filter: SUM over
        an all-NULL group is 0 in this engine (documented divergence from
        SQL's NULL — both engine and oracle agree), MIN/MAX are NULL,
        COUNT(*) still counts the null-extended rows."""
        batch = tiny_session.bind(
            "select c_custkey, sum(o_totalprice) as s, "
            "min(o_totalprice) as lo, max(o_totalprice) as hi, "
            "count(*) as n from customer "
            "left join orders on c_custkey = o_custkey "
            "and o_totalprice < 0 group by c_custkey"
        )
        outcome = tiny_session.execute(batch)
        rows = outcome.execution.query("Q1").rows
        assert rows, "expected one row per customer"
        for _, total, lo, hi, count in rows:
            assert total == 0
            assert math.isnan(lo) and math.isnan(hi)
            assert count >= 1
        oracle = evaluate_batch(tiny_session.database, batch)
        want = {
            row[0]: row[1:] for row in oracle["Q1"]
        }
        for key, total, lo, hi, count in rows:
            o_total, o_lo, o_hi, o_count = want[key]
            assert total == o_total
            assert o_lo is None and o_hi is None
            assert count == o_count

    def test_partial_null_groups(self, tiny_session):
        """Groups mixing matched and null-extended rows aggregate only the
        matched values — engine and oracle agree row for row."""
        batch = tiny_session.bind(
            "select c_nationkey, sum(o_totalprice) as s, "
            "max(o_totalprice) as hi, count(*) as n from customer "
            "left join orders on c_custkey = o_custkey "
            "and o_totalprice < 150000 group by c_nationkey"
        )
        outcome = tiny_session.execute(batch)
        oracle = evaluate_batch(tiny_session.database, batch)
        got = {}
        for key, total, hi, count in outcome.execution.query("Q1").rows:
            hi_norm = None if isinstance(hi, float) and math.isnan(hi) else hi
            got[key] = (round(float(total), 6), hi_norm, count)
        want = {}
        for key, total, hi, count in oracle["Q1"]:
            want[key] = (
                round(float(total), 6),
                None if hi is None else hi,
                count,
            )
        assert got == want
