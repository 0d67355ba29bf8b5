"""Differential tests: the evaluator against the full-column oracle.

``tests/evaluator_reference.py`` broadcasts every literal to an n-row
column; the engine's evaluator must return the same values, with the same
dtype, for comparisons (every operator, the literal on either side) and
arithmetic over INT, FLOAT (with and without NaN), DATE and STRING columns
— a STRING literal absent from the pool included — and its Kleene
connectives must agree with the oracle on NULL-free and NULL-bearing
frames alike.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from tests import evaluator_reference as oracle
from repro.expr.evaluator import evaluate, evaluate3, evaluate_predicate
from repro.expr.expressions import (
    And,
    Arithmetic,
    ArithmeticOp,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Literal,
    Not,
    Or,
    TableRef,
)
from repro.types import DataType, string_pool

T = TableRef("t", 1)
I = ColumnRef(T, "i", DataType.INT)
F = ColumnRef(T, "f", DataType.FLOAT)
N = ColumnRef(T, "n", DataType.FLOAT)  # NaN-bearing: NULLs
D = ColumnRef(T, "d", DataType.DATE)
S = ColumnRef(T, "s", DataType.STRING)
W = ColumnRef(T, "w", DataType.STRING)  # NULL-widened string codes

#: A fixed random hex, so no other test interns these strings and the
#: parametrised test ids stay the same from run to run.
_SUFFIX = "12a73a77172f4b74b33c1040dc99d8cb"
_STORED = [f"b-{_SUFFIX}", f"d-{_SUFFIX}", f"f-{_SUFFIX}", f"h-{_SUFFIX}"]
_CODES = string_pool.intern(_STORED)
_ABSENT = f"e-{_SUFFIX}-absent"


def _frame():
    codes = _CODES[[0, 1, 2, 3, 1, 0]]
    return {
        I: np.array([-3, 0, 2, 5, 7, 2], dtype=np.int64),
        F: np.array([-1.5, 0.0, 2.0, 2.5, 9.25, 3.0]),
        N: np.array([1.0, np.nan, 2.0, np.nan, -4.0, 0.5]),
        D: np.array([9000, 9100, 9131, 9200, 9500, 9131], dtype=np.int64),
        S: codes,
        W: np.where([True, False, True, True, False, True], codes, np.nan),
    }


#: (column, literals of its type and of a promotable one).
_CASES = [
    (I, [Literal(2), Literal(0), Literal(2.5), Literal(-10)]),
    (F, [Literal(2.0), Literal(2), Literal(-1.5), Literal(100.0)]),
    (N, [Literal(1.0), Literal(0), Literal(2.0)]),
    (D, [Literal(9131, DataType.DATE), Literal(9000, DataType.DATE)]),
    (S, [Literal(_STORED[1]), Literal(_ABSENT), Literal("a"), Literal("zzz")]),
    (W, [Literal(_STORED[2]), Literal(_ABSENT)]),
]

_COMPARISONS = [
    (Comparison(op, column, literal), Comparison(op, literal, column))
    for (column, literals), op in itertools.product(_CASES, ComparisonOp)
    for literal in literals
]


def _same(got: np.ndarray, want: np.ndarray) -> None:
    assert isinstance(got, np.ndarray) and got.shape == want.shape
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def _same_truth(got, want) -> None:
    _same(got[0], want[0])
    if want[1] is None:
        assert got[1] is None
    else:
        _same(got[1], want[1])


@pytest.mark.parametrize(
    "expr", [c for pair in _COMPARISONS for c in pair], ids=repr
)
def test_comparison_matches_the_oracle(expr):
    frame = _frame()
    _same(evaluate(expr, frame), oracle.evaluate(expr, frame))
    _same_truth(evaluate3(expr, frame), oracle.truth(expr, frame))
    _same(evaluate_predicate(expr, frame), oracle.truth(expr, frame)[0])


@pytest.mark.parametrize(
    "left, right",
    [
        (Literal(3), Literal(2)),
        (Literal(2.5), Literal(2)),
        (Literal("b"), Literal("a")),
        (Literal(_ABSENT), Literal(_STORED[0])),
        (Literal(_STORED[0]), Literal(_STORED[0])),
    ],
    ids=repr,
)
@pytest.mark.parametrize("op", list(ComparisonOp), ids=lambda op: op.value)
def test_literal_against_literal_is_a_column(left, right, op):
    frame = _frame()
    expr = Comparison(op, left, right)
    _same(evaluate(expr, frame), oracle.evaluate(expr, frame))
    _same_truth(evaluate3(expr, frame), oracle.truth(expr, frame))


_ARITHMETIC = [
    Arithmetic(op, column, literal)
    for op in ArithmeticOp
    for column in (I, F, N, D)
    for literal in (Literal(2), Literal(0.5), Literal(-3))
] + [
    Arithmetic(op, literal, column)
    for op in (ArithmeticOp.ADD, ArithmeticOp.SUB, ArithmeticOp.MUL)
    for column in (I, F, N, D)
    for literal in (Literal(1), Literal(1.0))
] + [
    Arithmetic(ArithmeticOp.MUL, F, Arithmetic(ArithmeticOp.SUB, Literal(1), N)),
    Arithmetic(ArithmeticOp.ADD, Literal(2), Literal(3)),
    Arithmetic(ArithmeticOp.DIV, Literal(7), Literal(2)),
]


@pytest.mark.parametrize("expr", _ARITHMETIC, ids=repr)
def test_arithmetic_matches_the_oracle(expr):
    frame = _frame()
    _same(evaluate(expr, frame), oracle.evaluate(expr, frame))
    for op in (ComparisonOp.LT, ComparisonOp.EQ):
        for compared in (Comparison(op, expr, Literal(2)), Comparison(op, expr, I)):
            _same_truth(evaluate3(compared, frame), oracle.truth(compared, frame))


def test_division_by_a_zero_literal_raises():
    from repro.errors import ExecutionError

    for evaluator in (evaluate, oracle.evaluate):
        with pytest.raises(ExecutionError):
            evaluator(Arithmetic(ArithmeticOp.DIV, I, Literal(0)), _frame())


@pytest.mark.parametrize("literal", [Literal(7), Literal(1.5), Literal(_ABSENT),
                                     Literal(True), Literal(9131, DataType.DATE)],
                         ids=repr)
def test_a_bare_literal_is_a_column(literal):
    frame = _frame()
    _same(evaluate(literal, frame), oracle.evaluate(literal, frame))


def _terms():
    """Leaf predicates: NULL-free ones and NULL-bearing ones."""
    null_free = [
        Comparison(ComparisonOp.GT, I, Literal(1)),
        Comparison(ComparisonOp.LE, F, Literal(2.5)),
        Comparison(ComparisonOp.EQ, S, Literal(_STORED[0])),
    ]
    null_bearing = [
        Comparison(ComparisonOp.GT, N, Literal(0)),
        Comparison(ComparisonOp.LT, W, Literal(_STORED[3])),
    ]
    return null_free, null_bearing


def _connectives(terms):
    out = []
    for a, b in itertools.permutations(terms, 2):
        out += [And((a, b)), Or((a, b)), Not(a), Not(And((a, Not(b)))),
                Or((And((a, b)), Not(b))), And((a, Or((b, Not(a)))))]
    return out


@pytest.mark.parametrize("null_bearing", [False, True], ids=["null_free", "nulls"])
def test_connectives_match_the_oracle(null_bearing):
    frame = _frame()
    null_free, nullable = _terms()
    terms = null_free + nullable if null_bearing else null_free
    for expr in _connectives(terms):
        want = oracle.truth(expr, frame)
        _same_truth(evaluate3(expr, frame), want)
        _same(evaluate_predicate(expr, frame), want[0])
        _same(evaluate(expr, frame), oracle.evaluate(expr, frame))


def test_connectives_of_a_literal_and_a_column():
    frame = _frame()
    column = Comparison(ComparisonOp.GT, N, Literal(0))
    for constant in (Literal(True), Literal(False),
                     Comparison(ComparisonOp.LT, Literal(1), Literal(0))):
        for expr in (And((constant, column)), Or((column, constant)), Not(constant)):
            _same_truth(evaluate3(expr, frame), oracle.truth(expr, frame))
