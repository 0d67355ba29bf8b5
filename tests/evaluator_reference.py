"""The full-column evaluator: every literal is an n-row ``np.full`` column.

This is the expression evaluator as it was before literal operands became
numpy scalars, kept verbatim in behaviour as the oracle of
``tests/test_scalar_operands.py``: the engine's evaluator must return the
same values with the same dtype for every expression it evaluates.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError
from repro.expr.expressions import (
    And,
    Arithmetic,
    ArithmeticOp,
    Comparison,
    ComparisonOp,
    Expr,
    Literal,
    Not,
    Or,
)
from repro.types import DataType, string_pool

_ORDERING_OPS = (
    ComparisonOp.LT, ComparisonOp.LE, ComparisonOp.GT, ComparisonOp.GE
)


def _length(frame) -> int:
    first = next(iter(frame.values()), None)
    return 0 if first is None else len(first)


def evaluate(expr: Expr, frame) -> np.ndarray:
    """Two-valued evaluation with every literal broadcast to a column."""
    if expr in frame:
        return frame[expr]
    if isinstance(expr, Literal):
        value = expr.value
        if expr.data_type is DataType.STRING:
            value = string_pool.code(value)
        return np.full(_length(frame), value, dtype=expr.data_type.numpy_dtype)
    if isinstance(expr, Comparison):
        return raw_comparison(expr.op, *comparison_operands(expr, frame))
    if isinstance(expr, And):
        result = evaluate(expr.terms[0], frame).astype(bool)
        for term in expr.terms[1:]:
            result = result & evaluate(term, frame).astype(bool)
        return result
    if isinstance(expr, Or):
        result = evaluate(expr.terms[0], frame).astype(bool)
        for term in expr.terms[1:]:
            result = result | evaluate(term, frame).astype(bool)
        return result
    if isinstance(expr, Not):
        return ~evaluate(expr.term, frame).astype(bool)
    if isinstance(expr, Arithmetic):
        left, right = evaluate(expr.left, frame), evaluate(expr.right, frame)
        if expr.op is ArithmeticOp.ADD:
            return left + right
        if expr.op is ArithmeticOp.SUB:
            return left - right
        if expr.op is ArithmeticOp.MUL:
            return left * right
        divisor = right.astype(np.float64)
        if np.any(divisor == 0):
            raise ExecutionError("division by zero during evaluation")
        return left / divisor
    raise ExecutionError(f"cannot evaluate expression {expr!r}")


def comparison_operands(expr: Comparison, frame):
    """Both operands as columns; STRING ordering compares sort ranks."""
    left, right = expr.left, expr.right
    left_values, right_values = evaluate(left, frame), evaluate(right, frame)
    if DataType.STRING not in (left.data_type, right.data_type):
        return left_values, right_values
    if isinstance(left, Literal) and isinstance(right, Literal):
        sign = (left.value > right.value) - (left.value < right.value)
        return np.full(len(left_values), sign), np.zeros_like(left_values)
    if expr.op not in _ORDERING_OPS:
        return left_values, right_values
    order = string_pool.order()

    def ranks(side: Expr, codes: np.ndarray) -> np.ndarray:
        if isinstance(side, Literal):
            return np.full(len(codes), order.rank_of(side.value))
        return order.ranks_of(codes)

    return ranks(left, left_values), ranks(right, right_values)


def raw_comparison(op: ComparisonOp, left, right) -> np.ndarray:
    return {
        ComparisonOp.EQ: np.equal,
        ComparisonOp.NE: np.not_equal,
        ComparisonOp.LT: np.less,
        ComparisonOp.LE: np.less_equal,
        ComparisonOp.GT: np.greater,
        ComparisonOp.GE: np.greater_equal,
    }[op](left, right)


def truth(expr: Expr, frame):
    """Kleene ``(true mask, null mask or None)``, full-column operands."""
    if expr in frame:
        return frame[expr].astype(bool), None
    if isinstance(expr, Comparison):
        left, right = comparison_operands(expr, frame)
        nulls = None
        for side in (left, right):
            if np.issubdtype(side.dtype, np.floating) and np.isnan(side).any():
                side_nulls = np.isnan(side)
                nulls = side_nulls if nulls is None else nulls | side_nulls
        raw = raw_comparison(expr.op, left, right)
        return (raw, None) if nulls is None else (raw & ~nulls, nulls)
    if isinstance(expr, (And, Or)):
        conjunction = isinstance(expr, And)
        true = false = None
        for term in expr.terms:
            t, n = truth(term, frame)
            f = ~t if n is None else ~t & ~n
            if true is None:
                true, false = t, f
            elif conjunction:
                true, false = true & t, false | f
            else:
                true, false = true | t, false & f
        nulls = ~true & ~false
        return true, nulls if nulls.any() else None
    if isinstance(expr, Not):
        t, n = truth(expr.term, frame)
        return (~t, None) if n is None else (~t & ~n, n)
    return evaluate(expr, frame).astype(bool), None
