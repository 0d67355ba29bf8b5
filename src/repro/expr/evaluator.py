"""Vectorized expression evaluation over column frames.

A *frame* maps :class:`ColumnRef` objects (or arbitrary expression keys, for
computed columns like partial aggregates flowing out of a spool) to numpy
arrays of equal length. Evaluation is fully vectorized: predicates yield
boolean masks, arithmetic yields value arrays.

STRING columns are ``int64`` codes into ``repro.types.string_pool`` (NaN in a
float-widened column is a NULL string, as for every other type): a STRING
literal evaluates to its code, ``=``/``<>`` compare codes, and the ordering
operators compare the pool's sort ranks of the codes.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import ExecutionError
from ..types import DataType, StringOrder, string_pool
from .expressions import (
    AggExpr,
    And,
    Arithmetic,
    ArithmeticOp,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expr,
    Literal,
    Not,
    Or,
)

Frame = Dict[Expr, np.ndarray]


def frame_length(frame: Frame) -> int:
    """Row count of a frame (0 when empty)."""
    first = next(iter(frame.values()), None)
    return 0 if first is None else len(first)


def evaluate(expr: Expr, frame: Frame) -> np.ndarray:
    """Evaluate ``expr`` against ``frame``, returning a column."""
    # Computed columns (e.g. spool outputs keyed by the original aggregate
    # expression) take precedence over structural evaluation.
    if expr in frame:
        return frame[expr]
    if isinstance(expr, Literal):
        n = frame_length(frame)
        value = expr.value
        if expr.data_type is DataType.STRING:
            # -1 (never stored) equals no stored code; ordering goes by rank.
            value = string_pool.code(value)
        return np.full(n, value, dtype=expr.data_type.numpy_dtype)
    if isinstance(expr, ColumnRef):
        raise ExecutionError(f"column {expr!r} not present in frame")
    if isinstance(expr, Comparison):
        return _raw_comparison(expr.op, *_comparison_operands(expr, frame))
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
        return _evaluate_arithmetic(expr, frame)
    if isinstance(expr, AggExpr):
        raise ExecutionError(
            f"aggregate {expr!r} reached the scalar evaluator; aggregates are "
            "computed by the aggregation iterator"
        )
    raise ExecutionError(f"cannot evaluate expression {expr!r}")


_ORDERING_OPS = (
    ComparisonOp.LT, ComparisonOp.LE, ComparisonOp.GT, ComparisonOp.GE
)


def _comparison_operands(
    expr: Comparison, frame: Frame
) -> "tuple[np.ndarray, np.ndarray]":
    """Both sides of a comparison, ready for the raw numpy operator: STRING
    operands of an ordering operator are mapped from codes to sort ranks."""
    left, right = expr.left, expr.right
    left_values, right_values = evaluate(left, frame), evaluate(right, frame)
    if DataType.STRING not in (left.data_type, right.data_type):
        return left_values, right_values
    if isinstance(left, Literal) and isinstance(right, Literal):
        # Two constants have no pool position to compare (both may be absent
        # from it, sharing code -1): compare the values themselves.
        sign = (left.value > right.value) - (left.value < right.value)
        return np.full(len(left_values), sign), np.zeros_like(left_values)
    if expr.op not in _ORDERING_OPS:
        return left_values, right_values
    # One snapshot for both sides, taken after both were evaluated so it
    # covers every code they hold.
    order = string_pool.order()
    return (
        string_ranks(left, left_values, order),
        string_ranks(right, right_values, order),
    )


def string_ranks(expr: Expr, codes: np.ndarray, order: StringOrder) -> np.ndarray:
    """Sort ranks for a STRING expression's evaluated ``codes``: NaN (NULL)
    stays NaN, and a literal — possibly absent from the pool — takes its
    position among the snapshot's sorted strings."""
    if isinstance(expr, Literal):
        return np.full(len(codes), order.rank_of(expr.value))
    return order.ranks_of(codes)


def _evaluate_arithmetic(expr: Arithmetic, frame: Frame) -> np.ndarray:
    left = evaluate(expr.left, frame)
    right = evaluate(expr.right, frame)
    op = expr.op
    if op is ArithmeticOp.ADD:
        return left + right
    if op is ArithmeticOp.SUB:
        return left - right
    if op is ArithmeticOp.MUL:
        return left * right
    if op is ArithmeticOp.DIV:
        divisor = right.astype(np.float64)
        if np.any(divisor == 0):
            raise ExecutionError("division by zero during evaluation")
        return left / divisor
    raise ExecutionError(f"unknown arithmetic operator {op!r}")


def evaluate_predicate(predicate: Optional[Expr], frame: Frame) -> np.ndarray:
    """Evaluate a (possibly absent) predicate to a boolean mask.

    SQL three-valued logic: a row passes only when the predicate is TRUE.
    NULLs (NaN in float-widened columns) appear only downstream of outer
    joins; frames without NULLs take the original
    two-valued fast path unchanged.
    """
    n = frame_length(frame)
    if predicate is None:
        return np.ones(n, dtype=bool)
    true_mask, _ = evaluate3(predicate, frame)
    if true_mask.dtype != np.bool_:
        if predicate.data_type is not DataType.BOOL:
            raise ExecutionError(f"predicate {predicate!r} is not boolean")
        true_mask = true_mask.astype(bool)
    return true_mask


# ---------------------------------------------------------------------------
# Kleene three-valued evaluation (NULL-bearing frames)
# ---------------------------------------------------------------------------


def null_mask(values: np.ndarray) -> Optional[np.ndarray]:
    """Boolean mask of NULL entries, or None when the column has none.

    NULLs are NaN: outer-join null extension casts every column — string
    codes included — to float64.
    """
    if np.issubdtype(values.dtype, np.floating):
        mask = np.isnan(values)
        return mask if mask.any() else None
    return None


def evaluate3(expr: Expr, frame: Frame) -> "tuple[np.ndarray, Optional[np.ndarray]]":
    """Evaluate a boolean expression under Kleene logic.

    Returns ``(true_mask, null_mask)`` where ``null_mask`` is None when no
    row evaluates to NULL (the common, NULL-free case — zero overhead
    beyond the plain evaluator)."""
    if expr in frame:
        values = frame[expr]
        return (
            values if values.dtype == np.bool_ else values.astype(bool)
        ), None
    if isinstance(expr, Comparison):
        left, right = _comparison_operands(expr, frame)
        nulls = _combine_nulls(null_mask(left), null_mask(right))
        raw = _raw_comparison(expr.op, left, right)
        if nulls is None:
            return raw, None
        return raw & ~nulls, nulls
    if isinstance(expr, And):
        true = None
        false = None
        for term in expr.terms:
            t, n = evaluate3(term, frame)
            f = ~t if n is None else ~t & ~n
            true = t if true is None else true & t
            false = f if false is None else false | f
        assert true is not None and false is not None
        nulls = ~true & ~false
        return true, nulls if nulls.any() else None
    if isinstance(expr, Or):
        true = None
        false = None
        for term in expr.terms:
            t, n = evaluate3(term, frame)
            f = ~t if n is None else ~t & ~n
            true = t if true is None else true | t
            false = f if false is None else false & f
        assert true is not None and false is not None
        nulls = ~true & ~false
        return true, nulls if nulls.any() else None
    if isinstance(expr, Not):
        t, n = evaluate3(expr.term, frame)
        if n is None:
            return ~t.astype(bool), None
        return ~t & ~n, n
    # Anything else (literals, frame-resident boolean columns).
    values = evaluate(expr, frame)
    return values.astype(bool) if values.dtype != np.bool_ else values, None


def _combine_nulls(
    a: Optional[np.ndarray], b: Optional[np.ndarray]
) -> Optional[np.ndarray]:
    if a is None:
        return b
    if b is None:
        return a
    return a | b


def _raw_comparison(
    op: ComparisonOp, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    if op is ComparisonOp.EQ:
        return left == right
    if op is ComparisonOp.NE:
        return left != right
    if op is ComparisonOp.LT:
        return left < right
    if op is ComparisonOp.LE:
        return left <= right
    if op is ComparisonOp.GT:
        return left > right
    if op is ComparisonOp.GE:
        return left >= right
    raise ExecutionError(f"unknown comparison operator {op!r}")
