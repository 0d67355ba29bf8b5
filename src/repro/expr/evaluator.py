"""Vectorized expression evaluation over column frames.

A *frame* maps :class:`ColumnRef` objects (or arbitrary expression keys, for
computed columns like partial aggregates flowing out of a spool) to numpy
arrays of equal length. Evaluation is fully vectorized: predicates yield
boolean masks, arithmetic yields value arrays. A frame that holds no column
keeps its row count under :data:`ROWS` (see :func:`placeholder`).

Any dict of keys to arrays is a frame. A :class:`Frame` may also hold a
column as a deferred :class:`Gather` ``(source, index)``: the rows ``index``
of ``source``, not yet copied (late materialization). Reading the column
(``frame[key]``, ``items``, ``values``) takes the gather once and
keeps the array in its place; key membership and :func:`frame_length` never
gather.

Predicate work is proportional to the columns it reads: a literal operand of
a comparison or of arithmetic is a numpy scalar of its type's dtype (numpy
promotes it exactly as it would a column of that dtype), so ``column op
constant`` allocates only its result. A result is broadcast to a column
(``_column``) only when the public functions hand a whole constant
expression to their caller: a bare literal output, or a literal compared
with a literal.

STRING columns are ``int64`` codes into ``repro.types.string_pool`` (NaN in a
float-widened column is a NULL string, as for every other type): a STRING
literal evaluates to its code, ``=``/``<>`` compare codes, and the ordering
operators compare the pool's sort ranks of the codes.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

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


class Gather:
    """A deferred column: the rows ``index`` of the array ``source``."""

    __slots__ = ("source", "index")

    def __init__(self, source: np.ndarray, index: np.ndarray):
        self.source = source
        self.index = index

    def __len__(self) -> int:
        return len(self.index)


class Frame(dict):
    """A frame whose columns may be deferred :class:`Gather` s.

    ``frame[key]``, ``items()`` and ``values()`` return arrays: a deferred
    column is gathered the first time it is read and replaced by the
    result, so it is gathered at most once per frame. Writes store what
    they are given, and the other dict methods see a column as it is
    stored. Code that passes columns on without reading them walks
    ``dict.items(frame)``."""

    __slots__ = ()

    def __getitem__(self, key: Expr) -> np.ndarray:
        column = dict.__getitem__(self, key)
        if type(column) is Gather:
            column = column.source[column.index]
            dict.__setitem__(self, key, column)
        return column

    def values(self):
        return [self[key] for key in self]

    def items(self):
        return [(key, self[key]) for key in self]


#: A column, or a numpy scalar standing for a constant one.
Values = Union[np.ndarray, np.generic]
#: Kleene truth: ``(true mask, null mask or None)``.
Truth = Tuple[Values, Optional[Values]]


class _Rows:
    """The key of a column-less frame's row placeholder."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ROWS"


#: An operator whose output has no column (``count(*)`` over a scan, a
#: cross join of such scans) keeps its row count under this key: a bool
#: placeholder column that gathers, joins and concatenates like any other.
ROWS = _Rows()


def placeholder(rows: int) -> Frame:
    """A frame of ``rows`` rows and no column."""
    return {ROWS: np.zeros(rows, dtype=bool)}


def frame_length(frame: Frame) -> int:
    """Row count of a frame (0 when empty); gathers nothing."""
    first = next(iter(dict.values(frame)), None)
    return 0 if first is None else len(first)


def _column(values: Values, rows: int) -> np.ndarray:
    """``values`` as a column: a constant is broadcast to ``rows`` rows,
    keeping its dtype — the one place evaluation allocates a column for a
    constant."""
    return values if isinstance(values, np.ndarray) else np.full(rows, values)


def evaluate(expr: Expr, frame: Frame) -> np.ndarray:
    """Evaluate ``expr`` against ``frame``, returning a column."""
    return _column(_values(expr, frame), frame_length(frame))


def _values(expr: Expr, frame: Frame) -> Values:
    """``expr``'s column, or a numpy scalar when it is constant."""
    # Computed columns (e.g. spool outputs keyed by the original aggregate
    # expression) take precedence over structural evaluation.
    if expr in frame:
        return frame[expr]
    if isinstance(expr, Literal):
        value = expr.value
        if expr.data_type is DataType.STRING:
            # -1 (never stored) equals no stored code; ordering goes by rank.
            value = string_pool.code(value)
        return expr.data_type.numpy_dtype.type(value)
    if isinstance(expr, ColumnRef):
        raise ExecutionError(f"column {expr!r} not present in frame")
    if isinstance(expr, Comparison):
        return _raw_comparison(expr.op, *_comparison_operands(expr, frame))
    if isinstance(expr, And):
        result = _values(expr.terms[0], frame).astype(bool)
        for term in expr.terms[1:]:
            result = result & _values(term, frame).astype(bool)
        return result
    if isinstance(expr, Or):
        result = _values(expr.terms[0], frame).astype(bool)
        for term in expr.terms[1:]:
            result = result | _values(term, frame).astype(bool)
        return result
    if isinstance(expr, Not):
        return ~_values(expr.term, frame).astype(bool)
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


def _comparison_operands(expr: Comparison, frame: Frame) -> Tuple[Values, Values]:
    """Both sides of a comparison, ready for the raw numpy operator: STRING
    operands of an ordering operator are mapped from codes to sort ranks."""
    left, right = expr.left, expr.right
    if DataType.STRING in (left.data_type, right.data_type):
        if isinstance(left, Literal) and isinstance(right, Literal):
            # Two constants have no pool position to compare (both may be
            # absent from it, sharing code -1): compare the values themselves.
            sign = (left.value > right.value) - (left.value < right.value)
            return np.int64(sign), np.int64(0)
        if expr.op in _ORDERING_OPS:
            left_values, right_values = _values(left, frame), _values(right, frame)
            # One snapshot for both sides, taken after both were evaluated
            # so it covers every code they hold.
            order = string_pool.order()
            return (
                _ranks(left, left_values, order),
                _ranks(right, right_values, order),
            )
    return _values(left, frame), _values(right, frame)


def _ranks(expr: Expr, codes: Values, order: StringOrder) -> Values:
    """Sort ranks of a STRING operand: a literal — possibly absent from the
    pool — takes its position among the snapshot's sorted strings."""
    if isinstance(expr, Literal):
        return np.float64(order.rank_of(expr.value))
    return order.ranks_of(codes)


def string_ranks(expr: Expr, codes: np.ndarray, order: StringOrder) -> np.ndarray:
    """Sort ranks for a STRING expression's evaluated ``codes`` (a column):
    NaN (NULL) stays NaN."""
    return _column(_ranks(expr, codes, order), len(codes))


def _evaluate_arithmetic(expr: Arithmetic, frame: Frame) -> Values:
    left = _values(expr.left, frame)
    right = _values(expr.right, frame)
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
    if op is ArithmeticOp.AVG:
        # SUM / COUNT: a zero count is an empty input, whose average is NULL.
        counts = right.astype(np.float64)
        empty = counts == 0
        return np.where(empty, np.nan, left / np.where(empty, 1.0, counts))
    raise ExecutionError(f"unknown arithmetic operator {op!r}")


def evaluate_predicate(predicate: Optional[Expr], frame: Frame) -> np.ndarray:
    """Evaluate a (possibly absent) predicate to a boolean mask.

    SQL three-valued logic: a row passes only when the predicate is TRUE.
    NULLs (NaN in float-widened columns) appear only downstream of outer
    joins; frames without NULLs take the two-valued path.
    """
    n = frame_length(frame)
    if predicate is None:
        return np.ones(n, dtype=bool)
    true_mask, _ = _truth(predicate, frame)
    if true_mask.dtype != np.bool_:
        if predicate.data_type is not DataType.BOOL:
            raise ExecutionError(f"predicate {predicate!r} is not boolean")
        true_mask = true_mask.astype(bool)
    return _column(true_mask, n)


# ---------------------------------------------------------------------------
# Kleene three-valued evaluation (NULL-bearing frames)
# ---------------------------------------------------------------------------


def null_mask(values: Values) -> Optional[Values]:
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
    row evaluates to NULL (the common, NULL-free case: connectives whose
    terms carry no NULL mask combine their true masks directly, and the
    Kleene bookkeeping runs only when some term has NULLs)."""
    true, nulls = _truth(expr, frame)
    n = frame_length(frame)
    return _column(true, n), None if nulls is None else _column(nulls, n)


def _truth(expr: Expr, frame: Frame) -> Truth:
    """:func:`evaluate3` over operands that may still be scalars."""
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
    if isinstance(expr, (And, Or)):
        return _connective(expr, frame)
    if isinstance(expr, Not):
        t, n = _truth(expr.term, frame)
        if n is None:
            return ~t, None
        return ~t & ~n, n
    # Anything else (literals, frame-resident boolean columns).
    values = _values(expr, frame)
    return values.astype(bool) if values.dtype != np.bool_ else values, None


def _connective(expr: Expr, frame: Frame) -> Truth:
    """An AND or OR: NULL-free terms combine their true masks; otherwise
    Kleene — AND is FALSE where some term is, OR where every term is."""
    conjunction = isinstance(expr, And)
    terms = [_truth(term, frame) for term in expr.terms]
    true = terms[0][0]
    for t, _ in terms[1:]:
        true = true & t if conjunction else true | t
    if all(n is None for _, n in terms):
        return true, None
    false = None
    for t, n in terms:
        f = ~t if n is None else ~t & ~n
        if false is None:
            false = f
        else:
            false = false | f if conjunction else false & f
    nulls = ~true & ~false
    return true, nulls if nulls.any() else None


def _combine_nulls(a: Optional[Values], b: Optional[Values]) -> Optional[Values]:
    if a is None:
        return b
    if b is None:
        return a
    return a | b


def _raw_comparison(op: ComparisonOp, left: Values, right: Values) -> Values:
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
