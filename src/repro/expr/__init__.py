"""Scalar and aggregate expressions, predicate utilities, evaluation."""

from .expressions import (
    AggExpr,
    AggFunc,
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    Expr,
    Literal,
    Not,
    Or,
    TableRef,
)
from .predicates import EquivalenceClasses, split_conjuncts

__all__ = [
    "AggExpr",
    "AggFunc",
    "And",
    "Arithmetic",
    "ColumnRef",
    "Comparison",
    "Expr",
    "Literal",
    "Not",
    "Or",
    "TableRef",
    "EquivalenceClasses",
    "split_conjuncts",
]
