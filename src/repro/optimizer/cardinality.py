"""Cardinality estimation.

Textbook estimator over the collected statistics: uniformity within
histogram buckets, independence across predicates, equivalence-class join
selectivities, and Cardenas' formula for group counts. Every estimate is
deterministic given the database statistics, which keeps optimizer decisions
(and therefore the reproduced experiments) stable.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence

from ..catalog.statistics import ColumnStats
from ..expr.expressions import (
    And,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expr,
    Literal,
    Not,
    Or,
    TableRef,
)
from ..storage.database import Database
from ..types import DataType

#: Fallback selectivity for predicates the estimator cannot analyze.
DEFAULT_SELECTIVITY = 0.25
#: Fallback NDV when no statistics exist for a column.
DEFAULT_NDV = 100


class CardinalityEstimator:
    """Estimates row counts and selectivities from database statistics."""

    def __init__(self, database: Database) -> None:
        self._database = database

    # -- base tables -----------------------------------------------------------

    def table_rows(self, table_ref: TableRef) -> float:
        """Stored row count of a base table (>= 1)."""
        stats = self._database.statistics(table_ref.physical_name)
        return float(max(stats.row_count, 1))

    def _column_stats(self, column: ColumnRef) -> Optional[ColumnStats]:
        stats = self._database.statistics(column.table_ref.physical_name)
        return stats.column(column.column)

    def column_ndv(self, column: ColumnRef) -> float:
        """Number of distinct values of a column (with fallback)."""
        stats = self._column_stats(column)
        if stats is None or stats.ndv <= 0:
            return float(DEFAULT_NDV)
        return float(stats.ndv)

    def width_of(self, exprs: Iterable[Expr]) -> int:
        """Summed byte width of the given expressions' types."""
        return sum(e.data_type.byte_width for e in exprs)

    # -- predicate selectivity -----------------------------------------------

    def selectivity(self, predicate: Expr) -> float:
        """Selectivity of one predicate (conjunct)."""
        if isinstance(predicate, Literal):
            if predicate.value is True:
                return 1.0
            if predicate.value is False:
                return 0.0
            return DEFAULT_SELECTIVITY
        if isinstance(predicate, And):
            product = 1.0
            for term in predicate.terms:
                product *= self.selectivity(term)
            return product
        if isinstance(predicate, Or):
            miss = 1.0
            for term in predicate.terms:
                miss *= 1.0 - min(1.0, self.selectivity(term))
            return max(0.0, min(1.0, 1.0 - miss))
        if isinstance(predicate, Not):
            return max(0.0, min(1.0, 1.0 - self.selectivity(predicate.term)))
        if isinstance(predicate, Comparison):
            return self._comparison_selectivity(predicate)
        return DEFAULT_SELECTIVITY

    def _comparison_selectivity(self, predicate: Comparison) -> float:
        normalized = predicate.normalized()
        left, right = normalized.left, normalized.right
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            return self._column_literal_selectivity(left, normalized.op, right)
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            if normalized.op is ComparisonOp.EQ:
                return 1.0 / max(
                    self.column_ndv(left), self.column_ndv(right), 1.0
                )
            if normalized.op is ComparisonOp.NE:
                return 1.0 - 1.0 / max(
                    self.column_ndv(left), self.column_ndv(right), 1.0
                )
            return 1.0 / 3.0
        return DEFAULT_SELECTIVITY

    def _column_literal_selectivity(
        self, column: ColumnRef, op: ComparisonOp, literal: Literal
    ) -> float:
        stats = self._column_stats(column)
        ndv = self.column_ndv(column)
        if op is ComparisonOp.EQ:
            if stats is not None and stats.mcv:
                known = stats.mcv.get(literal.value)
                if known is not None:
                    return _clamp(known)
                if len(stats.mcv) >= stats.ndv:
                    return 0.0005  # complete MCV: the value does not occur
            return 1.0 / max(ndv, 1.0)
        if op is ComparisonOp.NE:
            if stats is not None and stats.mcv:
                known = stats.mcv.get(literal.value)
                if known is not None:
                    return _clamp(1.0 - known)
            return 1.0 - 1.0 / max(ndv, 1.0)
        if stats is None or stats.min_value is None or stats.max_value is None:
            return 1.0 / 3.0
        try:
            value = float(literal.value)
        except (TypeError, ValueError):
            return 1.0 / 3.0
        if stats.histogram is not None and stats.histogram.total > 0:
            hist = stats.histogram
            if op in (ComparisonOp.LT, ComparisonOp.LE):
                return _clamp(hist.fraction_below(value, op is ComparisonOp.LE))
            if op in (ComparisonOp.GT, ComparisonOp.GE):
                return _clamp(
                    1.0 - hist.fraction_below(value, op is ComparisonOp.GT)
                )
        span = stats.max_value - stats.min_value
        if span <= 0:
            # Single-valued column.
            if op in (ComparisonOp.LE, ComparisonOp.GE):
                return 1.0 if value == stats.min_value else _step(value, stats, op)
            return _step(value, stats, op)
        fraction = (value - stats.min_value) / span
        if op in (ComparisonOp.LT, ComparisonOp.LE):
            return _clamp(fraction)
        return _clamp(1.0 - fraction)

    # -- joins ----------------------------------------------------------------

    def class_factor(
        self,
        cls: FrozenSet[ColumnRef],
        rows_by_table: Mapping[TableRef, float],
    ) -> float:
        """Selectivity factor of an equivalence class applied *within* the
        current scope (single table): one factor per implied equality."""
        ndvs = sorted(
            (max(self.column_ndv(c), 1.0) for c in cls), reverse=True
        )
        factor = 1.0
        for ndv in ndvs[:-1]:
            factor /= ndv
        return factor

    def class_factor_for_join(
        self,
        cls: FrozenSet[ColumnRef],
        item_rows: Mapping[object, float],
        items: Sequence[object],
    ) -> float:
        """Join selectivity factor of an equivalence class spanning several
        join items. Each item contributes one effective NDV (its members are
        already equal within the item); the factor is ``1/∏`` of all item
        NDVs except the smallest."""
        from .memo import item_tables  # local import to avoid a cycle

        per_item_ndv: Dict[object, float] = {}
        for member in cls:
            for item in items:
                if member.table_ref in item_tables(item):
                    rows = max(item_rows.get(item, 1.0), 1.0)
                    ndv = min(self.column_ndv(member), rows)
                    current = per_item_ndv.get(item)
                    per_item_ndv[item] = (
                        ndv if current is None else min(current, ndv)
                    )
        ndvs = sorted(per_item_ndv.values(), reverse=True)
        if len(ndvs) < 2:
            return 1.0
        factor = 1.0
        for ndv in ndvs[:-1]:
            factor /= max(ndv, 1.0)
        return factor

    # -- aggregation --------------------------------------------------------------

    def group_rows(self, input_rows: float, keys: Sequence[ColumnRef]) -> float:
        """Cardenas estimate of the number of groups."""
        input_rows = max(input_rows, 1.0)
        if not keys:
            return 1.0
        domain = 1.0
        for key in keys:
            domain *= max(min(self.column_ndv(key), input_rows), 1.0)
        return cardenas(domain, input_rows)

    # -- index support -------------------------------------------------------------

    def index_match_fraction(
        self, column: ColumnRef, conjunct: Expr
    ) -> Optional[float]:
        """Fraction of a table matched by a sargable conjunct on ``column``,
        or None if the conjunct is not sargable on that column."""
        if not isinstance(conjunct, Comparison):
            return None
        normalized = conjunct.normalized()
        if (
            isinstance(normalized.left, ColumnRef)
            and normalized.left == column
            and isinstance(normalized.right, Literal)
            and normalized.op is not ComparisonOp.NE
        ):
            return self._column_literal_selectivity(
                column, normalized.op, normalized.right
            )
        return None


def cardenas(domain: float, rows: float) -> float:
    """Cardenas' formula: expected distinct groups when ``rows`` values are
    drawn uniformly from a domain of size ``domain``."""
    domain = max(domain, 1.0)
    rows = max(rows, 0.0)
    if rows == 0.0:
        return 0.0
    # d * (1 - (1 - 1/d)^n), computed stably in log space.
    ratio = rows / domain
    if ratio > 50:
        return domain
    return domain * -math.expm1(rows * math.log1p(-1.0 / domain)) if domain > 1 else 1.0


def _clamp(value: float) -> float:
    return max(0.0005, min(1.0, value))


def _step(value: float, stats: ColumnStats, op: ComparisonOp) -> float:
    point = stats.min_value
    assert point is not None
    if op is ComparisonOp.LT:
        return 1.0 if value > point else 0.0005
    if op is ComparisonOp.LE:
        return 1.0 if value >= point else 0.0005
    if op is ComparisonOp.GT:
        return 1.0 if value < point else 0.0005
    if op is ComparisonOp.GE:
        return 1.0 if value <= point else 0.0005
    return DEFAULT_SELECTIVITY
