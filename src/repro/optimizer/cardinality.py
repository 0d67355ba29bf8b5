"""Cardinality estimation.

Textbook estimator over the collected statistics: uniformity within
histogram buckets, independence across predicates, equivalence-class join
selectivities, and Cardenas' formula for group counts. Every estimate is
deterministic given the database statistics, which keeps optimizer decisions
(and therefore the reproduced experiments) stable.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

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
from ..expr.predicates import (
    disjunction_hulls,
    folded,
    hull_comparison,
    non_equality_conjuncts,
)
from ..storage.database import Database

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

    def filters(self, conjuncts: Iterable[Expr]) -> List[Tuple[Expr, float]]:
        """A block's non-equality conjuncts as the block filters by them,
        each with its :meth:`conjunct_selectivity` — the one place they are
        derived. Table-less conjuncts are :func:`folded` (TRUE drops one);
        the :meth:`hulls` of each cross-table disjunction follow, unless
        the block holds them already: single-table filters its scans
        apply, while the disjunction stays the residual of the join
        (§4.2 step 3's weakening, within one query)."""
        filters: List[Tuple[Expr, float]] = []
        hulls: Dict[Expr, None] = {}
        for conjunct in non_equality_conjuncts(conjuncts):
            if not conjunct.columns():
                conjunct = folded(conjunct)
                if conjunct is None:
                    continue
            filters.append((conjunct, self.conjunct_selectivity(conjunct)))
            hulls.update(dict.fromkeys(self.hulls(conjunct)))
        present = {conjunct for conjunct, _ in filters}
        filters.extend((h, self.selectivity(h)) for h in hulls if h not in present)
        return filters

    def hulls(self, conjunct: Expr) -> Tuple[Comparison, ...]:
        """The single-table range conjuncts a cross-table disjunction
        implies (:func:`~repro.expr.predicates.disjunction_hulls`), less
        every bound its column's min/max statistics already imply."""
        hulls = []
        for column, op, value in disjunction_hulls(conjunct):
            stats = self._column_stats(column)
            if stats is None or not _stats_imply(stats, op, value):
                hulls.append(hull_comparison(column, op, value))
        return tuple(hulls)

    def conjunct_selectivity(self, conjunct: Expr) -> float:
        """Selectivity of one block conjunct among the others: a cross-table
        disjunction is conditioned on its :meth:`hulls`, which the block
        applies first, so its scans and the join it filters multiply back to
        the unconditioned estimate."""
        selectivity = self.selectivity(conjunct)
        applied = 1.0
        for hull in self.hulls(conjunct):
            applied *= self.selectivity(hull)
        return min(1.0, selectivity / applied) if applied > 0 else selectivity

    def _comparison_selectivity(self, predicate: Comparison) -> float:
        normalized = predicate.normalized()
        left, right = normalized.left, normalized.right
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            return self.column_literal_selectivity(left, normalized.op, right.value)
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

    def column_literal_selectivity(
        self, column: ColumnRef, op: ComparisonOp, literal: Any
    ) -> float:
        """Selectivity of ``column op literal`` for a literal value in
        engine form."""
        stats = self._column_stats(column)
        ndv = self.column_ndv(column)
        if op is ComparisonOp.EQ:
            if stats is not None and stats.mcv:
                known = stats.mcv.get(literal)
                if known is not None:
                    return _clamp(known)
                if len(stats.mcv) >= stats.ndv:
                    return 0.0005  # complete MCV: the value does not occur
            return 1.0 / max(ndv, 1.0)
        if op is ComparisonOp.NE:
            if stats is not None and stats.mcv:
                known = stats.mcv.get(literal)
                if known is not None:
                    return _clamp(1.0 - known)
            return 1.0 - 1.0 / max(ndv, 1.0)
        if stats is None or stats.min_value is None or stats.max_value is None:
            return 1.0 / 3.0
        try:
            value = float(literal)
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

    def class_factor(self, cls: Iterable[ColumnRef]) -> float:
        """Selectivity factor of an equivalence class applied *within* the
        current scope (single table): one factor per implied equality."""
        ndvs = sorted(
            (max(self.column_ndv(c), 1.0) for c in cls), reverse=True
        )
        factor = 1.0
        for ndv in ndvs[:-1]:
            factor /= ndv
        return factor

    @staticmethod
    def class_factor_for_join(item_ndvs: Iterable[float]) -> float:
        """Join selectivity factor of an equivalence class spanning several
        join items, from each touching item's effective NDV: the smallest
        NDV of its members (they are already equal within the item), capped
        by its rows. The factor is ``1/∏`` of all item NDVs except the
        smallest; one item alone gives 1."""
        ndvs = sorted(item_ndvs, reverse=True)
        factor = 1.0
        for ndv in ndvs[:-1]:
            factor /= max(ndv, 1.0)
        return factor

    # -- aggregation --------------------------------------------------------------

    def group_rows(self, input_rows: float, keys: Sequence[ColumnRef]) -> float:
        """Estimated groups of ``keys`` over ``input_rows`` rows, knowing
        nothing of the input's join items (:func:`group_count`)."""
        return group_count(input_rows, [self.column_ndv(k) for k in keys])

    # -- key facts ------------------------------------------------------------------

    def key_columns(self, table_ref: TableRef) -> Tuple[ColumnRef, ...]:
        """The table's primary key while ``analyze`` has verified it on the
        stored rows; empty for a table without one, with dropped statistics,
        or a delta table."""
        if table_ref.is_delta:
            return ()
        name = table_ref.physical_name
        schema = self._database.catalog.table(name)
        return tuple(
            ColumnRef(table_ref, column, schema.column_type(column))
            for column in self._database.statistics(name).primary_key
        )

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
            return self.column_literal_selectivity(
                column, normalized.op, normalized.right.value
            )
        return None


def group_count(
    input_rows: float,
    key_ndvs: Iterable[float],
    item_rows: Optional[Iterable[float]] = None,
    unique: bool = False,
) -> float:
    """The one group-count estimate, for the memo and for §4.2 construction.

    Cardenas over the keys' NDVs (each capped by the input), never above the
    input rows, and — given ``item_rows``, the filtered rows of join items
    whose rows fix every key (:func:`repro.optimizer.keys.bound_items`) —
    never above their product: each group holds at least one combination of
    those items' rows. ``unique``: the keys fix every input row (a key fact,
    :mod:`repro.optimizer.keys`), so each row is a group of its own."""
    rows = max(input_rows, 1.0)
    if unique:
        return rows
    domain = 1.0
    for ndv in key_ndvs:
        domain *= max(min(ndv, rows), 1.0)
    groups = min(cardenas(domain, rows), rows)
    if item_rows is not None:
        product = 1.0
        for item in item_rows:
            product *= max(item, 1.0)
        groups = min(groups, product)
    return groups


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


def _stats_imply(stats: ColumnStats, op: ComparisonOp, value: float) -> bool:
    """Whether the column's min/max statistics put every stored value
    inside ``column op value``."""
    if op in (ComparisonOp.GE, ComparisonOp.GT):
        low = stats.min_value
        return low is not None and (low > value or (low == value and op is ComparisonOp.GE))
    high = stats.max_value
    return high is not None and (high < value or (high == value and op is ComparisonOp.LE))


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
