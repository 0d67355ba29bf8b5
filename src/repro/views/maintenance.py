"""Joint maintenance of materialized views (paper §6.4).

When a base table changes, the changed rows land in its *delta table*
``__delta_<base>`` — a catalog table created on the first write and only
re-filled afterwards. Each affected view's definition is rewritten with the
delta table substituted for the base table, and the rewritten maintenance
queries run **as one batch** through an ordinary :class:`~repro.api.Session`
— plan cache, cost model and executor included. The delta table
participates in table signatures as the special name ``delta(<base>)``
(paper: "we treat the delta table as a special table when generating table
signatures"), so maintenance expressions for different views can share
covering subexpressions exactly like a user batch.

SUM/COUNT aggregates and SPJ views are self-maintainable under inserts and
deletes; MIN/MAX under inserts only.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..api import Session
from ..catalog.schema import ColumnSchema, TableSchema
from ..cse.compatibility import remap_expr
from ..errors import CatalogError, StorageError, UnsupportedFeatureError
from ..executor.executor import BatchResult
from ..expr.expressions import AggExpr, AggFunc, Expr, TableRef
from ..logical.blocks import BoundBatch, BoundQuery, OutputColumn, QueryBlock
from ..optimizer.engine import OptimizationResult
from ..optimizer.options import OptimizerOptions
from ..storage.database import Database
from .materialized import MaterializedView, ViewManager


@dataclass
class MaintenanceOutcome:
    """What one maintenance round did and what it cost."""

    table: str
    delta_rows: int
    affected_views: List[str]
    optimization: OptimizationResult
    execution: BatchResult
    applied_rows: Dict[str, int] = field(default_factory=dict)

    @property
    def est_cost(self) -> float:
        """Estimated cost of the joint maintenance plan."""
        return self.optimization.est_cost

    @property
    def measured_cost(self) -> float:
        """Executed cost units of the maintenance run."""
        return self.execution.metrics.cost_units


class MaintenancePlanner:
    """Plans and runs joint maintenance for all views affected by a write."""

    def __init__(
        self,
        database: Database,
        views: ViewManager,
        options: Optional[OptimizerOptions] = None,
    ) -> None:
        self.database = database
        self.views = views
        #: maintenance batches run like any user batch; the delta table's
        #: stable name makes every write after the first a plan-cache hit.
        self.session = Session(database, options)

    # ------------------------------------------------------------------

    def build_maintenance_batch(
        self, table_name: str, delta_table: str
    ) -> Tuple[BoundBatch, List[MaterializedView]]:
        """The batch of delta queries for all views referencing the table."""
        affected = self.views.affected_by(table_name)
        if not affected:
            raise CatalogError(
                f"no materialized view references {table_name!r}"
            )
        # Fresh instances throughout, so maintenance queries never share a
        # table instance with each other or with the views they maintain.
        instances = itertools.count(10_000_000)
        queries: List[BoundQuery] = []
        for view in affected:
            if view.query.subqueries:
                raise UnsupportedFeatureError(
                    "maintenance of views with subqueries"
                )
            block = view.query.block
            table_map: Dict[TableRef, TableRef] = {}
            for old in block.tables:
                changed = old.table.lower() == table_name.lower()
                table_map[old] = TableRef(
                    table=old.table,
                    instance=next(instances),
                    alias=f"delta_{old.display_name}" if changed else old.alias,
                    is_delta=changed or old.is_delta,
                    storage_name=delta_table if changed else old.storage_name,
                )

            def remap(exprs):
                return tuple(remap_expr(e, table_map) for e in exprs)

            queries.append(
                BoundQuery(
                    name=f"maint_{view.name}",
                    block=QueryBlock(
                        name=f"{block.name}__maint",
                        tables=tuple(table_map.values()),
                        conjuncts=remap(block.conjuncts),
                        output=tuple(
                            OutputColumn(o.name, remap_expr(o.expr, table_map))
                            for o in block.output
                        ),
                        group_keys=remap(block.group_keys),
                        aggregates=remap(block.aggregates),
                        having=remap(block.having),
                    ),
                )
            )
        return BoundBatch(queries=queries), affected

    # ------------------------------------------------------------------

    def apply_insert(
        self, table_name: str, rows: Sequence[Sequence[Any]]
    ) -> MaintenanceOutcome:
        """Insert ``rows`` into ``table_name`` and maintain every affected
        view, exploiting shared subexpressions across maintenance queries."""
        return self._apply_change(table_name, rows, sign=+1)

    def apply_delete(
        self, table_name: str, rows: Sequence[Sequence[Any]]
    ) -> MaintenanceOutcome:
        """Delete ``rows`` (full tuples) from ``table_name`` and maintain
        every affected view by *subtracting* the delta.

        SUM/COUNT aggregates and SPJ views are self-maintainable under
        deletes; views with MIN/MAX raise
        :class:`~repro.errors.UnsupportedFeatureError` (their maintenance
        would require recomputation, which callers do via ``refresh``).
        """
        affected = self.views.affected_by(table_name)
        for view in affected:
            for agg in view.query.block.aggregates:
                if agg.func in (AggFunc.MIN, AggFunc.MAX):
                    raise UnsupportedFeatureError(
                        f"view {view.name!r}: MIN/MAX cannot be maintained "
                        "incrementally under deletes; refresh() it instead"
                    )
        return self._apply_change(table_name, rows, sign=-1)

    def _apply_change(
        self, table_name: str, rows: Sequence[Sequence[Any]], sign: int
    ) -> MaintenanceOutcome:
        schema = self.database.catalog.table(table_name)
        delta_name = f"__delta_{schema.name}"
        batch, affected = self.build_maintenance_batch(schema.name, delta_name)
        for view in affected:
            if view.contents is None:
                raise CatalogError(
                    f"view {view.name!r} must be refreshed before maintenance"
                )
        if not self.database.has_table(delta_name):
            self.database.create_table(
                TableSchema(
                    name=delta_name,
                    columns=[
                        ColumnSchema(c.name, c.data_type, c.ndv_hint)
                        for c in schema.columns
                    ],
                )
            )
        # A table-scoped mutation, and the only validation of ``rows``: a
        # rejected write stops here, before any view or the base table moved.
        self.database.load(delta_name, _columns_of(schema, rows))

        outcome = self.session.execute(batch)
        applied: Dict[str, int] = {}
        for view in affected:
            delta_rows = outcome.execution.query(f"maint_{view.name}").rows
            applied[view.name] = len(delta_rows)
            _apply_delta(view, delta_rows, sign)
        # Finally, the base table itself changes.
        if sign > 0:
            self.database.insert(schema.name, rows)
        else:
            self._delete_base_rows(schema, rows)

        return MaintenanceOutcome(
            table=schema.name,
            delta_rows=len(rows),
            affected_views=[v.name for v in affected],
            optimization=outcome.optimization,
            execution=outcome.execution,
            applied_rows=applied,
        )

    def _delete_base_rows(
        self, schema: TableSchema, rows: Sequence[Sequence[Any]]
    ) -> None:
        keep = _without_rows(self.database.table(schema.name).rows(), rows)
        self.database.load(schema.name, _columns_of(schema, keep))
        self.database.analyze(schema.name)


def _columns_of(
    schema: TableSchema, rows: Sequence[Sequence[Any]]
) -> Mapping[str, List[Any]]:
    """Row tuples as the column mapping ``Database.load`` takes."""
    names = schema.column_names
    for row in rows:
        if len(row) != len(names):
            raise StorageError(
                f"row has {len(row)} values, table {schema.name!r} has "
                f"{len(names)} columns"
            )
    return {name: [row[i] for row in rows] for i, name in enumerate(names)}


def _without_rows(
    stored: Sequence[Tuple], doomed_rows: Sequence[Sequence[Any]]
) -> List[Tuple]:
    """Bag difference: drop one stored copy per occurrence in the delta."""
    doomed = Counter(tuple(row) for row in doomed_rows)
    kept: List[Tuple] = []
    for row in stored:
        if doomed[row] > 0:
            doomed[row] -= 1
        else:
            kept.append(row)
    return kept


def _apply_delta(
    view: MaterializedView, delta_rows: List[Tuple], sign: int = +1
) -> None:
    """Merge delta rows into a view's stored contents.

    Grouped views merge on the grouping keys (SUM/COUNT add or subtract,
    MIN/MAX take the extremum on inserts); SPJ views append on insert,
    remove matching tuples on delete. On delete, a group whose COUNT(*)
    output reaches zero disappears.
    """
    block = view.query.block
    table = view.contents
    if not block.has_groupby:
        if sign > 0:
            table.load_rows(table.rows() + list(delta_rows))
        else:
            table.load_rows(_without_rows(table.rows(), delta_rows))
        return

    key_positions = [
        i for i, out in enumerate(block.output)
        if not out.expr.contains_aggregate()
    ]
    count_positions = [
        i for i, out in enumerate(block.output)
        if isinstance(out.expr, AggExpr) and out.expr.func is AggFunc.COUNT
    ]
    existing: Dict[tuple, List[Any]] = {}
    for row in table.rows():
        existing[tuple(row[i] for i in key_positions)] = list(row)
    for row in delta_rows:
        key = tuple(row[i] for i in key_positions)
        current = existing.get(key)
        if current is None:
            if sign < 0:
                raise CatalogError(
                    f"view {view.name!r}: delete delta for unknown group {key}"
                )
            existing[key] = list(row)
            continue
        for i, out in enumerate(block.output):
            current[i] = _merge_output(out.expr, current[i], row[i], sign)
        if sign < 0 and count_positions and all(
            current[i] <= 0 for i in count_positions
        ):
            del existing[key]
    table.load_rows(sorted(existing.values(), key=repr))


def _merge_output(expr: Expr, old: Any, new: Any, sign: int = +1) -> Any:
    if isinstance(expr, AggExpr):
        if expr.func in (AggFunc.SUM, AggFunc.COUNT):
            return old + sign * new
        if expr.func is AggFunc.MIN and sign > 0:
            return min(old, new)
        if expr.func is AggFunc.MAX and sign > 0:
            return max(old, new)
        raise UnsupportedFeatureError(
            f"incremental maintenance of {expr.func.value} under this change"
        )
    if not expr.contains_aggregate():
        return old  # a grouping column: unchanged
    raise UnsupportedFeatureError(
        f"incremental maintenance of computed aggregate output {expr!r}"
    )
