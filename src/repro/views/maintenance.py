"""Joint maintenance of materialized views (paper §6.4).

When a base table receives inserts, the new rows land in a *delta table*;
each affected view's definition is rewritten with the delta table substituted
for the base table, and the rewritten maintenance queries are optimized
**as one batch**. The delta table participates in table signatures as the
special name ``delta(<base>)`` (paper: "we treat the delta table as a special
table when generating table signatures"), so maintenance expressions for
different views can share covering subexpressions exactly like a user batch.

Only insert maintenance is implemented (the experiment in §6.4 updates
``customer`` with new rows); SUM/COUNT/MIN/MAX aggregates and SPJ views are
self-maintainable under inserts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import CatalogError, UnsupportedFeatureError
from ..executor.executor import BatchResult, Executor
from ..executor.runtime import ExecutionMetrics
from ..expr.expressions import AggExpr, AggFunc, ColumnRef, Expr, TableRef
from ..logical.blocks import BoundBatch, BoundQuery, OutputColumn, QueryBlock
from ..optimizer.engine import OptimizationResult, Optimizer
from ..optimizer.options import OptimizerOptions
from ..catalog.schema import ColumnSchema, TableSchema
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


def _replace_table(expr: Expr, old: TableRef, new: TableRef) -> Expr:
    mapping: Dict[Expr, Expr] = {}
    for col in expr.columns():
        if col.table_ref == old:
            mapping[col] = ColumnRef(new, col.column, col.data_type)
    return expr.substitute(mapping)


def rewrite_block_with_delta(
    block: QueryBlock, base_table: str, delta_ref_factory
) -> QueryBlock:
    """Substitute the delta table for every instance of ``base_table``."""
    replacements: Dict[TableRef, TableRef] = {}
    new_tables: List[TableRef] = []
    for table_ref in block.tables:
        if table_ref.table.lower() == base_table.lower():
            replacement = delta_ref_factory(table_ref)
            replacements[table_ref] = replacement
            new_tables.append(replacement)
        else:
            new_tables.append(table_ref)
    if not replacements:
        raise CatalogError(
            f"view block {block.name!r} does not reference {base_table!r}"
        )

    def rewrite(expr: Expr) -> Expr:
        for old, new in replacements.items():
            expr = _replace_table(expr, old, new)
        return expr

    return QueryBlock(
        name=block.name,
        tables=tuple(new_tables),
        conjuncts=tuple(rewrite(c) for c in block.conjuncts),
        output=tuple(
            OutputColumn(name=o.name, expr=rewrite(o.expr)) for o in block.output
        ),
        group_keys=tuple(rewrite(k) for k in block.group_keys),  # type: ignore[misc]
        aggregates=tuple(rewrite(a) for a in block.aggregates),  # type: ignore[misc]
        having=tuple(rewrite(h) for h in block.having),
    )


class MaintenancePlanner:
    """Plans and runs joint maintenance for all views affected by inserts."""

    def __init__(
        self,
        database: Database,
        views: ViewManager,
        options: Optional[OptimizerOptions] = None,
    ) -> None:
        self.database = database
        self.views = views
        self.options = options or OptimizerOptions()
        self._delta_counter = itertools.count(1)

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
        queries: List[BoundQuery] = []
        instance_counter = itertools.count(10_000_000)
        for view in affected:
            fresh = self._fresh_copy(view.query, instance_counter)

            def delta_ref_factory(old: TableRef) -> TableRef:
                return TableRef(
                    table=old.table,
                    instance=next(instance_counter),
                    alias=f"delta_{old.display_name}",
                    is_delta=True,
                    storage_name=delta_table,
                )

            block = rewrite_block_with_delta(
                fresh.block, table_name, delta_ref_factory
            )
            queries.append(
                BoundQuery(
                    name=f"maint_{view.name}",
                    block=block,
                    subqueries={},
                    order_by=(),
                )
            )
        return BoundBatch(queries=queries), affected

    @staticmethod
    def _fresh_copy(query: BoundQuery, counter) -> BoundQuery:
        """Re-instance a bound query so maintenance batches never share
        table instances with each other or with the original views."""
        if query.subqueries:
            raise UnsupportedFeatureError(
                "maintenance of views with subqueries"
            )
        block = query.block
        mapping = {
            t: TableRef(
                table=t.table,
                instance=next(counter),
                alias=t.alias,
                is_delta=t.is_delta,
                storage_name=t.storage_name,
            )
            for t in block.tables
        }

        def rewrite(expr: Expr) -> Expr:
            for old, new in mapping.items():
                expr = _replace_table(expr, old, new)
            return expr

        new_block = QueryBlock(
            name=f"{block.name}__maint",
            tables=tuple(mapping[t] for t in block.tables),
            conjuncts=tuple(rewrite(c) for c in block.conjuncts),
            output=tuple(
                OutputColumn(o.name, rewrite(o.expr)) for o in block.output
            ),
            group_keys=tuple(rewrite(k) for k in block.group_keys),  # type: ignore[misc]
            aggregates=tuple(rewrite(a) for a in block.aggregates),  # type: ignore[misc]
            having=tuple(rewrite(h) for h in block.having),
        )
        return BoundQuery(name=block.name, block=new_block)

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
        delta_name = f"__delta_{schema.name}_{next(self._delta_counter)}"
        delta_schema = TableSchema(
            name=delta_name,
            columns=[
                ColumnSchema(c.name, c.data_type, c.ndv_hint)
                for c in schema.columns
            ],
        )
        self.database.create_table(delta_schema)
        self.database.insert(delta_name, rows)
        self.database.analyze(delta_name)

        try:
            batch, affected = self.build_maintenance_batch(
                schema.name, delta_name
            )
            optimizer = Optimizer(self.database, self.options)
            optimization = optimizer.optimize(batch)
            execution = Executor(self.database).execute(optimization.bundle)
            applied: Dict[str, int] = {}
            for view in affected:
                delta_rows = execution.query(f"maint_{view.name}").rows
                applied[view.name] = len(delta_rows)
                _apply_delta(view, delta_rows, sign)
            # Finally, the base table itself changes.
            if sign > 0:
                self.database.insert(schema.name, rows)
            else:
                self._delete_base_rows(schema.name, rows)
        finally:
            self.database.drop_table(delta_name)

        return MaintenanceOutcome(
            table=schema.name,
            delta_rows=len(rows),
            affected_views=[v.name for v in affected],
            optimization=optimization,
            execution=execution,
            applied_rows=applied,
        )

    def _delete_base_rows(
        self, table_name: str, rows: Sequence[Sequence[Any]]
    ) -> None:
        table = self.database.table(table_name)
        doomed = {tuple(row) for row in rows}
        keep = [row for row in table.rows() if tuple(row) not in doomed]
        names = table.schema.column_names
        columns = {
            name: [row[i] for row in keep] for i, name in enumerate(names)
        }
        self.database.load(table_name, columns)
        self.database.analyze(table_name)


def _apply_delta(
    view: MaterializedView, delta_rows: List[Tuple], sign: int = +1
) -> None:
    """Merge delta rows into a view's stored contents.

    Grouped views merge on the grouping keys (SUM/COUNT add or subtract,
    MIN/MAX take the extremum on inserts); SPJ views append on insert,
    remove matching tuples on delete. On delete, a group whose COUNT(*)
    output reaches zero disappears.
    """
    if view.contents is None:
        raise CatalogError(
            f"view {view.name!r} must be refreshed before maintenance"
        )
    block = view.query.block
    table = view.contents
    if not block.has_groupby:
        _apply_spj_delta(table, delta_rows, sign)
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


def _apply_spj_delta(table, delta_rows: List[Tuple], sign: int) -> None:
    if not delta_rows:
        return
    if sign > 0:
        table.load_rows(table.rows() + list(delta_rows))
        return
    # Delete: bag semantics — remove one stored copy per delta occurrence.
    from collections import Counter

    doomed = Counter(tuple(row) for row in delta_rows)
    kept: List[Tuple] = []
    for row in table.rows():
        key = tuple(row)
        if doomed.get(key, 0) > 0:
            doomed[key] -= 1
            continue
        kept.append(row)
    table.load_rows(kept)


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
