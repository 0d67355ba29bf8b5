"""Reference (oracle) evaluator for bound queries.

A deliberately simple row-at-a-time evaluator, independent of the optimizer
and the vectorized executor: tables are joined in textual order with hash
joins on the block's equality conjuncts, predicates are evaluated per row,
grouping uses plain dictionaries. The integration and property tests compare
every optimized plan's output — with and without CSEs — against this oracle.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ExecutionError
from ..expr.expressions import (
    AggExpr,
    AggFunc,
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
from ..logical.blocks import BoundBatch, BoundQuery, QueryBlock, ScalarSubquery
from ..storage.database import Database

Row = Dict[ColumnRef, Any]


def _eval_scalar(expr: Expr, row: Row, aggs: Optional[Dict[AggExpr, Any]] = None,
                 scalars: Optional[Dict[str, Any]] = None) -> Any:
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return row[expr]
    if isinstance(expr, AggExpr):
        if aggs is None or expr not in aggs:
            raise ExecutionError(f"aggregate {expr!r} not available")
        return aggs[expr]
    if isinstance(expr, ScalarSubquery):
        if scalars is None or expr.subquery_id not in scalars:
            raise ExecutionError(f"subquery {expr.subquery_id!r} not bound")
        return scalars[expr.subquery_id]
    if isinstance(expr, Comparison):
        left = _eval_scalar(expr.left, row, aggs, scalars)
        right = _eval_scalar(expr.right, row, aggs, scalars)
        if left is None or right is None:
            return None  # SQL: comparison with NULL is NULL
        return _compare(expr.op, left, right)
    if isinstance(expr, And):
        # Kleene AND: FALSE dominates, then NULL, then TRUE.
        saw_null = False
        for t in expr.terms:
            value = _eval_scalar(t, row, aggs, scalars)
            if value is None:
                saw_null = True
            elif not value:
                return False
        return None if saw_null else True
    if isinstance(expr, Or):
        # Kleene OR: TRUE dominates, then NULL, then FALSE.
        saw_null = False
        for t in expr.terms:
            value = _eval_scalar(t, row, aggs, scalars)
            if value is None:
                saw_null = True
            elif value:
                return True
        return None if saw_null else False
    if isinstance(expr, Not):
        value = _eval_scalar(expr.term, row, aggs, scalars)
        return None if value is None else (not value)
    if isinstance(expr, Arithmetic):
        left = _eval_scalar(expr.left, row, aggs, scalars)
        right = _eval_scalar(expr.right, row, aggs, scalars)
        if left is None or right is None:
            return None
        if expr.op is ArithmeticOp.ADD:
            return left + right
        if expr.op is ArithmeticOp.SUB:
            return left - right
        if expr.op is ArithmeticOp.MUL:
            return left * right
        if expr.op is ArithmeticOp.DIV:
            return left / right
        if expr.op is ArithmeticOp.AVG:
            return None if right == 0 else left / right
    raise ExecutionError(f"oracle cannot evaluate {expr!r}")


def _compare(op: ComparisonOp, left: Any, right: Any) -> bool:
    # bool(): column values are numpy scalars, and the Kleene filter paths
    # distinguish True from NULL with `is True` — np.True_ is not True.
    if op is ComparisonOp.EQ:
        return bool(left == right)
    if op is ComparisonOp.NE:
        return bool(left != right)
    if op is ComparisonOp.LT:
        return bool(left < right)
    if op is ComparisonOp.LE:
        return bool(left <= right)
    if op is ComparisonOp.GT:
        return bool(left > right)
    if op is ComparisonOp.GE:
        return bool(left >= right)
    raise ExecutionError(f"unknown comparison {op!r}")


def _table_rows(database: Database, block: QueryBlock, table_ref) -> List[Row]:
    table = database.table(table_ref.physical_name)
    columns = block.columns_of(table_ref)
    if not columns:
        # Tables joined purely for cardinality still need a row marker.
        return [dict() for _ in range(table.row_count)]
    arrays = {c: table.column(c.column) for c in columns}
    rows: List[Row] = []
    for i in range(table.row_count):
        rows.append({c: arr[i] for c, arr in arrays.items()})
    return rows


def _join_all(
    database: Database, block: QueryBlock, scalars: Optional[Dict[str, Any]] = None
) -> List[Row]:
    """Join the block's tables in order with applicable conjuncts."""
    pending = list(block.conjuncts)
    current: List[Row] = [dict()]
    joined_tables: List = []
    remaining = list(block.tables)
    while remaining:
        # Prefer a table connected to the current result by an equality.
        chosen = None
        for table_ref in remaining:
            if not joined_tables:
                chosen = table_ref
                break
            for conjunct in pending:
                if (
                    isinstance(conjunct, Comparison)
                    and conjunct.is_column_equality
                ):
                    tables = {c.table_ref for c in conjunct.columns()}
                    if table_ref in tables and tables - {table_ref} <= set(
                        joined_tables
                    ):
                        chosen = table_ref
                        break
            if chosen is not None:
                break
        if chosen is None:
            chosen = remaining[0]
        remaining.remove(chosen)
        new_rows = _table_rows(database, block, chosen)
        # Equality conjuncts usable as hash keys for this join step.
        keys: List[Tuple[ColumnRef, ColumnRef]] = []
        for conjunct in pending:
            if isinstance(conjunct, Comparison) and conjunct.is_column_equality:
                left, right = conjunct.left, conjunct.right
                assert isinstance(left, ColumnRef) and isinstance(right, ColumnRef)
                if left.table_ref == chosen and right.table_ref in joined_tables:
                    keys.append((right, left))
                elif right.table_ref == chosen and left.table_ref in joined_tables:
                    keys.append((left, right))
        if joined_tables and keys:
            index: Dict[tuple, List[Row]] = {}
            for row in new_rows:
                key = tuple(row[new_col] for _, new_col in keys)
                index.setdefault(key, []).append(row)
            merged: List[Row] = []
            for row in current:
                key = tuple(row[old_col] for old_col, _ in keys)
                for match in index.get(key, ()):  # hash join
                    combined = dict(row)
                    combined.update(match)
                    merged.append(combined)
            current = merged
        else:
            current = [
                {**row, **new_row} for row in current for new_row in new_rows
            ]
        joined_tables.append(chosen)
        # Apply every conjunct whose columns are now all available.
        available = set(joined_tables)
        applicable = [
            c for c in pending
            if {col.table_ref for col in c.columns()} <= available
        ]
        for conjunct in applicable:
            pending.remove(conjunct)
            if isinstance(conjunct, Comparison) and conjunct.is_column_equality:
                # Already enforced when used as a join key; re-check anyway.
                pass
            current = [
                row for row in current if _eval_scalar(conjunct, row, None, scalars)
            ]
    if pending:
        raise ExecutionError(f"unapplied conjuncts remain: {pending!r}")
    return current


def _aggregate(block: QueryBlock, rows: List[Row]) -> List[Tuple[Row, Dict[AggExpr, Any]]]:
    return _aggregate_rows(block.group_keys, block.aggregates, rows)


def _aggregate_rows(
    group_keys: Sequence[ColumnRef],
    aggregates: Sequence[AggExpr],
    rows: List[Row],
) -> List[Tuple[Row, Dict[AggExpr, Any]]]:
    groups: Dict[tuple, List[Row]] = {}
    for row in rows:
        key = tuple(row[k] for k in group_keys)
        groups.setdefault(key, []).append(row)
    if not group_keys and not groups:
        groups[()] = []
    output: List[Tuple[Row, Dict[AggExpr, Any]]] = []
    for key, members in groups.items():
        key_row: Row = {
            k: key[i] for i, k in enumerate(group_keys)
        }
        aggs: Dict[AggExpr, Any] = {}
        for agg in aggregates:
            aggs[agg] = _compute_aggregate(agg, members)
        output.append((key_row, aggs))
    return output


def _compute_aggregate(agg: AggExpr, rows: List[Row]) -> Any:
    if agg.func is AggFunc.COUNT:
        return len(rows)
    assert agg.arg is not None
    # NULL inputs (from outer-join null extension) are skipped, per SQL.
    values = [
        v
        for v in (_eval_scalar(agg.arg, row) for row in rows)
        if v is not None
    ]
    if agg.func is AggFunc.SUM:
        return sum(values) if values else 0
    if agg.func is AggFunc.MIN:
        return min(values) if values else None
    if agg.func is AggFunc.MAX:
        return max(values) if values else None
    if agg.func is AggFunc.AVG:
        return sum(values) / len(values) if values else None
    raise ExecutionError(f"unsupported aggregate {agg!r}")


def evaluate_block(
    database: Database,
    block: QueryBlock,
    scalars: Optional[Dict[str, Any]] = None,
) -> List[Tuple[Any, ...]]:
    """Evaluate one block to output rows (before ORDER BY)."""
    joined = _join_all(database, block, scalars)
    if block.has_groupby:
        grouped = _aggregate(block, joined)
        results: List[Tuple[Any, ...]] = []
        for key_row, aggs in grouped:
            if block.having and not all(
                _eval_scalar(h, key_row, aggs, scalars) for h in block.having
            ):
                continue
            results.append(
                tuple(
                    _eval_scalar(out.expr, key_row, aggs, scalars)
                    for out in block.output
                )
            )
        return results
    results = []
    for row in joined:
        if block.having and not all(
            _eval_scalar(h, row, None, scalars) for h in block.having
        ):
            continue
        results.append(
            tuple(_eval_scalar(out.expr, row, None, scalars) for out in block.output)
        )
    return results


def _evaluate_extended(
    database: Database,
    query: BoundQuery,
    scalars: Optional[Dict[str, Any]],
) -> List[Tuple[Any, ...]]:
    """Evaluate a query with join extensions: core SPJ rows, then each
    extension join in order (semi/anti filter the core rows; left_outer
    multiplies matches and null-extends misses), then the post-join shape
    under three-valued logic."""
    post = query.post
    assert post is not None
    rows = _join_all(database, query.block, scalars)
    for ext in query.extensions:
        inner_rows = _join_all(database, ext.block, scalars)
        index: Dict[tuple, List[Row]] = {}
        for inner in inner_rows:
            key = tuple(inner[icol] for _, icol in ext.keys)
            index.setdefault(key, []).append(inner)
        ext_cols = [out.expr for out in ext.block.output]
        combined: List[Row] = []
        for row in rows:
            key = tuple(row[ccol] for ccol, _ in ext.keys)
            matches = index.get(key, ())
            if ext.kind == "semi":
                if matches:
                    combined.append(row)
            elif ext.kind == "anti":
                if not matches:
                    combined.append(row)
            elif ext.kind == "left_outer":
                if matches:
                    for match in matches:
                        merged = dict(row)
                        merged.update({c: match[c] for c in ext_cols})
                        combined.append(merged)
                else:
                    merged = dict(row)
                    merged.update({c: None for c in ext_cols})
                    combined.append(merged)
            else:
                raise ExecutionError(f"unknown extension kind {ext.kind!r}")
        rows = combined
    for predicate in post.filters:
        rows = [
            r
            for r in rows
            if _eval_scalar(predicate, r, None, scalars) is True
        ]
    if post.has_groupby:
        grouped = _aggregate_rows(post.group_keys, post.aggregates, rows)
        results: List[Tuple[Any, ...]] = []
        for key_row, aggs in grouped:
            if post.having and not all(
                _eval_scalar(h, key_row, aggs, scalars) is True
                for h in post.having
            ):
                continue
            results.append(
                tuple(
                    _eval_scalar(out.expr, key_row, aggs, scalars)
                    for out in post.output
                )
            )
        return results
    results = []
    for row in rows:
        if post.having and not all(
            _eval_scalar(h, row, None, scalars) is True for h in post.having
        ):
            continue
        results.append(
            tuple(
                _eval_scalar(out.expr, row, None, scalars)
                for out in post.output
            )
        )
    return results


def evaluate_query(
    database: Database, query: BoundQuery
) -> List[Tuple[Any, ...]]:
    """Evaluate one bound query (subqueries first), ORDER BY applied."""
    scalars: Dict[str, Any] = {}
    for sid, sub_block in query.subqueries.items():
        rows = evaluate_block(database, sub_block)
        if len(rows) != 1 or len(rows[0]) != 1:
            raise ExecutionError(f"subquery {sid!r} is not scalar")
        scalars[sid] = rows[0][0]
    if query.extensions:
        rows = _evaluate_extended(database, query, scalars)
    else:
        rows = evaluate_block(database, query.block, scalars)
    output_shape = query.post.output if query.post else query.block.output
    if query.order_by:
        def column_index(expr) -> int:
            for i, out in enumerate(output_shape):
                if out.expr == expr:
                    return i
            raise ExecutionError(
                f"ORDER BY expression {expr!r} not in output"
            )

        def null_aware_key(index: int):
            # NULL (None or NaN, e.g. from an unmatched outer-join row)
            # compares larger than every value, so it lands last
            # ascending and first descending — the engine's order.
            def key(row: Tuple[Any, ...]):
                value = row[index]
                is_null = value is None or (
                    isinstance(value, float) and value != value
                )
                return (is_null, 0 if is_null else value)

            return key

        # Stable per-key passes, last key first: equivalent to one
        # composite sort but works for non-numeric and NULL values,
        # which a `-value` negation cannot express.
        rows = list(rows)
        for expr, descending in reversed(query.order_by):
            rows.sort(key=null_aware_key(column_index(expr)),
                      reverse=descending)
    return rows


def evaluate_batch(
    database: Database, batch: BoundBatch
) -> Dict[str, List[Tuple[Any, ...]]]:
    """Oracle-evaluate every query of a batch."""
    return {q.name: evaluate_query(database, q) for q in batch.queries}
