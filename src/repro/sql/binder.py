"""The binder: SQL ASTs → bound query blocks.

Name resolution against the catalog, type checking/coercion (string literals
compared to DATE columns become day numbers), aggregate normalization
(``AVG(x)`` → ``SUM(x)/COUNT(*)``; ``COUNT(x)`` ≡ ``COUNT(*)`` since the
engine has no NULLs), ``WITH`` expansion (SPJ common table expressions are
inlined per reference — re-detecting the sharing is precisely the
optimizer's job, §1), and scalar subquery extraction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..catalog.schema import Catalog
from ..errors import BindError, StorageError, UnsupportedFeatureError
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
    TableRef,
)
from ..expr.predicates import split_conjuncts
from ..logical.blocks import (
    BoundBatch,
    BoundQuery,
    JoinExtension,
    OutputColumn,
    QueryBlock,
    QueryShape,
    ScalarSubquery,
)
from ..types import DataType, comparable, date_to_int
from . import ast as sql_ast
from .parser import ParsedBatch, parse_batch as _parse_batch

_COMPARISON_OPS = {
    "=": ComparisonOp.EQ,
    "<>": ComparisonOp.NE,
    "<": ComparisonOp.LT,
    "<=": ComparisonOp.LE,
    ">": ComparisonOp.GT,
    ">=": ComparisonOp.GE,
}

_ARITHMETIC_OPS = {
    "+": ArithmeticOp.ADD,
    "-": ArithmeticOp.SUB,
    "*": ArithmeticOp.MUL,
    "/": ArithmeticOp.DIV,
}

_AGG_FUNCS = {
    "SUM": AggFunc.SUM,
    "COUNT": AggFunc.COUNT,
    "MIN": AggFunc.MIN,
    "MAX": AggFunc.MAX,
    "AVG": AggFunc.AVG,
}


@dataclass
class _CteExpansion:
    """One reference to an SPJ common table expression, inlined."""

    columns: Dict[str, Expr]
    tables: List[TableRef]
    conjuncts: List[Expr]


@dataclass
class _Scope:
    """Name-resolution scope for one SELECT."""

    tables: List[Tuple[str, TableRef]] = field(default_factory=list)
    ctes: List[Tuple[str, _CteExpansion]] = field(default_factory=list)
    #: tables on the null-extended side of a LEFT/RIGHT OUTER JOIN; their
    #: columns are nullable and several constructs are gated on that.
    nullable: Set[TableRef] = field(default_factory=set)

    def all_tables(self) -> List[TableRef]:
        result = [t for _, t in self.tables]
        for _, expansion in self.ctes:
            result.extend(expansion.tables)
        return result

    def extra_conjuncts(self) -> List[Expr]:
        result: List[Expr] = []
        for _, expansion in self.ctes:
            result.extend(expansion.conjuncts)
        return result


def _split_where_ast(
    where: Optional[sql_ast.SqlExpr],
) -> Tuple[Optional[sql_ast.SqlExpr], List[Tuple[str, sql_ast.SqlExpr]]]:
    """Separate top-level EXISTS / IN-subquery conjuncts from the rest of a
    WHERE AST. Returns (remaining predicate, [(semi|anti, node), ...])."""
    if where is None:
        return None, []
    conjuncts: List[sql_ast.SqlExpr] = []

    def walk(node: sql_ast.SqlExpr) -> None:
        if isinstance(node, sql_ast.SqlBinary) and node.op == "AND":
            walk(node.left)
            walk(node.right)
        else:
            conjuncts.append(node)

    walk(where)
    rest: List[sql_ast.SqlExpr] = []
    subpredicates: List[Tuple[str, sql_ast.SqlExpr]] = []
    for conjunct in conjuncts:
        node = conjunct
        negated = False
        if isinstance(node, sql_ast.SqlNot) and isinstance(
            node.term, (sql_ast.SqlExists, sql_ast.SqlInSubquery)
        ):
            negated = True
            node = node.term
        if isinstance(node, (sql_ast.SqlExists, sql_ast.SqlInSubquery)):
            if node.negated:
                negated = not negated
            subpredicates.append(("anti" if negated else "semi", node))
        else:
            rest.append(conjunct)
    remaining: Optional[sql_ast.SqlExpr] = None
    for conjunct in rest:
        remaining = (
            conjunct
            if remaining is None
            else sql_ast.SqlBinary("AND", remaining, conjunct)
        )
    return remaining, subpredicates


def _named_columns(columns: Set[ColumnRef]) -> Tuple[OutputColumn, ...]:
    """Deterministically named passthrough outputs for a column set."""
    result: List[OutputColumn] = []
    used: Dict[str, int] = {}
    for col in sorted(columns, key=repr):
        out_name = col.column
        if out_name in used:
            used[out_name] += 1
            out_name = f"{out_name}_{used[col.column]}"
        else:
            used[out_name] = 0
        result.append(OutputColumn(name=out_name, expr=col))
    return tuple(result)


def _equality_key(
    conjunct: Expr, ext_ref: TableRef
) -> Optional[Tuple[ColumnRef, ColumnRef]]:
    """Decompose ``core_col = ext_col`` (either order) or return None."""
    if not (
        isinstance(conjunct, Comparison)
        and conjunct.op is ComparisonOp.EQ
        and isinstance(conjunct.left, ColumnRef)
        and isinstance(conjunct.right, ColumnRef)
    ):
        return None
    left, right = conjunct.left, conjunct.right
    if left.table_ref == ext_ref and right.table_ref != ext_ref:
        return right, left
    if right.table_ref == ext_ref and left.table_ref != ext_ref:
        return left, right
    return None


def _correlation_key(
    conjunct: Expr, inner_tables: Set[TableRef]
) -> Optional[Tuple[ColumnRef, ColumnRef]]:
    """Decompose ``outer_col = inner_col`` (either order) or return None."""
    if not (
        isinstance(conjunct, Comparison)
        and conjunct.op is ComparisonOp.EQ
        and isinstance(conjunct.left, ColumnRef)
        and isinstance(conjunct.right, ColumnRef)
    ):
        return None
    left, right = conjunct.left, conjunct.right
    left_inner = left.table_ref in inner_tables
    right_inner = right.table_ref in inner_tables
    if left_inner and not right_inner:
        return right, left
    if right_inner and not left_inner:
        return left, right
    return None


class Binder:
    """Binds parsed statements against a catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._instances = itertools.count(1)
        self._subquery_counter = itertools.count(1)

    # ------------------------------------------------------------------

    def bind_batch(
        self,
        statements: Sequence[sql_ast.SelectStatement],
        names: Optional[Sequence[str]] = None,
    ) -> BoundBatch:
        """Bind a batch (queries named ``names``, default ``Q1``, ``Q2``, …).

        A :class:`~repro.sql.parser.ParsedBatch` is bound as a fresh binder
        would bind it, once per (catalog, catalog version, names) while the
        result lives: a repeat returns the same shared :class:`BoundBatch`.
        The version is read *before* binding, so DDL that lands mid-bind
        re-keys the next call."""
        if not isinstance(statements, ParsedBatch):
            return self._bind_queries(statements, names)
        key = (self.catalog, self.catalog.version, tuple(names or ()))
        batch = statements.bound(key)
        if batch is None:
            batch = Binder(self.catalog)._bind_queries(statements, names)
            batch.source = statements
            batch = statements.remember(key, batch)
        return batch

    def _bind_queries(
        self,
        statements: Sequence[sql_ast.SelectStatement],
        names: Optional[Sequence[str]],
    ) -> BoundBatch:
        queries: List[BoundQuery] = []
        for index, statement in enumerate(statements):
            name = names[index] if names else f"Q{index + 1}"
            queries.append(self.bind_statement(statement, name))
        return BoundBatch(queries=queries)

    def bind_statement(
        self, statement: sql_ast.SelectStatement, name: str
    ) -> BoundQuery:
        cte_defs = {cte.name: cte.select for cte in statement.ctes}
        subqueries: Dict[str, QueryBlock] = {}
        block, order_by, extensions, post = self._bind_select(
            statement, name, cte_defs, subqueries, allow_order=True
        )
        return BoundQuery(
            name=name,
            block=block,
            subqueries=subqueries,
            order_by=order_by,
            extensions=extensions,
            post=post,
        )

    # ------------------------------------------------------------------

    def _bind_select(
        self,
        select: sql_ast.SelectStatement,
        name: str,
        cte_defs: Dict[str, sql_ast.SelectStatement],
        subqueries: Dict[str, QueryBlock],
        allow_order: bool,
    ) -> Tuple[
        QueryBlock,
        Tuple[Tuple[Expr, bool], ...],
        Tuple[JoinExtension, ...],
        Optional[QueryShape],
    ]:
        scope = self._build_scope(select.from_items, cte_defs, name)

        ext_ids = itertools.count(1)
        join_conjuncts: List[Expr] = []
        #: (ext_id, null-extended table, ON-local conjuncts, key pairs)
        pending_left: List[
            Tuple[str, TableRef, List[Expr], List[Tuple[ColumnRef, ColumnRef]]]
        ] = []
        for join in select.joins:
            if join.kind == "inner":
                self._bind_inner_join(
                    join, scope, cte_defs, subqueries, name, join_conjuncts
                )
            else:
                pending_left.append(
                    self._bind_outer_join(
                        join, scope, cte_defs, subqueries, name,
                        join_conjuncts, pending_left, ext_ids,
                    )
                )

        where_ast, sub_predicates = _split_where_ast(select.where)
        where_expr = (
            self._bind_expr(where_ast, scope, cte_defs, subqueries, name)
            if where_ast is not None
            else None
        )
        where_conjuncts = split_conjuncts(where_expr) + scope.extra_conjuncts()
        where_conjuncts.extend(join_conjuncts)
        for conjunct in where_conjuncts:
            if conjunct.contains_aggregate():
                raise BindError("aggregates are not allowed in WHERE")

        semi_exts: List[JoinExtension] = []
        for kind, node in sub_predicates:
            semi_exts.append(
                self._bind_subquery_extension(
                    kind, node, scope, cte_defs, name, f"x{next(ext_ids)}"
                )
            )

        group_keys: List[ColumnRef] = []
        for expr in select.group_by:
            bound = self._bind_expr(expr, scope, cte_defs, subqueries, name)
            if not isinstance(bound, ColumnRef):
                raise UnsupportedFeatureError(
                    "GROUP BY supports plain columns only"
                )
            if bound.table_ref in scope.nullable:
                raise UnsupportedFeatureError(
                    "GROUP BY over a nullable (outer-joined) column"
                )
            if bound not in group_keys:
                group_keys.append(bound)

        outputs: List[OutputColumn] = []
        used_names: Dict[str, int] = {}
        for item in select.select_items:
            for out_name, expr in self._bind_select_item(
                item, scope, cte_defs, subqueries, name
            ):
                final = out_name
                if final in used_names:
                    used_names[final] += 1
                    final = f"{final}_{used_names[out_name]}"
                else:
                    used_names[final] = 0
                outputs.append(OutputColumn(name=final, expr=expr))

        having_conjuncts: List[Expr] = []
        if select.having is not None:
            having = self._bind_expr(
                select.having, scope, cte_defs, subqueries, name
            )
            having_conjuncts = split_conjuncts(having)

        aggregates: List[AggExpr] = []
        for out in outputs:
            self._collect_aggregates(out.expr, aggregates)
        for conjunct in having_conjuncts:
            self._collect_aggregates(conjunct, aggregates)

        has_groupby = bool(group_keys) or bool(aggregates)
        if has_groupby:
            key_set = set(group_keys)
            for out in outputs:
                self._check_grouped_expr(out.expr, key_set, out.name)
        elif having_conjuncts:
            # HAVING without grouping: treat as WHERE.
            where_conjuncts.extend(having_conjuncts)
            having_conjuncts = []

        order_by: List[Tuple[Expr, bool]] = []
        if select.order_by:
            if not allow_order:
                raise UnsupportedFeatureError("ORDER BY not allowed here")
            for item in select.order_by:
                expr = self._bind_order_item(
                    item.expr, outputs, scope, cte_defs, subqueries, name
                )
                # Nullable (outer-joined) columns are allowed: the engine
                # and the reference oracle rank NULL largest (last asc,
                # first desc) with stable per-key sorts on both dtypes.
                order_by.append((expr, item.descending))

        if not pending_left and not semi_exts:
            block = QueryBlock(
                name=name,
                tables=tuple(scope.all_tables()),
                conjuncts=tuple(where_conjuncts),
                output=tuple(outputs),
                group_keys=tuple(group_keys),
                aggregates=tuple(aggregates),
                having=tuple(having_conjuncts),
            )
            return block, tuple(order_by), (), None

        return self._assemble_extended(
            name,
            scope,
            where_conjuncts,
            outputs,
            group_keys,
            aggregates,
            having_conjuncts,
            pending_left,
            semi_exts,
            tuple(order_by),
        )

    def _assemble_extended(
        self,
        name: str,
        scope: _Scope,
        where_conjuncts: List[Expr],
        outputs: List[OutputColumn],
        group_keys: List[ColumnRef],
        aggregates: List[AggExpr],
        having_conjuncts: List[Expr],
        pending_left: List[
            Tuple[str, TableRef, List[Expr], List[Tuple[ColumnRef, ColumnRef]]]
        ],
        semi_exts: List[JoinExtension],
        order_by: Tuple[Tuple[Expr, bool], ...],
    ) -> Tuple[
        QueryBlock,
        Tuple[Tuple[Expr, bool], ...],
        Tuple[JoinExtension, ...],
        QueryShape,
    ]:
        """Split an extended query into an SPJ core block, join extensions,
        and the post-extension shape (grouping/HAVING/projection applied
        above the extension joins, per SQL semantics)."""
        left_refs = {ref for _, ref, _, _ in pending_left}
        core_tables = [t for t in scope.all_tables() if t not in left_refs]
        core_set = set(core_tables)

        # WHERE conjuncts referencing null-extended columns must run after
        # the outer join, under three-valued logic.
        core_conjuncts: List[Expr] = []
        post_filters: List[Expr] = []
        for conjunct in where_conjuncts:
            touched = {col.table_ref for col in conjunct.columns()}
            if touched <= core_set:
                core_conjuncts.append(conjunct)
            else:
                post_filters.append(conjunct)

        needed: Set[ColumnRef] = set()
        for out in outputs:
            needed |= out.expr.columns()
        for conjunct in post_filters:
            needed |= conjunct.columns()
        needed |= set(group_keys)
        for agg in aggregates:
            needed |= agg.columns()
        for conjunct in having_conjuncts:
            needed |= conjunct.columns()
        for ext in semi_exts:
            needed |= {core_col for core_col, _ in ext.keys}
        for _, _, _, keys in pending_left:
            needed |= {core_col for core_col, _ in keys}

        core_block = QueryBlock(
            name=name,
            tables=tuple(core_tables),
            conjuncts=tuple(core_conjuncts),
            output=_named_columns(
                {c for c in needed if c.table_ref in core_set}
            ),
        )
        extensions: List[JoinExtension] = []
        for ext_id, ext_ref, local, keys in pending_left:
            ext_needed = {c for c in needed if c.table_ref == ext_ref}
            ext_needed |= {ext_col for _, ext_col in keys}
            extensions.append(
                JoinExtension(
                    ext_id=ext_id,
                    kind="left_outer",
                    block=QueryBlock(
                        name=f"{name}.{ext_id}",
                        tables=(ext_ref,),
                        conjuncts=tuple(local),
                        output=_named_columns(ext_needed),
                    ),
                    keys=tuple(keys),
                )
            )
        extensions.extend(semi_exts)
        post = QueryShape(
            group_keys=tuple(group_keys),
            aggregates=tuple(aggregates),
            having=tuple(having_conjuncts),
            output=tuple(outputs),
            filters=tuple(post_filters),
        )
        return core_block, order_by, tuple(extensions), post

    # -- joins and subquery predicates -------------------------------------

    def _scope_binding(
        self, item: sql_ast.TableItem, scope: _Scope
    ) -> Tuple[str, TableRef]:
        """Allocate a fresh table instance for a JOIN clause's table."""
        binding_name = (item.alias or item.name).lower()
        taken = {b for b, _ in scope.tables} | {b for b, _ in scope.ctes}
        if binding_name in taken:
            raise BindError(f"duplicate FROM alias {binding_name!r}")
        if not self.catalog.has_table(item.name):
            raise BindError(f"unknown table {item.name!r}")
        return binding_name, TableRef(
            table=self.catalog.table(item.name).name,
            instance=next(self._instances),
            alias=binding_name,
        )

    def _bind_inner_join(
        self,
        join: sql_ast.SqlJoin,
        scope: _Scope,
        cte_defs: Dict[str, sql_ast.SelectStatement],
        subqueries: Dict[str, QueryBlock],
        name: str,
        out_conjuncts: List[Expr],
    ) -> None:
        item = join.table
        if item.name in cte_defs:
            binding_name = (item.alias or item.name).lower()
            taken = {b for b, _ in scope.tables} | {b for b, _ in scope.ctes}
            if binding_name in taken:
                raise BindError(f"duplicate FROM alias {binding_name!r}")
            expansion = self._expand_cte(cte_defs[item.name], cte_defs, name)
            scope.ctes.append((binding_name, expansion))
            out_conjuncts.extend(expansion.conjuncts)
        else:
            binding_name, table_ref = self._scope_binding(item, scope)
            scope.tables.append((binding_name, table_ref))
        on = self._bind_expr(join.on, scope, cte_defs, subqueries, name)
        if on.contains_aggregate():
            raise BindError("aggregates are not allowed in ON conditions")
        out_conjuncts.extend(split_conjuncts(on))

    def _bind_outer_join(
        self,
        join: sql_ast.SqlJoin,
        scope: _Scope,
        cte_defs: Dict[str, sql_ast.SelectStatement],
        subqueries: Dict[str, QueryBlock],
        name: str,
        join_conjuncts: List[Expr],
        pending_left: List,
        ext_ids,
    ) -> Tuple[str, TableRef, List[Expr], List[Tuple[ColumnRef, ColumnRef]]]:
        item = join.table
        if item.name in cte_defs:
            raise UnsupportedFeatureError(
                "common table expressions on either side of an outer join"
            )
        binding_name, new_ref = self._scope_binding(item, scope)
        if join.kind == "right":
            # a RIGHT JOIN b ON p == b LEFT JOIN a ON p; supported only when
            # the accumulated FROM is a single plain table, so the swap is
            # unambiguous.
            if (
                scope.ctes
                or len(scope.tables) != 1
                or join_conjuncts
                or pending_left
                or scope.nullable
            ):
                raise UnsupportedFeatureError(
                    "RIGHT JOIN is supported only directly over a single "
                    "plain FROM table"
                )
            old_binding, old_ref = scope.tables[0]
            scope.tables = [(binding_name, new_ref), (old_binding, old_ref)]
            ext_ref = old_ref
        else:
            scope.tables.append((binding_name, new_ref))
            ext_ref = new_ref
        on = self._bind_expr(join.on, scope, cte_defs, subqueries, name)
        if on.contains_aggregate():
            raise BindError("aggregates are not allowed in ON conditions")
        keys: List[Tuple[ColumnRef, ColumnRef]] = []
        local: List[Expr] = []
        for conjunct in split_conjuncts(on):
            touched = {col.table_ref for col in conjunct.columns()}
            if touched <= {ext_ref}:
                local.append(conjunct)
                continue
            pair = _equality_key(conjunct, ext_ref)
            if pair is None:
                raise UnsupportedFeatureError(
                    "outer join ON conditions must be equijoin keys plus "
                    "filters on the null-extended side"
                )
            core_col, ext_col = pair
            if core_col.table_ref in scope.nullable:
                raise UnsupportedFeatureError(
                    "outer join keyed on a nullable (outer-joined) column"
                )
            keys.append((core_col, ext_col))
        if not keys:
            raise UnsupportedFeatureError(
                "outer joins require at least one equijoin key"
            )
        scope.nullable.add(ext_ref)
        return f"x{next(ext_ids)}", ext_ref, local, keys

    def _bind_subquery_extension(
        self,
        kind: str,
        node: sql_ast.SqlExpr,
        scope: _Scope,
        cte_defs: Dict[str, sql_ast.SelectStatement],
        name: str,
        ext_id: str,
    ) -> JoinExtension:
        """Decorrelate one EXISTS / IN subquery predicate into a semi/anti
        join extension whose build side is a plain SPJ block."""
        if isinstance(node, sql_ast.SqlExists):
            sub_select = node.select
            subject_ast: Optional[sql_ast.SqlExpr] = None
        else:
            assert isinstance(node, sql_ast.SqlInSubquery)
            sub_select = node.select
            subject_ast = node.subject
        if (
            sub_select.joins
            or sub_select.group_by
            or sub_select.having
            or sub_select.order_by
            or sub_select.ctes
        ):
            raise UnsupportedFeatureError(
                "EXISTS/IN subqueries must be plain select-project-join"
            )
        inner_scope = self._build_scope(sub_select.from_items, cte_defs, name)
        if inner_scope.ctes:
            raise UnsupportedFeatureError(
                "common table expressions inside EXISTS/IN subqueries"
            )
        inner_tables = {t for _, t in inner_scope.tables}
        combined = _Scope(
            tables=inner_scope.tables + scope.tables,
            ctes=list(scope.ctes),
            nullable=set(scope.nullable),
        )
        local_subqueries: Dict[str, QueryBlock] = {}
        conjuncts: List[Expr] = []
        if sub_select.where is not None:
            where = self._bind_expr(
                sub_select.where, combined, cte_defs, local_subqueries, name
            )
            conjuncts = split_conjuncts(where)
        if local_subqueries:
            raise UnsupportedFeatureError(
                "scalar subqueries inside EXISTS/IN subqueries"
            )
        keys: List[Tuple[ColumnRef, ColumnRef]] = []
        local: List[Expr] = []
        for conjunct in conjuncts:
            if conjunct.contains_aggregate():
                raise BindError("aggregates are not allowed in WHERE")
            touched = {col.table_ref for col in conjunct.columns()}
            if touched <= inner_tables:
                local.append(conjunct)
                continue
            pair = _correlation_key(conjunct, inner_tables)
            if pair is None:
                raise UnsupportedFeatureError(
                    "EXISTS/IN correlation must be column-equality conjuncts"
                )
            outer_col, inner_col = pair
            if outer_col.table_ref in scope.nullable:
                raise UnsupportedFeatureError(
                    "EXISTS/IN correlated on a nullable (outer-joined) column"
                )
            keys.append((outer_col, inner_col))
        if subject_ast is not None:
            if len(sub_select.select_items) != 1 or isinstance(
                sub_select.select_items[0].expr, sql_ast.SqlStar
            ):
                raise BindError(
                    "IN subqueries must select exactly one column"
                )
            inner_only = _Scope(tables=list(inner_scope.tables))
            inner_expr = self._bind_expr(
                sub_select.select_items[0].expr,
                inner_only, cte_defs, local_subqueries, name,
            )
            subject = self._bind_expr(
                subject_ast, scope, cte_defs, local_subqueries, name
            )
            if not (
                isinstance(inner_expr, ColumnRef)
                and isinstance(subject, ColumnRef)
            ):
                raise UnsupportedFeatureError(
                    "IN subqueries support plain column membership only"
                )
            if subject.table_ref in scope.nullable:
                raise UnsupportedFeatureError(
                    "IN subject over a nullable (outer-joined) column"
                )
            keys.append((subject, inner_expr))
        if not keys:
            raise UnsupportedFeatureError(
                "uncorrelated EXISTS/IN subqueries"
            )
        block = QueryBlock(
            name=f"{name}.{ext_id}",
            tables=tuple(t for _, t in inner_scope.tables),
            conjuncts=tuple(local),
            output=_named_columns({inner_col for _, inner_col in keys}),
        )
        return JoinExtension(
            ext_id=ext_id, kind=kind, block=block, keys=tuple(keys)
        )

    # -- scope ------------------------------------------------------------

    def _build_scope(
        self,
        from_items: Sequence[sql_ast.TableItem],
        cte_defs: Dict[str, sql_ast.SelectStatement],
        name: str,
    ) -> _Scope:
        scope = _Scope()
        seen: set = set()
        for item in from_items:
            binding_name = (item.alias or item.name).lower()
            if binding_name in seen:
                raise BindError(f"duplicate FROM alias {binding_name!r}")
            seen.add(binding_name)
            if item.name in cte_defs:
                expansion = self._expand_cte(
                    cte_defs[item.name], cte_defs, name
                )
                scope.ctes.append((binding_name, expansion))
                continue
            if not self.catalog.has_table(item.name):
                raise BindError(f"unknown table {item.name!r}")
            table_ref = TableRef(
                table=self.catalog.table(item.name).name,
                instance=next(self._instances),
                alias=binding_name,
            )
            scope.tables.append((binding_name, table_ref))
        return scope

    def _expand_cte(
        self,
        select: sql_ast.SelectStatement,
        cte_defs: Dict[str, sql_ast.SelectStatement],
        name: str,
    ) -> _CteExpansion:
        if select.group_by or any(
            isinstance(i.expr, sql_ast.SqlCall) for i in select.select_items
        ):
            raise UnsupportedFeatureError(
                "aggregated common table expressions cannot be inlined; "
                "only select-project-join WITH clauses are supported"
            )
        if select.order_by or select.having or select.ctes:
            raise UnsupportedFeatureError(
                "ORDER BY/HAVING/nested WITH inside a WITH clause"
            )
        inner_scope = self._build_scope(select.from_items, cte_defs, name)
        subqueries: Dict[str, QueryBlock] = {}
        conjuncts: List[Expr] = list(inner_scope.extra_conjuncts())
        if select.where is not None:
            where = self._bind_expr(
                select.where, inner_scope, cte_defs, subqueries, name
            )
            conjuncts.extend(split_conjuncts(where))
        if subqueries:
            raise UnsupportedFeatureError("subqueries inside WITH clauses")
        columns: Dict[str, Expr] = {}
        for item in select.select_items:
            if isinstance(item.expr, sql_ast.SqlStar):
                for col_name, expr in self._star_columns(
                    item.expr, inner_scope
                ):
                    columns.setdefault(col_name, expr)
                continue
            bound = self._bind_expr(
                item.expr, inner_scope, cte_defs, subqueries, name
            )
            out_name = item.alias or self._default_name(item.expr, None)
            if out_name is None:
                raise BindError(
                    "WITH clause select items need aliases"
                )
            columns[out_name] = bound
        return _CteExpansion(
            columns=columns,
            tables=inner_scope.all_tables(),
            conjuncts=conjuncts,
        )

    # -- select items -----------------------------------------------------

    def _star_columns(
        self, star: sql_ast.SqlStar, scope: _Scope
    ) -> List[Tuple[str, Expr]]:
        result: List[Tuple[str, Expr]] = []
        for binding_name, table_ref in scope.tables:
            if star.qualifier and binding_name != star.qualifier.lower():
                continue
            schema = self.catalog.table(table_ref.table)
            for column in schema.columns:
                result.append(
                    (
                        column.name,
                        ColumnRef(table_ref, column.name, column.data_type),
                    )
                )
        for binding_name, expansion in scope.ctes:
            if star.qualifier and binding_name != star.qualifier.lower():
                continue
            for col_name, expr in expansion.columns.items():
                result.append((col_name, expr))
        if not result:
            raise BindError(f"* matched no tables (qualifier {star.qualifier!r})")
        return result

    def _bind_select_item(
        self,
        item: sql_ast.SelectItem,
        scope: _Scope,
        cte_defs,
        subqueries,
        name: str,
    ) -> List[Tuple[str, Expr]]:
        if isinstance(item.expr, sql_ast.SqlStar):
            return self._star_columns(item.expr, scope)
        bound = self._bind_expr(item.expr, scope, cte_defs, subqueries, name)
        out_name = item.alias or self._default_name(item.expr, bound) or "col"
        return [(out_name, bound)]

    @staticmethod
    def _default_name(
        expr: sql_ast.SqlExpr, bound: Optional[Expr]
    ) -> Optional[str]:
        if isinstance(expr, sql_ast.SqlColumn):
            return expr.name
        if isinstance(expr, sql_ast.SqlCall):
            return expr.func.lower()
        return None

    def _check_grouped_expr(self, expr: Expr, keys: set, context: str) -> None:
        """In a grouped query, non-aggregate parts may reference keys only."""
        if isinstance(expr, AggExpr):
            return
        if isinstance(expr, ColumnRef):
            if expr not in keys:
                raise BindError(
                    f"column {expr!r} in {context!r} is neither grouped "
                    "nor aggregated"
                )
            return
        for child in expr.children():
            self._check_grouped_expr(child, keys, context)

    def _collect_aggregates(self, expr: Expr, out: List[AggExpr]) -> None:
        for node in expr.walk():
            if isinstance(node, AggExpr) and node not in out:
                out.append(node)

    def _bind_order_item(
        self,
        expr: sql_ast.SqlExpr,
        outputs: List[OutputColumn],
        scope: _Scope,
        cte_defs,
        subqueries,
        name: str,
    ) -> Expr:
        if isinstance(expr, sql_ast.SqlColumn) and expr.qualifier is None:
            for out in outputs:
                if out.name == expr.name:
                    return out.expr
        bound = self._bind_expr(expr, scope, cte_defs, subqueries, name)
        if not any(out.expr == bound for out in outputs):
            raise UnsupportedFeatureError(
                "ORDER BY must reference an output column"
            )
        return bound

    # -- expressions --------------------------------------------------------

    def _bind_expr(
        self,
        expr: sql_ast.SqlExpr,
        scope: _Scope,
        cte_defs: Dict[str, sql_ast.SelectStatement],
        subqueries: Dict[str, QueryBlock],
        name: str,
    ) -> Expr:
        if isinstance(expr, sql_ast.SqlLiteral):
            if expr.is_date:
                return Literal(date_to_int(expr.value), DataType.DATE)
            return Literal(expr.value)
        if isinstance(expr, sql_ast.SqlColumn):
            return self._resolve_column(expr, scope)
        if isinstance(expr, sql_ast.SqlCall):
            return self._bind_call(expr, scope, cte_defs, subqueries, name)
        if isinstance(expr, sql_ast.SqlBinary):
            return self._bind_binary(expr, scope, cte_defs, subqueries, name)
        if isinstance(expr, sql_ast.SqlNot):
            return Not(
                self._bind_expr(expr.term, scope, cte_defs, subqueries, name)
            )
        if isinstance(expr, sql_ast.SqlBetween):
            subject = self._bind_expr(
                expr.subject, scope, cte_defs, subqueries, name
            )
            low = self._bind_expr(expr.low, scope, cte_defs, subqueries, name)
            high = self._bind_expr(expr.high, scope, cte_defs, subqueries, name)
            low_cmp = self._make_comparison(ComparisonOp.GE, subject, low)
            high_cmp = self._make_comparison(ComparisonOp.LE, subject, high)
            between = And((low_cmp, high_cmp))
            return Not(between) if expr.negated else between
        if isinstance(expr, sql_ast.SqlInList):
            subject = self._bind_expr(
                expr.subject, scope, cte_defs, subqueries, name
            )
            options = [
                self._make_comparison(
                    ComparisonOp.EQ,
                    subject,
                    self._bind_expr(o, scope, cte_defs, subqueries, name),
                )
                for o in expr.options
            ]
            membership: Expr = options[0] if len(options) == 1 else Or(tuple(options))
            return Not(membership) if expr.negated else membership
        if isinstance(expr, sql_ast.SqlSubquery):
            return self._bind_subquery(expr, cte_defs, subqueries, name)
        if isinstance(expr, (sql_ast.SqlExists, sql_ast.SqlInSubquery)):
            raise UnsupportedFeatureError(
                "EXISTS/IN subqueries are supported only as top-level "
                "WHERE conjuncts"
            )
        if isinstance(expr, sql_ast.SqlStar):
            raise BindError("* is only allowed in the select list")
        raise BindError(f"cannot bind expression {expr!r}")

    def _resolve_column(
        self, column: sql_ast.SqlColumn, scope: _Scope
    ) -> Expr:
        qualifier = column.qualifier.lower() if column.qualifier else None
        matches: List[Expr] = []
        for binding_name, table_ref in scope.tables:
            if qualifier is not None and binding_name != qualifier:
                continue
            schema = self.catalog.table(table_ref.table)
            if schema.has_column(column.name):
                matches.append(
                    ColumnRef(
                        table_ref, column.name, schema.column_type(column.name)
                    )
                )
        for binding_name, expansion in scope.ctes:
            if qualifier is not None and binding_name != qualifier:
                continue
            if column.name in expansion.columns:
                matches.append(expansion.columns[column.name])
        if not matches:
            raise BindError(
                f"unknown column "
                f"{column.qualifier + '.' if column.qualifier else ''}{column.name}"
            )
        if len(matches) > 1:
            raise BindError(f"ambiguous column {column.name!r}")
        return matches[0]

    def _bind_call(
        self, call: sql_ast.SqlCall, scope, cte_defs, subqueries, name
    ) -> Expr:
        if call.distinct:
            raise UnsupportedFeatureError("DISTINCT aggregates")
        func = _AGG_FUNCS[call.func]
        if func is AggFunc.COUNT:
            if call.arg is not None:
                arg = self._bind_expr(call.arg, scope, cte_defs, subqueries, name)
                if any(
                    col.table_ref in scope.nullable for col in arg.columns()
                ):
                    raise UnsupportedFeatureError(
                        "COUNT over a nullable (outer-joined) column"
                    )
            # Base columns are never NULL, so COUNT(x) == COUNT(*); nullable
            # (outer-joined) arguments are gated above.
            return AggExpr(AggFunc.COUNT, None)
        if call.arg is None:
            raise BindError(f"{call.func} requires an argument")
        arg = self._bind_expr(call.arg, scope, cte_defs, subqueries, name)
        if arg.contains_aggregate():
            raise BindError("nested aggregates are not allowed")
        if func is AggFunc.AVG:
            if any(col.table_ref in scope.nullable for col in arg.columns()):
                raise UnsupportedFeatureError(
                    "AVG over a nullable (outer-joined) column"
                )
            return Arithmetic(
                ArithmeticOp.DIV,
                AggExpr(AggFunc.SUM, arg),
                AggExpr(AggFunc.COUNT, None),
            )
        return AggExpr(func, arg)

    def _bind_binary(
        self, binary: sql_ast.SqlBinary, scope, cte_defs, subqueries, name
    ) -> Expr:
        if binary.op == "AND":
            return And(
                (
                    self._bind_expr(binary.left, scope, cte_defs, subqueries, name),
                    self._bind_expr(binary.right, scope, cte_defs, subqueries, name),
                )
            )
        if binary.op == "OR":
            return Or(
                (
                    self._bind_expr(binary.left, scope, cte_defs, subqueries, name),
                    self._bind_expr(binary.right, scope, cte_defs, subqueries, name),
                )
            )
        left = self._bind_expr(binary.left, scope, cte_defs, subqueries, name)
        right = self._bind_expr(binary.right, scope, cte_defs, subqueries, name)
        if binary.op in _COMPARISON_OPS:
            return self._make_comparison(_COMPARISON_OPS[binary.op], left, right)
        if binary.op in _ARITHMETIC_OPS:
            return Arithmetic(_ARITHMETIC_OPS[binary.op], left, right)
        raise BindError(f"unknown operator {binary.op!r}")

    def _make_comparison(
        self, op: ComparisonOp, left: Expr, right: Expr
    ) -> Comparison:
        left, right = self._coerce_pair(left, right)
        if not comparable(left.data_type, right.data_type):
            raise BindError(
                f"cannot compare {left.data_type} with {right.data_type}"
            )
        return Comparison(op, left, right)

    @staticmethod
    def _coerce_pair(left: Expr, right: Expr) -> Tuple[Expr, Expr]:
        """Turn ISO-date string literals into day numbers when compared with
        DATE expressions (``o_orderdate < '1996-07-01'``)."""

        def coerce(literal: Expr, other: Expr) -> Expr:
            if (
                isinstance(literal, Literal)
                and literal.data_type is DataType.STRING
                and other.data_type is DataType.DATE
            ):
                # Only the expected conversion failures (malformed ISO
                # string, unconvertible value) fall through to the
                # comparability type error; anything else is a real defect
                # and must propagate.
                try:
                    return Literal(date_to_int(literal.value), DataType.DATE)
                except (ValueError, StorageError):
                    return literal
            return literal

        return coerce(left, right), coerce(right, left)

    def _bind_subquery(
        self,
        subquery: sql_ast.SqlSubquery,
        cte_defs: Dict[str, sql_ast.SelectStatement],
        subqueries: Dict[str, QueryBlock],
        name: str,
    ) -> Expr:
        select = subquery.select
        if select.order_by:
            raise UnsupportedFeatureError("ORDER BY inside a scalar subquery")
        sid = f"sq{next(self._subquery_counter)}"
        block, _, extensions, _post = self._bind_select(
            select, f"{name}.{sid}", cte_defs, subqueries, allow_order=False
        )
        if extensions:
            raise UnsupportedFeatureError(
                "outer/semi joins inside scalar subqueries"
            )
        if len(block.output) != 1:
            raise BindError("scalar subquery must produce exactly one column")
        if block.group_keys:
            raise UnsupportedFeatureError(
                "grouped (non-scalar) subqueries are not supported"
            )
        if not block.aggregates:
            raise UnsupportedFeatureError(
                "scalar subqueries must aggregate to a single row"
            )
        subqueries[sid] = block
        return ScalarSubquery(sid, block.output[0].expr.data_type)


def bind_batch(
    catalog: Catalog, sql: str, names: Optional[Sequence[str]] = None
) -> BoundBatch:
    """Parse and bind a semicolon-separated batch."""
    return Binder(catalog).bind_batch(_parse_batch(sql), names)


def bind_sql(catalog: Catalog, sql: str, name: str = "Q1") -> BoundQuery:
    """Parse and bind a single statement."""
    statements = _parse_batch(sql)
    if len(statements) != 1:
        raise BindError(f"expected one statement, got {len(statements)}")
    return Binder(catalog).bind_statement(statements[0], name)
