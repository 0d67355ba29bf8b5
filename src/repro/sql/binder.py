"""The binder: SQL ASTs → bound query blocks.

Name resolution against the catalog, type checking/coercion (string literals
compared to DATE columns become day numbers), aggregate normalization
(``AVG(x)`` → ``SUM(x) /avg COUNT(*)``, a division that is NULL over no
rows; ``COUNT(x)`` ≡ ``COUNT(*)`` since the engine has no NULLs), ``WITH``
expansion (SPJ common table expressions are inlined per reference —
re-detecting the sharing is precisely the optimizer's job, §1), and scalar
subquery extraction.

OUTER JOIN clauses and top-level EXISTS / IN predicates are bound here, in
a scope that sees both sides; :mod:`repro.logical.decorrelate` splits them
into keys and local filters and assembles the extended query.
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
    OutputColumn,
    QueryBlock,
    ScalarSubquery,
)
from ..logical.decorrelate import (
    Correlation,
    assemble_query,
    output_columns,
    split_correlation,
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
    """Name-resolution scope for one SELECT, plus what every expression
    bound in it shares: the query name, the WITH definitions, and the map
    that collects scalar subquery blocks."""

    name: str
    cte_defs: Dict[str, sql_ast.SelectStatement]
    subqueries: Dict[str, QueryBlock] = field(default_factory=dict)
    tables: List[Tuple[str, TableRef]] = field(default_factory=list)
    ctes: List[Tuple[str, _CteExpansion]] = field(default_factory=list)
    #: tables on the null-extended side of a LEFT/RIGHT OUTER JOIN; their
    #: columns are nullable and several constructs are gated on that.
    nullable: Set[TableRef] = field(default_factory=set)

    def fresh(self) -> "_Scope":
        """An empty scope for a nested FROM list of the same query, with
        its own subquery map."""
        return _Scope(self.name, self.cte_defs)

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
        return self._bind_select(statement, _Scope(name, cte_defs), allow_order=True)

    # ------------------------------------------------------------------

    def _bind_select(
        self, select: sql_ast.SelectStatement, scope: _Scope, allow_order: bool
    ) -> BoundQuery:
        for item in select.from_items:
            self._add_table(item, scope)

        join_conjuncts: List[Expr] = []
        correlations: List[Correlation] = []
        for join in select.joins:
            if join.kind == "inner":
                self._add_table(join.table, scope)
                join_conjuncts.extend(self._bind_on(join, scope))
            else:
                correlations.append(
                    self._bind_outer_join(join, scope, f"x{len(correlations) + 1}")
                )

        where_ast, sub_predicates = _split_where_ast(select.where)
        where_conjuncts = (
            split_conjuncts(self._bind_expr(where_ast, scope))
            if where_ast is not None
            else []
        )
        where_conjuncts += scope.extra_conjuncts() + join_conjuncts
        for conjunct in where_conjuncts:
            if conjunct.contains_aggregate():
                raise BindError("aggregates are not allowed in WHERE")

        for kind, node in sub_predicates:
            correlations.append(
                self._bind_subquery_extension(
                    kind, node, scope, f"x{len(correlations) + 1}"
                )
            )

        group_keys: List[ColumnRef] = []
        for expr in select.group_by:
            bound = self._bind_expr(expr, scope)
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

        outputs = output_columns(
            [
                named
                for item in select.select_items
                for named in self._bind_select_item(item, scope)
            ]
        )

        having_conjuncts: List[Expr] = []
        if select.having is not None:
            having_conjuncts = split_conjuncts(
                self._bind_expr(select.having, scope)
            )

        aggregates: List[AggExpr] = []
        for out in outputs:
            self._collect_aggregates(out.expr, aggregates)
        for conjunct in having_conjuncts:
            self._collect_aggregates(conjunct, aggregates)

        if group_keys or aggregates:
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
                expr = self._bind_order_item(item.expr, outputs, scope)
                # Nullable (outer-joined) columns are allowed: the engine
                # and the reference oracle rank NULL largest (last asc,
                # first desc) with stable per-key sorts on both dtypes.
                order_by.append((expr, item.descending))

        return assemble_query(
            scope.name,
            scope.all_tables(),
            where_conjuncts,
            outputs,
            group_keys,
            aggregates,
            having_conjuncts,
            correlations,
            scope.subqueries,
            tuple(order_by),
        )

    # -- FROM items, joins and subquery predicates -------------------------

    def _add_table(
        self, item: sql_ast.TableItem, scope: _Scope
    ) -> Optional[TableRef]:
        """Bind one FROM or JOIN item into ``scope``: a fresh table
        instance, or (returning None) an inlined WITH reference."""
        binding_name = (item.alias or item.name).lower()
        if binding_name in {b for b, _ in scope.tables} | {b for b, _ in scope.ctes}:
            raise BindError(f"duplicate FROM alias {binding_name!r}")
        if item.name in scope.cte_defs:
            expansion = self._expand_cte(scope.cte_defs[item.name], scope)
            scope.ctes.append((binding_name, expansion))
            return None
        if not self.catalog.has_table(item.name):
            raise BindError(f"unknown table {item.name!r}")
        table_ref = TableRef(
            table=self.catalog.table(item.name).name,
            instance=next(self._instances),
            alias=binding_name,
        )
        scope.tables.append((binding_name, table_ref))
        return table_ref

    def _bind_on(self, join: sql_ast.SqlJoin, scope: _Scope) -> List[Expr]:
        on = self._bind_expr(join.on, scope)
        if on.contains_aggregate():
            raise BindError("aggregates are not allowed in ON conditions")
        return split_conjuncts(on)

    def _bind_outer_join(
        self, join: sql_ast.SqlJoin, scope: _Scope, ext_id: str
    ) -> Correlation:
        if join.table.name in scope.cte_defs:
            raise UnsupportedFeatureError(
                "common table expressions on either side of an outer join"
            )
        ext_ref = self._add_table(join.table, scope)
        if join.kind == "right":
            # a RIGHT JOIN b ON p == b LEFT JOIN a ON p; supported only when
            # the FROM so far is a single plain table, so the swap is
            # unambiguous.
            if scope.ctes or len(scope.tables) != 2:
                raise UnsupportedFeatureError(
                    "RIGHT JOIN is supported only directly over a single "
                    "plain FROM table"
                )
            scope.tables.reverse()
            ext_ref = scope.tables[1][1]
        assert ext_ref is not None
        local, keys = split_correlation(
            self._bind_on(join, scope), {ext_ref}, scope.nullable, "left_outer"
        )
        scope.nullable.add(ext_ref)
        return Correlation(ext_id, "left_outer", (ext_ref,), tuple(local), tuple(keys))

    def _bind_subquery_extension(
        self, kind: str, node: sql_ast.SqlExpr, scope: _Scope, ext_id: str
    ) -> Correlation:
        """Bind one EXISTS / IN subquery predicate: a plain SPJ subquery
        in a scope that also sees the enclosing query's tables."""
        assert isinstance(node, (sql_ast.SqlExists, sql_ast.SqlInSubquery))
        sub_select = node.select
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
        inner = scope.fresh()
        for item in sub_select.from_items:
            self._add_table(item, inner)
        if inner.ctes:
            raise UnsupportedFeatureError(
                "common table expressions inside EXISTS/IN subqueries"
            )
        combined = _Scope(
            scope.name,
            scope.cte_defs,
            inner.subqueries,
            tables=inner.tables + scope.tables,
            ctes=list(scope.ctes),
            nullable=set(scope.nullable),
        )
        conjuncts: List[Expr] = []
        if sub_select.where is not None:
            conjuncts = split_conjuncts(self._bind_expr(sub_select.where, combined))
        if inner.subqueries:
            raise UnsupportedFeatureError(
                "scalar subqueries inside EXISTS/IN subqueries"
            )
        if any(conjunct.contains_aggregate() for conjunct in conjuncts):
            raise BindError("aggregates are not allowed in WHERE")
        inner_tables = tuple(t for _, t in inner.tables)
        local, keys = split_correlation(
            conjuncts, set(inner_tables), scope.nullable, kind
        )
        if isinstance(node, sql_ast.SqlInSubquery):
            items = sub_select.select_items
            if len(items) != 1 or isinstance(items[0].expr, sql_ast.SqlStar):
                raise BindError(
                    "IN subqueries must select exactly one column"
                )
            inner_expr = self._bind_expr(items[0].expr, inner)
            subject = self._bind_expr(node.subject, scope)
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
        return Correlation(ext_id, kind, inner_tables, tuple(local), tuple(keys))

    def _expand_cte(
        self, select: sql_ast.SelectStatement, scope: _Scope
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
        inner = scope.fresh()
        for item in select.from_items:
            self._add_table(item, inner)
        conjuncts: List[Expr] = list(inner.extra_conjuncts())
        if select.where is not None:
            conjuncts.extend(split_conjuncts(self._bind_expr(select.where, inner)))
        if inner.subqueries:
            raise UnsupportedFeatureError("subqueries inside WITH clauses")
        columns: Dict[str, Expr] = {}
        for item in select.select_items:
            if isinstance(item.expr, sql_ast.SqlStar):
                for col_name, expr in self._star_columns(item.expr, inner):
                    columns.setdefault(col_name, expr)
                continue
            bound = self._bind_expr(item.expr, inner)
            out_name = item.alias or self._default_name(item.expr)
            if out_name is None:
                raise BindError(
                    "WITH clause select items need aliases"
                )
            columns[out_name] = bound
        return _CteExpansion(
            columns=columns,
            tables=inner.all_tables(),
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
        self, item: sql_ast.SelectItem, scope: _Scope
    ) -> List[Tuple[str, Expr]]:
        if isinstance(item.expr, sql_ast.SqlStar):
            return self._star_columns(item.expr, scope)
        bound = self._bind_expr(item.expr, scope)
        out_name = item.alias or self._default_name(item.expr) or "col"
        return [(out_name, bound)]

    @staticmethod
    def _default_name(expr: sql_ast.SqlExpr) -> Optional[str]:
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
        outputs: Sequence[OutputColumn],
        scope: _Scope,
    ) -> Expr:
        if isinstance(expr, sql_ast.SqlColumn) and expr.qualifier is None:
            for out in outputs:
                if out.name == expr.name:
                    return out.expr
        bound = self._bind_expr(expr, scope)
        if not any(out.expr == bound for out in outputs):
            raise UnsupportedFeatureError(
                "ORDER BY must reference an output column"
            )
        return bound

    # -- expressions --------------------------------------------------------

    def _bind_expr(self, expr: sql_ast.SqlExpr, scope: _Scope) -> Expr:
        if isinstance(expr, sql_ast.SqlLiteral):
            if expr.is_date:
                return Literal(date_to_int(expr.value), DataType.DATE)
            return Literal(expr.value)
        if isinstance(expr, sql_ast.SqlColumn):
            return self._resolve_column(expr, scope)
        if isinstance(expr, sql_ast.SqlCall):
            return self._bind_call(expr, scope)
        if isinstance(expr, sql_ast.SqlBinary):
            return self._bind_binary(expr, scope)
        if isinstance(expr, sql_ast.SqlNot):
            return Not(self._bind_expr(expr.term, scope))
        if isinstance(expr, sql_ast.SqlBetween):
            subject = self._bind_expr(expr.subject, scope)
            low = self._bind_expr(expr.low, scope)
            high = self._bind_expr(expr.high, scope)
            low_cmp = self._make_comparison(ComparisonOp.GE, subject, low)
            high_cmp = self._make_comparison(ComparisonOp.LE, subject, high)
            between = And((low_cmp, high_cmp))
            return Not(between) if expr.negated else between
        if isinstance(expr, sql_ast.SqlInList):
            subject = self._bind_expr(expr.subject, scope)
            options = [
                self._make_comparison(
                    ComparisonOp.EQ,
                    subject,
                    self._bind_expr(o, scope),
                )
                for o in expr.options
            ]
            membership: Expr = options[0] if len(options) == 1 else Or(tuple(options))
            return Not(membership) if expr.negated else membership
        if isinstance(expr, sql_ast.SqlSubquery):
            return self._bind_subquery(expr, scope)
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
        self, call: sql_ast.SqlCall, scope: _Scope
    ) -> Expr:
        if call.distinct:
            raise UnsupportedFeatureError("DISTINCT aggregates")
        func = _AGG_FUNCS[call.func]
        if func is AggFunc.COUNT:
            if call.arg is not None:
                arg = self._bind_expr(call.arg, scope)
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
        arg = self._bind_expr(call.arg, scope)
        if arg.contains_aggregate():
            raise BindError("nested aggregates are not allowed")
        if func is AggFunc.AVG:
            if any(col.table_ref in scope.nullable for col in arg.columns()):
                raise UnsupportedFeatureError(
                    "AVG over a nullable (outer-joined) column"
                )
            return Arithmetic(
                ArithmeticOp.AVG,
                AggExpr(AggFunc.SUM, arg),
                AggExpr(AggFunc.COUNT, None),
            )
        return AggExpr(func, arg)

    def _bind_binary(
        self, binary: sql_ast.SqlBinary, scope: _Scope
    ) -> Expr:
        if binary.op == "AND":
            return And(
                (self._bind_expr(binary.left, scope), self._bind_expr(binary.right, scope))
            )
        if binary.op == "OR":
            return Or(
                (self._bind_expr(binary.left, scope), self._bind_expr(binary.right, scope))
            )
        left = self._bind_expr(binary.left, scope)
        right = self._bind_expr(binary.right, scope)
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
        self, subquery: sql_ast.SqlSubquery, scope: _Scope
    ) -> Expr:
        select = subquery.select
        if select.order_by:
            raise UnsupportedFeatureError("ORDER BY inside a scalar subquery")
        sid = f"sq{next(self._subquery_counter)}"
        nested = _Scope(f"{scope.name}.{sid}", scope.cte_defs, scope.subqueries)
        query = self._bind_select(select, nested, allow_order=False)
        block = query.block
        if query.extensions:
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
        scope.subqueries[sid] = block
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
