"""Normalized SPJG query blocks and bound queries/batches.

A :class:`QueryBlock` is the normal form the paper uses in §4:
``[γ_keys;aggs] π_output σ_conjuncts (T1 × T2 × … × Tn)``. All predicate
conjuncts live in one flat list; equijoin structure is recovered from the
column-equality conjuncts via equivalence classes.

A :class:`BoundQuery` is one top-level query: a block plus presentation
details (HAVING, ORDER BY) and the blocks of any scalar subqueries it
references. A :class:`BoundBatch` ties several queries together under the
paper's "dummy root operator" (§2, footnote 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..errors import OptimizerError
from ..expr.expressions import (
    AggExpr,
    ColumnRef,
    Expr,
    TableRef,
)
from ..expr.predicates import EquivalenceClasses, split_conjuncts
from ..types import DataType


@dataclass(frozen=True)
class ScalarSubquery(Expr):
    """A placeholder for the scalar result of an uncorrelated subquery.

    The subquery's block lives in the enclosing :class:`BoundQuery`; at
    execution time the subquery plan runs first and this expression is
    replaced by the resulting constant.
    """

    subquery_id: str
    data_type: DataType = field(compare=False, hash=False, default=DataType.FLOAT)

    def __repr__(self) -> str:
        return f"$subquery:{self.subquery_id}"


@dataclass(frozen=True)
class OutputColumn:
    """One output column of a block: a name and the defining expression.

    For aggregated blocks the expression is over group keys and
    :class:`AggExpr` results (e.g. ``sum(l_extendedprice)`` or arithmetic
    over aggregates).
    """

    name: str
    expr: Expr

    def __repr__(self) -> str:
        return f"{self.expr!r} AS {self.name}"


@dataclass(frozen=True)
class QueryBlock:
    """Normalized SPJG block.

    ``tables`` are the cross-product inputs; ``conjuncts`` the WHERE
    predicate in CNF; ``group_keys``/``aggregates`` the optional γ on top;
    ``output`` the final projection; ``having`` conjuncts apply above γ.
    """

    name: str
    tables: Tuple[TableRef, ...]
    conjuncts: Tuple[Expr, ...]
    output: Tuple[OutputColumn, ...]
    group_keys: Tuple[ColumnRef, ...] = ()
    aggregates: Tuple[AggExpr, ...] = ()
    having: Tuple[Expr, ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.tables)) != len(self.tables):
            raise OptimizerError(f"block {self.name!r}: duplicate table instance")
        if self.aggregates and not self.has_groupby:
            # Aggregates without GROUP BY form a single implicit group; we
            # model that as a group-by with no keys.
            pass
        table_set = set(self.tables)
        for conjunct in self.conjuncts:
            for column in conjunct.columns():
                if column.table_ref not in table_set:
                    raise OptimizerError(
                        f"block {self.name!r}: predicate references "
                        f"{column!r} outside the block"
                    )

    @property
    def has_groupby(self) -> bool:
        """Whether the block aggregates."""
        return bool(self.group_keys) or bool(self.aggregates)

    @property
    def table_set(self) -> FrozenSet[TableRef]:
        """The block's table instances as a frozenset."""
        return frozenset(self.tables)

    def equivalence_classes(self) -> EquivalenceClasses:
        """Column equivalence classes from the block's equality conjuncts."""
        return EquivalenceClasses.from_conjuncts(self.conjuncts)

    def columns_of(self, table_ref: TableRef) -> FrozenSet[ColumnRef]:
        """Columns of ``table_ref`` referenced anywhere in the block."""
        needed = set()
        for conjunct in self.conjuncts:
            needed.update(c for c in conjunct.columns() if c.table_ref == table_ref)
        for key in self.group_keys:
            if key.table_ref == table_ref:
                needed.add(key)
        for agg in self.aggregates:
            needed.update(c for c in agg.columns() if c.table_ref == table_ref)
        for out in self.output:
            needed.update(c for c in out.expr.columns() if c.table_ref == table_ref)
        for conjunct in self.having:
            needed.update(c for c in conjunct.columns() if c.table_ref == table_ref)
        return frozenset(needed)

    def required_columns(self) -> FrozenSet[ColumnRef]:
        """All base columns the block touches."""
        needed = set()
        for table_ref in self.tables:
            needed.update(self.columns_of(table_ref))
        return frozenset(needed)

    def output_names(self) -> List[str]:
        """Output column names, in order."""
        return [o.name for o in self.output]


@dataclass(frozen=True)
class JoinExtension:
    """A non-inner join hanging off a query's core SPJ block.

    ``kind`` is one of ``"left_outer"``, ``"semi"``, ``"anti"``. The
    extension's own :class:`QueryBlock` (``block``) is a plain SPJ block —
    it participates in CSE detection and matching like any other block —
    and ``keys`` are the ``(core column, extension column)`` equality pairs
    that tie it to the core. Semi/anti extensions come from decorrelated
    EXISTS / IN subqueries; left_outer ones from LEFT OUTER JOIN clauses
    the outer-join reduction could not prove reducible to inner joins.
    Built only by :func:`repro.logical.decorrelate.assemble_query`.
    """

    ext_id: str
    kind: str
    block: QueryBlock
    keys: Tuple[Tuple[ColumnRef, ColumnRef], ...]


@dataclass(frozen=True)
class QueryShape:
    """The post-extension shape of an extended query.

    When a query carries :class:`JoinExtension` s, its core block is SPJ
    only and grouping/HAVING/projection apply *above* the extension joins
    (SQL semantics). ``filters`` are WHERE conjuncts that reference
    null-extended columns and therefore must run, under three-valued
    logic, after the outer join.
    """

    group_keys: Tuple[ColumnRef, ...]
    aggregates: Tuple[AggExpr, ...]
    having: Tuple[Expr, ...]
    output: Tuple[OutputColumn, ...]
    filters: Tuple[Expr, ...] = ()

    @property
    def has_groupby(self) -> bool:
        return bool(self.group_keys) or bool(self.aggregates)


@dataclass
class BoundQuery:
    """A bound top-level query: its block, subquery blocks, and ORDER BY."""

    name: str
    block: QueryBlock
    subqueries: Dict[str, QueryBlock] = field(default_factory=dict)
    order_by: Tuple[Tuple[Expr, bool], ...] = ()  # (expr, descending)
    extensions: Tuple[JoinExtension, ...] = ()
    post: Optional[QueryShape] = None

    def all_blocks(self) -> List[QueryBlock]:
        return (
            [self.block]
            + list(self.subqueries.values())
            + [e.block for e in self.extensions]
        )


@dataclass
class BoundBatch:
    """A batch of queries optimized together under a dummy root (§2 fn. 1).

    Bound batches are shared (the binder memoizes them per parsed text), so
    they are never mutated after binding."""

    queries: List[BoundQuery]
    #: the :class:`~repro.sql.parser.ParsedBatch` this was bound from, held
    #: strongly so its parse memo lives exactly as long as this batch.
    source: Optional[object] = field(default=None, repr=False, compare=False)
    #: the batch's fingerprint, filled in by the first
    #: :func:`~repro.serve.fingerprint.batch_fingerprint` call.
    fingerprint: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        names = [q.name for q in self.queries]
        if len(set(names)) != len(names):
            raise OptimizerError(f"duplicate query names in batch: {names}")
        instances = [t for q in self.queries for b in q.all_blocks() for t in b.tables]
        if len(set(instances)) != len(instances):
            raise OptimizerError("table instances shared across blocks")

    def all_blocks(self) -> List[QueryBlock]:
        return [b for q in self.queries for b in q.all_blocks()]

    def query(self, name: str) -> BoundQuery:
        """One query of the batch, by name."""
        for q in self.queries:
            if q.name == name:
                return q
        raise OptimizerError(f"no query named {name!r} in batch")
