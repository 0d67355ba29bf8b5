"""Decorrelation and assembly of extended queries.

An outer-joined table or an EXISTS / IN subquery reaches this module as
bound conjuncts over its own tables and the enclosing scope.
:func:`split_correlation` separates the filters local to those tables from
the ``(core column, inner column)`` equality keys that tie them to the core.
Equality keys are the only correlation decorrelated: a left-outer, semi or
anti hash join on them preserves the bag semantics of the nested form.

:func:`assemble_query` turns a block's parts and its correlations into a
:class:`~repro.logical.blocks.BoundQuery`. Without correlations the query is
one SPJG block. Otherwise it is an SPJ core block, one
:class:`~repro.logical.blocks.JoinExtension` per correlation, and a
:class:`~repro.logical.blocks.QueryShape` applied above the extension joins.
The binder calls it once per SELECT; the outer-join reduction
(:mod:`repro.logical.simplify`) calls it again after folding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import UnsupportedFeatureError
from ..expr.expressions import (
    AggExpr,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expr,
    TableRef,
)
from .blocks import BoundQuery, JoinExtension, OutputColumn, QueryBlock, QueryShape

#: a ``(core column, inner column)`` equality key
Key = Tuple[ColumnRef, ColumnRef]

#: refusal messages, by whether the correlation is an outer join
_NOT_A_KEY = {
    True: "outer join ON conditions must be equijoin keys plus filters on "
    "the null-extended side",
    False: "EXISTS/IN correlation must be column-equality conjuncts",
}
_NULLABLE_KEY = {
    True: "outer join keyed on a nullable (outer-joined) column",
    False: "EXISTS/IN correlated on a nullable (outer-joined) column",
}
_NO_KEY = {
    True: "outer joins require at least one equijoin key",
    False: "uncorrelated EXISTS/IN subqueries",
}


@dataclass(frozen=True)
class Correlation:
    """One decorrelated outer join or EXISTS / IN subquery, not yet
    assembled: ``kind`` (``left_outer``, ``semi`` or ``anti``), its tables,
    its local filters and its keys (at least one)."""

    ext_id: str
    kind: str
    tables: Tuple[TableRef, ...]
    conjuncts: Tuple[Expr, ...]
    keys: Tuple[Key, ...]

    def __post_init__(self) -> None:
        if not self.keys:
            raise UnsupportedFeatureError(_NO_KEY[self.kind == "left_outer"])


def split_correlation(
    conjuncts: Iterable[Expr],
    inner_tables: Set[TableRef],
    nullable: Set[TableRef],
    kind: str,
) -> Tuple[List[Expr], List[Key]]:
    """Split conjuncts into filters over ``inner_tables`` only and
    ``(outer column, inner column)`` equality keys.

    Anything else, or a key whose outer column is ``nullable``, raises
    :class:`UnsupportedFeatureError`."""
    outer = kind == "left_outer"
    local: List[Expr] = []
    keys: List[Key] = []
    for conjunct in conjuncts:
        if {col.table_ref for col in conjunct.columns()} <= inner_tables:
            local.append(conjunct)
            continue
        key = _equality_key(conjunct, inner_tables)
        if key is None:
            raise UnsupportedFeatureError(_NOT_A_KEY[outer])
        if key[0].table_ref in nullable:
            raise UnsupportedFeatureError(_NULLABLE_KEY[outer])
        keys.append(key)
    return local, keys


def _equality_key(conjunct: Expr, inner_tables: Set[TableRef]) -> Optional[Key]:
    """``outer_col = inner_col`` (either order) as a key, else None."""
    if not (
        isinstance(conjunct, Comparison)
        and conjunct.op is ComparisonOp.EQ
        and isinstance(conjunct.left, ColumnRef)
        and isinstance(conjunct.right, ColumnRef)
    ):
        return None
    left, right = conjunct.left, conjunct.right
    left_inner = left.table_ref in inner_tables
    if left_inner != (right.table_ref in inner_tables):
        return (right, left) if left_inner else (left, right)
    return None


def output_columns(named: Sequence[Tuple[str, Expr]]) -> Tuple[OutputColumn, ...]:
    """Output columns with unique names: the first column of a name keeps
    it; a later one takes the smallest ``_n`` suffix no column uses."""
    taken = {name for name, _ in named}
    seen: Set[str] = set()
    result: List[OutputColumn] = []
    for name, expr in named:
        if name in seen:
            base, suffix = name, 1
            while f"{base}_{suffix}" in taken:
                suffix += 1
            name = f"{base}_{suffix}"
            taken.add(name)
        seen.add(name)
        result.append(OutputColumn(name=name, expr=expr))
    return tuple(result)


def _passthrough(
    columns: Set[ColumnRef], tables: Set[TableRef]
) -> Tuple[OutputColumn, ...]:
    """Deterministically named outputs for the ``columns`` of ``tables``."""
    ordered = sorted((c for c in columns if c.table_ref in tables), key=repr)
    return output_columns([(c.column, c) for c in ordered])


def assemble_query(
    name: str,
    tables: Sequence[TableRef],
    conjuncts: Sequence[Expr],
    outputs: Tuple[OutputColumn, ...],
    group_keys: Sequence[ColumnRef],
    aggregates: Sequence[AggExpr],
    having: Sequence[Expr],
    correlations: Sequence[Correlation],
    subqueries: Dict[str, QueryBlock],
    order_by: Tuple[Tuple[Expr, bool], ...],
) -> BoundQuery:
    """The bound query over ``tables`` (the tables of outer correlations
    included) filtered by ``conjuncts``, with its correlations joined in.

    Conjuncts over a left-outer correlation's tables become post-join
    filters, evaluated under three-valued logic above the outer join; the
    core and extension blocks output exactly the columns needed above
    them."""
    if not correlations:
        block = QueryBlock(
            name=name,
            tables=tuple(tables),
            conjuncts=tuple(conjuncts),
            output=outputs,
            group_keys=tuple(group_keys),
            aggregates=tuple(aggregates),
            having=tuple(having),
        )
        return BoundQuery(
            name=name, block=block, subqueries=subqueries, order_by=order_by
        )

    nullable = {t for c in correlations if c.kind == "left_outer" for t in c.tables}
    core_tables = tuple(t for t in tables if t not in nullable)
    core_set = set(core_tables)
    core_conjuncts: List[Expr] = []
    filters: List[Expr] = []
    for conjunct in conjuncts:
        touched = {col.table_ref for col in conjunct.columns()}
        (core_conjuncts if touched <= core_set else filters).append(conjunct)

    needed: Set[ColumnRef] = set(group_keys)
    for expr in [*(out.expr for out in outputs), *filters, *aggregates, *having]:
        needed |= expr.columns()
    for correlation in correlations:
        needed |= {core for core, _ in correlation.keys}

    extensions = tuple(
        JoinExtension(
            ext_id=c.ext_id,
            kind=c.kind,
            block=QueryBlock(
                name=f"{name}.{c.ext_id}",
                tables=c.tables,
                conjuncts=c.conjuncts,
                output=_passthrough(
                    needed | {inner for _, inner in c.keys}, set(c.tables)
                ),
            ),
            keys=c.keys,
        )
        for c in correlations
    )
    return BoundQuery(
        name=name,
        block=QueryBlock(
            name=name,
            tables=core_tables,
            conjuncts=tuple(core_conjuncts),
            output=_passthrough(needed, core_set),
        ),
        subqueries=subqueries,
        order_by=order_by,
        extensions=extensions,
        post=QueryShape(
            group_keys=tuple(group_keys),
            aggregates=tuple(aggregates),
            having=tuple(having),
            output=outputs,
            filters=tuple(filters),
        ),
    )
