"""Logical simplification of extended queries.

The classical outer-join reduction: a LEFT OUTER extension whose
null-extended rows are provably rejected by a later filter behaves exactly
like an inner join, so the extension folds into the core SPJ block. The
proof comes from :mod:`repro.equiv` (abstract three-valued evaluation); the
fold is what lets an outer-join consumer share an inner-join spool — after
folding, the query is a plain SPJG block and every §4/§5 sharing rule
applies unchanged.
"""

from __future__ import annotations

from typing import List, Tuple

from ..equiv import Verdict, outer_join_reducible
from ..expr.expressions import Comparison, ComparisonOp, Expr, TableRef
from .blocks import BoundQuery, JoinExtension
from .decorrelate import Correlation, assemble_query


def simplify_query(query: BoundQuery) -> Tuple[BoundQuery, List[Tuple[str, Verdict]]]:
    """Fold provably-reducible LEFT OUTER extensions into the core block.

    Returns the (possibly) simplified query plus one ``(ext_id, verdict)``
    pair per left_outer extension, for the optimizer's ``equiv`` trace events.
    Semi/anti extensions are never folded (they change cardinality);
    a left_outer extension folds only when :func:`outer_join_reducible`
    *proves* some post-join filter null-rejecting on its tables.
    """
    if not query.extensions:
        return query, []
    post = query.post
    assert post is not None
    verdicts: List[Tuple[str, Verdict]] = []
    folded: List[JoinExtension] = []
    remaining: List[JoinExtension] = []
    for ext in query.extensions:
        if ext.kind != "left_outer":
            remaining.append(ext)
            continue
        verdict = outer_join_reducible(set(ext.block.tables), post.filters)
        verdicts.append((ext.ext_id, verdict))
        (folded if verdict.proved else remaining).append(ext)
    if not folded:
        return query, verdicts

    tables: List[TableRef] = list(query.block.tables)
    conjuncts: List[Expr] = list(query.block.conjuncts)
    for ext in folded:
        tables.extend(ext.block.tables)
        conjuncts.extend(ext.block.conjuncts)
        for core_col, inner_col in ext.keys:
            conjuncts.append(Comparison(ComparisonOp.EQ, core_col, inner_col))
    # Post-join filters re-enter with the WHERE conjuncts: the assembler
    # keeps post-join only those touching a surviving outer extension, and
    # with none left the whole query is a plain SPJG block again.
    simplified = assemble_query(
        query.name,
        tables,
        conjuncts + list(post.filters),
        post.output,
        post.group_keys,
        post.aggregates,
        post.having,
        [
            Correlation(e.ext_id, e.kind, e.block.tables, e.block.conjuncts, e.keys)
            for e in remaining
        ],
        query.subqueries,
        query.order_by,
    )
    return simplified, verdicts
