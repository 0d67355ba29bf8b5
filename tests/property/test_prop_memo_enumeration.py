"""Differential suite: the memo's mask-space enumeration against a
brute-force frozenset reference.

The memo tests connectivity, subsets and partitions on ``int`` masks (one
bit per table instance of a block). The invariant checked here, on random
join graphs of 2-9 instances — self-joins of one table, components that
only the synthetic bridging edges connect, non-equality join conjuncts,
and pre-aggregated ``AggItem`` inputs: **the mask code yields the same
connected subsets in the same order, and every join group the same
partition list, as a generate-and-test enumeration over item frozensets.**
The reference below is that enumeration, kept only here.
"""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.catalog.tpch import build_tpch_database
from repro.expr.expressions import (
    AggExpr,
    AggFunc,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Literal,
    TableRef,
    canon_sorted,
)
from repro.expr.predicates import non_equality_conjuncts
from repro.logical.blocks import QueryBlock
from repro.optimizer import memo as memo_module
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.memo import AggItem, BlockInfo, JoinExpr, Memo

DB = build_tpch_database(scale_factor=0.0005)
ESTIMATOR = CardinalityEstimator(DB)

#: two integer columns per table, enough for equalities and ranges.
COLUMNS = {
    "customer": ("c_custkey", "c_nationkey"),
    "orders": ("o_orderkey", "o_custkey"),
    "lineitem": ("l_orderkey", "l_partkey"),
    "nation": ("n_nationkey", "n_regionkey"),
    "part": ("p_partkey", "p_size"),
}


# -- the frozenset reference ------------------------------------------------------


def reference_edges(block):
    """Table pairs joined by a class or a non-equality conjunct, plus one
    bridge from each component's first table to the next component's."""
    edges = set()
    spans = [{m.table_ref for m in cls} for cls in block.equivalence_classes().classes()]
    spans += [c.tables() for c in non_equality_conjuncts(block.conjuncts)]
    for tables in spans:
        edges.update(frozenset(p) for p in itertools.combinations(sorted(tables), 2))
    seen, firsts = set(), []
    for table in sorted(block.tables):
        if table in seen:
            continue
        firsts.append(table)
        seen.add(table)
        frontier = [table]
        while frontier:
            current = frontier.pop()
            for edge in edges:
                if current in edge and not edge <= seen:
                    (other,) = edge - {current}
                    seen.add(other)
                    frontier.append(other)
    edges.update(frozenset(p) for p in zip(firsts, firsts[1:]))
    return edges


def item_tables(item):
    return frozenset([item]) if isinstance(item, TableRef) else item.source


def is_connected(items, edges):
    items = list(items)
    seen, frontier = {items[0]}, [items[0]]
    while frontier:
        current = frontier.pop()
        for other in items:
            if other not in seen and any(
                frozenset((a, b)) in edges
                for a in item_tables(current) for b in item_tables(other)
            ):
                seen.add(other)
                frontier.append(other)
    return len(seen) == len(items)


def connected_subsets(items, edges):
    """Every connected subset, by size, ties in subset-index order."""
    subsets = [
        tuple(item for i, item in enumerate(items) if mask >> i & 1)
        for mask in range(1, 2 ** len(items))
    ]
    return sorted(
        (s for s in subsets if is_connected(s, edges)), key=len
    )


def reference_partitions(group, edges, join_groups, agg_groups):
    """The (left items, right items) of every partition of ``group`` into two
    connected halves that both have a group, anchored on its first item in
    canonical order."""
    ordered = canon_sorted(group.items)
    result = []
    for mask in range(2 ** (len(ordered) - 1)):
        left = frozenset(
            [ordered[0]] + [it for i, it in enumerate(ordered[1:]) if mask >> i & 1]
        )
        right = frozenset(ordered) - left
        if not right or not is_connected(left, edges) or not is_connected(right, edges):
            continue
        sides = [
            agg_groups.get(next(iter(side)))
            if len(side) == 1 and isinstance(next(iter(side)), AggItem)
            else join_groups.get(side)
            for side in (left, right)
        ]
        if None not in sides:
            result.append((left, right))
    return result


# -- random join graphs -------------------------------------------------------------


@st.composite
def join_graph_block(draw):
    count = draw(st.integers(2, 9))
    names = draw(st.lists(st.sampled_from(sorted(COLUMNS)), min_size=count, max_size=count))
    # Distinct instance numbers from 1..30, so bit order (instance) and
    # canonical order (repr: "orders#10" < "orders#9") disagree.
    instances = draw(
        st.lists(st.integers(1, 30), min_size=count, max_size=count, unique=True)
    )
    tables = [TableRef(name, inst) for name, inst in zip(names, instances)]

    def column(table, index):
        return ColumnRef(table, COLUMNS[table.table][index])

    components = draw(st.integers(1, 3))
    component = [draw(st.integers(0, components - 1)) for _ in tables]
    conjuncts = []
    for i, table in enumerate(tables):
        peers = [j for j in range(i) if component[j] == component[i]]
        if peers:  # a spanning tree per component: equality or range join
            other = tables[draw(st.sampled_from(peers))]
            op = draw(st.sampled_from([ComparisonOp.EQ, ComparisonOp.EQ, ComparisonOp.LT]))
            conjuncts.append(Comparison(
                op, column(table, draw(st.integers(0, 1))),
                column(other, draw(st.integers(0, 1))),
            ))
        if draw(st.booleans()):
            conjuncts.append(Comparison(
                ComparisonOp.LT, column(table, 1), Literal(draw(st.integers(1, 50)))
            ))
    for _ in range(draw(st.integers(0, 3))):  # extra edges, maybe cross-component
        a, b = draw(st.lists(st.sampled_from(tables), min_size=2, max_size=2, unique=True))
        conjuncts.append(Comparison(ComparisonOp.EQ, column(a, 0), column(b, 0)))
    group_keys, aggregates = (), ()
    if count <= 6 and draw(st.booleans()):  # pre-aggregation: AggItem mixes
        group_keys = (column(draw(st.sampled_from(tables)), 1),)
        aggregates = (
            AggExpr(AggFunc.SUM, column(draw(st.sampled_from(tables)), 0)),
            AggExpr(AggFunc.COUNT, None),
        )
    return QueryBlock("B", tuple(tables), tuple(conjuncts), (), group_keys, aggregates)


SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@SETTINGS
@given(block=join_graph_block(), data=st.data())
def test_connected_subsets_match_reference(block, data):
    info = BlockInfo(block, ESTIMATOR)
    edges = reference_edges(block)
    base = tuple(sorted(block.tables))
    expected = connected_subsets(base, edges)
    assert [info.tables_of(u) for u in info.connected_unions(info.bits)] == [
        frozenset(s) for s in expected
    ]
    # A pre-aggregated item over a connected proper subset, joined to the rest.
    proper = [s for s in expected if len(s) < len(base)]
    source = frozenset(data.draw(st.sampled_from(proper)))
    item = AggItem(source=source, keys=(), partials=())
    items = (item,) + tuple(t for t in base if t not in source)
    mask = info.mask_of(source)
    unions = info.connected_unions((mask,) + info.bits_of(info.full & ~mask))
    assert [info.tables_of(u) for u in unions] == [
        frozenset().union(*map(item_tables, s)) for s in connected_subsets(items, edges)
    ]


@SETTINGS
@given(block=join_graph_block())
def test_join_group_partitions_match_reference(block):
    with pytest.MonkeyPatch.context() as patch:
        # Explore every decomposable pre-aggregation, compressing or not.
        patch.setattr(memo_module, "PREAGG_MIN_COMPRESSION", float("inf"))
        memo = Memo(ESTIMATOR)
        memo.build_block(block, "B")
    edges = reference_edges(block)
    join_groups = {g.items: g for g in memo.groups if g.kind == "join"}
    agg_groups = {
        next(iter(g.items)): g for g in memo.groups
        if g.kind == "agg" and len(g.items) == 1
        and isinstance(next(iter(g.items)), AggItem)
    }
    assert len(join_groups) == sum(1 for g in memo.groups if g.kind == "join")
    for group in join_groups.values():
        assert group.tables == frozenset().union(*map(item_tables, group.items))
        got = [
            (e.left.items, e.right.items) for e in group.exprs
            if isinstance(e, JoinExpr)
        ]
        if len(group.items) == 1:
            assert got == []
            continue
        assert got == reference_partitions(group, edges, join_groups, agg_groups)
