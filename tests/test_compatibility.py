"""Unit tests for join compatibility (paper §4.1, Definition 4.1).

Uses hand-built memos over TPC-H blocks plus the paper's Example 2.
"""

import pytest

from repro.cse.compatibility import (
    ConsumerProfiles,
    compatibility_groups,
    join_compatible,
    remap_expr,
    slot_assignment,
    slot_tables,
)
from repro.expr.expressions import ColumnRef, TableRef, eq
from repro.expr.predicates import EquivalenceClasses
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.memo import Memo
from repro.sql.binder import bind_batch
from repro.types import DataType

from .cse_reference import graph_connected, intersect

R1 = TableRef("R", 1)
S1 = TableRef("S", 2)
R2 = TableRef("R", 3)
S2 = TableRef("S", 4)


def col(table, name):
    return ColumnRef(table, name, DataType.INT)


def classes_of(*equalities):
    return EquivalenceClasses.from_conjuncts(list(equalities))


class TestSlotMapping:
    def test_assignment_by_name_and_occurrence(self):
        assignment = slot_assignment([S1, R1])
        assert assignment[R1] == ("R", 0)
        assert assignment[S1] == ("S", 0)

    def test_self_join_occurrences(self):
        a1, a2 = TableRef("A", 1), TableRef("A", 2)
        assignment = slot_assignment([a2, a1])
        assert sorted(assignment.values()) == [("A", 0), ("A", 1)]

    def test_slot_templates_are_instance_free(self):
        first, second = slot_tables([S1, R1]), slot_tables([R2, S2])
        # Different instances of one signature land on the same templates,
        # numbered by slot order.
        assert first[R1] == second[R2] and first[S1] == second[S2]
        assert [first[R1].instance, first[S1].instance] == [0, 1]
        assert remap_expr(eq(col(R1, "a"), col(S1, "d")), first) == remap_expr(
            eq(col(R2, "a"), col(S2, "d")), second
        )

    def test_self_join_templates_distinct(self):
        a1, a2 = TableRef("A", 1), TableRef("A", 2)
        templates = slot_tables([a2, a1])
        assert templates[a1] != templates[a2]
        assert templates[a1].instance < templates[a2].instance


class TestExample2:
    """Paper Example 2, verbatim."""

    @staticmethod
    def _slot_classes(r, s, *pairs):
        """The classes of ``R ⋈(pairs) S`` over instances r, s, in slot
        space."""
        templates = slot_tables([r, s])
        return tuple(templates.values()), classes_of(*(
            remap_expr(eq(col(r, left), col(s, right)), templates)
            for left, right in pairs
        ))

    def test_compatible_pair(self):
        # R ⋈(R.a=S.d ∧ R.b=S.e) S  vs  R ⋈(R.a=S.d ∧ R.c=S.f) S
        slots, expr1 = self._slot_classes(R1, S1, ("a", "d"), ("b", "e"))
        _, expr2 = self._slot_classes(R2, S2, ("a", "d"), ("c", "f"))
        intersection = intersect(expr1, expr2)
        assert graph_connected(slots, intersection)
        # Intersection is exactly {{R.a, S.d}}.
        assert len(intersection.classes()) == 1

    def test_incompatible_pair(self):
        slots, expr1 = self._slot_classes(R1, S1, ("a", "d"), ("b", "e"))
        _, expr3 = self._slot_classes(R2, S2, ("c", "f"))  # c=f only
        intersection = intersect(expr1, expr3)
        assert not graph_connected(slots, intersection)
        assert len(intersection.classes()) == 0


class TestOnRealBlocks:
    @pytest.fixture()
    def two_query_memo(self, tiny_db):
        sql = (
            "select c_nationkey, sum(l_extendedprice) as v "
            "from customer, orders, lineitem "
            "where c_custkey = o_custkey and o_orderkey = l_orderkey "
            "group by c_nationkey;"
            "select c_mktsegment, sum(l_quantity) as v "
            "from customer, orders, lineitem "
            "where c_custkey = o_custkey and o_orderkey = l_orderkey "
            "group by c_mktsegment"
        )
        memo = Memo(CardinalityEstimator(tiny_db))
        batch = bind_batch(tiny_db.catalog, sql)
        tops = [memo.build_block(q.block, q.name) for q in batch.queries]
        memo.build_root(tops)
        return memo, tops

    def test_same_joins_compatible(self, two_query_memo):
        memo, tops = two_query_memo
        profiles = ConsumerProfiles(memo.block_infos)
        assert join_compatible(profiles(tops[0]), profiles(tops[1]))

    def test_different_table_sets_incompatible(self, two_query_memo):
        memo, tops = two_query_memo
        smaller = [
            g for g in memo.groups
            if g.kind == "join" and len(g.items) == 2
            and g.block.name == tops[0].block.name
        ][0]
        profiles = ConsumerProfiles(memo.block_infos)
        assert not join_compatible(profiles(tops[0]), profiles(smaller))

    def test_compatibility_groups_partition(self, two_query_memo):
        memo, tops = two_query_memo
        clusters = compatibility_groups(
            list(tops), ConsumerProfiles(memo.block_infos)
        )
        assert len(clusters) == 1 and len(clusters[0]) == 2

    def test_overlapping_instances_not_clustered(self, two_query_memo):
        memo, tops = two_query_memo
        # A group cannot share a CSE with itself (same instances).
        clusters = compatibility_groups(
            [tops[0], tops[0]], ConsumerProfiles(memo.block_infos)
        )
        assert clusters == []
