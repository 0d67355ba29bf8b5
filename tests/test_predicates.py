"""Unit tests for predicate utilities and equivalence classes.

Covers Example 2 from the paper (join compatibility via equivalence-class
intersection is tested in test_compatibility; here we verify the class
algebra itself).
"""

import pytest

from repro.expr.expressions import (
    And,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Literal,
    Or,
    TableRef,
    eq,
    ge,
    gt,
    le,
    lt,
)
from repro.expr.predicates import (
    EquivalenceClasses,
    always_true,
    column_equalities,
    conjoin,
    conjuncts_imply,
    disjoin,
    implied_by_equalities,
    non_equality_conjuncts,
    range_implies,
    simplify_conjuncts,
    split_conjuncts,
)
from repro.types import DataType

R = TableRef("R", 1)
S = TableRef("S", 2)


def rcol(name):
    return ColumnRef(R, name, DataType.INT)


def scol(name):
    return ColumnRef(S, name, DataType.INT)


class TestConjuncts:
    def test_split_flat(self):
        a = eq(rcol("a"), scol("d"))
        b = gt(rcol("b"), Literal(5))
        assert split_conjuncts(And((a, b))) == [a, b]

    def test_split_nested(self):
        a, b, c = eq(rcol("a"), scol("d")), gt(rcol("b"), Literal(5)), lt(rcol("c"), Literal(9))
        assert split_conjuncts(And((a, And((b, c))))) == [a, b, c]

    def test_split_none(self):
        assert split_conjuncts(None) == []

    def test_split_single(self):
        a = eq(rcol("a"), scol("d"))
        assert split_conjuncts(a) == [a]

    def test_conjoin_roundtrip(self):
        a, b = eq(rcol("a"), scol("d")), gt(rcol("b"), Literal(5))
        assert split_conjuncts(conjoin([a, b])) == [a, b]
        assert conjoin([]) is None
        assert conjoin([a]) is a

    def test_disjoin(self):
        a, b = gt(rcol("a"), Literal(1)), gt(rcol("a"), Literal(2))
        assert disjoin([a, b]) == Or((a, b))
        assert disjoin([a, a]) is a
        assert disjoin([a, None]) is None

    def test_partition_equalities(self):
        equality = eq(rcol("a"), scol("d"))
        filter_ = gt(rcol("b"), Literal(5))
        assert column_equalities([equality, filter_]) == [equality]
        assert non_equality_conjuncts([equality, filter_]) == [filter_]

    def test_always_true(self):
        assert always_true(None)
        assert not always_true(gt(rcol("a"), Literal(1)))


class TestEquivalenceClasses:
    def test_transitivity(self):
        classes = EquivalenceClasses()
        classes.add_equality(rcol("a"), scol("d"))
        classes.add_equality(scol("d"), scol("e"))
        assert classes.same_class(rcol("a"), scol("e"))
        assert len(classes.classes()) == 1
        assert classes.class_of(rcol("a")) == frozenset(
            [rcol("a"), scol("d"), scol("e")]
        )

    def test_cached_classes_refresh_after_add_equality(self):
        classes = EquivalenceClasses()
        classes.add_equality(rcol("a"), scol("d"))
        assert classes.classes() is classes.classes()  # cached
        assert len(classes) == 1
        classes.add_equality(rcol("b"), scol("e"))
        classes.add(rcol("c"))
        assert len(classes) == 2
        classes.add_equality(scol("d"), scol("e"))
        assert classes.classes() == [
            frozenset([rcol("a"), rcol("b"), scol("d"), scol("e")])
        ]
        assert classes.class_of(rcol("b")) == classes.classes()[0]
        assert classes.class_of(rcol("c")) == frozenset([rcol("c")])
        assert classes.class_of(rcol("zz")) == frozenset([rcol("zz")])
        assert classes.representative(scol("e")) == rcol("a")

    def test_from_conjuncts_ignores_filters(self):
        conjuncts = [eq(rcol("a"), scol("d")), gt(rcol("b"), Literal(5))]
        classes = EquivalenceClasses.from_conjuncts(conjuncts)
        assert len(classes.classes()) == 1

    def test_intersection_example2(self):
        """Paper Example 2: {{R.a,S.d},{R.b,S.e}} ∩ {{R.a,S.d},{R.c,S.f}}
        = {{R.a,S.d}}."""
        first = EquivalenceClasses.from_conjuncts(
            [eq(rcol("a"), scol("d")), eq(rcol("b"), scol("e"))]
        )
        second = EquivalenceClasses.from_conjuncts(
            [eq(rcol("a"), scol("d")), eq(rcol("c"), scol("f"))]
        )
        intersection = first.intersect(second)
        assert intersection.classes() == [frozenset([rcol("a"), scol("d")])]

    def test_intersection_splits_merged_class(self):
        # {a,b,c} ∩ ({a,b}, {c,d}) = {a,b}
        first = EquivalenceClasses()
        first.add_equality(rcol("a"), rcol("b"))
        first.add_equality(rcol("b"), rcol("c"))
        second = EquivalenceClasses()
        second.add_equality(rcol("a"), rcol("b"))
        second.add_equality(rcol("c"), rcol("d"))
        inter = second.intersect(first)
        assert inter.classes() == [frozenset([rcol("a"), rcol("b")])]

    def test_empty_intersection(self):
        first = EquivalenceClasses.from_conjuncts([eq(rcol("a"), scol("d"))])
        second = EquivalenceClasses.from_conjuncts([eq(rcol("b"), scol("e"))])
        assert len(first.intersect(second)) == 0

    def test_equality_conjuncts_regenerate(self):
        classes = EquivalenceClasses()
        classes.add_equality(rcol("a"), scol("d"))
        classes.add_equality(scol("d"), scol("e"))
        regenerated = EquivalenceClasses.from_conjuncts(
            classes.equality_conjuncts()
        )
        assert regenerated.same_class(rcol("a"), scol("e"))

    def test_mapped(self):
        classes = EquivalenceClasses()
        classes.add_equality(rcol("a"), scol("d"))
        mapped = classes.mapped(lambda c: (c.table_ref.table, c.column))
        assert mapped.same_class(("R", "a"), ("S", "d"))

    def test_representative_deterministic(self):
        classes = EquivalenceClasses()
        classes.add_equality(rcol("a"), scol("d"))
        assert classes.representative(scol("d")) == classes.representative(rcol("a"))


class TestImplication:
    def test_implied_equality(self):
        classes = EquivalenceClasses()
        classes.add_equality(rcol("a"), scol("d"))
        classes.add_equality(scol("d"), scol("e"))
        assert implied_by_equalities(eq(rcol("a"), scol("e")), classes)
        assert not implied_by_equalities(eq(rcol("a"), scol("f")), classes)
        assert not implied_by_equalities(gt(rcol("a"), Literal(1)), classes)

    def test_simplify(self):
        classes = EquivalenceClasses()
        classes.add_equality(rcol("a"), scol("d"))
        kept = simplify_conjuncts(
            [eq(rcol("a"), scol("d")), gt(rcol("b"), Literal(5))], classes
        )
        assert kept == [gt(rcol("b"), Literal(5))]

    @pytest.mark.parametrize(
        "specific, general, expected",
        [
            (lt(rcol("a"), Literal(5)), lt(rcol("a"), Literal(10)), True),
            (lt(rcol("a"), Literal(10)), lt(rcol("a"), Literal(5)), False),
            (lt(rcol("a"), Literal(5)), le(rcol("a"), Literal(5)), True),
            (le(rcol("a"), Literal(5)), lt(rcol("a"), Literal(5)), False),
            (gt(rcol("a"), Literal(5)), gt(rcol("a"), Literal(1)), True),
            (ge(rcol("a"), Literal(5)), gt(rcol("a"), Literal(5)), False),
            (gt(rcol("a"), Literal(5)), ge(rcol("a"), Literal(5)), True),
            (eq(rcol("a"), Literal(5)), lt(rcol("a"), Literal(10)), True),
            (eq(rcol("a"), Literal(5)), gt(rcol("a"), Literal(10)), False),
            (eq(rcol("a"), Literal(5)), eq(rcol("a"), Literal(5)), True),
            # different columns never imply
            (lt(rcol("a"), Literal(5)), lt(rcol("b"), Literal(10)), False),
            # mixed direction never implies
            (lt(rcol("a"), Literal(5)), gt(rcol("a"), Literal(1)), False),
        ],
    )
    def test_range_implies(self, specific, general, expected):
        assert range_implies(specific, general) is expected

    def test_conjuncts_imply(self):
        have = [lt(rcol("a"), Literal(5)), gt(rcol("b"), Literal(10))]
        assert conjuncts_imply(have, [lt(rcol("a"), Literal(7))])
        assert conjuncts_imply(have, [gt(rcol("b"), Literal(10))])
        assert not conjuncts_imply(have, [gt(rcol("b"), Literal(11))])

    def test_conjuncts_imply_with_classes(self):
        classes = EquivalenceClasses()
        classes.add_equality(rcol("a"), scol("d"))
        assert conjuncts_imply([], [eq(rcol("a"), scol("d"))], classes)
