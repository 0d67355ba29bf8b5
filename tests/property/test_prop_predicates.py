"""Property-based tests for the predicate/equivalence-class algebra that
join compatibility and CSE construction build on: the expression-space
class intersection of Def 4.1 (the oracle in ``tests/cse_reference.py``)
and the column-id partition meet the optimizer runs."""

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from repro.cse.compatibility import meet
from repro.expr.expressions import (
    ColumnRef,
    Comparison,
    ComparisonOp,
    Literal,
    TableRef,
)
from repro.expr.predicates import EquivalenceClasses
from repro.types import DataType

from ..cse_reference import intersect, weaken_by_ids, weakened_covering
from ..match_reference import range_implies

T = TableRef("t", 1)
COLUMNS = [ColumnRef(T, name, DataType.INT) for name in "abcdef"]

pairs = st.tuples(
    st.sampled_from(COLUMNS), st.sampled_from(COLUMNS)
).filter(lambda p: p[0] != p[1])


def classes_from(pair_list):
    classes = EquivalenceClasses()
    for left, right in pair_list:
        classes.add_equality(left, right)
    return classes


def partition_of(classes):
    """The classes as column-id masks (column id = index in COLUMNS)."""
    return tuple(
        sum(1 << COLUMNS.index(member) for member in cls)
        for cls in classes.classes()
    )


class TestEquivalenceClassProperties:
    @given(st.lists(pairs, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_classes_partition(self, pair_list):
        classes = classes_from(pair_list)
        members = [m for cls in classes.classes() for m in cls]
        assert len(members) == len(set(members))  # disjoint classes

    @given(st.lists(pairs, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_transitive_closure(self, pair_list):
        classes = classes_from(pair_list)
        # same_class is an equivalence relation: symmetric + transitive.
        for a in COLUMNS:
            for b in COLUMNS:
                assert classes.same_class(a, b) == classes.same_class(b, a)

    @given(st.lists(pairs, max_size=6), st.lists(pairs, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_intersection_soundness(self, first, second):
        """Members equal in the intersection are equal in both inputs."""
        c1 = classes_from(first)
        c2 = classes_from(second)
        inter = intersect(c1, c2)
        for cls in inter.classes():
            members = sorted(cls, key=repr)
            for a, b in zip(members, members[1:]):
                assert c1.same_class(a, b)
                assert c2.same_class(a, b)

    @given(st.lists(pairs, max_size=6), st.lists(pairs, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_intersection_commutative(self, first, second):
        c1 = classes_from(first)
        c2 = classes_from(second)
        left = {frozenset(c) for c in intersect(c1, c2).classes()}
        right = {frozenset(c) for c in intersect(c2, c1).classes()}
        assert left == right

    @given(st.lists(pairs, max_size=6), st.lists(pairs, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_meet_is_the_intersection(self, first, second):
        """The id-space meet yields the intersection's classes, in the
        intersection's class order."""
        c1 = classes_from(first)
        c2 = classes_from(second)
        assert meet(partition_of(c1), partition_of(c2)) == partition_of(
            intersect(c1, c2)
        )

    @given(st.lists(pairs, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_intersection_idempotent(self, pair_list):
        classes = classes_from(pair_list)
        self_inter = intersect(classes, classes)
        assert {frozenset(c) for c in self_inter.classes()} == {
            frozenset(c) for c in classes.classes()
        }


OPS = [
    ComparisonOp.LT, ComparisonOp.LE, ComparisonOp.GT,
    ComparisonOp.GE, ComparisonOp.EQ,
]


def satisfies(value, op, bound):
    if op is ComparisonOp.LT:
        return value < bound
    if op is ComparisonOp.LE:
        return value <= bound
    if op is ComparisonOp.GT:
        return value > bound
    if op is ComparisonOp.GE:
        return value >= bound
    if op is ComparisonOp.EQ:
        return value == bound
    raise AssertionError(op)


class TestRangeImplication:
    @given(
        st.sampled_from(OPS),
        st.integers(-50, 50),
        st.sampled_from(OPS),
        st.integers(-50, 50),
        st.integers(-60, 60),
    )
    @settings(max_examples=300, deadline=None)
    def test_implication_is_sound(self, op1, bound1, op2, bound2, value):
        """If range_implies says A ⇒ B then every value satisfying A
        satisfies B."""
        column = COLUMNS[0]
        specific = Comparison(op1, column, Literal(bound1))
        general = Comparison(op2, column, Literal(bound2))
        if range_implies(specific, general):
            if satisfies(value, op1, bound1):
                assert satisfies(value, op2, bound2)


class TestCoveringSoundness:
    @given(
        st.lists(
            st.tuples(st.integers(-20, 20), st.integers(-20, 20)).map(
                lambda p: (min(p), max(p) + 1)
            ),
            min_size=2,
            max_size=5,
        ),
        st.integers(-25, 25),
    )
    @settings(max_examples=200, deadline=None)
    def test_hull_contains_every_consumer(self, ranges, value):
        """Any value satisfying some consumer's range satisfies every
        covering conjunct (the CSE is a superset of each consumer)."""
        column = COLUMNS[0]
        consumer_conjuncts = [
            [
                Comparison(ComparisonOp.GT, column, Literal(low)),
                Comparison(ComparisonOp.LT, column, Literal(high)),
            ]
            for low, high in ranges
        ]
        covering, residuals = weaken_by_ids(consumer_conjuncts)
        assert (covering, residuals) == weakened_covering(consumer_conjuncts)
        for conjuncts in consumer_conjuncts:
            row_satisfies = all(
                satisfies(value, c.op, c.right.value) for c in conjuncts
            )
            if row_satisfies:
                for cover in covering:
                    assert satisfies(value, cover.op, cover.right.value)

    @given(
        st.lists(
            st.tuples(st.integers(-20, 20), st.integers(-20, 20)).map(
                lambda p: (min(p), max(p) + 1)
            ),
            min_size=2,
            max_size=5,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_residuals_restore_exactness(self, ranges):
        """covering ∧ residual_i ≡ consumer_i's original predicate."""
        column = COLUMNS[0]
        consumer_conjuncts = [
            [
                Comparison(ComparisonOp.GT, column, Literal(low)),
                Comparison(ComparisonOp.LT, column, Literal(high)),
            ]
            for low, high in ranges
        ]
        covering, residuals = weaken_by_ids(consumer_conjuncts)
        for original, residual in zip(consumer_conjuncts, residuals):
            for value in range(-25, 26):
                orig = all(
                    satisfies(value, c.op, c.right.value) for c in original
                )
                rebuilt = all(
                    satisfies(value, c.op, c.right.value) for c in covering
                ) and all(
                    satisfies(value, c.op, c.right.value) for c in residual
                )
                assert orig == rebuilt
