"""Unit tests for expression trees (repro.expr.expressions)."""

import pytest

from repro.expr.expressions import (
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
    eq,
    gt,
    lt,
)
from repro.types import DataType


def tref(name="t", instance=1, **kw):
    return TableRef(table=name, instance=instance, **kw)


def col(name, table=None, dtype=DataType.INT):
    return ColumnRef(table or tref(), name, dtype)


class TestTableRef:
    def test_identity_by_instance(self):
        assert tref("t", 1) == tref("t", 1)
        assert tref("t", 1) != tref("t", 2)

    def test_signature_name(self):
        assert tref("customer").signature_name == "customer"
        delta = TableRef("customer", 9, is_delta=True, storage_name="__d1")
        assert delta.signature_name == "delta(customer)"
        assert delta.physical_name == "__d1"

    def test_display_name_prefers_alias(self):
        assert TableRef("customer", 1, alias="c").display_name == "c"
        assert TableRef("customer", 1).display_name == "customer"

    def test_ordering(self):
        assert sorted([tref("b", 1), tref("a", 2)])[0].table == "a"


class TestColumnRef:
    def test_equality_ignores_dtype(self):
        a = col("x", dtype=DataType.INT)
        b = col("x", dtype=DataType.FLOAT)
        assert a == b and hash(a) == hash(b)

    def test_columns_collection(self):
        c = col("x")
        assert c.columns() == frozenset([c])
        assert c.tables() == frozenset([tref()])

    def test_base_key(self):
        assert col("x").base_key == ("t", "x")


class TestLiteral:
    def test_type_inference(self):
        assert Literal(1).data_type is DataType.INT
        assert Literal(1.5).data_type is DataType.FLOAT
        assert Literal("s").data_type is DataType.STRING

    def test_explicit_type_preserved(self):
        assert Literal(10, DataType.DATE).data_type is DataType.DATE

    def test_no_columns(self):
        assert Literal(1).columns() == frozenset()


class TestComparison:
    def test_normalized_literal_to_right(self):
        c = Comparison(ComparisonOp.LT, Literal(5), col("x"))
        n = c.normalized()
        assert isinstance(n.left, ColumnRef)
        assert n.op is ComparisonOp.GT

    def test_normalized_column_order(self):
        a = col("a")
        b = col("b")
        assert Comparison(ComparisonOp.EQ, b, a).normalized().left == a

    def test_is_column_equality(self):
        assert eq(col("a"), col("b")).is_column_equality
        assert not eq(col("a"), Literal(1)).is_column_equality
        assert not lt(col("a"), col("b")).is_column_equality

    def test_flip_negate(self):
        assert ComparisonOp.LE.flipped() is ComparisonOp.GE
        assert ComparisonOp.LT.negated() is ComparisonOp.GE
        assert ComparisonOp.EQ.flipped() is ComparisonOp.EQ

    def test_rebuild_by_substitution(self):
        c = eq(col("a"), col("b"))
        replaced = c.substitute({col("a"): col("z")})
        assert replaced == eq(col("z"), col("b"))


class TestBooleanConnectives:
    def test_and_flattens(self):
        a, b, c = (eq(col(n), Literal(1)) for n in "abc")
        nested = And((a, And((b, c))))
        assert nested.terms == (a, b, c)

    def test_or_flattens(self):
        a, b, c = (eq(col(n), Literal(1)) for n in "abc")
        nested = Or((Or((a, b)), c))
        assert nested.terms == (a, b, c)

    def test_not(self):
        inner = gt(col("a"), Literal(0))
        n = Not(inner)
        assert n.children() == (inner,)
        assert n.data_type is DataType.BOOL

    def test_substitution_through_connectives(self):
        a = eq(col("a"), Literal(1))
        b = eq(col("b"), Literal(2))
        combined = And((a, Or((b, a))))
        replaced = combined.substitute({col("a"): col("q")})
        assert col("q") in replaced.columns()
        assert col("a") not in replaced.columns()


class TestArithmetic:
    def test_div_is_float(self):
        expr = Arithmetic(ArithmeticOp.DIV, Literal(1), Literal(2))
        assert expr.data_type is DataType.FLOAT

    def test_int_plus_int(self):
        expr = Arithmetic(ArithmeticOp.ADD, Literal(1), Literal(2))
        assert expr.data_type is DataType.INT

    def test_mixed_promotes(self):
        expr = Arithmetic(ArithmeticOp.MUL, Literal(1), Literal(2.0))
        assert expr.data_type is DataType.FLOAT


class TestAggExpr:
    def test_count_star(self):
        agg = AggExpr(AggFunc.COUNT, None)
        assert agg.data_type is DataType.INT
        assert agg.children() == ()

    def test_sum_inherits_arg_type(self):
        assert AggExpr(AggFunc.SUM, Literal(1.0)).data_type is DataType.FLOAT
        assert AggExpr(AggFunc.SUM, Literal(1)).data_type is DataType.INT

    def test_min_max(self):
        assert AggExpr(AggFunc.MIN, col("x")).data_type is DataType.INT

    def test_contains_aggregate(self):
        agg = AggExpr(AggFunc.SUM, col("x"))
        assert agg.contains_aggregate()
        assert Arithmetic(ArithmeticOp.DIV, agg, Literal(2)).contains_aggregate()
        assert not col("x").contains_aggregate()

    def test_hashable_and_equal(self):
        a = AggExpr(AggFunc.SUM, col("x"))
        b = AggExpr(AggFunc.SUM, col("x"))
        assert a == b and hash(a) == hash(b)

    def test_walk(self):
        agg = AggExpr(AggFunc.SUM, Arithmetic(ArithmeticOp.ADD, col("x"), col("y")))
        nodes = list(agg.walk())
        assert agg in nodes and col("x") in nodes and col("y") in nodes


def _one_of_each():
    """One node of every cached type, built from scratch on each call."""
    x, y = col("x"), col("y")
    cmp = Comparison(ComparisonOp.LT, x, Literal(5))
    return [
        tref(), x, Literal("a"), cmp, And((cmp, eq(x, y))), Or((cmp, eq(x, y))),
        Not(cmp), Arithmetic(ArithmeticOp.ADD, x, y), AggExpr(AggFunc.SUM, x),
    ]


class TestStructureCache:
    """The per-instance hash / columns() caches never leak into identity."""

    def test_independent_equal_nodes_collide(self):
        for first, second in zip(_one_of_each(), _one_of_each()):
            assert first is not second and first == second
            assert hash(first) == hash(second) == hash(first)
            assert len({first, second}) == 1 and {first: 1}[second] == 1

    def test_caches_invisible_to_identity(self):
        import dataclasses

        from repro.expr.expressions import canon_key

        for node, fresh in zip(_one_of_each(), _one_of_each()):
            before = (repr(node), canon_key(fresh))
            hash(node)
            if isinstance(node, Expr):
                node.columns()
            cached = [name for name in vars(node) if name.endswith("_cache")]
            assert "_hash_cache" in cached
            assert (repr(node), canon_key(node)) == before and node == fresh
            names = {f.name for f in dataclasses.fields(node)}
            assert not names & set(cached)

    def test_columns_cached_and_correct(self):
        node = And((lt(col("x"), Literal(5)), eq(col("x"), col("y"))))
        assert node.columns() == frozenset([col("x"), col("y")])
        assert node.columns() is node.columns()
        assert Literal(1).columns() == frozenset()

    def test_replace_and_substitute_get_fresh_hashes(self):
        import dataclasses

        node = lt(col("x"), Literal(5))
        hash(node), node.columns()
        replaced = dataclasses.replace(node, right=Literal(6))
        substituted = node.substitute({col("x"): col("z")})
        for derived, expected in (
            (replaced, lt(col("x"), Literal(6))),
            (substituted, lt(col("z"), Literal(5))),
        ):
            assert "_hash_cache" not in vars(derived)
            assert derived == expected and hash(derived) == hash(expected)
            assert hash(derived) != hash(node)
        assert substituted.columns() == frozenset([col("z")])

    def test_pickle_drops_caches(self):
        import copy
        import pickle

        for node in _one_of_each():
            hash(node)
            # A hash from another process (str hashes are salted) must not
            # survive the round trip.
            vars(node)["_hash_cache"] = -1
            for clone in (pickle.loads(pickle.dumps(node)), copy.copy(node)):
                assert not [n for n in vars(clone) if n.endswith("_cache")]
                assert clone == node and hash(clone) != -1


class TestCanonKey:
    """The cached canonicalization sort key (memo hot-path fix)."""

    def test_key_is_repr_and_cached(self):
        from repro.expr.expressions import canon_key

        c = col("x")
        assert canon_key(c) == repr(c)
        assert c._canon_key_cache == repr(c)
        assert canon_key(c) is c._canon_key_cache

    def test_repr_not_reinvoked_across_canonicalizations(self, monkeypatch):
        """Regression: repeated ``canon_sorted`` passes over the same
        expression objects must call ``__repr__`` once per object total —
        not once per pass, and a fortiori not O(n log n) per sort."""
        from repro.expr.expressions import canon_sorted

        calls = {"n": 0}
        original = ColumnRef.__repr__

        def counting_repr(self):
            calls["n"] += 1
            return original(self)

        monkeypatch.setattr(ColumnRef, "__repr__", counting_repr)
        cols = [col(f"c{i:03d}") for i in range(64)]
        first = canon_sorted(cols)
        for _ in range(9):
            assert canon_sorted(cols) == first
        assert calls["n"] == len(cols)

    def test_sort_order_matches_plain_repr_sort(self):
        from repro.expr.expressions import canon_sorted

        cols = [col(name) for name in ("b", "a", "z", "m", "a2")]
        assert canon_sorted(cols) == sorted(cols, key=repr)

    def test_uncacheable_objects_fall_back(self):
        from repro.expr.expressions import canon_key

        class Slotted:
            __slots__ = ()

            def __repr__(self):
                return "slotted"

        assert canon_key(Slotted()) == "slotted"
