"""Unit tests for the binder (SQL ASTs → bound query blocks)."""

import pytest

from repro.errors import BindError, UnsupportedFeatureError
from repro.expr.expressions import (
    AggExpr,
    AggFunc,
    Arithmetic,
    ColumnRef,
    Comparison,
    Literal,
)
from repro.logical.blocks import ScalarSubquery
from repro.sql.binder import bind_batch, bind_sql
from repro.types import DataType, date_to_int


@pytest.fixture()
def catalog(tiny_db):
    return tiny_db.catalog


class TestNameResolution:
    def test_qualified_columns(self, catalog):
        query = bind_sql(
            catalog,
            "select c.c_custkey from customer c where c.c_nationkey = 3",
        )
        out = query.block.output[0]
        assert out.name == "c_custkey"
        assert isinstance(out.expr, ColumnRef)
        assert out.expr.data_type is DataType.INT

    def test_unqualified_unique(self, catalog):
        query = bind_sql(
            catalog, "select c_name from customer, orders where c_custkey = o_custkey"
        )
        assert query.block.output[0].expr.column == "c_name"

    def test_unknown_column(self, catalog):
        with pytest.raises(BindError):
            bind_sql(catalog, "select nope from customer")

    def test_unknown_table(self, catalog):
        with pytest.raises(BindError):
            bind_sql(catalog, "select 1 from ghost_table")

    def test_duplicate_alias(self, catalog):
        with pytest.raises(BindError):
            bind_sql(catalog, "select 1 from customer c, orders c")

    def test_instances_unique_per_reference(self, catalog):
        batch = bind_batch(
            catalog,
            "select c_custkey from customer; select c_name from customer",
        )
        t1 = batch.queries[0].block.tables[0]
        t2 = batch.queries[1].block.tables[0]
        assert t1.table == t2.table == "customer"
        assert t1.instance != t2.instance

    def test_star_expansion(self, catalog):
        query = bind_sql(catalog, "select * from region")
        assert query.block.output_names() == [
            "r_regionkey", "r_name", "r_comment",
        ]

    def test_qualified_star(self, catalog):
        query = bind_sql(
            catalog,
            "select n.* from nation n, region r where n_regionkey = r_regionkey",
        )
        assert query.block.output_names() == [
            "n_nationkey", "n_name", "n_regionkey", "n_comment",
        ]


class TestPredicates:
    def test_date_coercion(self, catalog):
        query = bind_sql(
            catalog,
            "select o_orderkey from orders where o_orderdate < '1996-07-01'",
        )
        conjunct = query.block.conjuncts[0]
        assert isinstance(conjunct, Comparison)
        assert conjunct.right == Literal(date_to_int("1996-07-01"), DataType.DATE)
        assert conjunct.right.data_type is DataType.DATE

    def test_type_mismatch_rejected(self, catalog):
        with pytest.raises(BindError):
            bind_sql(catalog, "select 1 from customer where c_name > 5")

    def test_malformed_date_literal_is_a_bind_error(self, catalog):
        """A bad ISO string fails coercion, falls through to the
        comparability check, and surfaces as BindError — not as a raw
        ValueError from date parsing."""
        with pytest.raises(BindError, match="cannot compare"):
            bind_sql(
                catalog,
                "select o_orderkey from orders "
                "where o_orderdate < 'not-a-date'",
            )

    def test_unexpected_coercion_failure_propagates(
        self, catalog, monkeypatch
    ):
        """Only the expected conversion errors are swallowed during date
        coercion; a genuine defect (here an injected KeyError) must
        propagate instead of being masked as a type error."""
        from repro.sql import binder as binder_module

        def broken(value):
            raise KeyError("injected defect in date conversion")

        monkeypatch.setattr(binder_module, "date_to_int", broken)
        with pytest.raises(KeyError, match="injected defect"):
            bind_sql(
                catalog,
                "select o_orderkey from orders "
                "where o_orderdate < '1996-07-01'",
            )

    def test_between_expansion(self, catalog):
        query = bind_sql(
            catalog,
            "select c_custkey from customer where c_nationkey between 3 and 7",
        )
        assert len(query.block.conjuncts) == 2

    def test_in_expansion(self, catalog):
        query = bind_sql(
            catalog,
            "select c_custkey from customer where c_mktsegment in "
            "('BUILDING', 'MACHINERY')",
        )
        assert len(query.block.conjuncts) == 1  # a single OR conjunct

    def test_aggregate_in_where_rejected(self, catalog):
        with pytest.raises(BindError):
            bind_sql(catalog, "select 1 from customer where sum(c_acctbal) > 5")


class TestAggregation:
    def test_aggregates_collected(self, catalog):
        query = bind_sql(
            catalog,
            "select c_nationkey, sum(c_acctbal) as total, count(*) as n "
            "from customer group by c_nationkey",
        )
        block = query.block
        assert block.group_keys[0].column == "c_nationkey"
        assert AggExpr(AggFunc.SUM, block.output[1].expr.arg) in block.aggregates
        assert AggExpr(AggFunc.COUNT, None) in block.aggregates

    def test_count_column_normalized_to_count_star(self, catalog):
        query = bind_sql(
            catalog, "select count(c_custkey) as n from customer"
        )
        assert query.block.output[0].expr == AggExpr(AggFunc.COUNT, None)

    def test_avg_rewritten(self, catalog):
        query = bind_sql(catalog, "select avg(c_acctbal) as a from customer")
        out = query.block.output[0].expr
        assert isinstance(out, Arithmetic)
        aggs = set(query.block.aggregates)
        assert AggExpr(AggFunc.COUNT, None) in aggs
        assert any(a.func is AggFunc.SUM for a in aggs)

    def test_ungrouped_column_rejected(self, catalog):
        with pytest.raises(BindError):
            bind_sql(
                catalog,
                "select c_name, sum(c_acctbal) from customer group by c_nationkey",
            )

    def test_scalar_aggregate_block(self, catalog):
        query = bind_sql(catalog, "select sum(c_acctbal) as t from customer")
        assert query.block.group_keys == ()
        assert query.block.has_groupby

    def test_having_over_aggregate(self, catalog):
        query = bind_sql(
            catalog,
            "select c_nationkey, sum(c_acctbal) as t from customer "
            "group by c_nationkey having sum(c_acctbal) > 100",
        )
        assert len(query.block.having) == 1

    def test_nested_aggregate_rejected(self, catalog):
        with pytest.raises(BindError):
            bind_sql(catalog, "select sum(sum(c_acctbal)) from customer")

    def test_distinct_rejected(self, catalog):
        with pytest.raises(UnsupportedFeatureError):
            bind_sql(catalog, "select count(distinct c_custkey) from customer")


class TestSubqueries:
    def test_scalar_subquery_in_having(self, catalog):
        query = bind_sql(
            catalog,
            "select c_nationkey, sum(c_acctbal) as t from customer "
            "group by c_nationkey "
            "having sum(c_acctbal) > (select sum(o_totalprice) / 25 from orders)",
        )
        assert len(query.subqueries) == 1
        sid, block = next(iter(query.subqueries.items()))
        assert block.has_groupby and not block.group_keys
        having = query.block.having[0]
        assert any(isinstance(n, ScalarSubquery) for n in having.walk())

    def test_non_scalar_subquery_rejected(self, catalog):
        with pytest.raises(UnsupportedFeatureError):
            bind_sql(
                catalog,
                "select c_custkey from customer where c_nationkey > "
                "(select n_nationkey from nation group by n_nationkey)",
            )

    def test_non_aggregated_subquery_rejected(self, catalog):
        with pytest.raises(UnsupportedFeatureError):
            bind_sql(
                catalog,
                "select c_custkey from customer where c_nationkey > "
                "(select n_nationkey from nation)",
            )


class TestWithClause:
    def test_spj_cte_inlined(self, catalog):
        query = bind_sql(
            catalog,
            "with co as (select c_nationkey, o_orderkey from customer, orders "
            "where c_custkey = o_custkey) "
            "select co.c_nationkey, sum(l_extendedprice) as le "
            "from co, lineitem where co.o_orderkey = l_orderkey "
            "group by co.c_nationkey",
        )
        tables = sorted(t.table for t in query.block.tables)
        assert tables == ["customer", "lineitem", "orders"]
        # The CTE's join predicate travelled into the block.
        assert any(
            getattr(c, "is_column_equality", False) for c in query.block.conjuncts
        )

    def test_cte_referenced_twice_duplicates_instances(self, catalog):
        query = bind_sql(
            catalog,
            "with co as (select c_custkey as k from customer) "
            "select a.k from co a, co b where a.k = b.k",
        )
        tables = [t.table for t in query.block.tables]
        assert tables == ["customer", "customer"]
        assert query.block.tables[0].instance != query.block.tables[1].instance

    def test_grouped_cte_rejected(self, catalog):
        with pytest.raises(UnsupportedFeatureError):
            bind_sql(
                catalog,
                "with v as (select c_nationkey, sum(c_acctbal) as t "
                "from customer group by c_nationkey) select v.t from v",
            )


class TestOrderBy:
    def test_order_by_alias(self, catalog):
        query = bind_sql(
            catalog,
            "select c_nationkey, sum(c_acctbal) as total from customer "
            "group by c_nationkey order by total desc",
        )
        expr, descending = query.order_by[0]
        assert descending
        assert expr == query.block.output[1].expr

    def test_order_by_output_column(self, catalog):
        query = bind_sql(
            catalog, "select c_custkey from customer order by c_custkey"
        )
        assert query.order_by[0][0] == query.block.output[0].expr

    def test_order_by_non_output_rejected(self, catalog):
        with pytest.raises(UnsupportedFeatureError):
            bind_sql(catalog, "select c_custkey from customer order by c_name")


#: every decorrelation / outer-join rejection path: (sql, error, message)
REJECTED = {
    "right_join_over_two_tables": (
        "select c_custkey from customer, nation "
        "right join orders on o_custkey = c_custkey",
        UnsupportedFeatureError,
        "RIGHT JOIN is supported only directly over a single plain FROM table",
    ),
    "cte_under_outer_join": (
        "with co as (select o_custkey from orders) "
        "select c_custkey from customer left join co on c_custkey = co.o_custkey",
        UnsupportedFeatureError,
        "common table expressions on either side of an outer join",
    ),
    "non_equi_on": (
        "select c_custkey from customer left join orders on o_custkey < c_custkey",
        UnsupportedFeatureError,
        "outer join ON conditions must be equijoin keys plus filters on the "
        "null-extended side",
    ),
    "on_without_key": (
        "select c_custkey from customer left join orders on o_totalprice > 5",
        UnsupportedFeatureError,
        "outer joins require at least one equijoin key",
    ),
    "key_on_nullable_column": (
        "select c_custkey from customer "
        "left join orders on o_custkey = c_custkey "
        "left join lineitem on l_orderkey = o_orderkey",
        UnsupportedFeatureError,
        "outer join keyed on a nullable (outer-joined) column",
    ),
    "exists_with_group_by": (
        "select c_custkey from customer where exists (select o_custkey "
        "from orders where o_custkey = c_custkey group by o_custkey)",
        UnsupportedFeatureError,
        "EXISTS/IN subqueries must be plain select-project-join",
    ),
    "non_equality_correlation": (
        "select c_custkey from customer where exists "
        "(select 1 from orders where o_custkey < c_custkey)",
        UnsupportedFeatureError,
        "EXISTS/IN correlation must be column-equality conjuncts",
    ),
    "uncorrelated_exists": (
        "select c_custkey from customer where exists "
        "(select 1 from orders where o_totalprice > 5)",
        UnsupportedFeatureError,
        "uncorrelated EXISTS/IN subqueries",
    ),
    "in_selecting_two_columns": (
        "select c_custkey from customer where c_custkey in "
        "(select o_custkey, o_orderkey from orders)",
        BindError,
        "IN subqueries must select exactly one column",
    ),
    "in_over_expression": (
        "select c_custkey from customer where c_custkey in "
        "(select o_custkey + 1 from orders)",
        UnsupportedFeatureError,
        "IN subqueries support plain column membership only",
    ),
    "exists_under_or": (
        "select c_custkey from customer where c_nationkey = 1 or exists "
        "(select 1 from orders where o_custkey = c_custkey)",
        UnsupportedFeatureError,
        "EXISTS/IN subqueries are supported only as top-level WHERE conjuncts",
    ),
    "scalar_subquery_inside_exists": (
        "select c_custkey from customer where exists (select 1 from orders "
        "where o_custkey = c_custkey "
        "and o_totalprice > (select sum(l_quantity) from lineitem))",
        UnsupportedFeatureError,
        "scalar subqueries inside EXISTS/IN subqueries",
    ),
    "count_over_nullable_column": (
        "select count(o_orderkey) as n from customer "
        "left join orders on o_custkey = c_custkey",
        UnsupportedFeatureError,
        "COUNT over a nullable (outer-joined) column",
    ),
    "group_by_nullable_column": (
        "select o_orderstatus, count(*) as n from customer "
        "left join orders on o_custkey = c_custkey group by o_orderstatus",
        UnsupportedFeatureError,
        "GROUP BY over a nullable (outer-joined) column",
    ),
    "exists_correlated_on_nullable_column": (
        "select c_custkey from customer "
        "left join orders on o_custkey = c_custkey "
        "where exists (select 1 from lineitem where l_orderkey = o_orderkey)",
        UnsupportedFeatureError,
        "EXISTS/IN correlated on a nullable (outer-joined) column",
    ),
}

#: bound form of one query per extension kind: (sql, repr of the BoundQuery)
PINNED = {
    "left": (
        "select c_custkey, o_orderkey from customer left join orders "
        "on c_custkey = o_custkey and o_totalprice > 100 "
        "where c_nationkey = 3 and o_orderstatus <> 'F'",
        "BoundQuery(name='Q1', block=QueryBlock(name='Q1', "
        "tables=(customer#1,), conjuncts=((customer#1.c_nationkey = 3),), "
        "output=(customer#1.c_custkey AS c_custkey,), group_keys=(), "
        "aggregates=(), having=()), subqueries={}, order_by=(), "
        "extensions=(JoinExtension(ext_id='x1', kind='left_outer', "
        "block=QueryBlock(name='Q1.x1', tables=(orders#2,), "
        "conjuncts=((orders#2.o_totalprice > 100),), "
        "output=(orders#2.o_custkey AS o_custkey, orders#2.o_orderkey AS "
        "o_orderkey, orders#2.o_orderstatus AS o_orderstatus), "
        "group_keys=(), aggregates=(), having=()), "
        "keys=((customer#1.c_custkey, orders#2.o_custkey),)),), "
        "post=QueryShape(group_keys=(), aggregates=(), having=(), "
        "output=(customer#1.c_custkey AS c_custkey, orders#2.o_orderkey AS "
        "o_orderkey), filters=((orders#2.o_orderstatus <> 'F'),)))",
    ),
    "right": (
        "select c_custkey, o_orderkey from orders right join customer "
        "on o_custkey = c_custkey",
        "BoundQuery(name='Q1', block=QueryBlock(name='Q1', "
        "tables=(customer#2,), conjuncts=(), "
        "output=(customer#2.c_custkey AS c_custkey,), group_keys=(), "
        "aggregates=(), having=()), subqueries={}, order_by=(), "
        "extensions=(JoinExtension(ext_id='x1', kind='left_outer', "
        "block=QueryBlock(name='Q1.x1', tables=(orders#1,), conjuncts=(), "
        "output=(orders#1.o_custkey AS o_custkey, orders#1.o_orderkey AS "
        "o_orderkey), group_keys=(), aggregates=(), having=()), "
        "keys=((customer#2.c_custkey, orders#1.o_custkey),)),), "
        "post=QueryShape(group_keys=(), aggregates=(), having=(), "
        "output=(customer#2.c_custkey AS c_custkey, orders#1.o_orderkey AS "
        "o_orderkey), filters=()))",
    ),
    "exists": (
        "select c_name from customer where exists (select 1 from orders "
        "where o_custkey = c_custkey and o_totalprice > 100)",
        "BoundQuery(name='Q1', block=QueryBlock(name='Q1', "
        "tables=(customer#1,), conjuncts=(), "
        "output=(customer#1.c_custkey AS c_custkey, customer#1.c_name AS "
        "c_name), group_keys=(), aggregates=(), having=()), subqueries={}, "
        "order_by=(), extensions=(JoinExtension(ext_id='x1', kind='semi', "
        "block=QueryBlock(name='Q1.x1', tables=(orders#2,), "
        "conjuncts=((orders#2.o_totalprice > 100),), "
        "output=(orders#2.o_custkey AS o_custkey,), group_keys=(), "
        "aggregates=(), having=()), keys=((customer#1.c_custkey, "
        "orders#2.o_custkey),)),), post=QueryShape(group_keys=(), "
        "aggregates=(), having=(), output=(customer#1.c_name AS c_name,), "
        "filters=()))",
    ),
    "not_exists": (
        "select c_name from customer where not exists "
        "(select 1 from orders where o_custkey = c_custkey)",
        "BoundQuery(name='Q1', block=QueryBlock(name='Q1', "
        "tables=(customer#1,), conjuncts=(), "
        "output=(customer#1.c_custkey AS c_custkey, customer#1.c_name AS "
        "c_name), group_keys=(), aggregates=(), having=()), subqueries={}, "
        "order_by=(), extensions=(JoinExtension(ext_id='x1', kind='anti', "
        "block=QueryBlock(name='Q1.x1', tables=(orders#2,), conjuncts=(), "
        "output=(orders#2.o_custkey AS o_custkey,), group_keys=(), "
        "aggregates=(), having=()), keys=((customer#1.c_custkey, "
        "orders#2.o_custkey),)),), post=QueryShape(group_keys=(), "
        "aggregates=(), having=(), output=(customer#1.c_name AS c_name,), "
        "filters=()))",
    ),
    "in": (
        "select c_name from customer where c_custkey in "
        "(select o_custkey from orders where o_orderstatus = 'F')",
        "BoundQuery(name='Q1', block=QueryBlock(name='Q1', "
        "tables=(customer#1,), conjuncts=(), "
        "output=(customer#1.c_custkey AS c_custkey, customer#1.c_name AS "
        "c_name), group_keys=(), aggregates=(), having=()), subqueries={}, "
        "order_by=(), extensions=(JoinExtension(ext_id='x1', kind='semi', "
        "block=QueryBlock(name='Q1.x1', tables=(orders#2,), "
        "conjuncts=((orders#2.o_orderstatus = 'F'),), "
        "output=(orders#2.o_custkey AS o_custkey,), group_keys=(), "
        "aggregates=(), having=()), keys=((customer#1.c_custkey, "
        "orders#2.o_custkey),)),), post=QueryShape(group_keys=(), "
        "aggregates=(), having=(), output=(customer#1.c_name AS c_name,), "
        "filters=()))",
    ),
    "not_in": (
        "select c_nationkey, count(*) as n from customer where c_custkey "
        "not in (select o_custkey from orders) group by c_nationkey",
        "BoundQuery(name='Q1', block=QueryBlock(name='Q1', "
        "tables=(customer#1,), conjuncts=(), "
        "output=(customer#1.c_custkey AS c_custkey, customer#1.c_nationkey "
        "AS c_nationkey), group_keys=(), aggregates=(), having=()), "
        "subqueries={}, order_by=(), extensions=(JoinExtension(ext_id='x1', "
        "kind='anti', block=QueryBlock(name='Q1.x1', tables=(orders#2,), "
        "conjuncts=(), output=(orders#2.o_custkey AS o_custkey,), "
        "group_keys=(), aggregates=(), having=()), "
        "keys=((customer#1.c_custkey, orders#2.o_custkey),)),), "
        "post=QueryShape(group_keys=(customer#1.c_nationkey,), "
        "aggregates=(count(*),), having=(), output=(customer#1.c_nationkey "
        "AS c_nationkey, count(*) AS n), filters=()))",
    ),
}


class TestExtendedQueries:
    """OUTER JOIN, EXISTS and IN: the extended-query form and every path
    that refuses to decorrelate."""

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rejected(self, catalog, case):
        sql, error, message = REJECTED[case]
        with pytest.raises(error) as raised:
            bind_sql(catalog, sql)
        assert type(raised.value) is error
        assert str(raised.value) == message

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_bound_form(self, catalog, case):
        sql, expected = PINNED[case]
        assert repr(bind_sql(catalog, sql)) == expected


class TestOutputNames:
    @pytest.mark.parametrize(
        "sql, names",
        [
            (
                "select c_nationkey as k, c_custkey as k, c_name as k_1 "
                "from customer",
                ["k", "k_2", "k_1"],
            ),
            (
                "select c_custkey, c_custkey, c_custkey as c_custkey_1 "
                "from customer",
                ["c_custkey", "c_custkey_2", "c_custkey_1"],
            ),
            (
                "select sum(c_acctbal), sum(c_custkey), count(*) from customer",
                ["sum", "sum_1", "count"],
            ),
        ],
    )
    def test_generated_names_never_shadow_explicit_ones(self, catalog, sql, names):
        assert bind_sql(catalog, sql).block.output_names() == names

    def test_order_by_reaches_the_explicit_alias(self, catalog):
        query = bind_sql(
            catalog,
            "select c_nationkey as k, c_custkey as k, c_name as k_1 "
            "from customer order by k_1",
        )
        assert query.order_by[0][0] == query.block.output[2].expr


def test_cte_in_a_join_clause_filters_once(catalog):
    """A WITH reference in a JOIN clause contributes its WHERE once, as in
    a comma-separated FROM list."""
    on_join = bind_sql(
        catalog,
        "with big as (select o_custkey from orders where o_totalprice > 1000) "
        "select c_name from customer join big on c_custkey = big.o_custkey",
    )
    in_from = bind_sql(
        catalog,
        "with big as (select o_custkey from orders where o_totalprice > 1000) "
        "select c_name from customer, big where c_custkey = big.o_custkey",
    )
    assert sorted(map(repr, on_join.block.conjuncts)) == sorted(
        map(repr, in_from.block.conjuncts)
    )
