"""Adversarial corpus for the bag-semantics equivalence proofs.

Null rejection (``repro.equiv``) admits every outer-join reduction, and the
block-equivalence oracle (``tests/match_reference.py``) reads §5.1's
obligations over whole blocks, so their one inviolable property is
*soundness*: neither may return ``proved`` for a pair that is not
equivalent under bag semantics. This corpus pins that property on
known-equivalent pairs (which should be proved) and on the classical traps — NULL-extension (a bare outer join is not an inner
join), duplicate sensitivity (a semi join is not a join), near-miss
predicates — every one of which must come back ``refuted`` or ``gave_up``,
never ``proved``.
"""

import pytest

from repro.equiv import (
    GAVE_UP,
    PROVED,
    REFUTED,
    null_rejecting,
    outer_join_reducible,
)
from repro.logical.simplify import simplify_query
from repro.sql.binder import bind_sql

from .match_reference import blocks_equivalent


@pytest.fixture()
def catalog(tiny_db):
    return tiny_db.catalog


def _block(catalog, sql):
    query = bind_sql(catalog, sql)
    assert not query.extensions, "helper expects a plain SPJ(G) query"
    return query.block


def _left_join_parts(catalog, sql):
    """(extension tables, post filters) of a single-left-join query."""
    query = bind_sql(catalog, sql)
    assert len(query.extensions) == 1
    return set(query.extensions[0].block.tables), list(query.post.filters)


class TestNullRejection:
    def test_comparison_on_outer_side_rejects(self, catalog):
        tables, filters = _left_join_parts(
            catalog,
            "select c_nationkey, o_totalprice from customer "
            "left join orders on c_custkey = o_custkey "
            "where o_totalprice > 100",
        )
        assert null_rejecting(filters[0], tables)

    def test_negated_comparison_still_rejects(self, catalog):
        # NOT(NULL) is NULL under Kleene logic, so the negation of a
        # comparison over the null-extended side still rejects NULLs.
        tables, filters = _left_join_parts(
            catalog,
            "select c_nationkey, o_totalprice from customer "
            "left join orders on c_custkey = o_custkey "
            "where not (o_totalprice > 100)",
        )
        assert null_rejecting(filters[0], tables)

    def test_core_only_predicate_does_not_reject(self, catalog):
        query = bind_sql(
            catalog,
            "select c_nationkey, o_totalprice from customer "
            "left join orders on c_custkey = o_custkey "
            "where c_nationkey > 2",
        )
        ext_tables = set(query.extensions[0].block.tables)
        # The core-side filter stays in the core block; build the
        # predicate by hand off the core conjuncts.
        conjunct = query.block.conjuncts[0]
        assert not null_rejecting(conjunct, ext_tables)

    def test_disjunction_with_core_escape_does_not_reject(self, catalog):
        # TRAP: `o_totalprice > 100 OR c_nationkey > 2` can be TRUE on a
        # null-extended row (via the core disjunct) — not null-rejecting.
        tables, filters = _left_join_parts(
            catalog,
            "select c_nationkey, o_totalprice from customer "
            "left join orders on c_custkey = o_custkey "
            "where o_totalprice > 100 or c_nationkey > 2",
        )
        assert not null_rejecting(filters[0], tables)


class TestOuterJoinReduction:
    def test_null_rejecting_filter_proves_reduction(self, catalog):
        tables, filters = _left_join_parts(
            catalog,
            "select c_nationkey, o_totalprice from customer "
            "left join orders on c_custkey = o_custkey "
            "where o_totalprice > 100",
        )
        assert outer_join_reducible(tables, filters).outcome == PROVED

    def test_bare_outer_join_is_never_reduced(self, catalog):
        # TRAP: without a null-rejecting filter the outer join produces
        # null-extended rows an inner join would drop.
        tables, filters = _left_join_parts(
            catalog,
            "select c_nationkey, o_totalprice from customer "
            "left join orders on c_custkey = o_custkey",
        )
        verdict = outer_join_reducible(tables, filters)
        assert verdict.outcome == GAVE_UP

    def test_escapable_disjunction_is_not_reduced(self, catalog):
        tables, filters = _left_join_parts(
            catalog,
            "select c_nationkey, o_totalprice from customer "
            "left join orders on c_custkey = o_custkey "
            "where o_totalprice > 100 or c_nationkey > 2",
        )
        assert outer_join_reducible(tables, filters).outcome != PROVED

    def test_simplifier_folds_only_proved_reductions(self, catalog):
        reducible = bind_sql(
            catalog,
            "select c_nationkey, o_totalprice from customer "
            "left join orders on c_custkey = o_custkey "
            "where o_totalprice > 100",
        )
        simplified, verdicts = simplify_query(reducible)
        assert not simplified.extensions
        assert [v.outcome for _, v in verdicts] == [PROVED]

        bare = bind_sql(
            catalog,
            "select c_nationkey, o_totalprice from customer "
            "left join orders on c_custkey = o_custkey",
        )
        kept, verdicts = simplify_query(bare)
        assert len(kept.extensions) == 1
        assert [v.outcome for _, v in verdicts] == [GAVE_UP]


#: known-equivalent SPJ(G) pairs: table order, conjunct order, alias names.
EQUIVALENT_PAIRS = [
    (
        "select c_nationkey, sum(o_totalprice) as v from customer, orders "
        "where c_custkey = o_custkey and c_nationkey < 5 "
        "group by c_nationkey",
        "select c_nationkey, sum(o_totalprice) as v from orders, customer "
        "where c_nationkey < 5 and o_custkey = c_custkey "
        "group by c_nationkey",
    ),
    (
        "select c_name from customer where c_nationkey < 7",
        "select c_name from customer c where c.c_nationkey < 7",
    ),
    # alias-only difference (these also appear, separately, in the
    # inequivalent corpus against *other* queries)
    (
        "select c_nationkey from customer where c_nationkey < 5",
        "select c1.c_nationkey from customer c1 where c1.c_nationkey < 5",
    ),
]

#: known-INEQUIVALENT pairs; the checker must never prove any of these.
INEQUIVALENT_PAIRS = [
    # different table multisets (a semi-join consumer is *not* a join:
    # the join multiplies duplicates, the semi join does not)
    (
        "select c_nationkey from customer where c_nationkey < 5",
        "select c_nationkey from customer, orders "
        "where c_custkey = o_custkey and c_nationkey < 5",
    ),
    # self-join vs single scan (duplicate sensitivity again)
    (
        "select c1.c_nationkey from customer c1 where c1.c_nationkey < 5",
        "select c1.c_nationkey from customer c1, customer c2 "
        "where c1.c_custkey = c2.c_custkey and c1.c_nationkey < 5",
    ),
    # near-miss predicate bounds
    (
        "select c_nationkey from customer where c_nationkey < 5",
        "select c_nationkey from customer where c_nationkey < 6",
    ),
    # aggregated vs not
    (
        "select c_nationkey, count(*) as v from customer "
        "group by c_nationkey",
        "select c_nationkey, c_custkey from customer",
    ),
    # different grouping keys
    (
        "select c_nationkey, count(*) as v from customer "
        "group by c_nationkey",
        "select c_mktsegment, count(*) as v from customer "
        "group by c_mktsegment",
    ),
    # different aggregates over the same grouping
    (
        "select c_nationkey, sum(c_acctbal) as v from customer "
        "group by c_nationkey",
        "select c_nationkey, min(c_acctbal) as v from customer "
        "group by c_nationkey",
    ),
]


class TestBlockEquivalence:
    @pytest.mark.parametrize("left,right", EQUIVALENT_PAIRS)
    def test_equivalent_pairs_are_proved(self, catalog, left, right):
        a = _block(catalog, left)
        b = _block(catalog, right)
        assert blocks_equivalent(a, b).outcome == PROVED
        assert blocks_equivalent(b, a).outcome == PROVED

    @pytest.mark.parametrize("left,right", INEQUIVALENT_PAIRS)
    def test_inequivalent_pairs_are_never_proved(self, catalog, left, right):
        a = _block(catalog, left)
        b = _block(catalog, right)
        for first, second in ((a, b), (b, a)):
            verdict = blocks_equivalent(first, second)
            assert verdict.outcome in (REFUTED, GAVE_UP), (
                f"checker PROVED an inequivalent pair:\n{left}\n{right}"
            )

    def test_all_corpus_cross_pairs_never_proved(self, catalog):
        """Sweep every cross pair of distinct corpus queries: the checker
        may prove a pair only if it appears in EQUIVALENT_PAIRS."""
        sqls = sorted(
            {sql for pair in EQUIVALENT_PAIRS + INEQUIVALENT_PAIRS
             for sql in pair}
        )
        allowed = {frozenset(pair) for pair in EQUIVALENT_PAIRS}
        blocks = {sql: _block(catalog, sql) for sql in sqls}
        for left in sqls:
            for right in sqls:
                if left == right:
                    continue
                verdict = blocks_equivalent(blocks[left], blocks[right])
                if verdict.outcome == PROVED:
                    assert frozenset((left, right)) in allowed, (
                        f"checker PROVED an unlisted pair:\n{left}\n{right}"
                    )


class TestDuplicateSensitivityEndToEnd:
    def test_semi_join_is_not_a_join(self, tiny_session):
        """The EXISTS query returns each customer at most once; the plain
        join repeats it per matching order. Results must differ and both
        must match their own plans — sharing the build side must not blur
        the distinction."""
        batch = tiny_session.bind(
            "select c_custkey from customer where exists "
            "(select * from orders where o_custkey = c_custkey);"
            "select c_custkey from customer, orders "
            "where c_custkey = o_custkey"
        )
        outcome = tiny_session.execute(batch)
        semi_rows = [r[0] for r in outcome.execution.query("Q1").rows]
        join_rows = [r[0] for r in outcome.execution.query("Q2").rows]
        assert len(semi_rows) == len(set(semi_rows))
        assert sorted(set(join_rows)) == sorted(semi_rows)
        assert len(join_rows) > len(semi_rows)
