"""Unit tests for view matching / consumer substitution (paper §5.1)."""

import itertools

import pytest

from repro.cse.compatibility import ConsumerProfiles
from repro.cse.construct import covering_state
from repro.cse.matching import match_constructed, match_consumer
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.memo import Memo
from repro.sql.binder import bind_batch


def build_memo(db, sql):
    memo = Memo(CardinalityEstimator(db))
    batch = bind_batch(db.catalog, sql)
    tops = [memo.build_block(q.block, q.name) for q in batch.queries]
    memo.build_root(tops)
    return memo, tops


def construct(cse_id, groups, profiles, counter):
    """A CSE over ``groups``, matched later on ids of the same ``profiles``."""
    return covering_state([profiles(g) for g in groups]).materialise(
        cse_id, lambda: next(counter)
    )


BATCH = (
    "select c_nationkey, c_mktsegment, sum(l_extendedprice) as le "
    "from customer, orders, lineitem "
    "where c_custkey = o_custkey and o_orderkey = l_orderkey "
    "  and o_orderdate < '1996-07-01' and c_nationkey > 0 and c_nationkey < 20 "
    "group by c_nationkey, c_mktsegment;"
    "select c_nationkey, sum(l_extendedprice) as le "
    "from customer, orders, lineitem "
    "where c_custkey = o_custkey and o_orderkey = l_orderkey "
    "  and o_orderdate < '1996-07-01' and c_nationkey > 5 and c_nationkey < 25 "
    "group by c_nationkey"
)


def _specs(definition):
    """The matching recipes of the CSE's constructed consumers."""
    return [spec for _, _, spec in match_constructed(definition) if spec]


@pytest.fixture()
def setting(tiny_db):
    memo, tops = build_memo(tiny_db, BATCH)
    profiles = ConsumerProfiles(memo.block_infos, CardinalityEstimator(tiny_db))
    definition = construct("E1", tops, profiles, itertools.count(9000))
    return memo, tops, definition, profiles


class TestConstructedConsumers:
    def test_all_consumers_match(self, setting):
        memo, tops, definition, _ = setting
        specs = _specs(definition)
        assert len(specs) == 2

    def test_residual_is_consumer_specific(self, setting):
        memo, tops, definition, _ = setting
        specs = _specs(definition)
        q1 = next(s for s in specs if s.group is tops[0])
        # Q1's residual: its own nationkey range (the date conjunct was
        # factored into the covering predicate).
        texts = [repr(c) for c in q1.residual]
        assert any("c_nationkey" in t for t in texts)
        assert not any("o_orderdate" in t for t in texts)
        # Residual stays in consumer column space.
        for conjunct in q1.residual:
            for column in conjunct.columns():
                assert column.table_ref in tops[0].tables

    def test_reaggregation_for_coarser_consumer(self, setting):
        memo, tops, definition, _ = setting
        specs = _specs(definition)
        q2 = next(s for s in specs if s.group is tops[1])
        # The CSE groups by {nationkey, mktsegment}; Q2 groups by nationkey
        # only — it must re-aggregate.
        assert q2.needs_reagg
        assert [k.column for k in q2.reagg_keys] == ["c_nationkey"]
        assert q2.reagg_computes

    def test_exact_keys_no_reagg(self, small_db):
        # At SF 0.002 the (nation, segment) grouping compresses σ(customer),
        # so construction adds no key (at SF 0.001 it adds c_custkey and
        # both consumers re-aggregate).
        memo, tops = build_memo(
            small_db,
            BATCH.split(";")[0] + ";" + BATCH.split(";")[0].replace(
                "c_nationkey > 0 and c_nationkey < 20",
                "c_nationkey > 3 and c_nationkey < 22",
            ),
        )
        profiles = ConsumerProfiles(memo.block_infos, CardinalityEstimator(small_db))
        definition = construct("E2", tops, profiles, itertools.count(9500))
        specs = _specs(definition)
        # Both consumers group by exactly the CSE keys: no re-aggregation.
        assert all(not s.needs_reagg for s in specs)

    def test_column_map_covers_outputs(self, setting):
        memo, tops, definition, _ = setting
        specs = _specs(definition)
        for spec in specs:
            assert len(spec.column_map) == len(definition.outputs)
            names = [n for n, _ in spec.column_map]
            assert names == [o.name for o in definition.outputs]


class TestRejection:
    def test_wrong_signature_rejected(self, setting):
        memo, tops, definition, profiles = setting
        join2 = next(
            g for g in memo.groups
            if g.kind == "join" and len(g.items) == 2 and g.signature
        )
        verdict, spec = match_consumer(definition, profiles(join2))
        assert spec is None and verdict.outcome == "refuted"

    def test_uncovered_predicate_rejected(self, tiny_db):
        """A consumer whose rows the CSE does not contain must not match."""
        memo, tops = build_memo(
            tiny_db,
            BATCH.split(";")[0]
            + ";"
            + BATCH.split(";")[0].replace(
                "c_nationkey > 0 and c_nationkey < 20",
                "c_nationkey > 2 and c_nationkey < 22",
            ),
        )
        profiles = ConsumerProfiles(memo.block_infos, CardinalityEstimator(tiny_db))
        definition = construct("E3", [tops[0]], profiles, itertools.count(9600))
        # tops[1] wants nationkey in (2, 22) but the trivial CSE covers
        # (0, 20) only — matching must fail on the upper bound.
        verdict, spec = match_consumer(definition, profiles(tops[1]))
        assert spec is None and verdict.outcome == "gave_up"
        assert "c_nationkey" in verdict.reason

    def test_stacked_consumer_within_other_body(self, tiny_db):
        """A narrower candidate matches the pre-aggregation group inside a
        wider candidate's body (§5.5 stacked CSEs)."""
        memo, tops = build_memo(tiny_db, BATCH)
        counter = itertools.count(9700)
        profiles = ConsumerProfiles(memo.block_infos, CardinalityEstimator(tiny_db))
        wide = construct("W", tops, profiles, counter)
        # Narrow candidate over the orders⋈lineitem pre-aggregations.
        preaggs = [
            g for g in memo.groups
            if g.kind == "agg"
            and g.signature is not None
            and g.signature.tables == ("lineitem", "orders")
        ]
        assert len(preaggs) >= 2
        narrow = construct("N", preaggs, profiles, counter)
        # Build the wide body into the memo; its own pre-aggregation group
        # over orders⋈lineitem should match the narrow candidate.
        memo.build_block(wide.block, "cse:W")
        body_groups = [
            g for g in memo.groups
            if g.block is not None and g.block.name == wide.block.name
            and g.signature == narrow.signature
        ]
        assert body_groups
        verdict, spec = match_consumer(narrow, profiles(body_groups[0]))
        assert verdict.proved and spec is not None
        assert spec.needs_reagg or spec.residual == ()
