"""Unit tests for the memo (groups, exploration, signatures, DAG, LCA)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import Session
from repro.cse.signature import TableSignature
from repro.optimizer import memo as memo_module
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.engine import Optimizer
from repro.optimizer.memo import (
    AggImplExpr,
    AggItem,
    JoinExpr,
    Memo,
    ScanExpr,
)
from repro.optimizer.options import OptimizerOptions
from repro.sql.binder import bind_batch, bind_sql
from repro.workloads import (
    ADAPTED_QUERIES,
    complex_join_batch,
    example1_batch,
    scaleup_batch,
)


@pytest.fixture()
def memo_for(tiny_db):
    def build(sql):
        memo = Memo(CardinalityEstimator(tiny_db))
        batch = bind_batch(tiny_db.catalog, sql)
        tops = [memo.build_block(q.block, q.name) for q in batch.queries]
        memo.build_root(tops)
        return memo, tops

    return build


JOIN3 = (
    "select c_nationkey, sum(l_extendedprice) as le "
    "from customer, orders, lineitem "
    "where c_custkey = o_custkey and o_orderkey = l_orderkey "
    "group by c_nationkey"
)


class TestBlockExploration:
    def test_connected_subsets_only(self, memo_for):
        memo, _ = memo_for(JOIN3)
        join_groups = [
            g for g in memo.groups
            if g.kind == "join"
            and not any(isinstance(i, AggItem) for i in g.items)
        ]
        # customer-lineitem is not connected: subsets are
        # {c}, {o}, {l}, {c,o}, {o,l}, {c,o,l} => 6 pure join groups.
        assert len(join_groups) == 6

    def test_leaf_groups_have_scans(self, memo_for):
        memo, _ = memo_for(JOIN3)
        leaves = [g for g in memo.groups if g.kind == "join" and len(g.items) == 1]
        for leaf in leaves:
            assert any(isinstance(e, ScanExpr) for e in leaf.exprs)

    def test_join_alternatives(self, memo_for):
        memo, _ = memo_for(JOIN3)
        full = [
            g for g in memo.groups
            if g.kind == "join" and len(g.items) == 3
        ][0]
        # Partitions of {c,o,l}: ({c},{o,l}) and ({c,o},{l}) — {o} vs {c,l}
        # is not connected on the {c,l} side.
        assert len([e for e in full.exprs if isinstance(e, JoinExpr)]) == 2

    def test_hash_keys_derived_from_classes(self, memo_for):
        memo, _ = memo_for(JOIN3)
        for group in memo.groups:
            for expr in group.exprs:
                if isinstance(expr, JoinExpr):
                    assert len(expr.hash_keys) >= 1

    def test_final_agg_group(self, memo_for):
        memo, tops = memo_for(JOIN3)
        top = tops[0]
        assert top.kind == "agg"
        assert top.signature == TableSignature(
            True, ("customer", "lineitem", "orders")
        )
        assert len(top.agg_keys) == 1

    def test_preaggregation_explored(self, memo_for):
        memo, tops = memo_for(JOIN3)
        top = tops[0]
        # Direct implementation + at least one combine over a pre-aggregation.
        assert len(top.exprs) >= 2
        preaggs = [
            g for g in memo.groups
            if g.kind == "agg" and g is not top
        ]
        assert preaggs, "expected pre-aggregation groups"
        sigs = {g.signature for g in preaggs}
        assert TableSignature(True, ("lineitem", "orders")) in sigs

    def test_preagg_disabled(self, memo_for, monkeypatch):
        monkeypatch.setattr(memo_module, "PREAGG", False)
        memo, tops = memo_for(JOIN3)
        aggs = [g for g in memo.groups if g.kind == "agg"]
        assert len(aggs) == 1  # only the final aggregation

    def test_preagg_compression_gate(self, memo_for, monkeypatch):
        # With an impossible compression requirement nothing is explored.
        monkeypatch.setattr(memo_module, "PREAGG_MIN_COMPRESSION", 0.0)
        memo, _ = memo_for(JOIN3)
        aggs = [g for g in memo.groups if g.kind == "agg"]
        assert len(aggs) == 1

    def test_cartesian_blocks_bridged(self, memo_for):
        # Disconnected join graph: region × part (no join predicate).
        memo, tops = memo_for("select r_name, p_name from region, part")
        top = tops[0]
        assert top.kind == "join" and len(top.items) == 2
        join_exprs = [e for e in top.exprs if isinstance(e, JoinExpr)]
        assert join_exprs and join_exprs[0].hash_keys == ()

    def test_required_outputs_restricted(self, memo_for):
        memo, _ = memo_for(JOIN3)
        cust = [
            g for g in memo.groups
            if g.kind == "join" and len(g.items) == 1
            and next(iter(g.tables)).table == "customer"
        ][0]
        names = {c.column for c in cust.required_outputs}
        assert names == {"c_custkey", "c_nationkey"}

    def test_duplicate_block_rejected(self, memo_for, tiny_db):
        memo, _ = memo_for(JOIN3)
        query = bind_sql(tiny_db.catalog, JOIN3, name="Q1")
        with pytest.raises(Exception):
            memo.build_block(query.block, "again")


class TestSignaturesInMemo:
    def test_join_groups_signed(self, memo_for):
        memo, _ = memo_for(JOIN3)
        expected = {
            TableSignature(False, ("customer",)),
            TableSignature(False, ("orders",)),
            TableSignature(False, ("lineitem",)),
            TableSignature(False, ("customer", "orders")),
            TableSignature(False, ("lineitem", "orders")),
            TableSignature(False, ("customer", "lineitem", "orders")),
        }
        join_sigs = {
            g.signature for g in memo.groups if g.kind == "join"
        }
        assert expected <= join_sigs

    def test_mixed_join_groups_unsigned(self, memo_for):
        memo, _ = memo_for(JOIN3)
        for group in memo.groups:
            if group.kind == "join" and any(
                isinstance(i, AggItem) for i in group.items
            ):
                assert group.signature is None

    def test_self_join_signs_a_multiset(self, memo_for):
        memo, tops = memo_for(
            "select c1.c_name from customer c1, customer c2 "
            "where c1.c_nationkey = c2.c_nationkey"
        )
        assert tops[0].signature == TableSignature(False, ("customer", "customer"))
        assert tops[0].signature != TableSignature(False, ("customer",))

    def test_paper_example_blocks_share_a_signature(self, memo_for):
        """§3: π γ(σ(A) ⋈ σ(B)) blocks with different predicates, grouping
        and projected columns sign alike, [T; {A, B}] — unlike a γ over
        other tables."""
        memo, tops = memo_for(
            "select c_nationkey, sum(o_totalprice) as s from customer, orders "
            "where c_custkey = o_custkey and c_acctbal > 0 "
            "and o_totalprice > 5 group by c_nationkey;"
            "select min(o_totalprice) as m from customer, orders "
            "where c_custkey = o_custkey and c_acctbal < 100 "
            "group by c_mktsegment;"
            "select sum(l_quantity) as q from lineitem, part "
            "where l_partkey = p_partkey group by p_type"
        )
        first, second, third = (top.signature for top in tops)
        assert first == second == TableSignature(True, ("customer", "orders"))
        assert third != first

    def test_signature_log_covers_signed_groups(self, memo_for):
        memo, _ = memo_for(JOIN3)
        logged = {g.gid for g in memo.signature_log}
        signed = {g.gid for g in memo.groups if g.signature is not None}
        assert logged == signed


class TestDagAndLca:
    def test_descendants(self, memo_for):
        memo, tops = memo_for(JOIN3)
        top = tops[0]
        descendants = memo.descendants(top)
        join_gids = {g.gid for g in memo.groups if g.kind == "join"}
        assert join_gids <= descendants

    def test_root_covers_everything(self, memo_for):
        memo, _ = memo_for(JOIN3 + ";" + JOIN3.replace("c_nationkey", "c_mktsegment"))
        root_desc = memo.descendants(memo.root)
        assert len(root_desc) == len(memo.groups) - 1

    def test_lca_same_block(self, memo_for):
        memo, tops = memo_for(JOIN3)
        leaves = [
            g.gid for g in memo.groups
            if g.kind == "join" and len(g.items) == 1
        ]
        lca = memo.least_common_ancestor(leaves)
        # The lowest group containing all three leaves is the full join.
        assert lca.kind == "join" and len(lca.items) == 3

    def test_lca_cross_query_is_root(self, memo_for):
        memo, tops = memo_for(JOIN3 + ";" + JOIN3.replace("c_nationkey", "c_mktsegment"))
        lca = memo.least_common_ancestor([tops[0].gid, tops[1].gid])
        assert lca is memo.root

    def test_lca_single_group(self, memo_for):
        memo, tops = memo_for(JOIN3)
        assert memo.least_common_ancestor([tops[0].gid]) is tops[0]


    def test_dag_caches_see_groups_added_later(self, tiny_db):
        """Adding a group drops the cached footprints and descendant sets:
        a block built after a footprint query gets footprints too."""
        memo = Memo(CardinalityEstimator(tiny_db))
        first = bind_sql(tiny_db.catalog, JOIN3, name="A")
        second = bind_sql(
            tiny_db.catalog, JOIN3.replace("c_nationkey", "c_mktsegment"), name="B"
        )
        top_a = memo.build_block(first.block, "A")
        assert len(memo.candidate_footprints({})) == len(memo.groups)
        assert memo.descendants(top_a)
        memo.build_block(second.block, "B")
        assert len(memo.candidate_footprints({})) == len(memo.groups)
        memo.build_root([top_a, memo.block_tops["B"]])
        assert len(memo.descendants(memo.root)) == len(memo.groups) - 1


class TestCardinalityWiring:
    def test_join_rows_monotone(self, memo_for):
        memo, _ = memo_for(JOIN3)
        for group in memo.groups:
            if group.kind in ("join", "agg"):
                assert group.est_rows >= 1.0

    def test_filter_reduces_estimate(self, memo_for, tiny_db):
        memo1, _ = memo_for(JOIN3)
        memo2 = Memo(CardinalityEstimator(tiny_db))
        filtered = bind_sql(
            tiny_db.catalog,
            JOIN3.replace(
                "where", "where o_orderdate < '1994-01-01' and"
            ),
            name="F",
        )
        top2 = memo2.build_block(filtered.block, "F")
        top1_join = [g for g in memo1.groups if g.kind == "join" and len(g.items) == 3][0]
        top2_join = [g for g in memo2.groups if g.kind == "join" and len(g.items) == 3][0]
        assert top2_join.est_rows < top1_join.est_rows


#: prints both batch-level estimates of two batches, exactly.
_ESTIMATES = """
from repro import Session
from repro.workloads import example1_batch, independent_pairs_batch

session = Session.tpch(0.002)
for sql in (independent_pairs_batch(), example1_batch()):
    stats = session.optimize(sql).stats
    print(repr(stats.est_cost_no_cse), repr(stats.est_cost_final))
"""


MEMO_GOLDEN = Path(__file__).parent / "golden" / "memo_estimates.txt"

#: the 8 adapted TPC-H queries, Example 1, one Fig-8 batch and Table 4.
MEMO_CASES = {
    **ADAPTED_QUERIES,
    "example1": example1_batch(),
    "fig8_6": scaleup_batch(6),
    "table4": complex_join_batch(),
}


def _memo_lines(database):
    """One line per memo group of every case: items, exact row estimate,
    width, expression count and each join's hash keys and residuals."""
    lines = []
    for name, sql in MEMO_CASES.items():
        batch = Session(database).bind(sql)
        _, run = Optimizer(database, OptimizerOptions()).optimize_with_run(batch)
        lines.append(f"# {name}")
        for group in run.memo.groups:
            items = ",".join(sorted(repr(i) for i in group.items))
            joins = " ".join(
                f"{e!r}{list(e.hash_keys)!r}{list(e.residual)!r}"
                for e in group.exprs if isinstance(e, JoinExpr)
            )
            lines.append(
                f"g{group.gid} {group.kind} [{items}] "
                f"{float.hex(group.est_rows)} w={group.row_width} "
                f"n={len(group.exprs)} {joins}".rstrip()
            )
    return lines


def test_memo_estimates_golden(tiny_db):
    """Every group, estimate and join spec the memo builds for the paper's
    workloads, pinned bit for bit. Regenerate after an intentional change
    with ``REPRO_UPDATE_GOLDEN=1``."""
    got = "\n".join(_memo_lines(tiny_db)) + "\n"
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        MEMO_GOLDEN.write_text(got)
        return
    want = MEMO_GOLDEN.read_text()
    for index, (line, expected) in enumerate(
        zip(got.splitlines(), want.splitlines())
    ):
        assert line == expected, f"memo_estimates.txt line {index + 1}"
    assert got == want


def test_estimates_are_bit_stable_across_hash_seeds():
    """Join estimates multiply per-item factors in canonical order, not in
    ``frozenset`` iteration order, so no estimate depends on the
    interpreter's string-hash seed down to the last bit."""
    src = Path(repro.__file__).resolve().parent.parent
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _ESTIMATES],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": str(seed)},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in range(8)
    ]
    outputs = []
    try:
        for run in runs:
            out, err = run.communicate(timeout=300)
            assert run.returncode == 0, err
            outputs.append(out)
    finally:
        for run in runs:
            run.kill()  # a no-op once the process has exited
    assert len(outputs[0].splitlines()) == 2
    assert len(set(outputs)) == 1, sorted(set(outputs))
