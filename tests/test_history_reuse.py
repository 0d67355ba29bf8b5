"""§5.4 optimization history: footprints, base-pass reuse, and
instrumentation.

The Step-3 pass reuses the base pass's plan set of every group no
candidate reaches. That must be invisible in every observable plan
property (``tests/property/test_prop_history.py`` checks it over random
batches, against a Step-3 pass on empty plan-set tables) while actually
skipping work. These tests pin down the mechanism: the footprints agree
with a descendant-walk oracle, the pass carries group results forward,
the counters, trace events and EXPLAIN report it, and the governor's
deadline stays live.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import pytest

from repro import OptimizerOptions, Session
from repro.catalog.tpch import build_tpch_database
from repro.cli import _options, build_parser
from repro.errors import OptimizerTimeoutError
from repro.obs import MetricsRegistry, Tracer
from repro.optimizer.engine import Optimizer
from repro.optimizer.step2 import build_pass_context
from repro.sql.binder import bind_sql
from repro.workloads import adapted_batch, independent_pairs_batch, scaleup_batch

from .property.test_prop_history import assert_reuse_invisible, fresh_plan_cache
from .test_stacked import STACKED_SQL

DB = build_tpch_database(scale_factor=0.002)

#: a workload with several interacting candidates (≥3).
MULTI_SQL = scaleup_batch(8)


def _optimize(
    reuse: bool,
    registry=None,
    tracer=None,
    deadline=None,
    sql=MULTI_SQL,
    options=OptimizerOptions(),
):
    session = Session(DB, options)
    batch = session.bind(sql)
    optimizer = Optimizer(
        DB,
        options,
        registry=registry,
        tracer=tracer,
        deadline=deadline,
    )
    with nullcontext() if reuse else fresh_plan_cache():
        result, run = optimizer.optimize_with_run(batch)
    return run, result


def _assert_on_off_identical(**batch):
    run_on, on = _optimize(True, **batch)
    run_off, off = _optimize(False, **batch)
    assert_reuse_invisible(on, off, (run_on, run_off))


def footprint_slow(run, group, ctx):
    """Footprint-free cross-check oracle for ``run.footprints``: intersect
    each enabled candidate's consumer gids with the group's descendant
    set, recomputed per call."""
    covered = run.memo.descendants(group) | {group.gid}
    return frozenset(
        candidate.cse_id
        for candidate in ctx.enabled
        if run.consumer_gids.get(candidate.cse_id, set()) & covered
    )


class TestFootprints:
    def test_footprints_match_descendant_walk_oracle(self):
        run, result = _optimize(True)
        assert len(result.candidates) >= 3
        assert run.footprints is not None
        ctx = build_pass_context(run, tuple(result.candidates))
        for group in run.memo.groups:
            fast = run.footprints[group.gid]
            slow = footprint_slow(run, group, ctx)
            assert fast == slow, f"footprint mismatch at g{group.gid}"

    def test_candidate_free_groups_have_empty_footprints(self):
        """A group whose subtree contains no consumer of any candidate
        has an empty footprint — its base-pass plan set serves the Step-3
        pass, which puts nothing for it in ``run.step3_plans``."""
        run, result = _optimize(True)
        consumer_gids = set()
        for gids in run.consumer_gids.values():
            consumer_gids |= gids
        footprints = run.footprints
        for group in run.memo.groups:
            if not footprints[group.gid]:
                assert group.gid not in consumer_gids
                assert group.gid not in run.step3_plans

    def test_memo_footprint_cache_invalidates(self):
        """Footprints recomputed after a group is added cover the new
        group and agree with the run's on every old one."""
        run, _ = _optimize(True)
        memo = run.memo
        first = run.footprints
        assert first == memo.candidate_footprints(run.consumer_gids)
        extra = bind_sql(DB.catalog, "select n_name from nation", name="extra")
        memo.build_block(extra.block, "extra")
        second = memo.candidate_footprints(run.consumer_gids)
        assert second[: len(first)] == first
        assert len(second) == len(memo.groups)
        assert not any(second[len(first):])  # no consumer below the new ones


class TestReuseBehaviour:
    def test_multi_candidate_passes_reuse_groups(self):
        _, on = _optimize(True)
        assert len(on.candidates) >= 3
        assert on.stats.cse_optimizations == 1
        assert on.stats.history_groups_reused > 0
        assert on.stats.history_hits > 0

    def test_off_mode_never_reuses_across_passes(self):
        _, off = _optimize(False)
        assert off.stats.cse_optimizations == 1
        assert off.stats.history_groups_reused == 0

    def test_on_off_bundles_identical(self):
        _assert_on_off_identical()

    @pytest.mark.parametrize(
        "sql, heuristics",
        [
            (STACKED_SQL, True),
            (adapted_batch(), False),
            (independent_pairs_batch(), False),
        ],
        ids=["stacked", "tpch_all_no_heuristics", "independent_pairs_no_heuristics"],
    )
    def test_on_off_bundles_identical_at_the_root(self, sql, heuristics):
        """Root candidates settle inside the fold over reused and
        recomputed plan sets alike: reuse must change nothing, with
        stacked bodies and with ten root candidates."""
        _assert_on_off_identical(
            sql=sql, options=OptimizerOptions(enable_heuristics=heuristics)
        )

    def test_off_mode_does_strictly_more_group_computes(self):
        _, on = _optimize(True)
        _, off = _optimize(False)
        assert off.stats.history_misses > on.stats.history_misses

    def test_deadline_still_enforced_with_reuse_on(self):
        """An expired deadline stops the run before the Step-3 pass."""
        with pytest.raises(OptimizerTimeoutError):
            _optimize(True, deadline=time.monotonic() - 1.0)

    def test_deadline_enforced_mid_step3(self):
        """A deadline that expires during Step 3 must abort the run even
        when most group lookups come from the base pass's plan sets."""
        session = Session(DB, OptimizerOptions())
        batch = session.bind(MULTI_SQL)
        probe = Optimizer(DB, OptimizerOptions())
        normal = probe.optimize(batch).stats.normal_time
        deadline = time.monotonic() + normal * 1.05
        optimizer = Optimizer(DB, OptimizerOptions(), deadline=deadline)
        try:
            optimizer.optimize(batch)
        except OptimizerTimeoutError:
            pass  # expired inside Step 2/3, as intended
        # Either way the governor observed the deadline: no hang, and a
        # completed run means the machine was simply fast enough.


class TestInstrumentation:
    def test_history_counters_in_registry(self):
        registry = MetricsRegistry()
        _optimize(True, registry=registry)
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["optimizer.history.hits"] > 0
        assert counters["optimizer.history.misses"] > 0
        assert counters["optimizer.history.groups_reused"] > 0
        passes = counters["optimizer.cse_passes"]
        assert snapshot["histograms"]["optimizer.step3_seconds"][
            "count"
        ] == passes
        assert "optimizer.history.pass_seconds" not in snapshot["histograms"]

    def test_journal_history_event_per_pass(self):
        for reuse in (True, False):
            tracer = Tracer()
            _, result = _optimize(reuse, tracer=tracer)
            events = [e.attrs for e in tracer.events if e.name == "history"]
            assert len(events) == result.stats.cse_optimizations == 1
            stats = result.stats
            assert events[0] == {
                "groups_reused": stats.history_groups_reused,
                "groups_recomputed": stats.history_misses,
                "planset_hits": stats.history_hits,
                "reuse": round(
                    stats.history_hits
                    / (stats.history_hits + stats.history_misses),
                    4,
                ),
            }
            assert (events[0]["groups_reused"] > 0) == reuse

    def test_explain_why_reports_reuse(self):
        session = Session(DB, OptimizerOptions())
        text = session.explain(MULTI_SQL, why=True)
        [line] = [
            line for line in text.splitlines()
            if line.startswith("optimization-history reuse (§5.4):")
        ]
        assert "reuse ratio:" in line
        assert "recomputed" in line


class TestCliFlag:
    def test_flag_composes_with_mode_flags(self):
        """No flag chooses how Step 3 runs: the mode flags alone set the
        options, and the removed ``--cse-strategy`` is an argparse error."""
        parser = build_parser()
        args = parser.parse_args(["query", "--no-heuristics", "select 1"])
        assert _options(args) == OptimizerOptions(enable_heuristics=False)
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["query", "--cse-strategy", "greedy", "select 1"]
            )
