"""§5.4 optimization-history reuse: footprints, cache behaviour, and
instrumentation.

The cross-pass history cache must be invisible in every observable plan
property (covered property-wise in ``tests/property/test_prop_history.py``)
while actually skipping work — these tests pin down the mechanism: the
footprint computation agrees with the descendant-walk oracle, reused
passes carry group results forward, the counters/journal/EXPLAIN surfaces
report it, and the governor's deadline stays live with reuse enabled.
"""

from __future__ import annotations

import time

import pytest

from repro import OptimizerOptions, Session
from repro.catalog.tpch import build_tpch_database
from repro.cli import _options, build_parser
from repro.errors import OptimizerTimeoutError
from repro.obs import DecisionJournal, MetricsRegistry
from repro.optimizer.engine import Optimizer
from repro.optimizer.search import relevant_ids, relevant_ids_slow
from repro.optimizer.step2 import build_pass_context
from repro.workloads import scaleup_batch

DB = build_tpch_database(scale_factor=0.002)

#: a workload with several interacting candidates (≥3) and multiple
#: Step-3 passes — the regime §5.4 exists for.
MULTI_SQL = scaleup_batch(8)


def _optimize(reuse: bool, registry=None, journal=None, deadline=None):
    session = Session(DB, OptimizerOptions())
    batch = session.bind(MULTI_SQL)
    optimizer = Optimizer(
        DB,
        OptimizerOptions(reuse_history=reuse),
        registry=registry,
        journal=journal,
        deadline=deadline,
    )
    result, run = optimizer.optimize_with_run(batch)
    return run, result


class TestFootprints:
    def test_footprints_match_descendant_walk_oracle(self):
        run, result = _optimize(True)
        assert len(result.candidates) >= 3
        assert run.footprints is not None
        ctx = build_pass_context(run, tuple(result.candidates))
        for group in run.memo.groups:
            fast = relevant_ids(run, group, ctx)
            slow = relevant_ids_slow(run, group, ctx)
            assert fast == slow, f"footprint mismatch at g{group.gid}"

    def test_candidate_free_groups_have_empty_footprints(self):
        """A group whose subtree contains no consumer of any candidate
        has an empty footprint — its base-pass plan set serves every
        Step-3 pass (key (gid, frozenset()) never varies)."""
        run, result = _optimize(True)
        consumer_gids = set()
        for gids in run.consumer_gids.values():
            consumer_gids |= gids
        footprints = run.footprints
        for group in run.memo.groups:
            if not footprints[group.gid]:
                assert group.gid not in consumer_gids

    def test_memo_footprint_cache_invalidates(self):
        run, _ = _optimize(True)
        memo = run.memo
        consumers = run.consumer_gids
        first = memo.candidate_footprints(consumers)
        assert memo.candidate_footprints(consumers) is first  # cached
        memo.invalidate_dag_cache()
        second = memo.candidate_footprints(consumers)
        assert second is not first
        assert second == first


class TestReuseBehaviour:
    def test_multi_candidate_passes_reuse_groups(self):
        _, on = _optimize(True)
        assert on.stats.cse_optimizations >= 2
        assert on.stats.history_groups_reused > 0
        assert on.stats.history_hits > 0

    def test_off_mode_never_reuses_across_passes(self):
        _, off = _optimize(False)
        assert off.stats.cse_optimizations >= 2
        assert off.stats.history_groups_reused == 0
        assert off.stats.history_tops_folded == 0

    def test_on_off_bundles_identical(self):
        _, on = _optimize(True)
        _, off = _optimize(False)
        assert on.stats.est_cost_final == off.stats.est_cost_final
        assert on.stats.used_cses == off.stats.used_cses
        assert on.bundle.fingerprint() == off.bundle.fingerprint()
        assert on.bundle.describe() == off.bundle.describe()

    def test_off_mode_does_strictly_more_group_computes(self):
        _, on = _optimize(True)
        _, off = _optimize(False)
        assert off.stats.history_misses > on.stats.history_misses

    def test_deadline_still_enforced_with_reuse_on(self):
        with pytest.raises(OptimizerTimeoutError):
            _optimize(True, deadline=time.monotonic() - 1.0)

    def test_deadline_enforced_mid_step3(self):
        """A deadline that expires during Step 3 must abort the run even
        when most group lookups come from history."""
        session = Session(DB, OptimizerOptions())
        batch = session.bind(MULTI_SQL)
        probe = Optimizer(DB, OptimizerOptions(reuse_history=True))
        normal = probe.optimize(batch).stats.normal_time
        deadline = time.monotonic() + normal * 1.05
        optimizer = Optimizer(
            DB, OptimizerOptions(reuse_history=True), deadline=deadline
        )
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
        assert "optimizer.history.pass_seconds" in snapshot["histograms"]
        passes = counters["optimizer.cse_passes"]
        assert snapshot["histograms"]["optimizer.history.pass_seconds"][
            "count"
        ] == passes
        assert "optimizer.step3" in snapshot["timers"]

    def test_journal_history_event_per_pass(self):
        for reuse in (True, False):
            journal = DecisionJournal()
            _, result = _optimize(reuse, journal=journal)
            events = journal.events("history")
            assert len(events) == result.stats.cse_optimizations
            for index, event in enumerate(events, start=1):
                assert event["pass_index"] == index
                assert event["subset"]
                assert event["seconds"] >= 0.0
                if not reuse:
                    assert event["groups_reused"] == 0

    def test_explain_why_reports_reuse(self):
        session = Session(DB, OptimizerOptions())
        text = session.explain(MULTI_SQL, why=True)
        assert "optimization-history reuse (§5.4):" in text
        assert "reuse ratio:" in text
        assert "recomputed" in text


class TestCliFlag:
    def test_no_history_reuse_flag(self):
        parser = build_parser()
        args = parser.parse_args(
            ["explain", "--no-history-reuse", "select r_name from region"]
        )
        assert _options(args).reuse_history is False
        args = parser.parse_args(["explain", "select r_name from region"])
        assert _options(args).reuse_history is True

    def test_flag_composes_with_mode_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["query", "--no-heuristics", "--no-history-reuse", "select 1"]
        )
        options = _options(args)
        assert options.enable_heuristics is False
        assert options.reuse_history is False
