"""The sharing-economics ledger: Def 5.1 identities, assembly from
plan/run evidence, and the cross-surface number-equality contract
(EXPLAIN ANALYZE == query log == /metrics == explain --why)."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro import MetricsRegistry, OptimizerOptions, Session
from repro.executor.runtime import SpoolStats
from repro.obs import build_ledger, render_ledger
from repro.obs.exporter import render_prometheus
from repro.obs.querylog import QueryLog
from repro.workloads import example1_batch


@dataclass
class FakeCandidate:
    cse_id: str
    body_cost: float
    write_cost: float
    read_cost: float


def _stats(**kw):
    stats = SpoolStats()
    for key, value in kw.items():
        setattr(stats, key, value)
    return stats


def _reads(*counts):
    """``Q1``, ``Q2``, ... reading spool E1 ``counts[i]`` times each."""
    return {f"Q{i + 1}": {"E1": count} for i, count in enumerate(counts)}


def _spool(record, cse_id="E1"):
    (entry,) = [s for s in record["spools"] if s["spool"] == cse_id]
    return entry


class TestDefinition51:
    def test_estimated_savings_identity(self):
        # Def 5.1: n*C_E - (C_E + C_W + n*C_R) with n=3, C_E=100,
        # C_W=20, C_R=5 -> 300 - (100 + 20 + 15) = 165.
        record = build_ledger(
            [FakeCandidate("E1", 100.0, 20.0, 5.0)], _reads(1, 1, 1)
        )
        assert _spool(record)["planned_consumers"] == 3
        assert _spool(record)["est_savings"] == pytest.approx(165.0)

    def test_measured_savings_uses_actual_reads(self):
        record = build_ledger(
            [], _reads(1, 1, 1),
            {"E1": _stats(reads=2, body_cost_units=100.0,
                          write_cost_units=120.0, read_cost_units=8.0)},
        )
        entry = _spool(record)
        assert (entry["planned_consumers"], entry["consumers"]) == (3, 2)
        # 2*100 - (100 + 20 + 8) = 72: one planned consumer never read.
        assert entry["measured_savings"] == pytest.approx(72.0)
        assert not entry["negative"]

    def test_single_consumer_spool_loses_money(self):
        record = build_ledger(
            [], _reads(1),
            {"E1": _stats(reads=1, body_cost_units=100.0,
                          write_cost_units=120.0, read_cost_units=4.0)},
        )
        entry = _spool(record)
        assert (entry["planned_consumers"], entry["consumers"]) == (1, 1)
        # 1*C_E - (C_E + C_W + C_R) = -(C_W + C_R): sharing with one
        # actual reader can never pay.
        assert entry["measured_savings"] == pytest.approx(-24.0)
        assert entry["negative"]
        assert record["negative_spools"] == ["E1"]
        assert "!! negative benefit" in render_ledger(record)

    def test_partial_measured_side_is_not_judged(self):
        # Planned 2, read once: the other planned reader (a cross-session
        # consumer, say) measured its side elsewhere, so one reader's -24
        # says nothing about whether the spool paid.
        record = build_ledger(
            [], _reads(1, 1),
            {"E1": _stats(reads=1, body_cost_units=100.0,
                          write_cost_units=120.0, read_cost_units=4.0)},
        )
        entry = _spool(record)
        assert (entry["planned_consumers"], entry["consumers"]) == (2, 1)
        assert entry["measured_savings"] == pytest.approx(-24.0)
        assert not entry["negative"]
        assert record["negative_spools"] == []
        assert "!! negative benefit" not in render_ledger(record)


class TestBuildLedger:
    def test_measured_write_is_total_minus_body(self):
        stats = _stats(
            reads=2, rows_written=10, rows_read=20,
            body_cost_units=100.0, write_cost_units=130.0,
            read_cost_units=8.0,
        )
        record = build_ledger(
            [FakeCandidate("E1", 90.0, 25.0, 4.0)], _reads(1, 1),
            {"E1": stats},
        )
        entry = _spool(record)
        assert entry["measured_body_cost"] == pytest.approx(100.0)
        assert entry["measured_write_cost"] == pytest.approx(30.0)
        assert entry["measured_read_total"] == pytest.approx(8.0)
        assert entry["est_body_cost"] == pytest.approx(90.0)
        assert entry["planned_consumers"] == 2
        assert entry["consumers"] == 2

    def test_stacked_spool_never_plans_below_actual_reads(self):
        # A stacked spool's body is itself a reader, which query plans
        # under-count; the ledger keeps the higher observed count.
        stats = _stats(reads=3, body_cost_units=10.0, write_cost_units=12.0)
        record = build_ledger(
            [FakeCandidate("E1", 10.0, 2.0, 1.0)], _reads(2), {"E1": stats}
        )
        assert _spool(record)["planned_consumers"] == 3

    def test_only_materialized_spools_appear(self):
        record = build_ledger(
            [FakeCandidate("E1", 1.0, 1.0, 1.0),
             FakeCandidate("E2", 1.0, 1.0, 1.0)],
            {},
            {"E1": _stats(reads=1)},
        )
        assert [e["spool"] for e in record["spools"]] == ["E1"]

    def test_per_query_attribution_sums_to_totals(self):
        stats = _stats(
            reads=3, body_cost_units=100.0, write_cost_units=120.0,
            read_cost_units=9.0,
        )
        record = build_ledger(
            [FakeCandidate("E1", 100.0, 20.0, 3.0)],
            {"Q1": {"E1": 2}, "Q2": {"E1": 1}, "Q3": {}},
            {"E1": stats},
        )
        queries = record["queries"]
        assert sum(q["est_savings"] for q in queries) == pytest.approx(
            record["est_savings"]
        )
        assert sum(
            q["measured_savings"] for q in queries
        ) == pytest.approx(record["measured_savings"])
        by_name = {q["query"]: q for q in queries}
        assert by_name["Q1"]["measured_savings"] == pytest.approx(
            by_name["Q2"]["measured_savings"] * 2
        )
        assert by_name["Q3"]["measured_savings"] == 0.0

    def test_estimated_ledger_has_zero_measured_columns(self):
        # Without spool_stats the record is the plan-time ledger.
        record = build_ledger(
            [FakeCandidate("E1", 100.0, 20.0, 5.0)], _reads(1, 1)
        )
        entry = _spool(record)
        assert entry["planned_consumers"] == 2
        assert entry["consumers"] == 0
        assert entry["measured_savings"] == pytest.approx(-0.0)
        assert entry["est_savings"] == pytest.approx(70.0)


class TestLedgerSurfaces:
    @pytest.fixture()
    def run(self, small_db):
        registry = MetricsRegistry()
        query_log = QueryLog()
        session = Session(
            small_db, OptimizerOptions(), registry=registry,
            query_log=query_log, workers=4,
        )
        outcome = session.execute(example1_batch())
        return session, registry, query_log, outcome

    def test_measured_savings_positive_on_example1(self, run):
        _, _, _, outcome = run
        ledger = outcome.ledger
        assert ledger is not None and ledger["spools"]
        assert ledger["measured_savings"] > 0
        assert ledger["est_savings"] > 0
        assert ledger["negative_spools"] == []
        entry = ledger["spools"][0]
        assert entry["consumers"] == 3  # Q1, Q2, Q3 all read the spool
        assert entry["rows_written"] > 0

    def test_same_numbers_on_every_surface(self, run):
        session, registry, query_log, outcome = run
        payload = outcome.ledger

        # Query log carries the identical record.
        assert query_log.records[-1]["ledger"] == payload

        # Prometheus gauges equal the payload's rounded values.
        for spool in payload["spools"]:
            labels = {"spool": spool["spool"]}
            assert registry.get(
                "ledger.spool_measured_savings", labels=labels
            ) == spool["measured_savings"]
            assert registry.get(
                "ledger.spool_est_savings", labels=labels
            ) == spool["est_savings"]
            assert registry.get(
                "ledger.spool_consumers", labels=labels
            ) == spool["consumers"]
        assert registry.get("ledger.spools_shared") == len(payload["spools"])
        assert registry.get("ledger.negative_spools") == 0

        text = render_prometheus(registry)
        assert "repro_ledger_spool_measured_savings{" in text

        # EXPLAIN ANALYZE renders from the same payload.
        analyzed = session.explain(example1_batch(), analyze=True)
        assert "sharing ledger (Def 5.1, cost units):" in analyzed
        for spool in payload["spools"]:
            assert f"C_E={spool['est_body_cost']}" in analyzed

    def test_explain_why_shows_plan_time_ledger(self, run):
        session, _, _, outcome = run
        why = session.explain(example1_batch(), why=True)
        assert "sharing ledger (Def 5.1, cost units):" in why
        payload = outcome.ledger
        # Same estimated terms as the executed ledger, measured all zero.
        for spool in payload["spools"]:
            assert f"C_E={spool['est_body_cost']}" in why
        assert "measured: C_E=0" in why

    def test_totals_accumulate_as_counters(self, run):
        session, registry, _, outcome = run
        first = registry.get("ledger.measured_savings_total")
        assert first == pytest.approx(outcome.ledger["measured_savings"])
        session.execute(example1_batch())
        assert registry.get("ledger.batches") == 2
        assert registry.get("ledger.measured_savings_total") > first

    def test_degraded_run_has_empty_ledger(self, small_db):
        session = Session(
            small_db, OptimizerOptions(enable_cse=False),
        )
        outcome = session.execute(example1_batch())
        assert outcome.ledger is not None
        assert outcome.ledger["spools"] == []
        assert "no shared spools" in render_ledger(outcome.ledger)
