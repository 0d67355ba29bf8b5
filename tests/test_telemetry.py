"""Production telemetry: histograms, Prometheus export, the structured
query log, and the optimizer decision journal.

Covers the telemetry subsystem end to end: log-bucket histogram math,
Prometheus text rendering validated by a strict parser, the stdlib HTTP
telemetry server, per-query JSONL records with slow-query EXPLAIN ANALYZE
attachment, and the ``--why`` journal naming the heuristic that killed
every rejected candidate on the paper's Example 1 batch.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro import OptimizerOptions, Session
from repro.cli import main as cli_main
from repro.obs import (
    NULL_JOURNAL,
    NULL_QUERY_LOG,
    DecisionJournal,
    Histogram,
    MetricsRegistry,
    QueryLog,
    TelemetryServer,
    Tracer,
    parse_prometheus_text,
    render_prometheus,
    sanitize_metric_name,
)
from repro.workloads.example1 import EXAMPLE1_BATCH_SQL


# ---------------------------------------------------------------------------
# Histogram
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_quantiles_within_observed_range(self):
        hist = Histogram()
        samples = [0.001, 0.002, 0.01, 0.05, 0.05, 0.1, 0.5, 1.0, 2.0, 3.5]
        for s in samples:
            hist.observe(s)
        snap = hist.snapshot()
        assert snap["count"] == len(samples)
        assert snap["sum"] == pytest.approx(sum(samples))
        for q in (0.5, 0.95, 0.99):
            estimate = hist.quantile(q)
            assert min(samples) <= estimate <= max(samples)
        assert hist.quantile(0.5) <= hist.quantile(0.99)

    def test_empty_histogram(self):
        hist = Histogram()
        assert hist.quantile(0.5) == 0.0
        assert hist.snapshot()["count"] == 0

    def test_merge_equals_combined_observation(self):
        a, b = Histogram(), Histogram()
        for v in (0.01, 0.2, 5.0):
            a.observe(v)
        for v in (0.03, 7.5):
            b.observe(v)
        a.merge(b)
        snap = a.snapshot()
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(0.01 + 0.2 + 5.0 + 0.03 + 7.5)

    def test_registry_observe_and_snapshot(self):
        registry = MetricsRegistry()
        registry.observe("x.seconds", 0.5)
        registry.observe("x.seconds", 1.5)
        snap = registry.snapshot()
        assert snap["histograms"]["x.seconds"]["count"] == 2
        # Merging registries merges their histograms too.
        other = MetricsRegistry()
        other.observe("x.seconds", 2.5)
        registry.merge(other)
        assert registry.snapshot()["histograms"]["x.seconds"]["count"] == 3


# ---------------------------------------------------------------------------
# Prometheus exporter + telemetry server
# ---------------------------------------------------------------------------


class TestExporter:
    def test_sanitize_names(self):
        assert sanitize_metric_name("optimizer.cse_seconds") == (
            "repro_optimizer_cse_seconds"
        )
        assert sanitize_metric_name("a-b c!d") == "repro_a_b_c_d"

    def test_render_parses_with_strict_checker(self):
        registry = MetricsRegistry()
        registry.counter("optimizer.batches", 3)
        registry.gauge("executor.parallel_workers", 4)
        with registry.timer("bench.optimize"):
            pass
        for v in (0.001, 0.05, 2.0):
            registry.observe("serve.query_seconds", v)
        text = render_prometheus(registry)
        families = parse_prometheus_text(text)
        assert families["repro_optimizer_batches_total"][0][1] == 3.0
        bucket = families["repro_serve_query_seconds_bucket"]
        # Cumulative with a +Inf terminator equal to the count.
        inf = [v for labels, v in bucket if labels.get("le") == "+Inf"]
        assert inf == [3.0]
        assert families["repro_serve_query_seconds_count"][0][1] == 3.0

    def test_parser_rejects_malformed_text(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("not a metric line!!!\n")

    def test_labelled_histogram_series_round_trip(self):
        """Label sets on one histogram family render as independent
        Prometheus series (shared HELP/TYPE, per-series cumulative
        buckets) and survive the strict checker."""
        registry = MetricsRegistry()
        for v in (0.001, 0.05):
            registry.observe(
                "executor.task_seconds", v, labels={"outcome": "ok"}
            )
        registry.observe(
            "executor.task_seconds", 2.0, labels={"outcome": "error"}
        )
        registry.observe("executor.task_seconds", 0.01)  # unlabelled
        text = render_prometheus(registry)
        # One family header, not one per label set.
        assert text.count("# TYPE repro_executor_task_seconds ") == 1
        families = parse_prometheus_text(text)
        counts = {
            labels.get("outcome"): value
            for labels, value in families["repro_executor_task_seconds_count"]
        }
        assert counts == {"ok": 2.0, "error": 1.0, None: 1.0}
        ok_inf = [
            value
            for labels, value in families["repro_executor_task_seconds_bucket"]
            if labels.get("outcome") == "ok" and labels.get("le") == "+Inf"
        ]
        assert ok_inf == [2.0]

    def test_series_key_round_trip(self):
        from repro.obs.metrics import series_key, split_series_key

        key = series_key("executor.task_seconds", {"outcome": "ok", "a": "b"})
        assert key == 'executor.task_seconds{a="b",outcome="ok"}'
        assert split_series_key(key) == (
            "executor.task_seconds", 'a="b",outcome="ok"'
        )
        assert series_key("plain") == "plain"
        assert split_series_key("plain") == ("plain", "")

    def test_server_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("optimizer.batches", 7)
        with TelemetryServer(registry, port=0) as server:
            body = urllib.request.urlopen(server.url + "/metrics").read()
            families = parse_prometheus_text(body.decode())
            assert families["repro_optimizer_batches_total"][0][1] == 7.0
            health = json.load(
                urllib.request.urlopen(server.url + "/healthz")
            )
            assert health["status"] == "ok"
            assert health["uptime_seconds"] >= 0.0
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(server.url + "/nope")

    def test_session_telemetry_port(self, small_db):
        registry = MetricsRegistry()
        server = TelemetryServer(registry, port=0).start()
        session = Session(small_db, registry=registry, plan_cache_size=0)
        try:
            assert session.registry.enabled
            session.execute("select r_name from region")
            text = (
                urllib.request.urlopen(server.url + "/metrics")
                .read()
                .decode()
            )
            families = parse_prometheus_text(text)
            assert any("serve_query_seconds" in n for n in families)
        finally:
            session.close()
            server.stop()


# ---------------------------------------------------------------------------
# Structured query log
# ---------------------------------------------------------------------------


class TestQueryLog:
    def test_execute_appends_record(self, small_db, tmp_path):
        path = tmp_path / "queries.jsonl"
        log = QueryLog(path=str(path))
        session = Session(small_db, query_log=log)
        session.execute(EXAMPLE1_BATCH_SQL)
        session.execute(EXAMPLE1_BATCH_SQL)

        assert len(log) == 2
        first, second = log.records
        assert first["queries"] == ["Q1", "Q2", "Q3"]
        assert first["plan_cache_hit"] is False
        assert second["plan_cache_hit"] is True
        assert first["fingerprint"] == second["fingerprint"]
        assert first["candidates_kept"] >= 1
        assert first["estimated_savings"] > 0
        assert first["spool_rows_written"] > 0
        assert first["rows"] > 0
        assert not first["slow"]
        # The file holds the same records, one JSON object per line.
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["fingerprint"] == first["fingerprint"]

    def test_slow_queries_carry_explain_analyze(self, small_db):
        log = QueryLog(slow_ms=0.0)  # everything is slow
        session = Session(small_db, query_log=log)
        session.execute(EXAMPLE1_BATCH_SQL)
        (record,) = log.records
        assert record["slow"]
        assert record in log.slow_queries()
        report = record["explain_analyze"]
        assert report.startswith("EXPLAIN ANALYZE")
        # The attached tree is from the measured run, with actuals.
        assert "actual rows=" in report
        assert "never executed" not in report

    def test_null_query_log_is_silent(self, small_db):
        session = Session(small_db)
        assert session.query_log is NULL_QUERY_LOG
        session.execute("select r_name from region")
        assert len(NULL_QUERY_LOG) == 0

    def test_fresh_empty_log_is_not_dropped(self, small_db):
        # A QueryLog has a length, so an empty one is falsy; the session
        # must still adopt it (regression for `or`-based defaulting).
        log = QueryLog()
        assert not log  # precondition: falsy when empty
        session = Session(small_db, query_log=log)
        assert session.query_log is log


# ---------------------------------------------------------------------------
# Decision journal + explain --why
# ---------------------------------------------------------------------------

_WHY_REASONS = (
    "H1",
    "H2",
    "H3",
    "H4 containment",
    "single-consumer LCA discard",
    "sharing never beat recomputation",
    "max_candidates cap",
)


class TestDecisionJournal:
    def test_journal_records_full_lifecycle(self, small_db):
        journal = DecisionJournal()
        session = Session(small_db, journal=journal)
        result = session.optimize(EXAMPLE1_BATCH_SQL)
        assert result.journal is journal
        kinds = {entry["kind"] for entry in journal.events()}
        assert {"bucket", "h1", "h2", "h3", "candidate", "lca",
                "verdict"} <= kinds
        # Every generated candidate gets exactly one verdict.
        candidates = [e["cse_id"] for e in journal.events("candidate")]
        verdicts = journal.verdicts()
        assert sorted(verdicts) == sorted(candidates)
        kept = [cid for cid, v in verdicts.items() if v["kept"]]
        assert kept == result.stats.used_cses
        # for_candidate collects that candidate's trail.
        trail = journal.for_candidate(kept[0])
        assert any(e["kind"] == "lca" for e in trail)

    @pytest.mark.parametrize("heuristics", [True, False])
    def test_every_rejected_candidate_names_its_heuristic(
        self, small_db, heuristics
    ):
        """Acceptance: ``--why`` on Example 1 names the heuristic (H1-H4,
        containment, or single-consumer LCA discard) for every
        generated-but-rejected candidate."""
        options = OptimizerOptions() if heuristics else OptimizerOptions(
            enable_heuristics=False, max_cse_optimizations=16
        )
        journal = DecisionJournal()
        session = Session(small_db, options)
        session.optimize(EXAMPLE1_BATCH_SQL, journal=journal)
        rejected = [
            v for v in journal.verdicts().values() if not v["kept"]
        ]
        assert rejected, "Example 1 must generate rejected candidates"
        for verdict in rejected:
            assert any(
                reason in verdict["reason"] for reason in _WHY_REASONS
            ), verdict

    def test_render_why_report(self, small_db):
        session = Session(small_db)
        report = session.explain(EXAMPLE1_BATCH_SQL, why=True)
        assert "Optimizer decision journal" in report
        assert "candidate generation:" in report
        assert "H1" in report and "α" in report
        assert "KEPT" in report and "REJECTED" in report
        # The session journal stays untouched (a fresh one is scoped).
        assert session.journal is NULL_JOURNAL

    def test_journal_jsonl_round_trip(self, small_db):
        journal = DecisionJournal()
        session = Session(small_db, journal=journal)
        session.optimize(EXAMPLE1_BATCH_SQL)
        lines = journal.to_jsonl().strip().splitlines()
        assert len(lines) == len(journal)
        parsed = [json.loads(line) for line in lines]
        assert all("kind" in entry for entry in parsed)

    def test_disabled_journal_is_free(self):
        assert not NULL_JOURNAL.enabled
        NULL_JOURNAL.event("candidate", cse_id="E1")
        assert len(NULL_JOURNAL) == 0


#: two EXISTS consumers sharing one decorrelated semi-join build side — every
#: consumer match goes through the equivalence-checker gate.
_EXISTS_PAIR_SQL = (
    "select c_nationkey, count(*) as v from customer where exists "
    "(select * from orders, lineitem where o_custkey = c_custkey and "
    "o_orderkey = l_orderkey and l_quantity < 30) group by c_nationkey;"
    "select c_mktsegment, count(*) as v from customer where exists "
    "(select * from orders, lineitem where o_custkey = c_custkey and "
    "o_orderkey = l_orderkey and l_quantity < 30) group by c_mktsegment"
)

#: a bare outer join: the simplifier's reduction attempt must give up, and
#: ``--why`` must say so.
_BARE_LEFT_SQL = (
    "select c_nationkey, o_totalprice from customer "
    "left join orders on c_custkey = o_custkey"
)

_REDUCIBLE_LEFT_SQL = (
    "select c_nationkey, o_totalprice from customer "
    "left join orders on c_custkey = o_custkey where o_totalprice > 1000"
)


class TestEquivalenceJournal:
    def test_consumer_matches_emit_equiv_events(self, small_db):
        journal = DecisionJournal()
        session = Session(small_db, journal=journal)
        session.optimize(_EXISTS_PAIR_SQL)
        checks = [
            e for e in journal.events("equiv") if e.get("cse_id") is not None
        ]
        assert checks, "consumer matching must consult the checker"
        for entry in checks:
            assert entry["outcome"] in ("proved", "refuted", "gave_up")
            assert entry["consumer"].startswith("g")
            assert entry["reason"]

    def test_verdicts_name_checker_outcome(self, small_db):
        """Acceptance: every candidate verdict carries the equivalence-
        checker tally for its consumer checks, and the checks appear in
        the candidate's journal trail."""
        journal = DecisionJournal()
        session = Session(small_db, journal=journal)
        session.optimize(_EXISTS_PAIR_SQL)
        verdicts = journal.verdicts()
        assert verdicts
        for cse_id, verdict in verdicts.items():
            assert "proved=" in verdict["equiv"], verdict
            trail = journal.for_candidate(cse_id)
            assert any(e["kind"] == "equiv" for e in trail)

    def test_why_reports_rejected_outer_join_reduction(self, small_db):
        report = Session(small_db).explain(_BARE_LEFT_SQL, why=True)
        assert "equivalence checker (outer-join simplification):" in report
        assert "gave_up" in report
        assert "no post-join filter constrains the outer side" in report

    def test_why_reports_proved_reduction(self, small_db):
        report = Session(small_db).explain(_REDUCIBLE_LEFT_SQL, why=True)
        assert "outer-join reduction: proved" in report
        assert "null-rejecting" in report

    def test_why_renders_consumer_checks_under_candidate(self, small_db):
        journal = DecisionJournal()
        session = Session(small_db, journal=journal)
        session.optimize(_EXISTS_PAIR_SQL)
        report = journal.render_why()
        assert "equivalence check for consumer" in report
        assert "[equivalence checker: proved=" in report

    def test_equiv_events_survive_jsonl(self, small_db):
        journal = DecisionJournal()
        session = Session(small_db, journal=journal)
        session.optimize(_EXISTS_PAIR_SQL + ";" + _BARE_LEFT_SQL)
        parsed = [
            json.loads(line)
            for line in journal.to_jsonl().strip().splitlines()
        ]
        kinds = {entry["kind"] for entry in parsed}
        assert "equiv" in kinds
        reduction = [
            e for e in parsed
            if e["kind"] == "equiv" and e.get("cse_id") is None
        ]
        assert any(e.get("extension") for e in reduction)


# ---------------------------------------------------------------------------
# Satellites: parallel op-stat timer reconciliation, tracer concurrency
# ---------------------------------------------------------------------------


class TestParallelTimerReconciliation:
    def test_worker_slots_merge_timer_maps(self, small_db):
        """Per-worker OperatorStats slots merged after a parallel run must
        reconcile per-phase timer maps, matching the serial totals."""
        serial = Session(small_db, plan_cache_size=0)
        parallel = Session(small_db, workers=4, plan_cache_size=0)
        ser = serial.execute(EXAMPLE1_BATCH_SQL, collect_op_stats=True)
        par = parallel.execute(
            EXAMPLE1_BATCH_SQL, collect_op_stats=True, workers=4
        )

        def timer_profile(execution):
            profile = {}
            for stats in execution.execution.op_stats.values():
                for name, seconds in stats.timers.items():
                    profile[name] = profile.get(name, 0) + 1
                    assert seconds > 0.0
            return profile

        ser_profile = timer_profile(ser)
        par_profile = timer_profile(par)
        # Same phases appear with the same multiplicity: merged worker
        # slots did not lose (or double) any timer components.
        assert ser_profile == par_profile
        assert "materialize" in par_profile  # spool bodies were timed
        assert "finalize" in par_profile
        # And the results themselves are identical.
        for s, p in zip(ser.execution.results, par.execution.results):
            assert s.sorted_rows() == p.sorted_rows()


class TestTracerConcurrency:
    def test_eight_threads_one_sink(self):
        tracer = Tracer()
        errors = []

        def worker(tid: int) -> None:
            try:
                for i in range(25):
                    with tracer.span(f"outer-{tid}", thread=tid) as outer:
                        tracer.event(f"point-{tid}-{i}")
                        with tracer.span(f"inner-{tid}") as inner:
                            assert inner.parent_id == outer.span_id
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(tid,)) for tid in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # 8 threads x 25 iterations x (outer + point + inner).
        assert len(tracer.events) == 8 * 25 * 3
        lines = tracer.to_jsonl().splitlines()
        assert len(lines) == len(tracer.events)
        by_id = {}
        for line in lines:
            event = json.loads(line)
            assert event["span_id"] not in by_id, "span ids must be unique"
            by_id[event["span_id"]] = event
        for event in by_id.values():
            parent = event["parent_id"]
            if parent is None:
                continue
            # Parent exists and belongs to the same thread's trace:
            # nesting never leaks across threads.
            assert parent in by_id
            parent_name = by_id[parent]["name"]
            tid = event["name"].split("-")[1]
            assert parent_name == f"outer-{tid}"


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------


class TestTelemetryCli:
    def test_explain_why(self, capsys):
        import io

        out = io.StringIO()
        code = cli_main(
            ["--sf", "0.001", "explain", "--why", EXAMPLE1_BATCH_SQL], out
        )
        assert code == 0
        text = out.getvalue()
        assert "Optimizer decision journal" in text
        assert "candidate generation:" in text

    def test_query_with_query_log(self, tmp_path):
        import io

        path = tmp_path / "log.jsonl"
        out = io.StringIO()
        code = cli_main(
            [
                "--sf", "0.001", "query",
                "--query-log", str(path), "--slow-ms", "0",
                "select r_name from region",
            ],
            out,
        )
        assert code == 0
        assert "query log: 1 record(s) (1 slow)" in out.getvalue()
        record = json.loads(path.read_text().splitlines()[0])
        assert record["slow"] is True
        assert record["explain_analyze"].startswith("EXPLAIN ANALYZE")

    def test_serve_metrics_runs_and_stops(self):
        import io

        out = io.StringIO()
        code = cli_main(
            [
                "--sf", "0.001", "serve-metrics",
                "select r_name from region",
                "--port", "0", "--iterations", "1", "--duration", "0",
            ],
            out,
        )
        assert code == 0
        text = out.getvalue()
        assert "/metrics" in text and "/healthz" in text
        assert "telemetry server stopped" in text


class TestHistoryReuseMetrics:
    """§5.4 optimization-history counters and the per-pass histogram
    survive the Prometheus exporter's strict parse check."""

    def _registry_after_multi_pass_batch(self):
        from repro.workloads import scaleup_batch

        registry = MetricsRegistry()
        session = Session(
            Session.tpch(scale_factor=0.002).database,
            OptimizerOptions(),
            registry=registry,
        )
        session.optimize(scaleup_batch(8))
        return registry

    def test_history_counters_render_and_parse(self):
        registry = self._registry_after_multi_pass_batch()
        text = render_prometheus(registry)
        families = parse_prometheus_text(text)
        for name in (
            "repro_optimizer_history_hits_total",
            "repro_optimizer_history_misses_total",
            "repro_optimizer_history_groups_reused_total",
            "repro_optimizer_history_tops_folded_total",
        ):
            assert name in families, f"missing {name}"
        assert families["repro_optimizer_history_hits_total"][0][1] > 0
        assert families["repro_optimizer_history_groups_reused_total"][0][1] > 0

    def test_pass_seconds_histogram_renders_and_parses(self):
        registry = self._registry_after_multi_pass_batch()
        text = render_prometheus(registry)
        families = parse_prometheus_text(text)
        bucket = families["repro_optimizer_history_pass_seconds_bucket"]
        inf = [v for labels, v in bucket if labels.get("le") == "+Inf"]
        count = families["repro_optimizer_history_pass_seconds_count"][0][1]
        assert inf == [count]
        passes = registry.snapshot()["counters"]["optimizer.cse_passes"]
        assert count == passes > 0
