"""Unit tests for the observability subsystem (metrics + tracing) and
its wiring into the optimizer, executor, and Session facade."""

import json
import threading

import pytest

from repro import MetricsRegistry, Session, Tracer
from repro.obs import NULL_REGISTRY, NULL_TRACER, TRACE_HEADER_TYPE, render_why
from repro.workloads import example1_batch, scaleup_batch


class TestMetricsRegistry:
    def test_counters_gauges_timers(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.counter("a", 2)
        registry.gauge("g", 7)
        registry.gauge("g", 9)
        with registry.timer("t_seconds"):
            pass
        registry.observe("t_seconds", 0.5)
        snapshot = registry.snapshot()
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["counters"]["a"] == 3
        assert snapshot["gauges"]["g"] == 9
        assert snapshot["histograms"]["t_seconds"]["count"] == 2
        assert registry.get("a") == 3
        assert registry.get("missing", -1) == -1
        assert registry.histogram("t_seconds").total >= 0.5

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("a")
        registry.gauge("g", 1)
        registry.observe("h", 1.0)
        with registry.timer("t"):
            pass
        snapshot = registry.snapshot()
        assert snapshot == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_reset_and_merge(self):
        registry = MetricsRegistry()
        registry.counter("a", 5)
        registry.reset()
        assert registry.get("a") == 0
        other = MetricsRegistry()
        other.counter("a", 2)
        other.observe("t_seconds", 1.0)
        registry.merge(other)
        registry.merge(other)
        assert registry.get("a") == 4
        assert registry.snapshot()["histograms"]["t_seconds"]["count"] == 2

    def test_thread_safety(self):
        registry = MetricsRegistry()

        def hammer():
            for _ in range(1000):
                registry.counter("hits")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.get("hits") == 4000


class TestTracer:
    def test_span_nesting_and_jsonl(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", kind="test") as outer:
            with tracer.span("inner"):
                tracer.event("point", detail=1)
            outer.attrs["late"] = True
        lines = [json.loads(l) for l in tracer.to_jsonl().splitlines()]
        by_name = {l["name"]: l for l in lines}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["point"]["parent_id"] == by_name["inner"]["span_id"]
        assert by_name["outer"]["attrs"] == {"kind": "test", "late": True}
        assert "duration" in by_name["outer"]
        assert "duration" not in by_name["point"]
        path = tmp_path / "trace.jsonl"
        assert tracer.write(str(path)) == 3
        written = path.read_text().splitlines()
        # header record + the three events
        assert len(written) == 4
        header = json.loads(written[0])
        assert header["type"] == TRACE_HEADER_TYPE
        assert header["version"] == 1
        assert "wall_time_unix" in header and "perf_counter_epoch" in header

    def test_disabled_tracer(self):
        with NULL_TRACER.span("x") as span:
            assert span is None
        NULL_TRACER.event("y")
        assert NULL_TRACER.events == []


class TestSessionWiring:
    def test_optimizer_spans_cover_figure1(self, tiny_db):
        tracer = Tracer()
        session = Session(tiny_db, tracer=tracer)
        session.optimize(example1_batch())
        names = [e.name for e in tracer.events]
        for step in (
            "optimize",
            "normal_optimization",
            "candidate_generation",
            "cse_optimization",
            "cse_pass",
        ):
            assert step in names, names
        optimize = next(e for e in tracer.events if e.name == "optimize")
        assert optimize.parent_id is None
        children = {
            e.name for e in tracer.events if e.parent_id == optimize.span_id
        }
        assert {
            "normal_optimization", "candidate_generation", "cse_optimization",
        } <= children

    def test_registry_counters_from_both_layers(self, tiny_db):
        registry = MetricsRegistry()
        session = Session(tiny_db, registry=registry)
        session.execute(example1_batch())
        counters = registry.snapshot()["counters"]
        assert counters["optimizer.candidates_generated"] >= 1
        assert counters["cse.merge_benefit_evaluations"] >= 1
        assert counters["executor.spools_materialized"] >= 1
        assert counters["executor.spool_reads"] >= 2
        assert registry.histogram("optimizer.total_seconds").total > 0

    def test_step3_seconds_observes_only_step3_passes(self, tiny_db):
        """Single-table queries never reach Step 3, so they add no
        ``optimizer.step3_seconds`` observation."""
        registry = MetricsRegistry()
        session = Session(tiny_db, registry=registry)
        session.optimize("select r_name from region")
        session.optimize("select n_name from nation")
        session.optimize(example1_batch())
        snapshot = registry.snapshot()
        passes = snapshot["counters"]["optimizer.cse_passes"]
        assert snapshot["counters"]["optimizer.batches"] == 3
        assert snapshot["histograms"]["optimizer.step3_seconds"]["count"] == passes == 1

    @pytest.mark.parametrize("batch", ["example1", "fig8_6"])
    def test_candidate_generation_work_counts(self, tiny_db, batch):
        """The work Step 2 does, as counts: each consumer is put into slot
        space once, probes never materialise, and a full construction
        happens only for a candidate Algorithm 1 emits."""
        sql = example1_batch() if batch == "example1" else scaleup_batch(6)
        registry, tracer = MetricsRegistry(), Tracer()
        session = Session(tiny_db, registry=registry, tracer=tracer)
        stats = session.optimize(sql).stats

        def events(kind):
            return [e.attrs for e in tracer.events if e.name == kind]

        counters = registry.snapshot()["counters"]
        assert counters["cse.constructions"] == stats.candidates_before_pruning
        # Distinct consumer groups: every group of every signature bucket
        # that reached compatibility analysis (bucket-level H1 passed).
        analysed = {
            e["signature"] for e in events("h1")
            if e["passed"] and not e["signature"].startswith("set:")
        }
        consumers = sum(
            e["groups"] for e in events("bucket")
            if e["sharable"] and e["signature"] in analysed
        )
        assert counters["cse.consumer_profiles"] == consumers
        probes = sum(e["probed"] for e in events("h3"))
        assert counters["cse.merge_probes"] == probes > 0
        assert counters["cse.merge_benefit_evaluations"] <= probes
        why = render_why(tracer.events)
        assert (
            f"candidate generation: {consumers} consumer profile(s), "
            f"{probes} merge probe(s), "
            f"{stats.candidates_before_pruning} construction(s)"
        ) in why

    def test_null_session_publishes_nothing(self, tiny_db):
        session = Session(tiny_db)
        session.execute(example1_batch())
        assert session.registry is NULL_REGISTRY
        assert NULL_REGISTRY.snapshot()["counters"] == {}

    def test_op_stats_only_on_request(self, tiny_db):
        session = Session(tiny_db)
        plain = session.execute(example1_batch())
        assert plain.execution.op_stats is None
        analyzed = session.execute(example1_batch(), collect_op_stats=True)
        assert analyzed.execution.op_stats
        plan = next(iter(analyzed.execution.executed_plans.values()))
        stats = analyzed.execution.stats_for(plan)
        assert stats is not None and stats.rows_out > 0
