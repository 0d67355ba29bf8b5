"""Cross-thread trace propagation and the tracer file lifecycle.

The propagation invariant: with ``Session(workers=N)``, every span a
worker thread emits chains up to the batch root span — no orphans — and
the ``spool_flow`` events reconstruct exactly the schedule's
producer→consumer DAG. The lifecycle contract: a path-bound tracer
flushes incrementally, closes idempotently, never duplicates events, and
is settled by ``Session.close`` (or the context manager / interpreter
exit) so the trace file is never truncated.
"""

from __future__ import annotations

import gc
import json

import pytest

from repro import OptimizerOptions, Session, Tracer
from repro.obs import TRACE_HEADER_TYPE, analyze, find_orphans, load_trace
from repro.obs.critical import find_roots
from repro.executor.schedule import build_schedule
from repro.workloads import example1_batch, example1_with_q4


def _events(tracer: Tracer):
    return [json.loads(line) for line in tracer.to_jsonl().splitlines()]


def _schedule_edges(bundle):
    """(producer key, consumer key) edges of the plan-time task DAG."""
    schedule = build_schedule(bundle)
    by_index = {t.index: t for t in schedule.tasks}
    edges = set()
    for task in schedule.tasks:
        consumer = f"{task.kind}:{task.label}"
        for dep in task.deps:
            edges.add((f"spool:{by_index[dep].label}", consumer))
    return edges


class TestCrossThreadPropagation:
    @pytest.fixture()
    def traced_run(self, small_db):
        tracer = Tracer()
        session = Session(small_db, OptimizerOptions(), tracer=tracer,
                          workers=4)
        outcome = session.execute(example1_with_q4())
        return session, tracer, outcome

    def test_single_batch_root_and_zero_orphans(self, traced_run):
        _, tracer, _ = traced_run
        events = _events(tracer)
        roots = find_roots(events)
        batch_roots = [e for e in roots if e["name"] == "batch"]
        assert len(batch_roots) == 1
        # The tentpole invariant: worker-thread task spans re-attach the
        # scheduling thread's context, so nothing floats free.
        assert find_orphans(events, batch_roots[0]["span_id"]) == []

    def test_worker_threads_actually_appear(self, traced_run):
        _, tracer, _ = traced_run
        events = _events(tracer)
        threads = {e.get("thread") for e in events}
        workers = {t for t in threads if t and t.startswith("repro-worker")}
        # 4 workers were configured; at least one task span must have run
        # off the scheduling thread for the propagation test to mean
        # anything.
        assert workers
        task_threads = {
            e.get("thread") for e in events if e["name"] == "task"
        }
        assert task_threads <= workers

    def test_flow_edges_match_schedule_dag(self, traced_run):
        _, tracer, outcome = traced_run
        events = _events(tracer)
        report = analyze(events)
        expected = _schedule_edges(outcome.optimization.bundle)
        assert expected, "workload should share at least one spool"
        assert set(report.flow_edges) == expected

    def test_task_spans_parent_under_execute_batch(self, traced_run):
        _, tracer, _ = traced_run
        events = _events(tracer)
        by_id = {e["span_id"]: e for e in events}
        tasks = [e for e in events if e["name"] == "task"]
        assert tasks
        for task in tasks:
            parent = by_id[task["parent_id"]]
            assert parent["name"] == "execute_batch"

    def test_critical_path_names_spool_producer(self, small_db):
        # Example 1 proper: every query consumes the shared spool, so the
        # longest chain must start at its producer.
        tracer = Tracer()
        session = Session(small_db, OptimizerOptions(), tracer=tracer,
                          workers=4)
        session.execute(example1_batch())
        report = analyze(_events(tracer))
        assert report.critical_path
        assert report.critical_path[0].startswith("spool:")
        assert any(k.startswith("query:") for k in report.critical_path)


class TestTracerLifecycle:
    def test_flush_is_incremental_and_idempotent(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path=str(path))
        with tracer.span("first"):
            pass
        assert tracer.flush() == 1
        assert len(path.read_text().splitlines()) == 2  # header + 1
        with tracer.span("second"):
            pass
        assert tracer.flush() == 1
        assert tracer.flush() == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["type"] == TRACE_HEADER_TYPE

    def test_close_flushes_and_is_idempotent(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path=str(path))
        with tracer.span("only"):
            pass
        assert tracer.close() == 1
        assert tracer.close() == 0
        assert len(path.read_text().splitlines()) == 2

    def test_write_to_bound_path_prevents_duplicate_flush(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path=str(path))
        with tracer.span("a"):
            pass
        tracer.write(str(path))
        # The bound file already holds everything: close must not append.
        assert tracer.close() == 0
        assert len(path.read_text().splitlines()) == 2

    def test_finalizer_flushes_at_garbage_collection(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path=str(path))
        with tracer.span("survivor"):
            pass
        del tracer
        gc.collect()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["name"] == "survivor"

    def test_session_context_manager_settles_trace(self, small_db, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path=str(path))
        with Session(small_db, OptimizerOptions(), tracer=tracer) as session:
            session.execute(example1_batch())
        trace = load_trace(str(path))
        assert trace.header is not None
        assert trace.header["version"] == 1
        assert "wall_time_unix" in trace.header
        assert "perf_counter_epoch" in trace.header
        assert any(e["name"] == "batch" for e in trace.events)
        # A settled session flushed everything: re-flushing adds nothing.
        assert session.tracer.flush() == 0
