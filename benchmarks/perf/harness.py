"""Engine-facing half of the benchmark: set-up, closed loops, checks, spans.

Layers are measured from outside, by timing calls into their public
functions and reading the public result objects; nothing under ``src/`` is
instrumented for this. ``run.py`` puts ``src/`` on ``sys.path`` before it
imports this module.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import statistics
import sys
import threading
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api import Session
from repro.catalog.tpch import build_tpch_database
from repro.executor.reference import evaluate_batch
from repro.obs import MetricsRegistry
from repro.optimizer.options import OptimizerOptions
from repro.serve import (
    ResourceGovernor,
    SharedBatchCoordinator,
    batch_tables,
    cache_key,
)
from repro.sql.binder import Binder
from repro.sql.parser import parse_batch
from repro.views.maintenance import MaintenancePlanner
from repro.views.materialized import ViewManager
from repro.workloads.example1 import Q1_SQL, Q2_SQL, Q3_SQL

import workloads as wl
from workloads import Batch, Plan, Spec, batch_sql

#: scale factor of the independent-oracle cross-check, and how many queries'
#: worth of a run's distinct batches go through it (the oracle is
#: row-at-a-time Python, ~0.05 s per Fig-8 query).
ORACLE_SCALE_FACTOR = 0.002
ORACLE_QUERIES = 12

#: set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

WINDOW_MS = 50.0
BARRIER_TIMEOUT_S = 60.0


def client_count() -> int:
    """Closed-loop clients on ``serve_mixed``: never more threads than cores."""
    return max(2, min(len(os.sched_getaffinity(0)), 4))


# -- host-speed probe -------------------------------------------------------------

#: one probe reading on the reference box (2-vCPU 2.1 GHz Xeon microVM,
#: CPython 3.11) when the host is quiet. Only a unit: timings are reported as
#: if every probe reading had taken this long.
REFERENCE_PROBE_S = 0.003
_SPIN = 80_000


class SpeedProbe:
    """Removes the host's speed from the timings.

    The sandbox is a 2-vCPU microVM whose speed steps between levels up to
    25% apart and stays on one for seconds to minutes (neighbours on the
    host, not this process: a bare spin loop shows the same steps). Ten
    runs of one workload land on different mixes of levels, which alone
    puts the run-to-run spread of every timing above its bound.

    So one fixed probe is timed before and after every timed step, and the
    step's duration is scaled by ``REFERENCE_PROBE_S`` over the mean of the
    two readings: timings are reported *at reference speed*. The probe is a
    pure-Python loop; measured against engine ops it tracks the host's
    level better than numpy kernels or a mix of both, whose sub-millisecond
    readings are too noisy. It never touches the engine, so no change to the
    engine can move it; the unscaled timings are kept in the run's stamp."""

    def __init__(self) -> None:
        self.last = self.read()

    @staticmethod
    def read() -> float:
        start = perf_counter()
        total = 0
        for i in range(_SPIN):
            total += i * i
        return perf_counter() - start

    def mark(self) -> None:
        """Take the "before" reading of the next step."""
        self.last = self.read()

    def factor(self) -> float:
        """Scale for the step that ran since the last reading."""
        before, self.last = self.last, self.read()
        return REFERENCE_PROBE_S / ((before + self.last) / 2.0)


# -- spans ---------------------------------------------------------------------------


class SpanLog:
    """Bench-side spans ``{id, name, start, end, parent, op_id}``, kept in
    memory and written out when the run ends."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str, op_id: int, parent: Optional[int] = None):
        record = {
            "id": next(self._ids), "name": name, "op_id": op_id,
            "parent": parent, "start": perf_counter(), "end": None,
        }
        self.spans.append(record)
        try:
            yield record["id"]
        finally:
            record["end"] = perf_counter()

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name: duration minus child durations."""
        children: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]] += span["end"] - span["start"]
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            duration = span["end"] - span["start"]
            totals[span["name"]] += duration - children[span["id"]]
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# -- output checking ---------------------------------------------------------------


def normalize(rows: Iterable[Sequence]) -> List[tuple]:
    """Rows in an order that does not depend on how they were produced."""
    return sorted(
        (tuple(row) for row in rows),
        key=lambda row: repr(tuple(
            f"{v:.6g}" if isinstance(v, float) else v for v in row
        )),
    )


def same_rows(left: List[tuple], right: List[tuple]) -> bool:
    """The repo's rounded comparison of normalized rows, with the rounding
    made relative (1e-9): re-associated float sums here reach 1e10, where
    four fixed decimals are below float64's resolution."""
    def same(x, y) -> bool:
        if isinstance(x, float) or isinstance(y, float):
            return math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-6) or (
                x != x and y != y
            )
        return x == y

    return len(left) == len(right) and all(
        len(a) == len(b) and all(map(same, a, b))
        for a, b in zip(left, right)
    )


class Checker:
    """Expected rows from the no-sharing serial configuration.

    One single-query execution per distinct query text and database
    version: with CSEs off the optimizer plans every query on its own, so a
    query's rows do not depend on the batch it arrives in."""

    def __init__(self, database) -> None:
        self.session = Session(
            database,
            OptimizerOptions(enable_cse=False),
            workers=1,
            plan_cache_size=0,
            shared_scans=False,
        )
        self._expected: Dict[str, List[tuple]] = {}

    def forget(self) -> None:
        """The database changed: every expectation is stale."""
        self._expected.clear()

    def expected(self, query: str) -> List[tuple]:
        rows = self._expected.get(query)
        if rows is None:
            result = self.session.execute(query).execution.results[0]
            rows = self._expected[query] = normalize(result.rows)
        return rows

    def matches(self, batch: Batch, results) -> bool:
        return len(results) == len(batch) and all(
            same_rows(normalize(result.rows), self.expected(query))
            for query, result in zip(batch, results)
        )


def oracle_failures(session: Session, batches: Sequence[Batch]) -> int:
    """Batches whose rows differ from ``executor.reference.evaluate_batch``."""
    failures = 0
    for batch in batches:
        sql = batch_sql(batch)
        reference = evaluate_batch(session.database, session.bind(sql))
        results = session.execute(sql).execution.results
        failures += not all(
            same_rows(normalize(result.rows), normalize(reference[result.name]))
            for result in results
        )
    return failures


def _report_error(where: str) -> None:
    print(f"-- {where} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# -- what a run collects ----------------------------------------------------------------


@dataclass
class Timed:
    """The timed interval of one run. Seconds are as measured; ``scale`` is
    the step's :class:`SpeedProbe` factor."""

    #: ``Session.execute`` latency of every query op: (seconds, scale).
    latencies: List[Tuple[float, float]] = field(default_factory=list)
    #: every closed-loop step (op, round or write): (seconds, scale, queries
    #: in ops that completed with the expected rows).
    steps: List[Tuple[float, float, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


class Layers:
    """Per-layer sums over the traced ops of one run."""

    def __init__(self) -> None:
        self.ops = 0
        self.sums: Dict[str, float] = defaultdict(float)

    def add_optimization(self, result, seconds: float) -> None:
        """One optimizer run (never a cached result)."""
        stats = result.stats
        s = self.sums
        s["optimize_s"] += seconds
        s["normal_s"] += stats.normal_time
        s["candidate_gen_s"] += stats.cse_time - stats.step3_time
        s["step3_s"] += stats.step3_time
        s["memo_groups"] += stats.memo_groups
        s["candidates_before_pruning"] += stats.candidates_before_pruning
        s["candidates_generated"] += stats.candidates_generated
        s["cse_passes"] += stats.cse_optimizations
        s["history_hits"] += stats.history_hits
        s["history_misses"] += stats.history_misses
        s["used_cses"] += len(stats.used_cses)
        s["est_cost_no_cse"] += stats.est_cost_no_cse
        s["est_cost_final"] += stats.est_cost_final

    def add_execution(self, result, execution, whole_bundle=True) -> None:
        """One execution: measured counters beside the bundle's estimate
        (``whole_bundle`` is False for all but one of the consumers that
        executed one merged bundle between them)."""
        metrics = execution.metrics
        s = self.sums
        if whole_bundle:
            s["est_cost_executed"] += result.est_cost
        s["execute_wall_s"] += execution.wall_time
        s["cost_units"] += metrics.cost_units
        s["rows_scanned"] += metrics.rows_scanned
        s["rows_joined"] += metrics.rows_joined
        s["rows_aggregated"] += metrics.rows_aggregated
        s["spools_materialized"] += metrics.spools_materialized
        s["spool_rows_written"] += metrics.spool_rows_written
        s["spool_rows_read"] += metrics.spool_rows_read
        s["key_factorizations"] += metrics.key_factorizations
        s["key_factor_reuses"] += metrics.key_factor_reuses
        for scan in metrics.scan_stats.values():
            s["physical_scans"] += scan.physical_scans
            s["scan_rows_saved"] += scan.rows_saved


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- single-session workloads -----------------------------------------------------------


class SingleSession:
    """``fig8_cold``, ``fig8_warm`` and ``tpch_single``: one session, one
    closed loop of ``Session.execute`` calls."""

    clients = 1

    def __init__(self, spec: Spec, plan: Plan, scale_factor: float) -> None:
        self.spec = spec
        self.plan = plan
        self.scale_factor = scale_factor
        self.build_seconds: List[float] = []

    def _session(self, database, registry=None) -> Session:
        session = Session(
            database,
            plan_cache_size=self.spec.plan_cache_size,
            registry=registry,
        )
        for batch in self.plan.warmup:
            session.execute(batch_sql(batch))
        return session

    def setup(self) -> None:
        """Build the database, open the session, warm plans and code."""
        start = perf_counter()
        database = build_tpch_database(self.scale_factor)
        self.build_seconds.append(perf_counter() - start)
        self.session = self._session(database)
        self.checker = Checker(database)

    def teardown(self) -> None:
        """Let go of the previous set-up before the next one is built."""
        self.session = self.checker = None

    def prepare_checks(self) -> None:
        """Expected rows of every distinct query, before any clock starts."""
        for batch in self.plan.ops:
            for query in batch:
                self.checker.expected(query)

    def reference_ops(self) -> List[Batch]:
        """The traced run's sink-free reference pass: the first quarter of
        the cycles."""
        cycles = len(self.plan.ops) // self.spec.cycle
        return self.plan.ops[: self.spec.cycle * max(1, cycles // 4)]

    def attach_registry(self, registry: MetricsRegistry) -> None:
        """A second, warmed session over the same database for the traced
        pass; the sink-free one was the reference."""
        self.session = self._session(self.session.database, registry)

    def _check(self, batch: Batch, results, cache_hit: bool) -> bool:
        # With a plan cache the ops replay the batches warmed in set-up
        # (fig8_warm measures shared *cached* plans): an op that
        # re-optimized did different work and counts as failed.
        if self.spec.plan_cache_size and not cache_hit:
            return False
        return self.checker.matches(batch, results)

    def measure(
        self,
        ops: Sequence[Batch],
        probe: SpeedProbe,
        log: Optional[SpanLog] = None,
    ) -> Tuple[Timed, Layers]:
        """The closed loop. With ``log`` every op runs as the decomposed
        public-call sequence of ``Session.execute`` under spans."""
        timed, layers = Timed(), Layers()
        probe.mark()
        for op_id, batch in enumerate(ops):
            sql = batch_sql(batch)
            ok = False
            start = perf_counter()
            try:
                if log is None:
                    outcome = self.session.execute(sql)
                    results = outcome.execution.results
                    hit = outcome.plan_cache_hit
                else:
                    hit, results = self._traced_op(op_id, sql, log, layers)
                seconds = perf_counter() - start
                ok = True
            except Exception:  # the loop must go on; the op counts as failed
                seconds = perf_counter() - start
                _report_error(f"op {op_id}")
            scale = probe.factor()
            ok = ok and self._check(batch, results, hit)
            timed.attempted += 1
            timed.failed += not ok
            timed.latencies.append((seconds, scale))
            timed.steps.append((seconds, scale, len(batch) if ok else 0))
        return timed, layers

    def _traced_op(self, op_id: int, sql: str, log: SpanLog, layers: Layers):
        session = self.session
        cache = session.plan_cache
        with log.span("op", op_id) as op:
            with log.span("sql.parse", op_id, op):
                statements = parse_batch(sql)
            with log.span("sql.bind", op_id, op):
                bound = Binder(session.database.catalog).bind_batch(statements)
            result = None
            if cache is not None:
                with log.span("serve.cache_key", op_id, op):
                    key = cache_key(
                        bound, session.database, session.options,
                        session.cost_model,
                    )
                with log.span("serve.plan_cache", op_id, op):
                    result = cache.get(key)
                layers.sums["cache_lookups"] += 1
                layers.sums["cache_hits"] += result is not None
            hit = result is not None
            if not hit:
                start = perf_counter()
                with log.span("optimizer", op_id, op):
                    result = session.optimize(bound)
                layers.add_optimization(result, perf_counter() - start)
                if cache is not None:
                    with log.span("serve.plan_cache", op_id, op):
                        cache.put(key, result, batch_tables(bound))
            with log.span("executor", op_id, op):
                execution = session.execute_bundle(result)
        layers.ops += 1
        layers.add_execution(result, execution)
        return hit, execution.results

    def oracle_check(self) -> Tuple[int, int]:
        """(attempted, failed) of the SF=0.002 independent-oracle check."""
        distinct, queries = [], 0
        for batch in dict.fromkeys(self.plan.warmup + self.plan.ops):
            if queries >= ORACLE_QUERIES:
                break
            distinct.append(batch)
            queries += len(batch)
        session = Session(
            build_tpch_database(ORACLE_SCALE_FACTOR),
            plan_cache_size=self.spec.plan_cache_size,
        )
        return len(distinct), oracle_failures(session, distinct)

    def final_check(self) -> Tuple[int, int]:
        return 0, 0


# -- serve_mixed -----------------------------------------------------------------------


class ServeMixed:
    """``clients`` closed-loop sessions behind one coordinator and one
    governor, barrier-synchronized rounds, a view-maintaining write before
    every fifth round. The main thread conducts: it releases the clients,
    waits for them, and runs the writes while they wait at the barrier."""

    VIEWS = (("mv1", Q1_SQL), ("mv2", Q2_SQL), ("mv3", Q3_SQL))

    def __init__(self, spec: Spec, plan: Plan, scale_factor: float) -> None:
        self.spec = spec
        self.plan = plan
        self.scale_factor = scale_factor
        self.clients = plan.clients
        self.build_seconds: List[float] = []
        self.registry: Optional[MetricsRegistry] = None

    def _open(self, registry: Optional[MetricsRegistry]) -> None:
        """One serving stack: sessions sharing a coordinator and a governor."""
        self.registry = registry
        coordinator = SharedBatchCoordinator(
            window_ms=WINDOW_MS, max_group=self.clients, registry=registry
        )
        governor = ResourceGovernor(
            max_concurrent=self.clients, registry=registry
        )
        self.sessions = [
            Session(
                self.database,
                plan_cache_size=self.spec.plan_cache_size,
                registry=registry,
                governor=governor,
                coordinator=coordinator,
            )
            for _ in range(self.clients)
        ]

    def setup(self) -> None:
        start = perf_counter()
        self.database = build_tpch_database(self.scale_factor)
        self.build_seconds.append(perf_counter() - start)
        self.views = ViewManager(self.database)
        for name, sql in self.VIEWS:
            self.views.create_view(name, sql)
        self.views.refresh_all()
        self.planner = MaintenancePlanner(self.database, self.views)
        self.checker = Checker(self.database)
        #: writes applied so far; the next one inserts fresh customer keys.
        self.writes = 0
        self._open(None)
        self.measure(self.plan.warmup, SpeedProbe())

    def teardown(self) -> None:
        """Let go of the previous set-up before the next one is built."""
        self.database = self.views = self.planner = None
        self.checker = self.sessions = None

    def prepare_checks(self) -> None:
        """Expected rows depend on the write epoch: computed in the loop,
        outside every clock."""

    def reference_ops(self) -> list:
        """The traced run's sink-free reference pass: the first quarter of
        the epochs."""
        return self.plan.ops[: max(1, len(self.plan.ops) // 4)]

    def attach_registry(self, registry: MetricsRegistry) -> None:
        """A second, warmed serving stack over the same database for the
        traced pass; the sink-free one was the reference."""
        self._open(registry)
        self.measure(self.plan.warmup, SpeedProbe())

    def measure(
        self, epochs, probe: SpeedProbe, log: Optional[SpanLog] = None
    ) -> Tuple[Timed, Layers]:
        timed, layers = Timed(), Layers()
        clients = self.clients
        release = threading.Barrier(clients + 1)
        done = threading.Barrier(clients + 1)
        state = {"mix": None, "stop": False, "round": 0}
        slots: List[Optional[tuple]] = [None] * clients

        def client(index: int) -> None:
            session = self.sessions[index]
            while True:
                try:
                    release.wait(BARRIER_TIMEOUT_S)
                    if state["stop"]:
                        return
                    sql = batch_sql(state["mix"][index])
                    span = (
                        log.span("serve.execute", state["round"])
                        if log is not None else nullcontext()
                    )
                    outcome = None
                    start = perf_counter()
                    try:
                        with span:
                            outcome = session.execute(sql)
                    except Exception:  # the conductor counts the failed op
                        _report_error(f"client {index} round {state['round']}")
                    slots[index] = (perf_counter() - start, outcome)
                    done.wait(BARRIER_TIMEOUT_S)
                except threading.BrokenBarrierError:
                    return

        threads = [
            threading.Thread(target=client, args=(i,), daemon=True)
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        seen_plans: set = set()
        try:
            for mix in epochs:
                self._write(timed, layers, probe, log)
                # Expected rows for this write epoch, outside every clock.
                self.checker.forget()
                for batch in mix:
                    for query in batch:
                        self.checker.expected(query)
                state["mix"] = mix
                for _ in range(wl.ROUNDS_PER_WRITE):
                    probe.mark()
                    start = perf_counter()
                    release.wait(BARRIER_TIMEOUT_S)
                    done.wait(BARRIER_TIMEOUT_S)
                    seconds = perf_counter() - start
                    scale = probe.factor()
                    queries = 0
                    round_plans: set = set()
                    for batch, (latency, outcome) in zip(mix, slots):
                        timed.attempted += 1
                        timed.latencies.append((latency, scale))
                        layers.ops += 1
                        if outcome is None or not self.checker.matches(
                            batch, outcome.execution.results
                        ):
                            timed.failed += 1
                            continue
                        queries += len(batch)
                        self._account(
                            outcome, layers, seen_plans, round_plans
                        )
                    timed.steps.append((seconds, scale, queries))
                    # Share of the round its slowest client covers.
                    layers.sums["op_s"] += seconds
                    layers.sums["covered_s"] += max(s[0] for s in slots)
                    state["round"] += 1
        finally:
            state["stop"] = True
            try:
                release.wait(BARRIER_TIMEOUT_S)
            except threading.BrokenBarrierError:
                pass
            for thread in threads:
                thread.join(BARRIER_TIMEOUT_S)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("serve_mixed client thread did not stop")
        return timed, layers

    def _write(self, timed, layers, probe, log) -> None:
        rows = wl.customer_rows(self.plan.seed, self.writes)
        span = (
            log.span("views.maintain", -1 - self.writes)
            if log is not None else nullcontext()
        )
        self.writes += 1
        timed.attempted += 1
        probe.mark()
        start = perf_counter()
        try:
            with span:
                outcome = self.planner.apply_insert("customer", rows)
            layers.sums["maintain_cost_units"] += outcome.measured_cost
        except Exception:
            timed.failed += 1
            _report_error(f"write {self.writes}")
        seconds = perf_counter() - start
        layers.sums["writes"] += 1
        layers.sums["maintain_s"] += seconds
        timed.steps.append((seconds, probe.factor(), 0))

    @staticmethod
    def _account(
        outcome, layers: Layers, seen_plans: set, round_plans: set
    ) -> None:
        layers.sums["cache_lookups"] += 1
        layers.sums["cache_hits"] += outcome.plan_cache_hit
        layers.sums["degraded_ops"] += outcome.degraded
        # The consumers of one window share one optimization and execute
        # its bundle between them: count both once.
        plan = id(outcome.optimization)
        layers.add_execution(
            outcome.optimization, outcome.execution, plan not in round_plans
        )
        round_plans.add(plan)
        if not outcome.plan_cache_hit and plan not in seen_plans:
            seen_plans.add(plan)
            stats = outcome.optimization.stats
            layers.add_optimization(
                outcome.optimization, stats.optimization_time
            )

    def oracle_check(self) -> Tuple[int, int]:
        """The merged batch the coordinator forms from the first round, run
        through a sharing session at SF=0.002 against the oracle."""
        session = Session(build_tpch_database(ORACLE_SCALE_FACTOR))
        merged = tuple(q for batch in self.plan.ops[0] for q in batch)
        return 1, oracle_failures(session, [merged])

    def final_check(self) -> Tuple[int, int]:
        """Every materialized view must equal its recomputation, and (when
        a registry counted them) every published spool must be freed."""
        failures = 0
        for name, _ in self.VIEWS:
            view = self.views.view(name)
            stored = normalize(_view_rows(view))
            self.views.refresh(name)
            failures += not same_rows(stored, normalize(_view_rows(view)))
        checks = len(self.VIEWS)
        if self.registry is not None:
            counters = self.registry.snapshot()["counters"]
            checks += 1
            failures += counters.get(
                "coordinator.spools_published", 0
            ) != counters.get("coordinator.spools_freed", 0)
        return checks, failures


def _view_rows(view) -> List[tuple]:
    table = view.contents
    return list(zip(*(table.column(n).tolist() for n in table.column_names)))


def open_workload(spec: Spec, plan: Plan, scale_factor: float):
    kind = ServeMixed if spec.name == "serve_mixed" else SingleSession
    return kind(spec, plan, scale_factor)


# -- metrics -------------------------------------------------------------------------------


def percentiles(latencies: Sequence[float]) -> Tuple[float, float]:
    """(p50, p90) in milliseconds."""
    p50 = statistics.median(latencies)
    p90 = (
        statistics.quantiles(latencies, n=10)[-1]
        if len(latencies) >= 2 else p50
    )
    return p50 * 1000.0, p90 * 1000.0


def timing_metrics(timed: Timed, scaled: bool) -> Dict[str, float]:
    """Throughput and latency percentiles of a timed interval, at
    reference speed (``scaled``) or as the clock read."""
    def at(seconds: float, scale: float) -> float:
        return seconds * scale if scaled else seconds

    p50, p90 = percentiles([at(s, k) for s, k in timed.latencies])
    return {
        "queries_per_s": _ratio(
            sum(q for _, _, q in timed.steps),
            sum(at(s, k) for s, k, _ in timed.steps),
        ),
        "batch_ms_p50": p50,
        "batch_ms_p90": p90,
    }


def overhead_ratio(reference: Timed, traced: Timed) -> float:
    """Traced ÷ untraced latency: the median over the reference pass's ops
    of each op's own ratio (the traced pass replays the same ops first), so
    a mix of cheap and dear ops does not blur it."""
    return statistics.median(
        (t * tk) / (r * rk)
        for (r, rk), (t, tk) in zip(reference.latencies, traced.latencies)
    )


def per_layer(
    workload,
    layers: Layers,
    log: SpanLog,
    trace_overhead: float,
    before: dict,
    after: dict,
) -> Dict[str, dict]:
    """Every per-layer metric of ``BENCHMARK.json``; means per op unless the
    name says otherwise. Metrics of a layer the workload bypasses are 0.
    ``before``/``after`` are registry snapshots around the traced pass."""
    s, ops = layers.sums, max(1, layers.ops)
    own = log.self_seconds()
    serve = isinstance(workload, ServeMixed)

    def counter(name: str) -> float:
        return float(
            after["counters"].get(name, 0) - before["counters"].get(name, 0)
        )

    def histogram(name: str, key: str = "sum") -> float:
        empty = {"sum": 0.0, "count": 0}
        return (
            after["histograms"].get(name, empty)[key]
            - before["histograms"].get(name, empty)[key]
        )

    def histogram_mean(name: str) -> float:
        return _ratio(histogram(name), histogram(name, "count"))

    if not serve:
        # Σ child spans ÷ op span (serve_mixed filled these in its loop).
        op_ids = {sp["id"] for sp in log.spans if sp["name"] == "op"}
        for sp in log.spans:
            duration = sp["end"] - sp["start"]
            if sp["id"] in op_ids:
                s["op_s"] += duration
            elif sp["parent"] in op_ids:
                s["covered_s"] += duration

    def span_ms(name: str) -> float:
        return own.get(name, 0.0) * 1000.0 / ops

    values = {
        "sql.parse_ms": (span_ms("sql.parse"), "ms"),
        "sql.bind_ms": (span_ms("sql.bind"), "ms"),
        "serve.cache_key_ms": (span_ms("serve.cache_key"), "ms"),
        "serve.plan_cache_hit_ratio": (
            _ratio(s["cache_hits"], s["cache_lookups"]), "ratio"),
        "serve.plan_cache_invalidations": (counter("plan_cache.invalidation"), "count"),
        "serve.coordinator.window_wait_ms": (
            histogram_mean("coordinator.window_wait_seconds") * 1000.0, "ms"),
        "serve.coordinator.group_size": (
            histogram_mean("coordinator.group_size"), "count"),
        "serve.coordinator.merged_ratio": (
            _ratio(counter("coordinator.merged_consumers"), ops), "ratio"),
        "serve.coordinator.fallbacks": (
            counter("coordinator.fallbacks"), "count"),
        "serve.coordinator.spools_leaked": (
            counter("coordinator.spools_published")
            - counter("coordinator.spools_freed"), "count"),
        "serve.governor.queue_wait_ms": (
            histogram_mean("governor.queue_wait_seconds") * 1000.0, "ms"),
        "serve.degraded_ops": (s["degraded_ops"], "count"),
        "optimizer.optimize_ms": (s["optimize_s"] * 1000.0 / ops, "ms"),
        "optimizer.normal_ms": (s["normal_s"] * 1000.0 / ops, "ms"),
        "cse.candidate_gen_ms": (s["candidate_gen_s"] * 1000.0 / ops, "ms"),
        "optimizer.step3_ms": (s["step3_s"] * 1000.0 / ops, "ms"),
        "optimizer.memo_groups": (s["memo_groups"] / ops, "count"),
        "cse.candidates_before_pruning": (
            s["candidates_before_pruning"] / ops, "count"),
        "cse.candidates_generated": (s["candidates_generated"] / ops, "count"),
        "optimizer.cse_passes": (s["cse_passes"] / ops, "count"),
        "optimizer.history_hit_ratio": (
            _ratio(s["history_hits"], s["history_hits"] + s["history_misses"]),
            "ratio"),
        "optimizer.used_cses": (s["used_cses"] / ops, "count"),
        "optimizer.est_cost_ratio": (
            _ratio(s["est_cost_no_cse"], s["est_cost_final"]), "ratio"),
        # Inside ``Session.execute`` on serve_mixed: the executor's own clock.
        "executor.execute_ms": (
            s["execute_wall_s"] * 1000.0 / ops if serve
            else span_ms("executor"), "ms"),
        "executor.cost_units": (s["cost_units"] / ops, "units"),
        "executor.rows_scanned": (s["rows_scanned"] / ops, "rows"),
        "executor.physical_scans": (s["physical_scans"] / ops, "count"),
        "executor.scan_rows_saved": (s["scan_rows_saved"] / ops, "rows"),
        "executor.rows_joined": (s["rows_joined"] / ops, "rows"),
        "executor.rows_aggregated": (s["rows_aggregated"] / ops, "rows"),
        "executor.spools_materialized": (
            s["spools_materialized"] / ops, "count"),
        "executor.spool_rows_written": (s["spool_rows_written"] / ops, "rows"),
        "executor.spool_rows_read": (s["spool_rows_read"] / ops, "rows"),
        "executor.spool_bytes_written": (
            histogram("executor.spool_write_bytes") / ops, "bytes"),
        "executor.key_factor_reuse_ratio": (
            _ratio(s["key_factor_reuses"],
                   s["key_factor_reuses"] + s["key_factorizations"]),
            "ratio"),
        "views.maintain_ms": (
            _ratio(s["maintain_s"], s["writes"]) * 1000.0, "ms"),
        "views.maintain_cost_units": (
            _ratio(s["maintain_cost_units"], s["writes"]), "units"),
        "catalog.build_db_ms": (
            statistics.median(workload.build_seconds) * 1000.0, "ms"),
        "bench.layer_sum_ratio": (_ratio(s["covered_s"], s["op_s"]), "ratio"),
        "bench.trace_overhead_ratio": (trace_overhead, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def layer_table(layers: Layers, log: SpanLog) -> List[dict]:
    """Layers by self-time share of all traced time, largest first; the
    optimizer's phases (from ``OptimizationResult.stats``) are listed under
    it as ``optimizer/<phase>``."""
    own = log.self_seconds()
    total = sum(own.values()) or 1.0
    rows = [
        {"layer": name, "self_ms": seconds * 1000.0, "share": seconds / total}
        for name, seconds in own.items()
    ]
    for phase in ("normal", "candidate_gen", "step3"):
        seconds = layers.sums[f"{phase}_s"]
        if seconds:
            rows.append({
                "layer": f"optimizer/{phase}",
                "self_ms": seconds * 1000.0,
                "share": seconds / total,
            })
    return sorted(rows, key=lambda row: -row["share"])
