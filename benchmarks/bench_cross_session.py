"""Cross-session sharing benchmark: micro-batched vs isolated serving.

Eight sessions concurrently serve overlapping three-table aggregations
(same ``customer ⋈ orders ⋈ lineitem`` core, different group keys and
aggregates — the workload shape the coordinator exists for). Two arms,
interleaved-free (each measured over its own rounds):

* **isolated** — no coordinator: every session optimizes and executes its
  own query (plan caches warm after the first round, so the steady state
  measures execution, not repeated optimization);
* **shared** — one coordinator with an 8-way window: the eight arrivals
  merge into one batch per round, the join core materializes once, and
  every consumer reads the shared spool.

The aggregate-throughput ratio must clear ``SPEEDUP_FLOOR`` (default 1.35,
override with ``REPRO_CROSS_SESSION_SPEEDUP``; ten runs at SF=0.005
measure 1.52-2.31x, median 1.72x: isolated ~81 ms vs shared ~48 ms per
round — with string columns stored as pool codes the isolated arm's
eight string group-bys gained 1.6x and the shared arm 1.3x, so the ratio
fell from 1.87-2.33x while both arms got faster; EXPERIMENTS.md has both
arms' absolute times), and every shared-arm row
set must equal the isolated rows (the repo's standard rounded
comparison). A second panel optimizes the merged 8-query batch under the
paper's Step-3 subset enumeration vs the greedy AND-OR DAG heuristic
(cs/9910021) and reports both optimization times and costs.
"""

from __future__ import annotations

import os
import threading
import time

from repro.api import Session
from repro.obs import MetricsRegistry
from repro.optimizer.options import OptimizerOptions
from repro.serve import SharedBatchCoordinator

SESSIONS = 8
ROUNDS = 5
WINDOW_MS = 250.0

_CORE = (
    "from customer, orders, lineitem "
    "where c_custkey = o_custkey and o_orderkey = l_orderkey "
)

#: eight overlapping queries: one per session, all sharing the join core.
QUERIES = [
    f"select c_nationkey, sum(l_extendedprice) as v {_CORE}group by c_nationkey",
    f"select c_mktsegment, sum(l_quantity) as v {_CORE}group by c_mktsegment",
    f"select o_orderstatus, sum(l_extendedprice) as v {_CORE}group by o_orderstatus",
    f"select o_orderpriority, sum(l_quantity) as v {_CORE}group by o_orderpriority",
    f"select c_nationkey, count(*) as v {_CORE}group by c_nationkey",
    f"select c_mktsegment, count(*) as v {_CORE}group by c_mktsegment",
    f"select o_orderstatus, sum(o_totalprice) as v {_CORE}group by o_orderstatus",
    f"select o_orderpriority, count(*) as v {_CORE}group by o_orderpriority",
]


def _speedup_floor() -> float:
    return float(os.environ.get("REPRO_CROSS_SESSION_SPEEDUP", "1.35"))


def _norm(rows):
    return sorted(
        [
            tuple(round(v, 4) if isinstance(v, float) else v for v in row)
            for row in rows
        ],
        key=repr,
    )


def _serve_rounds(sessions, rounds):
    """Each session serves its query ``rounds`` times, all concurrently.

    Arrivals are re-synchronized per round (a barrier): the workload
    models bursts of concurrent requests — the regime micro-batching
    targets — rather than a staggered trickle, and both arms serve the
    identical arrival pattern. Returns (aggregate wall seconds,
    {query index: last row set})."""
    rows = {}
    errors = []
    barrier = threading.Barrier(len(sessions))

    def worker(index, session):
        try:
            for _ in range(rounds):
                barrier.wait()
                outcome = session.execute(QUERIES[index])
                rows[index] = _norm(outcome.execution.results[0].rows)
        except BaseException as error:  # noqa: BLE001 — re-raised below
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(i, s), daemon=True)
        for i, s in enumerate(sessions)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(300.0)
    wall = time.perf_counter() - start
    assert not any(t.is_alive() for t in threads), "serving arm hung"
    if errors:
        raise errors[0]
    return wall, rows


def test_eight_session_shared_throughput(benchmark, bench_db):
    floor = _speedup_floor()

    isolated_sessions = [Session(bench_db) for _ in range(SESSIONS)]
    # One untimed warmup round per arm: both arms measure the steady
    # state (plan caches warm — per-session caches here, the merged-batch
    # cache in the shared arm), not one-off optimization cost.
    _serve_rounds(isolated_sessions, 1)
    isolated_wall, isolated_rows = _serve_rounds(isolated_sessions, ROUNDS)

    registry = MetricsRegistry()
    coordinator = SharedBatchCoordinator(
        window_ms=WINDOW_MS, max_group=SESSIONS, registry=registry
    )
    shared_sessions = [
        Session(bench_db, coordinator=coordinator, registry=registry)
        for _ in range(SESSIONS)
    ]
    _serve_rounds(shared_sessions, 1)
    shared_wall, shared_rows = _serve_rounds(shared_sessions, ROUNDS)

    # Rows are identical to isolated execution, query by query.
    for index in range(SESSIONS):
        assert shared_rows[index] == isolated_rows[index], (
            f"query {index} diverged under sharing"
        )

    counters = registry.snapshot()["counters"]
    merged = counters.get("coordinator.merged_consumers", 0)
    assert merged >= SESSIONS, "coordinator never merged a window"
    assert counters.get("coordinator.spools_freed", 0) == counters.get(
        "coordinator.spools_published", 0
    )

    total = SESSIONS * ROUNDS
    isolated_qps = total / isolated_wall
    shared_qps = total / shared_wall
    ratio = shared_qps / isolated_qps
    print(
        f"\n== Cross-session serving ({SESSIONS} sessions x {ROUNDS} "
        f"rounds) ==\n"
        f"  isolated {isolated_wall * 1000:8.1f}ms  "
        f"({isolated_qps:6.1f} q/s)\n"
        f"  shared   {shared_wall * 1000:8.1f}ms  "
        f"({shared_qps:6.1f} q/s)   {ratio:.2f}x  "
        f"[{merged} merged consumers]"
    )
    benchmark.extra_info["isolated_ms"] = round(isolated_wall * 1000, 2)
    benchmark.extra_info["shared_ms"] = round(shared_wall * 1000, 2)
    benchmark.extra_info["throughput_ratio"] = round(ratio, 2)
    benchmark.extra_info["merged_consumers"] = int(merged)
    assert ratio >= floor, (
        f"shared throughput {ratio:.2f}x below the {floor:.1f}x floor"
    )
    benchmark(lambda: shared_sessions[0].execute(QUERIES[0]))


def test_step3_strategy_panel(benchmark, bench_db):
    """Merged 8-query batch: paper subset enumeration vs greedy DAG."""
    sql = ";\n".join(QUERIES)
    panel = {}
    for strategy in ("paper", "greedy"):
        session = Session(
            bench_db,
            OptimizerOptions(cse_strategy=strategy),
            plan_cache_size=0,
        )
        start = time.perf_counter()
        result = session.optimize(sql)
        wall = time.perf_counter() - start
        assert result.stats.strategy == strategy
        panel[strategy] = {
            "optimize_ms": round(wall * 1000, 2),
            "est_cost": round(result.est_cost, 1),
            "candidates": result.stats.candidates_generated,
            "used_cses": list(result.stats.used_cses),
        }
    print(
        f"\n== Step-3 strategy panel (merged {SESSIONS}-query batch) ==\n"
        + "\n".join(
            f"  {name:<6} {info['optimize_ms']:8.2f}ms  "
            f"est_cost {info['est_cost']:10.1f}  "
            f"cses {info['used_cses'] or 'none'}"
            for name, info in panel.items()
        )
    )
    benchmark.extra_info.update(panel)
    # Both strategies must share: the merged batch is exactly the high
    # candidate-count regime the greedy path exists for.
    assert panel["paper"]["used_cses"]
    assert panel["greedy"]["used_cses"]
    benchmark(
        lambda: Session(
            bench_db,
            OptimizerOptions(cse_strategy="greedy"),
            plan_cache_size=0,
        ).optimize(sql)
    )
