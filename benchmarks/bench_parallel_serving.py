"""Serving-layer benchmarks: warm-cache latency and parallel batch speedup.

Two experiments over the §6.5-style six-query shared-spool batch:

* plan cache — cold ``execute`` (optimize + run) vs. warm ``execute``
  (fingerprint lookup + run). The warm path must skip the optimizer
  entirely, which the benchmark verifies through the registry counters
  before reporting the latency ratio.
* pooled execution — wall clock at ``workers=1`` vs. ``workers=4`` with
  interleaved rounds, on the ``independent_pairs_batch`` workload (three
  mutually independent shared-spool pairs, so the heavy materializations
  themselves overlap rather than serializing behind one big spool).
  Thread speedup comes from numpy kernels releasing the GIL, so the
  achievable ratio is bounded by the cores the host makes available; the
  speedup floor is only asserted when 4+ cores are usable, otherwise the
  measured ratio is recorded for the report and the result equivalence
  checks still run.
"""

from __future__ import annotations

import os
import time

from repro.api import Session
from repro.obs import MetricsRegistry
from repro.optimizer.options import OptimizerOptions
from repro.workloads import independent_pairs_batch, scaleup_batch

ROUNDS = 7
SPEEDUP_FLOOR = 1.5
BATCH_QUERIES = 6


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def _trimmed_mean(samples):
    samples = sorted(samples)
    trimmed = samples[1:-1] if len(samples) > 4 else samples
    return sum(trimmed) / len(trimmed)


def _sorted_rows(execution):
    return [sorted(result.rows) for result in execution.results]


def test_plan_cache_warm_latency(benchmark, bench_db):
    registry = MetricsRegistry()
    session = Session(bench_db, OptimizerOptions(), registry=registry)
    sql = scaleup_batch(BATCH_QUERIES)

    start = time.perf_counter()
    cold = session.execute(sql)
    cold_time = time.perf_counter() - start
    assert not cold.plan_cache_hit

    warm_times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        warm = session.execute(sql)
        warm_times.append(time.perf_counter() - start)
        assert warm.plan_cache_hit
    warm_time = _trimmed_mean(warm_times)

    # The warm path really skipped optimization: one optimizer batch ever,
    # and every lookup after the first was a hit.
    counters = registry.snapshot()["counters"]
    assert counters["optimizer.batches"] == 1
    assert counters["plan_cache.miss"] == 1
    assert counters["plan_cache.hit"] == ROUNDS
    assert _sorted_rows(warm.execution) == _sorted_rows(cold.execution)

    ratio = cold_time / warm_time
    print(
        f"\n== Plan cache ({BATCH_QUERIES}-query batch, {ROUNDS} rounds) ==\n"
        f"  cold {cold_time * 1000:7.2f}ms  warm {warm_time * 1000:7.2f}ms  "
        f"({ratio:.2f}x)"
    )
    benchmark.extra_info["cold_ms"] = round(cold_time * 1000, 2)
    benchmark.extra_info["warm_ms"] = round(warm_time * 1000, 2)
    benchmark.extra_info["warm_speedup"] = round(ratio, 2)
    assert ratio > 1.0, "warm execute should beat cold optimize+execute"
    benchmark(lambda: session.execute(sql))


def test_parallel_batch_speedup(benchmark, bench_db):
    session = Session(bench_db, OptimizerOptions())
    result = session.optimize(independent_pairs_batch())
    assert len(result.bundle.queries) == BATCH_QUERIES
    assert result.stats.used_cses, "batch must share at least one spool"

    serial = session.execute_bundle(result, workers=1)
    parallel = session.execute_bundle(result, workers=4)
    assert _sorted_rows(parallel) == _sorted_rows(serial)

    serial_times, parallel_times = [], []
    for _ in range(ROUNDS):  # interleaved so drift hits both arms equally
        start = time.perf_counter()
        session.execute_bundle(result, workers=1)
        serial_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        session.execute_bundle(result, workers=4)
        parallel_times.append(time.perf_counter() - start)

    serial_time = _trimmed_mean(serial_times)
    parallel_time = _trimmed_mean(parallel_times)
    speedup = serial_time / parallel_time
    cores = _usable_cores()
    print(
        f"\n== Parallel serving ({BATCH_QUERIES}-query shared-spool batch, "
        f"{cores} core(s)) ==\n"
        f"  serial {serial_time * 1000:7.2f}ms  "
        f"parallel(4) {parallel_time * 1000:7.2f}ms  ({speedup:.2f}x)"
    )
    benchmark.extra_info["serial_ms"] = round(serial_time * 1000, 2)
    benchmark.extra_info["parallel_ms"] = round(parallel_time * 1000, 2)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["usable_cores"] = cores
    if cores >= 4:
        assert speedup >= SPEEDUP_FLOOR, (
            f"parallel speedup {speedup:.2f}x below the "
            f"{SPEEDUP_FLOOR}x floor on a {cores}-core host"
        )
    benchmark(lambda: session.execute_bundle(result, workers=4))
