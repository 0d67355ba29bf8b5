"""Governor overhead: budgeted execution vs. ungoverned.

Cooperative cancellation checks run once per operator invocation and the
budget charge once per produced frame, so a generous budget (one that
never trips) must cost low single digits of wall time. This benchmark
runs the adapted TPC-H suite with and without a ResourceGovernor +
QueryBudget — interleaved rounds, trimmed means — and asserts the
governed arm stays under an overhead budget (default 2%; override with
the ``REPRO_GOVERNOR_OVERHEAD_BUDGET`` env var, a fraction, e.g. ``0.05``
for noisy CI runners).
"""

import os
import time

from repro.api import Session
from repro.optimizer.options import OptimizerOptions
from repro.serve import QueryBudget, ResourceGovernor
from repro.workloads.tpch_queries import ADAPTED_QUERIES

#: enough rounds for the trimmed means of a ~35 ms suite to resolve a 2%
#: (~0.7 ms) budget: 9 rounds scatter by +-2.5%, 31 by about +-1%.
ROUNDS = 31
#: allowed (governed - plain) / plain wall-time fraction.
OVERHEAD_BUDGET = float(
    os.environ.get("REPRO_GOVERNOR_OVERHEAD_BUDGET", "0.02")
)
SUITE = ["Q1", "Q3", "Q5", "Q10"]
#: generous limits: every check runs, nothing ever trips.
BUDGET = QueryBudget(
    deadline_ms=600_000.0,
    max_rows=10**12,
    max_spool_rows=10**12,
    max_spool_bytes=10**15,
)


def _trimmed_mean(samples):
    samples = sorted(samples)
    trimmed = samples[1:-1] if len(samples) > 4 else samples
    return sum(trimmed) / len(trimmed)


def _run_suite(session, budget=None):
    for name in SUITE:
        outcome = session.execute(ADAPTED_QUERIES[name], budget=budget)
        assert outcome.degraded is False


def test_governor_overhead_under_budget(benchmark, bench_db):
    # Plan caching disabled so every round pays the full optimize+execute
    # path the token checks are threaded through.
    governed = Session(
        bench_db,
        OptimizerOptions(),
        plan_cache_size=0,
        governor=ResourceGovernor(max_concurrent=4),
    )
    plain = Session(bench_db, OptimizerOptions(), plan_cache_size=0)

    _run_suite(governed, BUDGET)
    _run_suite(plain)

    on_times, off_times = [], []
    # Interleave rounds so drift (thermal, GC) hits both arms equally.
    for _ in range(ROUNDS):
        start = time.perf_counter()
        _run_suite(plain)
        off_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        _run_suite(governed, BUDGET)
        on_times.append(time.perf_counter() - start)

    on = _trimmed_mean(on_times)
    off = _trimmed_mean(off_times)
    overhead = (on - off) / off
    print(
        f"\n== Governor overhead ({'+'.join(SUITE)}, {ROUNDS} rounds) ==\n"
        f"  plain {off * 1000:7.2f}ms  governed {on * 1000:7.2f}ms  "
        f"({overhead * 100:+.2f}%)"
    )
    assert overhead < OVERHEAD_BUDGET, (
        f"governor overhead {overhead * 100:.2f}% exceeds the "
        f"{OVERHEAD_BUDGET * 100:.0f}% budget"
    )
    benchmark.extra_info["overhead"] = round(overhead, 4)
    benchmark.extra_info["budget"] = OVERHEAD_BUDGET
    benchmark.extra_info["governed_ms"] = round(on * 1000, 2)
    benchmark.extra_info["plain_ms"] = round(off * 1000, 2)
    benchmark(lambda: _run_suite(governed, BUDGET))
