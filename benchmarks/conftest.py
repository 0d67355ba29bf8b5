"""Shared fixtures for the experiment benchmarks.

The TPC-H database is generated once per session at the benchmark scale
factor (default 0.01; override with REPRO_BENCH_SF). Tables are printed to
stdout so `pytest benchmarks/ --benchmark-only -s` reproduces the paper's
tables verbatim; the same rows land in each benchmark's `extra_info`.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import bench_scale_factor
from repro.catalog.tpch import build_tpch_database


@pytest.fixture(scope="session")
def bench_db():
    return build_tpch_database(scale_factor=bench_scale_factor())


@pytest.fixture(scope="session")
def small_bench_db():
    """A smaller database for the 8-table workload (Table 4)."""
    return build_tpch_database(scale_factor=min(bench_scale_factor(), 0.002))


def record(benchmark, results):
    """Store scenario rows on the benchmark for the JSON report."""
    for result in results:
        benchmark.extra_info[result.mode] = {
            "candidates": result.candidates,
            "cse_optimizations": result.cse_optimizations,
            "optimization_time": round(result.optimization_time, 4),
            "est_cost": round(result.est_cost, 2),
            "exec_cost": round(result.exec_cost, 2),
            "exec_time": round(result.exec_time, 4),
            "used_cses": result.used_cses,
            "q_error_mean": round(result.q_error_mean, 3),
            "q_error_max": round(result.q_error_max, 3),
            "counters": {
                name: value
                for name, value in sorted(
                    result.snapshot.get("counters", {}).items()
                )
                if name.startswith(("optimizer.", "executor."))
            },
            "phase_seconds": {
                name: round(seconds, 4)
                for name, seconds in result.phase_seconds.items()
            },
        }
