"""§5.4 optimization-history reuse: Step-3 wall time, on vs off.

Measures exactly the quantity the history cache targets — time spent in
the Step-3 enumeration loop (``stats.step3_time``) — with
``engine.REUSE_HISTORY`` on and off, over the Fig-8 scale-up workload and the
adapted TPC-H suite. Both modes must choose byte-identical plan bundles
at equal cost; only the work to find them may differ.

The budget assertion: on the multi-candidate scale-up workload (≥3
candidates, multiple Step-3 passes), total Step-3 time with reuse must
stay within ``REPRO_HISTORY_REUSE_BUDGET`` (default 0.7, i.e. a ≥30%
reduction) of the no-reuse baseline. CI's smoke run loosens the budget
to 1.0 — "never slower" — to tolerate shared-runner noise.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple
from unittest.mock import patch

from repro.api import Session
from repro.optimizer import engine
from repro.workloads import scaleup_batch
from repro.workloads.tpch_queries import adapted_batch

#: Step3(on) must be ≤ budget × Step3(off) on the scale-up workload.
BUDGET = float(os.environ.get("REPRO_HISTORY_REUSE_BUDGET", "0.7"))
#: best-of-R timing per (workload, mode) to suppress scheduler noise.
REPEATS = int(os.environ.get("REPRO_HISTORY_REUSE_REPEATS", "3"))

SCALEUP_SIZES = (4, 6, 8, 10)
TPCH_BATCHES = {
    "Q3+Q10": adapted_batch("Q3", "Q10"),
    "Q1+Q5+Q10": adapted_batch("Q1", "Q5", "Q10"),
    "suite": adapted_batch(),
}


def _measure(database, sql: str, reuse: bool) -> Tuple[Dict, object]:
    """Best-of-REPEATS optimization; returns (record, last result)."""
    best = None
    result = None
    for _ in range(REPEATS):
        with patch.object(engine, "REUSE_HISTORY", reuse):
            result = Session(database).optimize(sql)
        stats = result.stats
        if best is None or stats.step3_time < best["step3_seconds"]:
            best = {
                "step3_seconds": stats.step3_time,
                "optimization_seconds": stats.optimization_time,
                "passes": stats.cse_optimizations,
                "candidates": stats.candidates_generated,
                "groups_reused": stats.history_groups_reused,
                "planset_hits": stats.history_hits,
                "planset_misses": stats.history_misses,
                "tops_folded": stats.history_tops_folded,
                "est_cost": round(stats.est_cost_final, 2),
                "used_cses": stats.used_cses,
            }
    return best, result


def _compare(database, sql: str):
    on_rec, on = _measure(database, sql, reuse=True)
    off_rec, off = _measure(database, sql, reuse=False)
    assert on.bundle.fingerprint() == off.bundle.fingerprint(), (
        "history reuse changed the chosen plans"
    )
    assert on.bundle.describe() == off.bundle.describe()
    assert on.stats.est_cost_final == off.stats.est_cost_final
    assert on.stats.used_cses == off.stats.used_cses
    assert off.stats.history_groups_reused == 0
    reduction = (
        1.0 - on_rec["step3_seconds"] / off_rec["step3_seconds"]
        if off_rec["step3_seconds"] > 0
        else 0.0
    )
    return {"on": on_rec, "off": off_rec, "reduction": round(reduction, 4)}


def test_scaleup_step3(benchmark, bench_db):
    """Fig-8 scale-up: Step-3 time on vs off, plus the budget gate."""
    print("\n== §5.4 history reuse: Fig-8 scale-up ==")
    print(f"{'n':>3} | {'cands':>5} | {'passes':>6} | {'step3 off':>10} | "
          f"{'step3 on':>9} | {'reduction':>9}")
    total_on = total_off = 0.0
    gated = False
    for n in SCALEUP_SIZES:
        row = _compare(bench_db, scaleup_batch(n))
        benchmark.extra_info[f"scaleup_{n}"] = row
        on, off = row["on"], row["off"]
        print(
            f"{n:>3} | {on['candidates']:>5} | {on['passes']:>6} | "
            f"{off['step3_seconds']:>10.4f} | {on['step3_seconds']:>9.4f} | "
            f"{row['reduction']:>8.1%}"
        )
        # The budget applies where §5.4 has something to reuse: several
        # candidates and several passes.
        if on["candidates"] >= 3 and on["passes"] >= 2:
            gated = True
            total_on += on["step3_seconds"]
            total_off += off["step3_seconds"]
    assert gated, "scale-up never produced a multi-candidate workload"
    print(
        f"  multi-candidate total: off {total_off:.4f}s -> on "
        f"{total_on:.4f}s (budget {BUDGET:.2f})"
    )
    benchmark.extra_info["budget"] = BUDGET
    benchmark.extra_info["multi_candidate_total"] = {
        "on": round(total_on, 4),
        "off": round(total_off, 4),
        "reduction": round(1.0 - total_on / total_off, 4),
    }
    assert total_on <= BUDGET * total_off, (
        f"history reuse missed its budget: {total_on:.4f}s vs "
        f"{BUDGET:.2f} x {total_off:.4f}s"
    )
    benchmark(lambda: Session(bench_db).optimize(scaleup_batch(8)))


def test_tpch_step3(benchmark, bench_db):
    """Adapted TPC-H batches: same comparison, plan identity enforced."""
    print("\n== §5.4 history reuse: adapted TPC-H ==")
    print(f"{'batch':>10} | {'cands':>5} | {'passes':>6} | "
          f"{'step3 off':>10} | {'step3 on':>9} | {'reduction':>9}")
    for name, sql in TPCH_BATCHES.items():
        row = _compare(bench_db, sql)
        benchmark.extra_info[name] = row
        on, off = row["on"], row["off"]
        print(
            f"{name:>10} | {on['candidates']:>5} | {on['passes']:>6} | "
            f"{off['step3_seconds']:>10.4f} | {on['step3_seconds']:>9.4f} | "
            f"{row['reduction']:>8.1%}"
        )
        # Reuse must never make a TPC-H batch slower than the naive loop
        # by more than measurement noise allows (single-pass batches have
        # nothing to reuse; both modes collapse to the same work).
        if on["passes"] >= 2:
            assert on["step3_seconds"] <= max(
                1.0, BUDGET + 0.3
            ) * off["step3_seconds"] + 1e-3
    benchmark(lambda: Session(bench_db).optimize(TPCH_BATCHES["Q3+Q10"]))
