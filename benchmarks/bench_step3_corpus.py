"""Step 3 over the corpus of DESIGN decision 0, heuristics on and off.

Optimizes every batch of the corpus in a fresh session at SF 0.002 and
prints, per heuristics mode, the batches that reached Step 3, their Step-3
passes, and the optimize and Step-3 wall time summed over them. The
``plans`` column is a digest of every batch's estimated cost and used CSEs,
so two commits that choose the same plans print the same digest.

The corpus: ``scaleup_batch(2…10)`` seeds 0–2; ``random_spjg_batch`` and
``random_sql_batch`` seeds 0–59; Example 1 with and without Q4; the nested
query; ``complex_join_batch()``; ``independent_pairs_batch()``; and the 8
adapted TPC-H queries in one batch. No timing is asserted. Run it with::

    PYTHONPATH=src python benchmarks/bench_step3_corpus.py
    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_step3_corpus.py
"""

from __future__ import annotations

import hashlib

from repro import OptimizerOptions, Session
from repro.catalog.tpch import build_tpch_database
from repro.workloads import (
    adapted_batch,
    complex_join_batch,
    example1_batch,
    example1_with_q4,
    independent_pairs_batch,
    nested_query,
    scaleup_batch,
)
from repro.workloads.generator import random_spjg_batch, random_sql_batch

SCALE_FACTOR = 0.002


def corpus():
    """The corpus batches, in a fixed order."""
    batches = [scaleup_batch(n, seed=s) for n in range(2, 11) for s in range(3)]
    batches += [random_spjg_batch(seed) for seed in range(60)]
    batches += [random_sql_batch(seed) for seed in range(60)]
    batches += [
        example1_batch(), example1_with_q4(), nested_query(),
        complex_join_batch(), independent_pairs_batch(), adapted_batch(),
    ]
    return batches


def measure(database, heuristics: bool):
    """One row of the table: the corpus optimized in one heuristics mode."""
    options = OptimizerOptions(enable_heuristics=heuristics)
    row = {"batches": 0, "passes": 0, "optimize_s": 0.0, "step3_s": 0.0}
    digest = hashlib.sha256()
    for sql in corpus():
        stats = Session(database, options).optimize(sql).stats
        digest.update(repr((stats.est_cost_final, stats.used_cses)).encode())
        if not stats.cse_optimizations:
            continue
        row["batches"] += 1
        row["passes"] += stats.cse_optimizations
        row["optimize_s"] += stats.optimization_time
        row["step3_s"] += stats.step3_time
    row["plans"] = digest.hexdigest()[:12]
    return row


def render(rows) -> str:
    lines = [
        "| heuristics | batches | passes | optimize s | Step 3 s | plans |",
        "|---|---|---|---|---|---|",
    ]
    for mode, row in rows.items():
        lines.append(
            f"| {mode} | {row['batches']} | {row['passes']} | "
            f"{row['optimize_s']:.2f} | {row['step3_s']:.2f} | {row['plans']} |"
        )
    return "\n".join(lines)


def test_step3_corpus():
    database = build_tpch_database(scale_factor=SCALE_FACTOR)
    rows = {
        "on": measure(database, heuristics=True),
        "off": measure(database, heuristics=False),
    }
    print("\n== Step 3 over the corpus ==\n" + render(rows))
    assert rows["on"]["batches"] and rows["off"]["batches"]


if __name__ == "__main__":
    test_step3_corpus()
