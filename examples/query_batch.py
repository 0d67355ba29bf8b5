"""The paper's Example 1: a three-query batch (plus the §6.2 variant with
Q4), optimized with and without CSE exploitation, side by side.

Run:  python examples/query_batch.py
"""

from repro import OptimizerOptions, Session
from repro.workloads import example1_batch, example1_with_q4


def compare(session_factory, sql: str, title: str) -> None:
    print(f"\n=== {title} ===")
    rows = []
    for label, options in (
        ("no CSE", OptimizerOptions(enable_cse=False)),
        ("CSEs + heuristics", OptimizerOptions()),
        ("CSEs, no heuristics", OptimizerOptions(enable_heuristics=False)),
    ):
        session = session_factory(options)
        outcome = session.execute(sql)
        stats = outcome.optimization.stats
        rows.append(
            (
                label,
                f"{stats.candidates_generated} [{stats.cse_optimizations}]"
                if options.enable_cse else "n/a",
                f"{stats.optimization_time:.3f}s",
                f"{outcome.est_cost:9.1f}",
                f"{outcome.execution.metrics.cost_units:9.1f}",
                f"{outcome.execution.wall_time:.3f}s",
            )
        )
    header = ("mode", "CSEs [opts]", "opt time", "est cost", "exec cost", "exec time")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(6)]
    for line in [header] + rows:
        print("  " + " | ".join(str(v).ljust(w) for v, w in zip(line, widths)))


def main() -> None:
    database = Session.tpch(scale_factor=0.01).database

    def factory(options):
        return Session(database, options)

    compare(factory, example1_batch(), "Example 1 batch (Q1, Q2, Q3)")
    compare(factory, example1_with_q4(), "With Q4 (§6.2): the candidate set changes")

    # Show what the chosen covering subexpression looks like.
    result = factory(OptimizerOptions()).optimize(example1_batch())
    chosen = result.candidates[0].definition
    print("\nchosen covering subexpression "
          f"({chosen.cse_id}, signature {chosen.signature!r}):")
    print(f"  group keys : {[k.column for k in chosen.group_keys]}")
    print(f"  aggregates : {[repr(a) for a in chosen.aggregates]}")
    print(f"  covering   : {[repr(c) for c in chosen.covering_conjuncts]}")
    print("\nIt is the paper's E5 — computed once, consumed by all three "
          "queries with per-query residual filters and re-aggregation.")


if __name__ == "__main__":
    main()
