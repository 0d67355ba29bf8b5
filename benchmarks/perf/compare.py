"""Compare two result sets of ``run.py --all`` against the bounds in
``BENCHMARK.json``.

    python benchmarks/perf/compare.py A.json B.json

A is the base, B the candidate. One row per (workload, end-to-end metric):
both medians, the ratio B/A, how much worse B is as a share of A, the
bound, A's run-to-run spread (interquartile range over median, as
``statistics.quantiles(values, n=4)`` gives it) and a verdict:

* ``regressed``  — B is worse than A by more than the bound;
* ``unresolved`` — A's own spread is wider than the bound, so neither
  "worse" nor "unchanged" can be said (run more repeats);
* ``ok``         — otherwise.

``error_rate`` (failed / attempted) has bound 0: any failed op in B is a
regression. Exits 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 with one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def values_of(runs: List[dict], metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs]


def error_rate(runs: List[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 1.0


def compare(base: dict, candidate: dict, contract: dict) -> List[dict]:
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        a_runs = base["runs"].get(workload, [])
        b_runs = candidate["runs"].get(workload, [])
        if not a_runs or not b_runs:
            rows.append({"workload": workload, "metric": "*",
                         "verdict": "missing"})
            continue
        for metric in contract["end_to_end"]:
            a_values = values_of(a_runs, metric["name"])
            a = statistics.median(a_values)
            b = statistics.median(values_of(b_runs, metric["name"]))
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            a_spread = spread(a_values)
            if a_spread > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "base": a, "candidate": b,
                "ratio": b / a, "worse": worse, "bound": metric["bound"],
                "spread": a_spread, "runs": (len(a_runs), len(b_runs)),
                "verdict": verdict,
            })
        a_errors, b_errors = error_rate(a_runs), error_rate(b_runs)
        rows.append({
            "workload": workload, "metric": "error_rate", "unit": "fraction",
            "base": a_errors, "candidate": b_errors,
            "ratio": float("nan"), "worse": b_errors - a_errors, "bound": 0.0,
            "spread": 0.0, "runs": (len(a_runs), len(b_runs)),
            "verdict": "regressed" if b_errors > 0 else "ok",
        })
    return rows


def render(rows: List[dict]) -> str:
    lines = [
        f"{'workload':<12} {'metric':<14} {'base (A)':>12} {'cand (B)':>12} "
        f"{'B/A':>7} {'worse':>7} {'bound':>6} {'spread':>7} {'runs':>5}  "
        "verdict"
    ]
    for row in rows:
        if row["verdict"] == "missing":
            lines.append(f"{row['workload']:<12} no runs on one side  missing")
            continue
        runs = "/".join(str(n) for n in row["runs"])
        lines.append(
            f"{row['workload']:<12} {row['metric']:<14} "
            f"{row['base']:>12.4f} {row['candidate']:>12.4f} "
            f"{row['ratio']:>7.3f} {row['worse']:>+7.1%} {row['bound']:>6.0%} "
            f"{row['spread']:>7.1%} {runs:>5}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, candidate = (json.loads(Path(p).read_text()) for p in argv)
    contract = json.loads(BENCHMARK_JSON.read_text())
    rows = compare(base, candidate, contract)
    print(f"base      {argv[0]}  (commit {base['stamp'].get('commit')})")
    print(f"candidate {argv[1]}  (commit {candidate['stamp'].get('commit')})")
    print(render(rows))
    bad = [r for r in rows if r["verdict"] in ("regressed", "missing")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
