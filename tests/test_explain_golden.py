"""Golden-snapshot tests for EXPLAIN and EXPLAIN ANALYZE.

Three TPC-H-style workloads — the Example 1 batch, an adapted TPC-H
query, and the nested query — are rendered with ``costs=True`` and with
``analyze=True`` and compared against checked-in snapshots. Volatile
fields (wall-clock times) are normalized to ``?ms``; everything else
(plan shapes, estimated costs, actual row counts, measured cost units,
optimizer counters) is deterministic at a fixed scale factor and seed,
so any drift is a real behavior change.

Regenerate after an intentional change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_explain_golden.py
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

from repro.workloads import ADAPTED_QUERIES, example1_batch, nested_query

GOLDEN_DIR = Path(__file__).parent / "golden"

#: widened-surface batch: an outer join kept as a LeftOuterHashJoin, a
#: reducible outer join folded to an inner join, and a query whose EXISTS /
#: NOT EXISTS predicates become Semi/AntiHashJoin operators.
WIDENED_BATCH = (
    "select c_nationkey, count(*) as v from customer "
    "left join orders on c_custkey = o_custkey group by c_nationkey;"
    "select c_mktsegment, sum(o_totalprice) as v from customer "
    "left join orders on c_custkey = o_custkey "
    "where o_totalprice > 1000 group by c_mktsegment;"
    "select o_orderkey from orders where exists "
    "(select * from lineitem where l_orderkey = o_orderkey) "
    "and not exists (select * from lineitem "
    "where l_orderkey = o_orderkey and l_quantity > 45)"
)

CASES = {
    "example1_batch": example1_batch(),
    "tpch_q5": ADAPTED_QUERIES["Q5"],
    "nested_query": nested_query(),
    "widened_batch": WIDENED_BATCH,
}


def _normalize(text: str) -> str:
    """Blank out wall-clock times; keep every deterministic field."""
    return re.sub(r"\d+\.\d+ms", "?ms", text)


def instance_free(text: str) -> str:
    """``text`` with every table-instance number (``orders#90``) blanked.

    Instance numbers are allocation order, not plan content: two renderings
    equal under this are the same plans, costs and rows with renumbered
    instances."""
    return re.sub(r"#\d+", "#N", text)


def _check(name: str, rendered: str) -> None:
    got = _normalize(rendered)
    path = GOLDEN_DIR / f"{name}.txt"
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        path.write_text(got + "\n")
        return
    assert path.exists(), (
        f"missing golden snapshot {path}; regenerate with "
        f"REPRO_UPDATE_GOLDEN=1"
    )
    want = path.read_text().rstrip("\n")
    if got != want and instance_free(got) == instance_free(want):
        pytest.fail(
            f"{name}: only table-instance numbers (#N) moved — plans, costs "
            f"and rows are unchanged; regenerate with REPRO_UPDATE_GOLDEN=1"
        )
    assert got == want, (
        f"{name} drifted from its golden snapshot; if intentional, "
        f"regenerate with REPRO_UPDATE_GOLDEN=1"
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_explain_costs_golden(small_session, case):
    rendered = small_session.explain(CASES[case], costs=True)
    _check(f"explain_{case}", rendered)


@pytest.mark.parametrize("case", sorted(CASES))
def test_explain_analyze_golden(small_session, case):
    rendered = small_session.explain(CASES[case], analyze=True)
    _check(f"analyze_{case}", rendered)


@pytest.mark.parametrize("case", sorted(CASES))
def test_explain_analyze_parallel_matches_serial_golden(small_session, case):
    """Parallel execution must not change EXPLAIN ANALYZE output: the same
    serial golden snapshot must match, modulo the normalized timing
    fields — plan shapes, actual row counts, measured cost units, spool
    attribution, and optimizer counters are all execution-order facts."""
    rendered = small_session.explain(
        CASES[case], analyze=True, workers=4
    )
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        return  # snapshots are owned by the serial variant above
    _check(f"analyze_{case}", rendered)
