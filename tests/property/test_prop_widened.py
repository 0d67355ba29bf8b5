"""Property suite for the widened SQL surface (outer / semi / anti joins).

200 deterministic seeds of :func:`repro.workloads.generator.random_sql_batch`
— LEFT OUTER JOIN, EXISTS / NOT EXISTS, IN / NOT IN, NULL-heavy projections,
mixed with plain SPJG queries — are run under every optimizer configuration
and compared against the reference oracle, plus sharing invariants on the
spools the default configuration materializes. Two deterministic batches pin
the headline sharing scenarios: a shared semi-join build side across two
EXISTS consumers, and a reduced outer join sharing a plain inner-join spool.

Failing seeds are written (one repr per file) to the directory named by the
``REPRO_PROP_FAILURE_DIR`` environment variable when it is set, so CI can
upload them as artifacts.
"""

import math
import os

import pytest

from repro import OptimizerOptions, Session
from repro.executor.reference import evaluate_batch
from repro.workloads.generator import random_sql_batch

from .test_prop_end_to_end import DB

SEEDS = 200
CHUNK = 20

OPTION_SETS = [
    OptimizerOptions(),
    OptimizerOptions(enable_cse=False),
    OptimizerOptions(enable_heuristics=False, max_cse_optimizations=8),
]


def normalize(rows):
    """Engine/oracle-comparable rows: NaN → None (the engine's NULL is NaN
    in float64 columns, the oracle's is None), ints coerced to floats (the
    executor's null-extension widens INT columns to float64), floats
    rounded to absorb summation-order noise."""
    out = []
    for row in rows:
        values = []
        for value in row:
            if value is None or (
                isinstance(value, float) and math.isnan(value)
            ):
                values.append(None)
            elif isinstance(value, (int, float)):
                values.append(round(float(value), 3))
            else:
                values.append(value)
        out.append(tuple(values))
    return sorted(out, key=repr)


def _record_failure(seed, sql, detail):
    directory = os.environ.get("REPRO_PROP_FAILURE_DIR")
    if not directory:
        return
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"widened_seed_{seed}.txt")
    with open(path, "w") as handle:
        handle.write(f"seed: {seed}\nsql:\n{sql}\n\n{detail}\n")


def _chunk_seeds(chunk):
    return range(chunk * CHUNK, (chunk + 1) * CHUNK)


class TestWidenedDifferential:
    @pytest.mark.parametrize("chunk", range(SEEDS // CHUNK))
    def test_all_modes_match_oracle(self, chunk):
        for seed in _chunk_seeds(chunk):
            sql = random_sql_batch(seed)
            session = Session(DB, OPTION_SETS[0])
            batch = session.bind(sql)
            oracle = evaluate_batch(session.database, batch)
            for options in OPTION_SETS:
                outcome = Session(DB, options).execute(batch)
                for query in batch.queries:
                    got = normalize(outcome.execution.query(query.name).rows)
                    want = normalize(oracle[query.name])
                    if got != want:
                        detail = (
                            f"{query.name} under {options}\n"
                            f"got:  {got}\nwant: {want}"
                        )
                        _record_failure(seed, sql, detail)
                        raise AssertionError(
                            f"seed {seed}: {detail}\nfor:\n{sql}"
                        )


class TestWidenedSharingInvariants:
    @pytest.mark.parametrize("chunk", range(SEEDS // CHUNK))
    def test_spool_reads_match_writes(self, chunk):
        """Every spool read returns exactly the rows the producer wrote,
        and sharing never changes results vs the no-CSE baseline."""
        for seed in _chunk_seeds(chunk):
            sql = random_sql_batch(seed)
            session = Session(DB, OptimizerOptions())
            batch = session.bind(sql)
            outcome = session.execute(batch)
            baseline = Session(DB, OptimizerOptions(enable_cse=False)).execute(
                batch
            )
            for cse_id, stats in outcome.execution.metrics.spool_stats.items():
                for count in stats.read_row_counts:
                    if count != stats.rows_written:
                        detail = (
                            f"spool {cse_id}: read {count} rows, "
                            f"wrote {stats.rows_written}"
                        )
                        _record_failure(seed, sql, detail)
                        raise AssertionError(f"seed {seed}: {detail}")
            for query in batch.queries:
                got = normalize(outcome.execution.query(query.name).rows)
                want = normalize(baseline.execution.query(query.name).rows)
                if got != want:
                    detail = f"{query.name} shared ≠ baseline"
                    _record_failure(seed, sql, detail)
                    raise AssertionError(
                        f"seed {seed}: {detail}\nfor:\n{sql}"
                    )


#: two EXISTS consumers with identical correlation signatures over the same
#: orders ⋈ lineitem inner chain — the decorrelated semi-join build side is
#: a two-table block, so it clears MIN_CSE_TABLES and must be shared.
EXISTS_PAIR = (
    "select c_nationkey, count(*) as v from customer where exists "
    "(select * from orders, lineitem where o_custkey = c_custkey and "
    "o_orderkey = l_orderkey and l_quantity < 30) group by c_nationkey;"
    "select c_mktsegment, count(*) as v from customer where exists "
    "(select * from orders, lineitem where o_custkey = c_custkey and "
    "o_orderkey = l_orderkey and l_quantity < 30) group by c_mktsegment"
)

#: an outer join whose WHERE is null-rejecting on the null-extended side —
#: the simplifier reduces it to an inner join, which then shares a spool
#: with the plain inner-join query alongside it.
REDUCED_PAIR = (
    "select c_nationkey, sum(o_totalprice) as v from customer "
    "left join orders on c_custkey = o_custkey "
    "where o_totalprice > 0 group by c_nationkey;"
    "select c_mktsegment, sum(o_totalprice) as v from customer, orders "
    "where c_custkey = o_custkey and o_totalprice > 0 group by c_mktsegment"
)


class TestWidenedSharingScenarios:
    @pytest.mark.parametrize(
        "sql", [EXISTS_PAIR, REDUCED_PAIR], ids=["exists-pair", "reduced-pair"]
    )
    def test_batch_shares_one_spool_across_consumers(self, sql):
        session = Session(DB, OptimizerOptions())
        batch = session.bind(sql)
        outcome = session.execute(batch)
        metrics = outcome.execution.metrics
        assert metrics.spools_materialized >= 1
        assert any(
            stats.reads >= 2 for stats in metrics.spool_stats.values()
        ), "expected a multi-consumer spool"
        oracle = evaluate_batch(session.database, batch)
        for query in batch.queries:
            got = normalize(outcome.execution.query(query.name).rows)
            assert got == normalize(oracle[query.name])
