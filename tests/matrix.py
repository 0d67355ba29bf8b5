"""One differential matrix: every engine configuration against one oracle.

Sharing similar subexpressions must never change a query's result. Each
statement is evaluated once by the row-at-a-time reference oracle
(:func:`repro.executor.reference.evaluate_query`) and cached, and each
input batch is then executed under entries of :data:`CONFIGS`. Every
configuration is held to the same invariants, with the one row
comparator of ``tests/rows.py``:

* its rows equal the oracle's;
* every materialized spool is a used CSE, every kept CSE is read at least
  twice, and each spool read returns the rows that were written;
* the registry's ``executor.*`` counters mirror the execution metrics;
* every §5.1 consumer match the optimizer makes equals the
  expression-space matcher's (``tests/match_reference.py``);
* where the configuration runs warm, a plan-cache hit returns the cold
  execute's rows byte for byte, and the registry counted one miss and one
  hit.

An input is checked once per configuration in a process: suites that
feed the same input under the same configuration reuse the checked run
(:data:`_RUNS`).

Across the configurations of one input (:func:`check_across`): the
estimated cost with CSEs is no higher than without; a Step 3 on empty
§5.4 tables finds the same plan as one that reuses the base pass's; a
spool-budget fallback is byte-identical to ``enable_cse=False``; an
optimizer-deadline fallback degrades; and the no-CSE plan's estimated and
measured cost stay within one units band.

The property suites under ``tests/property/`` feed this module their
inputs: ``random_spjg_batch`` seeds (``test_prop_observability``,
``test_prop_fused_differential``, ``test_prop_history``,
``test_prop_plan_cache``), ``random_sql_batch`` seeds
(``test_prop_widened``), the named batches of :data:`NAMED`, the
hypothesis strategies below (``test_prop_end_to_end``,
``test_prop_governor``, ``test_prop_optimizer_invariants``) and
coordinator pairs (``test_prop_coordinator``).
``tests/property/test_prop_matrix.py`` holds :data:`CONFIGS` against the
live settings of ``Session``, ``OptimizerOptions`` and the ablation
constants.

A failing case writes its input, configuration and detail to the
directory named by ``REPRO_PROP_FAILURE_DIR`` when that is set.
"""

from __future__ import annotations

import hashlib
import os
import random
import threading
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple
from unittest.mock import patch

import hypothesis.strategies as st
import pytest

from repro import MetricsRegistry, OptimizerOptions, Session
from repro.catalog.tpch import build_tpch_database
from repro.executor.reference import evaluate_query
from repro.optimizer import search
from repro.serve import QueryBudget, SharedBatchCoordinator
from repro.serve.fingerprint import batch_fingerprint
from repro.views.materialized import ViewManager
from repro.workloads.generator import random_spjg_query

from .match_reference import assert_matches_oracle, recording_matches
from .plan_reuse import fresh_plan_cache, reuse_signature
from .rows import assert_same_rows
from .selection_reference import reference_select

#: read-only database shared by every input.
DB = build_tpch_database(scale_factor=0.0005)

#: statement text -> its oracle rows over :data:`DB`. Generated batches and
#: coordinator pairs repeat statements, suites share inputs, and a
#: statement's rows do not depend on the batch around it.
_ORACLE: Dict[str, list] = {}


def oracle_rows(statement: str) -> list:
    """The reference oracle's rows for one statement over :data:`DB`."""
    if statement not in _ORACLE:
        batch = Session(DB).bind(statement)
        _ORACLE[statement] = evaluate_query(DB, batch.queries[0])
    return _ORACLE[statement]


def oracle(sql: str, batch) -> Dict[str, list]:
    """Oracle rows per query name of ``batch``, the binding of ``sql``."""
    statements = [part for part in sql.split(";") if part.strip()]
    assert len(statements) == len(batch.queries)
    return {
        query.name: oracle_rows(statement.strip())
        for query, statement in zip(batch.queries, statements)
    }


@dataclass(frozen=True)
class Config:
    """One engine configuration: ``Session`` keyword arguments, plus the
    switches that are not session settings (the per-call budget among
    them). Every run builds fresh
    sessions, so a flipped ablation constant never meets a plan cached
    before the flip."""

    name: str
    session: Mapping = field(default_factory=dict)
    #: the ``budget`` every ``execute`` passes.
    budget: Optional[QueryBudget] = None
    #: run with :data:`repro.optimizer.search.NAIVE_COST_SPLIT` on.
    naive_cost_split: bool = False
    #: start Step 3 on empty §5.4 plan-set tables.
    fresh_plan_sets: bool = False
    #: execute a second time, from the plan cache.
    warm: bool = False


DEFAULT = Config("default", warm=True)
NO_HEURISTICS = Config(
    "no-heuristics, 2 workers",
    {"options": OptimizerOptions(enable_heuristics=False), "workers": 2},
)
NO_CSE = Config("no-cse", {"options": OptimizerOptions(enable_cse=False)})
NAIVE = Config(
    "naive cost split, no shared scans",
    {"shared_scans": False},
    naive_cost_split=True,
)
SPOOL_BUDGET = Config(
    "spool budget, fresh plan sets",
    budget=QueryBudget(max_spool_rows=0),
    fresh_plan_sets=True,
)
DEADLINE = Config(
    "optimizer deadline",
    {"plan_cache_size": 0},
    budget=QueryBudget(optimizer_deadline_ms=1e-6),
)

#: the engine configurations. Axes that cannot interact with each other's
#: invariants share an entry.
CONFIGS = (DEFAULT, NO_HEURISTICS, NO_CSE, NAIVE, SPOOL_BUDGET, DEADLINE)

# -- failure output ------------------------------------------------------------


@contextmanager
def recorded(ident: str, sql: str, config: str):
    """Re-raise a failure inside with its input and configuration, and
    write both to ``REPRO_PROP_FAILURE_DIR`` when it is set."""
    try:
        yield
    except AssertionError as error:
        detail = (
            f"input: {ident}\nconfiguration: {config}\nsql:\n{sql}\n\n{error}\n"
        )
        directory = os.environ.get("REPRO_PROP_FAILURE_DIR")
        if directory:
            os.makedirs(directory, exist_ok=True)
            path = os.path.join(directory, f"matrix_{ident}.txt")
            with open(path, "w") as handle:
                handle.write(detail)
        raise AssertionError(detail) from error


# -- one configuration ---------------------------------------------------------


def execute(config: Config, batch):
    """``(cold outcome, warm outcome or None, registry counters after each)``."""
    registry = MetricsRegistry()
    session = Session(DB, registry=registry, **config.session)
    with ExitStack() as stack:
        if config.naive_cost_split:
            stack.enter_context(patch.object(search, "NAIVE_COST_SPLIT", True))
        if config.fresh_plan_sets:
            stack.enter_context(fresh_plan_cache())
        cold = session.execute(batch, budget=config.budget)
        counters = [registry.snapshot()["counters"]]
        warm = None
        if config.warm:
            warm = session.execute(batch, budget=config.budget)
        counters.append(registry.snapshot()["counters"])
    return cold, warm, counters


def check_rows(outcome, batch, expected, verified) -> None:
    """Rows equal the oracle's. ``verified`` holds the :func:`results` of
    outcomes already compared; byte-identical ones are not compared again."""
    key = results(outcome)
    if key in verified:
        return
    for query in batch.queries:
        assert_same_rows(
            outcome.execution.query(query.name).rows,
            expected[query.name],
            f"rows differ from the oracle in {query.name}",
        )
    verified.add(key)


def check_spools(outcome, naive_cost_split=False) -> int:
    """The spool invariants; returns the number of kept CSEs executed. The
    naive initial-cost split keeps single-consumer plans by design (it is
    the scheme §5.2 argues against), so it may read a spool once."""
    metrics = outcome.execution.metrics
    used = set(outcome.optimization.stats.used_cses)
    kept = 0
    for cse_id, spool in metrics.spool_stats.items():
        if not spool.writes:
            continue
        kept += 1
        assert cse_id in used, f"spool {cse_id} materialized but not kept"
        assert naive_cost_split or spool.reads >= 2 * spool.writes, (
            f"{cse_id} read {spool.reads}x for {spool.writes} write(s)"
        )
        assert all(n == spool.rows_written for n in spool.read_row_counts), (
            f"{cse_id} wrote {spool.rows_written} rows, reads returned "
            f"{spool.read_row_counts}"
        )
        assert spool.rows_read == sum(spool.read_row_counts)
    return kept


def check_registry(outcome, counters) -> None:
    metrics = outcome.execution.metrics
    assert (
        counters.get("executor.spools_materialized", 0),
        counters.get("executor.spool_reads", 0),
        counters.get("executor.rows_output", 0),
    ) == (
        metrics.spools_materialized,
        sum(s.reads for s in metrics.spool_stats.values()),
        metrics.rows_output,
    ), "registry counters differ from the execution metrics"


def results(outcome) -> str:
    """The outcome's results byte for byte, as a digest of their ``repr``
    (so NaN equals NaN)."""
    rows = repr([(r.name, r.columns, r.rows) for r in outcome.execution.results])
    return hashlib.sha256(rows.encode()).hexdigest()


@dataclass(frozen=True)
class Run:
    """What :func:`check_across` compares of one configuration's checked
    cold execute."""

    kept: int
    est_cost: float
    results: str
    plan: tuple
    spools_materialized: int
    cost_units: float
    fallback_reason: Optional[str]


#: (batch text, configuration name) -> the :class:`Run` of a checked
#: execute. Suites share inputs, and an input's checks under one
#: configuration hold wherever the input recurs.
_RUNS: Dict[Tuple[str, str], Run] = {}


def check_config(
    config: Config, sql: str, batch, expected, verified, match_oracle=True
) -> Run:
    """One configuration's checks on one input. With ``match_oracle``
    every §5.1 match the optimizer makes is held to
    ``tests/match_reference.py`` and the run is kept in :data:`_RUNS`;
    without, the run is neither kept nor taken from there."""
    key = (sql, config.name)
    if match_oracle and key in _RUNS:
        return _RUNS[key]
    with pytest.MonkeyPatch.context() as monkeypatch:
        matches = recording_matches(monkeypatch) if match_oracle else []
        cold, warm, counters = execute(config, batch)
    check_rows(cold, batch, expected, verified)
    kept = check_spools(cold, config.naive_cost_split)
    check_registry(cold, counters[0])
    if config.fresh_plan_sets:
        assert cold.optimization.stats.history_groups_reused == 0
    if warm is not None:
        assert not cold.plan_cache_hit and warm.plan_cache_hit
        assert results(warm) == results(cold), "warm rows differ from cold rows"
        # Two lookups, one each way.
        assert (
            counters[1].get("plan_cache.miss"),
            counters[1].get("plan_cache.hit"),
        ) == (1, 1), "the registry miscounts plan-cache lookups"
    assert_matches_oracle(matches)
    run = Run(
        kept,
        cold.est_cost,
        results(cold),
        reuse_signature(cold.optimization),
        cold.execution.metrics.spools_materialized,
        cold.execution.metrics.cost_units,
        cold.fallback_reason if cold.degraded else None,
    )
    if match_oracle:
        _RUNS[key] = run
    return run


def check_across(runs: Mapping[str, Run]) -> None:
    """The invariants that compare configurations of one input, each
    checked when the configurations it compares ran."""
    default, base = runs.get(DEFAULT.name), runs.get(NO_CSE.name)
    if default is not None and base is not None:
        assert default.est_cost <= base.est_cost + 1e-6, "CSEs raised the estimate"
    spool_budget = runs.get(SPOOL_BUDGET.name)
    if spool_budget is not None:
        assert spool_budget.spools_materialized == 0
    if spool_budget is not None and default is not None:
        # The optimizer finished; only execution fell back.
        assert default.plan == spool_budget.plan, "§5.4 reuse changed the plan"
    if spool_budget is not None and base is not None:
        assert spool_budget.results == base.results, (
            "spool-budget fallback differs from enable_cse=False"
        )
    deadline = runs.get(DEADLINE.name)
    if deadline is not None:
        assert deadline.fallback_reason == "optimizer_deadline"
    if base is not None:
        # Estimate and measurement share the cost formulas; only
        # cardinality estimation separates them.
        assert base.cost_units <= base.est_cost * 50 + 100
        assert base.est_cost <= base.cost_units * 50 + 100


def check_input(
    ident: str, sql: str, configs: Sequence[Config] = CONFIGS, match_oracle=True
) -> Dict[str, int]:
    """Run one input under ``configs`` against one oracle; returns the
    number of kept CSEs each configuration executed, by name."""
    batch = Session(DB).bind(sql)
    expected, verified = oracle(sql, batch), set()
    runs = {}
    for config in configs:
        with recorded(ident, sql, config.name):
            runs[config.name] = check_config(
                config, sql, batch, expected, verified, match_oracle
            )
    with recorded(ident, sql, "across configurations"):
        check_across(runs)
    return {name: run.kept for name, run in runs.items()}


# -- named inputs ----------------------------------------------------------------

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

#: two consumers of one spool with different ranges on one column: the
#: narrower consumer compensates with a residual range conjunct.
RANGE_PAIR = (
    "select c_nationkey, sum(o_totalprice) as v from customer, orders "
    "where c_custkey = o_custkey and o_totalprice < 100000 group by c_nationkey;"
    "select c_mktsegment, count(*) as n from customer, orders "
    "where c_custkey = o_custkey and o_totalprice < 200000 group by c_mktsegment"
)

#: one spool shared by a self-join's two instances' consumers: each consumer
#: groups by a different side.
SELF_JOIN_PAIR = (
    "select o1.o_orderstatus, count(*) as n from orders o1, orders o2 "
    "where o1.o_custkey = o2.o_custkey and o2.o_totalprice < 100000 "
    "group by o1.o_orderstatus;"
    "select o2.o_orderstatus, count(*) as n from orders o1, orders o2 "
    "where o1.o_custkey = o2.o_custkey and o2.o_totalprice < 100000 "
    "group by o2.o_orderstatus"
)

#: shapes the generators rarely produce: an empty result, NULL-extended
#: outer-join columns under an ORDER BY, single-row results, and the four
#: sharing scenarios above.
NAMED = {
    "empty": "select c_nationkey, count(*) as n from customer "
    "where c_nationkey < -1 group by c_nationkey",
    "outer-order-by": "select n_name, c_acctbal from nation "
    "left join customer on n_nationkey = c_nationkey "
    "and c_acctbal > 9000 order by c_acctbal desc, n_name",
    "single-row": "select c_nationkey, sum(c_acctbal) as v from customer "
    "where c_custkey <= 1 group by c_nationkey;"
    "select c_nationkey, count(*) as n from customer "
    "where c_custkey <= 1 group by c_nationkey",
    "exists-pair": EXISTS_PAIR,
    "reduced-pair": REDUCED_PAIR,
    "range-pair": RANGE_PAIR,
    "self-join-pair": SELF_JOIN_PAIR,
}

#: named inputs that must share one spool across two consumer reads.
SHARING = ("exists-pair", "reduced-pair", "range-pair", "self-join-pair")


# -- hypothesis inputs ------------------------------------------------------------

#: join chains over the TPC-H schema: (tables, join predicates).
CHAINS = [
    (
        ["customer", "orders", "lineitem"],
        ["c_custkey = o_custkey", "o_orderkey = l_orderkey"],
    ),
    (
        ["nation", "customer", "orders"],
        ["n_nationkey = c_nationkey", "c_custkey = o_custkey"],
    ),
    (
        ["orders", "lineitem", "part"],
        ["o_orderkey = l_orderkey", "l_partkey = p_partkey"],
    ),
]

SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]


#: each table's range column and the domain its bound is drawn from.
RANGES = {
    "customer": ("c_nationkey", 0, 25),
    "orders": ("o_totalprice", 1000, 450000),
    "lineitem": ("l_quantity", 1, 50),
    "nation": ("n_regionkey", 0, 5),
    "part": ("p_size", 1, 50),
}


@st.composite
def predicate(draw, table):
    """A range on ``table``'s :data:`RANGES` column under any of the four
    comparisons (strict and non-strict bounds on one side of a column are
    where §5.1 range compensation can go wrong), or one of the table's
    other shapes: BETWEEN, IN, OR, a date or a decimal bound."""
    kind = draw(st.integers(0, 5 if table == "customer" else 3))
    if kind < 2 or table in ("nation", "part"):
        column, low, high = RANGES[table]
        op = draw(st.sampled_from(["<", ">", "<=", ">="]))
        return f"{column} {op} {draw(st.integers(low, high))}"
    number = draw(st.integers(0, 100))
    if table == "orders":
        return f"o_orderdate < '199{3 + number % 6}-06-01'"
    if table == "lineitem":
        return f"l_discount < 0.0{2 + number % 8}"
    segments = draw(st.lists(st.sampled_from(SEGMENTS), min_size=2, max_size=2))
    return [
        f"c_nationkey between {number % 21} and {number % 21 + number % 11}",
        f"c_mktsegment in ('{segments[0]}', '{segments[1]}')",
        f"(c_nationkey < {5 + number % 11} or c_nationkey > {16 + number % 9})",
        f"c_acctbal > {number * 10 - 500}",
    ][kind - 2]


GROUPINGS = {
    "customer": ["c_nationkey", "c_mktsegment"],
    "orders": ["o_orderstatus", "o_orderpriority"],
    "lineitem": ["l_returnflag"],
    "nation": ["n_regionkey"],
    "part": ["p_size"],
}

MEASURES = {
    "customer": "c_acctbal",
    "orders": "o_totalprice",
    "lineitem": "l_extendedprice",
    "nation": "n_nationkey",
    "part": "p_retailprice",
}


@st.composite
def chain_query(draw):
    """One join chain with random predicates, grouping and aggregate."""
    tables, joins = CHAINS[draw(st.integers(0, len(CHAINS) - 1))]
    used = tables[: draw(st.integers(2, len(tables)))]
    conjuncts = joins[: len(used) - 1] + [
        draw(predicate(table)) for table in used if draw(st.booleans())
    ]
    group = draw(st.sampled_from(GROUPINGS[draw(st.sampled_from(used))]))
    agg = draw(st.sampled_from(["sum", "min", "max", "count"]))
    measure = "*" if agg == "count" else MEASURES[draw(st.sampled_from(used))]
    return (
        f"select {group}, {agg}({measure}) as v from {', '.join(used)} "
        f"where {' and '.join(conjuncts)} group by {group}"
    )


@st.composite
def hypothesis_batch(draw):
    """One to four chain queries; a single query runs as an identical twin."""
    queries = draw(st.lists(chain_query(), min_size=1, max_size=4))
    return ";".join(queries * 2 if len(queries) == 1 else queries)


# -- cross-session pairs -------------------------------------------------------


def random_pair(seed: int):
    rng = random.Random(seed)
    return random_spjg_query(rng), random_spjg_query(rng)


def run_pair(seed: int):
    """Two sessions submit a pair of random queries through one
    coordinator: merged rows equal isolated rows equal oracle rows, and
    every published spool is freed. Returns ``(plans, merged batches)``,
    where ``plans`` holds ``(est_cost, used CSEs, sql)`` per optimization
    the pair ran, for the Step-3 oracles of :func:`check_step3`."""
    sql_a, sql_b = random_pair(seed)
    registry = MetricsRegistry()
    # max_group=2 closes an overlapping pair's window the moment both have
    # arrived (the barrier makes that near-instant); only disjoint pairs —
    # two solo leaders — wait out the 400 ms.
    coordinator = SharedBatchCoordinator(
        window_ms=400.0, max_group=2, registry=registry
    )
    arrival = threading.Barrier(2)
    outcomes = {}

    def run(name, sql):
        session = Session(DB, coordinator=coordinator, registry=registry)
        arrival.wait()
        outcomes[name] = session.execute(sql)

    threads = [
        threading.Thread(target=run, args=(name, sql), daemon=True)
        for name, sql in (("a", sql_a), ("b", sql_b))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60.0)
    assert not any(t.is_alive() for t in threads), "coordinator deadlocked"

    isolated = Session(DB)
    for name, sql in (("a", sql_a), ("b", sql_b)):
        shared = outcomes[name].execution.results[0].rows
        assert_same_rows(shared, isolated.execute(sql).execution.results[0].rows)
        assert_same_rows(shared, oracle_rows(sql), "rows differ from the oracle")

    merged = outcomes["a"].optimization
    if merged.bundle.queries[0].name.startswith("s0__"):
        # The coordinator binds the pair in batch-fingerprint order.
        ordered = sorted(
            (sql_a, sql_b), key=lambda sql: batch_fingerprint(isolated.bind(sql))
        )
        plans = [(merged, ";\n".join(ordered))]
    else:
        plans = [
            (outcomes[name].optimization, sql)
            for name, sql in (("a", sql_a), ("b", sql_b))
        ]

    counters = registry.snapshot()["counters"]
    assert counters.get("coordinator.spools_freed", 0) == counters.get(
        "coordinator.spools_published", 0
    )
    plans = [(o.est_cost, o.stats.used_cses, sql) for o, sql in plans]
    return plans, int(counters.get("coordinator.merged_batches", 0))


def check_step3(reference: str, plans) -> None:
    """Each plan costs what §5.3's subset enumeration (``"paper"``) finds,
    with the same used CSEs, and no more than Roy et al.'s greedy
    selection (``"greedy"``) finds."""
    for est_cost, used_cses, sql in plans:
        _, found = reference_select(DB, sql, strategies=(reference,))
        cost, used, _passes = found[reference]
        if reference == "paper":
            assert (est_cost, used_cses) == (cost, used), sql
        else:
            assert est_cost <= cost, sql


# -- the write axis ----------------------------------------------------------------


def duplicate_first_row(database, table_name):
    """Insert a copy of the first row: the table's key no longer holds."""
    table = database.table(table_name)
    database.insert(table_name, [table.rows()[0]])


def append_fresh_key_row(database, table_name):
    """Insert a copy of the first row under key values past every stored
    one: the table's key still holds."""
    table = database.table(table_name)
    row = list(table.rows()[0])
    names = table.schema.column_names
    for column in table.schema.primary_key:
        row[names.index(column)] = int(table.stored_column(column).max()) + 1
    database.insert(table_name, [tuple(row)])


VIEW_SQL = {
    "v": "select c_nationkey, sum(o_totalprice) as total, count(*) as n "
    "from customer, orders where c_custkey = o_custkey group by c_nationkey",
    "c": "select c_nationkey, sum(c_acctbal) as bal, count(*) as n "
    "from customer group by c_nationkey",
}


def maintained_views(database):
    """A :class:`ViewManager` over ``database`` holding :data:`VIEW_SQL`,
    refreshed."""
    manager = ViewManager(database)
    for name, sql in VIEW_SQL.items():
        manager.create_view(name, sql)
    manager.refresh_all()
    return manager


def assert_views_equal_recomputation(database, manager):
    fresh = maintained_views(database)
    for name in VIEW_SQL:
        assert_same_rows(
            manager.view(name).contents.rows(),
            fresh.view(name).contents.rows(),
            name,
        )
