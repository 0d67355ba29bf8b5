"""Workload definitions: every SQL text the benchmark submits, from ``--seed``.

This module imports nothing from the engine: :func:`generate` is a pure
function of ``(workload, seed, ops, clients)`` and the engine only ever sees
the text it returns.

The seed decides *which* predicates meet which grouping and in what order
things run; it does not decide how much work a run does. Predicate
constants, query shapes and templates are fixed multisets that the seed
deals out, so two seeds submit different text but the same amount of work.
That keeps the run-to-run spread of a metric inside its bound when the
seed varies from run to run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: distinct batches optimized in set-up and replayed by ``fig8_warm``.
POOL = 4

#: one op: the query texts of one submitted batch, in order.
Batch = Tuple[str, ...]


def batch_sql(batch: Batch) -> str:
    """The text submitted to the engine for one op."""
    return ";\n".join(batch)


#: rounds between two writes on ``serve_mixed``, and rows per write.
ROUNDS_PER_WRITE = 5
WRITE_ROWS = 100


@dataclass(frozen=True)
class Spec:
    """Sizing of one workload. ``ops_per_second`` is the closed-loop rate
    measured on the 2-core reference box; the op count of a run is
    ``ops_per_second * --seconds`` so a run measures for about ``--seconds``
    while two commits still do identical work."""

    name: str
    scale_factor: float
    #: queries per batch (fig8) / per round and client (serve_mixed).
    batch_queries: int
    #: ``plan_cache_size`` handed to every session.
    plan_cache_size: int
    ops_per_second: float
    #: ops are issued in cycles of this many (the batch pool, a pass over
    #: the TPC-H queries, the rounds between two writes); a run is whole
    #: cycles, after one untimed warm-up cycle.
    cycle: int


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("fig8_cold", 0.005, 6, 0, 100 / 15, POOL),
        Spec("fig8_warm", 0.02, 10, 64, 100 / 15, POOL),
        Spec("tpch_single", 0.02, 1, 0, 800 / 15, 8),
        Spec("serve_mixed", 0.025, 2, 64, 100 / 15, ROUNDS_PER_WRITE),
    )
}

WORKLOADS: List[str] = list(SPECS)

#: ``--smoke``: tiny database, one cycle of ops — wiring check, not a
#: measurement.
SMOKE_SCALE_FACTOR = 0.002


def op_count(spec: Spec, seconds: float, smoke: bool = False) -> int:
    """Ops in one run: whole cycles, at least one."""
    if smoke:
        return spec.cycle
    cycles = max(1, round(spec.ops_per_second * seconds / spec.cycle))
    return cycles * spec.cycle


# -- Fig-8 family (paper §6.5) ------------------------------------------------

_CORE = "c_custkey = o_custkey and o_orderkey = l_orderkey"

#: (grouping, extra tables, extra join) per slot shape; every third slot
#: joins nation (and region) like ``repro.workloads.scaleup_batch``.
_SHAPES = [
    ("c_nationkey", "", ""),
    ("c_mktsegment", "", ""),
    ("n_regionkey", ", nation", " and c_nationkey = n_nationkey"),
    ("o_orderpriority", "", ""),
    ("c_nationkey, c_mktsegment", "", ""),
    (
        "r_name",
        ", nation, region",
        " and c_nationkey = n_nationkey and n_regionkey = r_regionkey",
    ),
    ("o_orderstatus", "", ""),
    ("c_mktsegment", "", ""),
    ("n_regionkey", ", nation", " and c_nationkey = n_nationkey"),
    ("o_orderpriority", "", ""),
]


def _date_cuts(count: int) -> List[str]:
    """``count`` month-start cut-offs spread evenly over 1994-01..1997-12,
    ascending."""
    first, last = 1994 * 12, 1997 * 12 + 11
    cuts = []
    for i in range(count):
        month = first + (last - first) * i // max(1, count - 1)
        cuts.append(f"{month // 12}-{month % 12 + 1:02d}-01")
    return cuts


def fig8_predicates(rng: random.Random, count: int) -> List[str]:
    """``count`` local-predicate triples (date cut-off, nation range), by
    ascending cut-off.

    The cut-offs are a fixed multiset and every nation range is 21 nations
    wide; the seed only decides which range meets which cut-off."""
    lows = [i % 4 for i in range(count)]
    rng.shuffle(lows)
    return [
        f"  and o_orderdate < '{cut}'\n"
        f"  and c_nationkey > {low} and c_nationkey < {low + 22}\n"
        for cut, low in zip(_date_cuts(count), lows)
    ]


def _fig8_batch(rng: random.Random, predicates: Sequence[str]) -> Batch:
    batch = []
    for slot, predicate in enumerate(predicates):
        grouping, tables, join = _SHAPES[slot % len(_SHAPES)]
        batch.append(
            f"select {grouping}, sum(l_extendedprice) as le, "
            f"sum(l_quantity) as lq\n"
            f"from customer, orders, lineitem{tables}\n"
            f"where {_CORE}{join}\n"
            f"{predicate}"
            f"group by {grouping}"
        )
    rng.shuffle(batch)
    return tuple(batch)


def fig8_batches(rng: random.Random, queries: int, count: int) -> List[Batch]:
    """``count`` (even) distinct batches of ``queries`` queries over
    customer ⋈ orders ⋈ lineitem (paper §6.5).

    Every batch holds each shape once and each predicate triple once, so
    all batches of a run have the same covering subexpression; the seed
    decides which shape meets which triple and the order of the queries.
    Batches come in mirrored pairs — where one gives a shape the k-th
    earliest cut-off, its mirror gives it the k-th latest — so over a pair
    every shape filters the same number of rows whatever the seed dealt."""
    predicates = fig8_predicates(rng, queries)
    seen = set()
    batches: List[Batch] = []
    while len(batches) < count:
        deal = rng.sample(range(queries), queries)
        pair = [
            _fig8_batch(rng, [predicates[j] for j in deal]),
            _fig8_batch(rng, [predicates[queries - 1 - j] for j in deal]),
        ]
        if seen.isdisjoint(pair) and pair[0] != pair[1]:
            seen.update(pair)
            batches.extend(pair)
    return batches[:count]


# -- TPC-H singles ---------------------------------------------------------------

def tpch_passes(
    rng: random.Random, queries: Sequence[str], passes: int
) -> List[Batch]:
    """``passes`` seeded orderings of the adapted TPC-H queries, each query
    its own single-query batch."""
    ops: List[Batch] = []
    for _ in range(passes):
        ops.extend((q,) for q in rng.sample(list(queries), len(queries)))
    return ops


# -- serve_mixed ---------------------------------------------------------------

_CSL = f"from customer, orders, lineitem where {_CORE} "

#: the eight overlapping templates of ``benchmarks/bench_cross_session.py``.
SERVE_TEMPLATES = [
    f"select c_nationkey, sum(l_extendedprice) as v {_CSL}group by c_nationkey",
    f"select c_mktsegment, sum(l_quantity) as v {_CSL}group by c_mktsegment",
    f"select o_orderstatus, sum(l_extendedprice) as v {_CSL}group by o_orderstatus",
    f"select o_orderpriority, sum(l_quantity) as v {_CSL}group by o_orderpriority",
    f"select c_nationkey, count(*) as v {_CSL}group by c_nationkey",
    f"select c_mktsegment, count(*) as v {_CSL}group by c_mktsegment",
    f"select o_orderstatus, sum(o_totalprice) as v {_CSL}group by o_orderstatus",
    f"select o_orderpriority, count(*) as v {_CSL}group by o_orderpriority",
]

_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
#: first inserted customer key: far above any generated ``c_custkey``.
_FIRST_NEW_CUSTKEY = 50_000_000


def serve_epochs(
    rng: random.Random, epochs: int, clients: int, batch_queries: int
) -> List[List[Batch]]:
    """Per epoch (the rounds between two writes) one batch per client.

    The templates are cut into fixed batches of ``batch_queries``; epoch
    after epoch takes the next ``clients`` of them, cyclically. The seed
    decides which client submits which batch and the order of its queries —
    not which queries meet in a window, because the merged plan, and so the
    cost of a round, depends on exactly that."""
    chunks = [
        SERVE_TEMPLATES[i: i + batch_queries]
        for i in range(0, len(SERVE_TEMPLATES), batch_queries)
    ]
    plan = []
    for epoch in range(epochs):
        mix = [
            tuple(rng.sample(chunk, len(chunk)))
            for chunk in (
                chunks[(epoch * clients + k) % len(chunks)]
                for k in range(clients)
            )
        ]
        rng.shuffle(mix)
        plan.append(mix)
    return plan


def customer_rows(seed: int, write: int) -> List[tuple]:
    """The ``WRITE_ROWS`` customers inserted by the ``write``-th write."""
    rng = random.Random(f"write:{seed}:{write}")
    start = _FIRST_NEW_CUSTKEY + write * WRITE_ROWS
    return [
        (
            start + i,
            f"Customer#{start + i}",
            rng.randrange(25),
            rng.choice(_SEGMENTS),
            round(rng.uniform(0.0, 1000.0), 2),
        )
        for i in range(WRITE_ROWS)
    ]


# -- the one entry point ------------------------------------------------------------


@dataclass
class Plan:
    """Everything one run submits, in order."""

    workload: str
    seed: int
    clients: int
    #: untimed warm-up ops, then the timed ops. On ``serve_mixed`` one entry
    #: per *epoch* (a write, then ``ROUNDS_PER_WRITE`` rounds): the list of
    #: per-client batches every round of that epoch submits.
    warmup: list = field(default_factory=list)
    ops: list = field(default_factory=list)

    def texts(self) -> List[str]:
        """Every submitted SQL text, flattened (the purity test diffs it)."""
        flat: List[str] = []
        for op in self.warmup + self.ops:
            batches = op if isinstance(op, list) else [op]
            flat.extend(batch_sql(b) for b in batches)
        return flat


def generate(
    workload: str,
    seed: int,
    ops: int,
    clients: int,
    tpch_queries: Sequence[str],
) -> Plan:
    """The run's inputs: a pure function of its arguments."""
    spec = SPECS[workload]
    rng = random.Random(f"{workload}:{seed}")
    plan = Plan(workload, seed, clients)
    if workload == "fig8_cold":
        batches = fig8_batches(rng, spec.batch_queries, spec.cycle + ops)
        plan.warmup, plan.ops = batches[: spec.cycle], batches[spec.cycle:]
    elif workload == "fig8_warm":
        pool = fig8_batches(rng, spec.batch_queries, POOL)
        plan.warmup = pool
        plan.ops = [pool[i % POOL] for i in range(ops)]
    elif workload == "tpch_single":
        width = len(tpch_queries)
        passes = tpch_passes(rng, tpch_queries, ops // width + 1)
        plan.warmup, plan.ops = passes[:width], passes[width:]
    elif workload == "serve_mixed":
        epochs = ops // ROUNDS_PER_WRITE + 1
        mixes = serve_epochs(rng, epochs, clients, spec.batch_queries)
        plan.warmup, plan.ops = mixes[:1], mixes[1:]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return plan
