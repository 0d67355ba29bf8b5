"""Differential suite: slot-space incremental candidate generation against a
from-scratch reference.

Algorithm 1 probes merges on :class:`CoveringState` objects and materialises
only the candidates it emits. The invariants checked here: **every emitted
``CseDefinition`` equals the one §4.2 steps 1-6 build from scratch for the
same consumers, field by field modulo body-instance renaming, Algorithm 1
takes the same merge decisions with the same Δ values, and
``compatibility_groups`` returns the clusters of the expression-space
Definition 4.1.** The reference below is the pre-incremental
``construct_cse``/Algorithm 1 (body instances allocated up front, every
consumer re-mapped per call, classes intersected over ``ColumnRef``, size
estimated through a throw-away ``QueryBlock`` + ``BlockInfo``, the group
count bounded and the identity key added through expression-space key
facts), kept only here and in ``tests/cse_reference.py``.

The corpus covers the shapes the random SPJG batches never produce: outer,
semi and anti joins (``random_sql_batch``) and :data:`HAND_BATCH`, whose
consumers hold a self-join pair, string equalities, an OR filter and a
two-table ``<`` conjunct.
"""

import itertools
from collections import Counter
from types import SimpleNamespace

import pytest

import repro.cse.candidates as candidates
import repro.cse.compatibility as compatibility
import repro.cse.construct as construct
import repro.optimizer.step2 as step2
from repro import OptimizerOptions, Session
from repro.catalog.tpch import build_tpch_database
from repro.cse.candidates import generate_candidates
from repro.cse.compatibility import (
    consumer_conjuncts,
    remap_expr,
    slot_assignment,
)
from repro.cse.heuristics import (
    heuristic1_keep,
    heuristic2_filter,
    merge_benefit,
)
from repro.errors import OptimizerError
from repro.expr.expressions import Comparison, TableRef
from repro.expr.predicates import EquivalenceClasses
from repro.logical.blocks import QueryBlock
from repro.obs import MetricsRegistry, Tracer, use_tracer
from repro.optimizer.cardinality import cardenas
from repro.optimizer import memo
from repro.optimizer.memo import BlockInfo
from repro.workloads import (
    complex_join_batch,
    example1_batch,
    random_spjg_batch,
    scaleup_batch,
)
from repro.workloads.generator import random_sql_batch

from .. import cse_reference, match_reference
from ..match_reference import implied_by_equalities

DB = build_tpch_database(scale_factor=0.0005)


def _hand_query(region, grouping, segment):
    return (
        f"select {grouping}, sum(o_totalprice) as v "
        "from customer, orders, nation n1, nation n2 "
        "where c_custkey = o_custkey and c_nationkey = n1.n_nationkey "
        "and n1.n_regionkey = n2.n_regionkey "
        f"and n2.n_name = '{region}' "
        f"and (c_mktsegment = '{segment}' or c_acctbal > 5000) "
        "and c_acctbal < o_totalprice "
        f"group by {grouping}"
    )


#: Consumers with a self-join pair (``nation n1, nation n2``), a string
#: equality, an OR filter and a two-table ``<`` conjunct.
HAND_BATCH = ";".join([
    _hand_query("FRANCE", "c_mktsegment", "BUILDING"),
    _hand_query("GERMANY", "n1.n_name", "MACHINERY"),
    _hand_query("FRANCE", "c_nationkey", "BUILDING"),
])


# -- the from-scratch reference (§4.2 steps 1-6, §4.3.3, Algorithm 1) ---------


def reference_construct(consumers, infos, allocate, estimator):
    signature = consumers[0].signature
    by_slot = {s: t for t, s in slot_assignment(consumers[0].tables).items()}
    body = {
        slot: TableRef(by_slot[slot].table, allocate(), "", by_slot[slot].is_delta,
                       by_slot[slot].storage_name)
        for slot in sorted(by_slot)
    }
    maps = [
        {t: body[s] for t, s in slot_assignment(g.tables).items()}
        for g in consumers
    ]
    conjuncts = [
        [remap_expr(c, m) for c in consumer_conjuncts(g, infos[g.block.name])]
        for g, m in zip(consumers, maps)
    ]
    classes = [EquivalenceClasses.from_conjuncts(c) for c in conjuncts]
    joint = classes[0]
    for other in classes[1:]:
        joint = cse_reference.intersect(joint, other)  # step 1
    joins = cse_reference.equality_conjuncts(joint)
    simplified = [  # step 2
        [c for c in cs if not implied_by_equalities(c, joint)] for cs in conjuncts
    ]
    covering, residuals = cse_reference.weakened_covering(simplified)  # step 3
    needed = {col for r in residuals for c in r for col in c.columns()}
    keys, aggs = (), []
    if signature.has_groupby:  # step 4
        for g, m in zip(consumers, maps):
            needed |= {remap_expr(k, m) for k in g.agg_keys}
            aggs += [
                a for a in (remap_expr(o, m) for o in g.agg_outs) if a not in aggs
            ]
        keys = tuple(sorted(needed, key=repr))
        outputs = keys + tuple(aggs)
    else:  # step 5
        for g, m in zip(consumers, maps):
            for expr in g.required_outputs:
                needed |= remap_expr(expr, m).columns()
        outputs = tuple(sorted(needed, key=repr))
    block = QueryBlock(
        "__ref", tuple(body.values()), tuple(joins) + tuple(covering), (),
        keys, tuple(aggs),
    )
    if not cse_reference.graph_connected(block.tables, joint):
        raise OptimizerError("not join compatible")
    info = BlockInfo(block, estimator)
    # §4.3.3: base rows × class factors × covering selectivity, then Cardenas.
    rows, item_rows = 1.0, {}
    for table in block.tables:
        base = estimator.table_rows(table)
        for conjunct in info.local_conjuncts(table):
            base *= estimator.selectivity(conjunct)
        item_rows[table] = max(base, 1.0)
        rows *= item_rows[table]
    for cls in info.classes_within(block.table_set):
        ndvs = {}  # per table: its smallest member NDV, capped by its rows
        for member in cls:
            ndv = min(estimator.column_ndv(member), item_rows[member.table_ref])
            ndvs[member.table_ref] = min(ndvs.get(member.table_ref, ndv), ndv)
        rows *= estimator.class_factor_for_join(ndvs.values())
    for conjunct in info.noneq:
        if len(conjunct.tables()) >= 2:
            rows *= estimator.selectivity(conjunct)
    rows = max(rows, 1.0)
    if signature.has_groupby:
        # Key facts: each table's verified key; its key, class member and
        # grouping columns are what a fixed table makes known.
        table_keys = {t: frozenset(estimator.key_columns(t)) for t in block.tables}
        members = {m for cls in joint.classes() for m in cls}
        owns = {
            t: table_keys[t] | {c for c in members | set(keys) if c.table_ref == t}
            for t in block.tables
        }

        def groups(keys):
            domain, kept = 1.0, []
            for key in keys:
                if not any(joint.same_class(key, k) for k in kept):
                    kept.append(key)
                    domain *= max(min(estimator.column_ndv(key), rows), 1.0)
            fixed, _ = cse_reference.fixed_tables(
                keys, block.tables, table_keys, owns, joint
            )
            if fixed == set(block.tables):
                return rows  # unique on the keys: a group per row
            product = 1.0
            for t in cse_reference.bounding_tables(
                keys, list(block.tables), item_rows, table_keys, owns, joint
            ):
                product *= item_rows[t]
            return min(cardenas(domain, rows), rows, product)

        est = groups(keys)
        # §4.2 step 4's key rule: the fewest-rows table whose key fixes every
        # table a grouping key comes from; add its key when grouping by it
        # compresses no more than the pre-aggregation threshold.
        contributing = {k.table_ref for k in keys}
        candidates = [
            t for t in block.tables
            if table_keys[t] and contributing <= cse_reference.fixed_tables(
                table_keys[t], block.tables, table_keys, owns, joint
            )[0]
        ]
        if candidates:
            best = min(candidates, key=lambda t: item_rows[t])
            if est >= memo.PREAGG_MIN_COMPRESSION * item_rows[best]:
                keys = tuple(sorted(set(keys) | table_keys[best], key=repr))
                outputs = keys + tuple(aggs)
                est = groups(keys)
        rows = est
    return SimpleNamespace(  # the reference construction, in body space
        consumer_groups=list(consumers), signature=signature,
        tables=block.tables, joint_equalities=tuple(joins),
        covering_conjuncts=tuple(covering), group_keys=keys,
        aggregates=tuple(aggs), outputs=outputs, est_rows=rows,
        row_width=estimator.width_of(outputs),
    )


def reference_algorithm1(
    consumers, infos, estimator, cost_model, batch_cost, alpha, use_heuristics
):
    """The pre-incremental Algorithm 1: every probe is a full construction.
    Returns (emitted references, h3 events)."""
    allocate = itertools.count(10_000).__next__
    consumers = sorted(consumers, key=lambda g: g.gid)

    def build(members):
        return reference_construct(members, infos, allocate, estimator)

    if not use_heuristics:
        return [build(consumers)], []
    if not heuristic1_keep(consumers, batch_cost, alpha):
        return [], []
    consumers = heuristic2_filter(consumers, cost_model)
    if len(consumers) < 2 or not heuristic1_keep(consumers, batch_cost, alpha):
        return [], []
    emitted, events, remaining = [], [], list(consumers)
    trivial = {g.gid: build([g]) for g in consumers}
    while len(remaining) > 1:
        members = [remaining.pop(0)]
        current, merged_any = trivial[members[0].gid], False
        while remaining:
            best_delta, top_delta, best = 0.0, float("-inf"), None
            for index, other in enumerate(remaining):
                try:
                    merged = build(members + [other])
                except OptimizerError:
                    continue
                delta = merge_benefit(merged, [current, trivial[other.gid]], cost_model)
                top_delta = max(top_delta, delta)
                if delta > best_delta:
                    best_delta, best = delta, (index, merged)
            gids = [f"g{g.gid}" for g in members]
            if best is None:
                delta = top_delta if top_delta > float("-inf") else 0.0
                events.append((gids, delta, False))
                break
            members.append(remaining.pop(best[0]))
            events.append((gids + [f"g{members[-1].gid}"], best_delta, True))
            current, merged_any = best[1], True
        if merged_any:
            emitted.append(current)
    return emitted, events


# -- the comparison --------------------------------------------------------------


def assert_same_definition(definition, reference):
    """Field-by-field equality modulo body-instance renaming."""
    rename = dict(zip(reference.tables, definition.block.tables))

    def renamed(exprs):
        return tuple(remap_expr(e, rename) for e in exprs)

    assert definition.consumer_gids == tuple(
        g.gid for g in reference.consumer_groups
    )
    assert definition.signature == reference.signature
    assert [t.table for t in definition.block.tables] == [
        t.table for t in reference.tables
    ]
    assert definition.joint_equalities == renamed(reference.joint_equalities)
    assert definition.covering_conjuncts == renamed(reference.covering_conjuncts)
    assert definition.block.conjuncts == (
        definition.joint_equalities + definition.covering_conjuncts
    )
    assert definition.group_keys == renamed(reference.group_keys)
    assert definition.aggregates == renamed(reference.aggregates)
    assert tuple(o.expr for o in definition.outputs) == renamed(reference.outputs)
    assert definition.block.output == definition.outputs
    # Same float operations in the same order: bit-equal, not approximately.
    assert definition.est_rows == reference.est_rows
    assert definition.row_width == reference.row_width


def check_batch(sql, monkeypatch, registry=None, **options):
    """Optimize ``sql``; replay every ``compatibility_groups`` and Algorithm
    1 invocation through the reference and compare the clusters, the
    emitted definitions and the H3 events; then every §5.1 consumer match,
    constructed and stacked, against the expression-space matcher."""
    calls, clusterings = [], []
    matches = match_reference.recording_matches(monkeypatch)

    def recording(compatible_set, profiles, *args, **kwargs):
        tracer = Tracer()
        with use_tracer(tracer):
            definitions = generate_candidates(
                compatible_set, profiles, *args, **kwargs
            )
        calls.append((compatible_set, profiles, args, definitions, tracer))
        return definitions

    def clustering(groups, profiles):
        clusters = compatibility.compatibility_groups(groups, profiles)
        clusterings.append((list(groups), profiles.infos, clusters))
        return clusters

    monkeypatch.setattr(step2, "generate_candidates", recording)
    monkeypatch.setattr(step2, "compatibility_groups", clustering)
    result = Session(DB, OptimizerOptions(**options), registry=registry).optimize(sql)
    for groups, infos, clusters in clusterings:
        reference = cse_reference.compatibility_groups(groups, infos)
        assert [[g.gid for g in c] for c in clusters] == [
            [g.gid for g in c] for c in reference
        ]
    body_instances = []
    for compatible_set, profiles, args, definitions, tracer in calls:
        cost_model, batch_cost, alpha, use_heuristics = args[:4]
        references, events = reference_algorithm1(
            compatible_set, profiles.infos, profiles.space.estimator,
            cost_model, batch_cost, alpha, use_heuristics,
        )
        assert len(definitions) == len(references)
        for definition, reference in zip(definitions, references):
            assert_same_definition(definition, reference)
            body_instances += [t.instance for t in definition.block.tables]
        assert [
            (e.attrs["members"], e.attrs["delta"], e.attrs["merged"])
            for e in tracer.events if e.name == "h3"
        ] == events
    # Body instances go to emitted candidates only: consecutive after the
    # batch's own instances, in candidate-id order, whatever was probed.
    if body_instances:
        first = 1 + max(
            table.instance
            for name, info in calls[0][1].infos.items()
            if not name.startswith("__cse_")
            for table in info.block.tables
        )
        assert body_instances == list(range(first, first + len(body_instances)))
    match_reference.assert_matches_oracle(matches)
    return result, calls


@pytest.mark.parametrize("chunk", range(10))
def test_random_batches_match_reference(chunk, monkeypatch):
    emitted = 0
    for seed in range(chunk * 20, chunk * 20 + 20):
        options = {} if seed % 4 else {"enable_heuristics": False}
        _, calls = check_batch(random_spjg_batch(seed), monkeypatch, **options)
        emitted += sum(len(call[3]) for call in calls)
    assert emitted > 0  # the chunk exercised construction at all


@pytest.mark.parametrize("chunk", range(10))
def test_random_sql_batches_match_reference(chunk, monkeypatch):
    """Outer, semi and anti joins mixed with plain SPJG queries."""
    compatible_sets = 0
    for seed in range(chunk * 20, chunk * 20 + 20):
        options = {} if seed % 4 else {"enable_heuristics": False}
        _, calls = check_batch(random_sql_batch(seed), monkeypatch, **options)
        compatible_sets += len(calls)
    assert compatible_sets > 0  # the chunk reached Algorithm 1 at all


@pytest.mark.parametrize("heuristics", [True, False])
@pytest.mark.parametrize(
    "sql",
    [scaleup_batch(6), scaleup_batch(10), example1_batch(), complex_join_batch()],
    ids=["fig8_6", "fig8_10", "example1", "table4"],
)
def test_paper_shapes_match_reference(sql, heuristics, monkeypatch):
    result, calls = check_batch(sql, monkeypatch, enable_heuristics=heuristics)
    assert result.stats.candidates_before_pruning == sum(
        len(call[3]) for call in calls
    )


@pytest.mark.parametrize("heuristics", [True, False])
def test_hand_batch_matches_reference(heuristics, monkeypatch):
    """Self-joins, string equalities, OR and two-table ``<`` conjuncts reach
    Algorithm 1 and the covering predicate."""
    registry = MetricsRegistry()
    result, calls = check_batch(
        HAND_BATCH, monkeypatch, registry=registry,
        enable_heuristics=heuristics,
    )
    definitions = [d for call in calls for d in call[3]]
    assert any(
        [t.table for t in d.block.tables].count("nation") == 2
        for d in definitions
    )
    assert any(
        len(c.tables()) == 2 for d in definitions for c in d.covering_conjuncts
    )
    if heuristics:
        # Algorithm 1 merges the two FRANCE/BUILDING consumers first, so
        # their OR filter and string equality survive into the covering.
        assert registry.snapshot()["counters"]["cse.merge_probes"] > 0
        covering = " ".join(
            repr(c) for d in definitions for c in d.covering_conjuncts
        )
        assert " OR " in covering and "'FRANCE'" in covering


def test_match_differential_catches_a_mutation(monkeypatch):
    """The id derivation with range implication switched off refuses
    consumers the oracle proves, and the differential says so."""
    import repro.cse.matching as matching

    monkeypatch.setattr(matching, "bound_implies", lambda have, want: False)
    with pytest.raises(AssertionError, match="constructed|vs oracle"):
        check_batch(example1_batch(), monkeypatch)


def test_probe_loop_does_no_expression_work(monkeypatch):
    """Algorithm 1's probes are integer work: while a merge is probed and
    priced, no ``EquivalenceClasses`` or ``Comparison`` is built and no
    expression is remapped."""
    counts, probing = Counter(), [0]

    def probe_region(function):
        def wrapped(*args, **kwargs):
            probing[0] += 1
            try:
                return function(*args, **kwargs)
            finally:
                probing[0] -= 1
        return wrapped

    def counted(name, function):
        def wrapped(*args, **kwargs):
            if probing[0]:
                counts[name] += 1
            return function(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(
        construct.CoveringState, "merged_with",
        probe_region(construct.CoveringState.merged_with),
    )
    monkeypatch.setattr(
        candidates, "merge_benefit", probe_region(candidates.merge_benefit)
    )
    for cls in (EquivalenceClasses, Comparison):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    for module in (construct, compatibility):
        monkeypatch.setattr(
            module, "remap_expr", counted("remap_expr", module.remap_expr)
        )
    registry = MetricsRegistry()
    Session(DB, OptimizerOptions(), registry=registry).optimize(scaleup_batch(6))
    counters = registry.snapshot()["counters"]
    assert (
        counters["cse.consumer_profiles"],
        counters["cse.merge_probes"],
        counters["cse.constructions"],
    ) == (34, 77, 7)
    assert counts == Counter()
