"""Differential suite: slot-space incremental candidate generation against a
from-scratch reference.

Algorithm 1 probes merges on :class:`CoveringState` objects and materialises
only the candidates it emits. The invariant checked here: **every emitted
``CseDefinition`` equals the one §4.2 steps 1-6 build from scratch for the
same consumers, field by field modulo body-instance renaming, and Algorithm
1 takes the same merge decisions with the same Δ values.** The reference
below is the pre-incremental ``construct_cse``/Algorithm 1 (body instances
allocated up front, every consumer re-mapped per call, size estimated through
a throw-away ``QueryBlock`` + ``BlockInfo``), kept only here.
"""

import itertools
from types import SimpleNamespace

import pytest

import repro.optimizer.step2 as step2
from repro import OptimizerOptions, Session
from repro.catalog.tpch import build_tpch_database
from repro.cse.candidates import generate_candidates
from repro.cse.compatibility import (
    consumer_conjuncts,
    remap_expr,
    slot_assignment,
)
from repro.cse.construct import weakened_covering
from repro.cse.heuristics import (
    heuristic1_keep,
    heuristic2_filter,
    merge_benefit,
)
from repro.errors import OptimizerError
from repro.expr.expressions import TableRef
from repro.expr.predicates import EquivalenceClasses, implied_by_equalities
from repro.logical.blocks import QueryBlock
from repro.obs import DecisionJournal, use_journal
from repro.optimizer.cardinality import cardenas
from repro.optimizer.memo import BlockInfo
from repro.workloads import (
    complex_join_batch,
    example1_batch,
    random_spjg_batch,
    scaleup_batch,
)

DB = build_tpch_database(scale_factor=0.0005)


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
        joint = joint.intersect(other)  # step 1
    joins = joint.equality_conjuncts()
    simplified = [  # step 2
        [c for c in cs if not implied_by_equalities(c, joint)] for cs in conjuncts
    ]
    covering, residuals = weakened_covering(simplified)  # step 3
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
    if not _connected(block, joint):
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
        domain, kept = 1.0, []
        for key in keys:
            if not any(joint.same_class(key, k) for k in kept):
                kept.append(key)
                domain *= max(min(estimator.column_ndv(key), rows), 1.0)
        rows = cardenas(domain, rows)
    return SimpleNamespace(  # the reference construction, in body space
        consumer_groups=list(consumers), signature=signature,
        tables=block.tables, joint_equalities=tuple(joins),
        covering_conjuncts=tuple(covering), group_keys=keys,
        aggregates=tuple(aggs), outputs=outputs, est_rows=rows,
        row_width=estimator.width_of(outputs),
    )


def _connected(block, joint):
    """Def 4.1: the equijoin graph of the joint classes spans the tables."""
    reached, frontier = {block.tables[0]}, [block.tables[0]]
    while frontier:
        current = frontier.pop()
        for cls in joint.classes():
            touched = {m.table_ref for m in cls}
            if current in touched:
                frontier += touched - reached
                reached |= touched
    return reached == set(block.tables)


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
    for equality in definition.joint_equalities:
        assert definition.joint_classes.same_class(equality.left, equality.right)
    assert len(definition.joint_classes) == len(
        EquivalenceClasses.from_conjuncts(reference.joint_equalities)
    )
    # Same float operations in the same order: bit-equal, not approximately.
    assert definition.est_rows == reference.est_rows
    assert definition.row_width == reference.row_width


def check_batch(sql, monkeypatch, **options):
    """Optimize ``sql``; replay every Algorithm 1 invocation through the
    reference and compare emitted definitions and H3 events."""
    calls = []

    def recording(compatible_set, profiles, *args, **kwargs):
        journal = DecisionJournal()
        with use_journal(journal):
            definitions = generate_candidates(
                compatible_set, profiles, *args, **kwargs
            )
        calls.append((compatible_set, profiles.infos, args, definitions, journal))
        return definitions

    monkeypatch.setattr(step2, "generate_candidates", recording)
    result = Session(DB, OptimizerOptions(**options)).optimize(sql)
    body_instances = []
    for compatible_set, infos, args, definitions, journal in calls:
        estimator, cost_model, batch_cost, alpha, use_heuristics = args[:5]
        references, events = reference_algorithm1(
            compatible_set, infos, estimator, cost_model, batch_cost, alpha,
            use_heuristics,
        )
        assert len(definitions) == len(references)
        for definition, reference in zip(definitions, references):
            assert_same_definition(definition, reference)
            body_instances += [t.instance for t in definition.block.tables]
        assert [
            (e["members"], e["delta"], e["merged"]) for e in journal.events("h3")
        ] == events
    # Body instances go to emitted candidates only: consecutive after the
    # batch's own instances, in candidate-id order, whatever was probed.
    if body_instances:
        first = 1 + max(
            table.instance
            for name, info in calls[0][1].items() if not name.startswith("__cse_")
            for table in info.block.tables
        )
        assert body_instances == list(range(first, first + len(body_instances)))
    return result, calls


@pytest.mark.parametrize("chunk", range(10))
def test_random_batches_match_reference(chunk, monkeypatch):
    emitted = 0
    for seed in range(chunk * 20, chunk * 20 + 20):
        options = {} if seed % 4 else {"enable_heuristics": False}
        _, calls = check_batch(random_spjg_batch(seed), monkeypatch, **options)
        emitted += sum(len(call[3]) for call in calls)
    assert emitted > 0  # the chunk exercised construction at all


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
