"""Expression-space oracles for §5.1 view matching and block equivalence.

The optimizer matches a consumer against a candidate once, on integer ids:
the consumer's :class:`ConsumerProfile` against the :class:`CoveringState`
the candidate was materialised from
(:func:`repro.cse.matching.match_consumer`). These are the readings over
``Expr`` that the tests hold it to:

* :func:`reference_spec` — the expression-space matcher: every consumer
  conjunct remapped into the CSE body's column space, equivalence classes
  rebuilt per probe, implication by :func:`range_implies`;
* :func:`check_consumer_match` — the same five obligations re-derived as a
  :class:`Verdict` (it refuses exactly what the matcher refuses);
* :func:`blocks_equivalent` — conservative bag equivalence of two blocks,
  the adversarial corpus's subject (``tests/test_equiv.py``).

:func:`recording_matches` and :func:`assert_matches_oracle` are the
differential: record every call of ``match_consumer`` a run makes and
compare each verdict and spec with the oracle's.

:data:`MUTANTS` are seeded wrong matches, the error classes of the
bag-semantics equivalence work (arXiv 2004.00481): a dropped compensation
conjunct, a widened range bound, and swapped join sides. The differential
matrix (``tests/matrix.py``; ``tests/property/test_prop_matrix.py``) must
refute each one from result rows alone.
"""

from dataclasses import replace


from repro.cse import matching
from repro.cse.compatibility import consumer_conjuncts, remap_expr, slot_assignment
from repro.equiv import GAVE_UP, PROVED, REFUTED, Verdict
from repro.expr.expressions import AggExpr, ColumnRef, Comparison, ComparisonOp
from repro.expr.predicates import (
    EquivalenceClasses,
    bound_implies,
    range_part,
    range_parts,
)
from repro.optimizer import step2
from repro.optimizer.aggs import reaggregate_computes
from repro.optimizer.memo import BlockInfo


def implied_by_equalities(conjunct, classes):
    """Whether a column-equality conjunct is already implied by ``classes``."""
    if isinstance(conjunct, Comparison) and conjunct.is_column_equality:
        return classes.same_class(conjunct.left, conjunct.right)
    return False


def range_implies(specific, general):
    """Conservative implication test between two range conjuncts: ``True``
    only when ``specific`` provably implies ``general``. Both must be
    ``col op literal`` conjuncts over the same column."""
    spec = range_parts(specific)
    gen = range_parts(general)
    return spec is not None and gen is not None and bound_implies(spec, gen)


def conjuncts_imply(specific, general, classes=None):
    """Whether the conjunct set ``specific`` implies every conjunct of
    ``general`` (conservative: syntactic match, equivalence-class match, or
    range implication)."""
    for needed in general:
        if classes is not None and implied_by_equalities(needed, classes):
            continue
        if any(have == needed or range_implies(have, needed) for have in specific):
            continue
        return False
    return True


def _body_space(definition, group, info):
    """``(table map, consumer conjuncts in body space)``, or None when the
    slot sets differ."""
    body_by_slot = {
        slot: tref
        for tref, slot in slot_assignment(definition.block.tables).items()
    }
    consumer_slots = slot_assignment(group.tables)
    if set(consumer_slots.values()) != set(body_by_slot):
        return None
    table_map = {tref: body_by_slot[slot] for tref, slot in consumer_slots.items()}
    mapped = [remap_expr(c, table_map) for c in consumer_conjuncts(group, info)]
    return table_map, mapped


def _guaranteed(conjunct, definition, joint_classes):
    return implied_by_equalities(conjunct, joint_classes) or any(
        have == conjunct or range_implies(have, conjunct)
        for have in definition.covering_conjuncts
    )


def reference_spec(definition, group, info):
    """The expression-space §5.1 matcher: the compensation recipe, or None."""
    if group.signature != definition.signature:
        return None
    body = _body_space(definition, group, info)
    if body is None:
        return None
    table_map, mapped = body
    consumer_classes = EquivalenceClasses.from_conjuncts(mapped)
    joint_classes = EquivalenceClasses.from_conjuncts(definition.joint_equalities)
    for equality in definition.joint_equalities:
        if not implied_by_equalities(equality, consumer_classes):
            return None
    for covering in definition.covering_conjuncts:
        if not any(have == covering or range_implies(have, covering) for have in mapped):
            return None
    residual_body = [
        c for c in mapped if not _guaranteed(c, definition, joint_classes)
    ]
    available = {o.expr for o in definition.outputs if isinstance(o.expr, ColumnRef)}
    if any(not c.columns() <= available for c in residual_body):
        return None
    reagg_keys = reagg_computes = None
    if definition.has_groupby:
        mapped_keys = {remap_expr(k, table_map) for k in group.agg_keys}
        if not all(isinstance(k, ColumnRef) for k in mapped_keys):
            return None
        if not mapped_keys <= set(definition.group_keys):
            return None
        for out in group.agg_outs:
            if not isinstance(out, AggExpr):
                return None
            if remap_expr(out, table_map) not in set(definition.aggregates):
                return None
        if mapped_keys != set(definition.group_keys):
            reagg_keys = tuple(group.agg_keys)
            reagg_computes = reaggregate_computes(list(group.agg_outs))
    elif any(
        not remap_expr(e, table_map).columns() <= available
        for e in group.required_outputs
    ):
        return None
    inverse = {v: k for k, v in table_map.items()}
    return matching.ConsumerSpec(
        group=group,
        cse_id=definition.cse_id,
        table_map=table_map,
        residual=tuple(remap_expr(c, inverse) for c in residual_body),
        column_map=tuple(
            (out.name, remap_expr(out.expr, inverse)) for out in definition.outputs
        ),
        reagg_keys=reagg_keys,
        reagg_computes=reagg_computes,
    )


def check_consumer_match(definition, group, info):
    """The §5.1 obligations for one consumer against a CSE definition, as a
    :class:`Verdict`: slot-set equality, joint-equality implication,
    covering-predicate containment, residual-column availability, and
    grouping (or, for SPJ CSEs, required-column) containment."""
    if group.signature != definition.signature:
        return Verdict(REFUTED, "table signature mismatch")
    body = _body_space(definition, group, info)
    if body is None:
        return Verdict(REFUTED, "slot multiset mismatch")
    table_map, mapped = body
    classes = EquivalenceClasses.from_conjuncts(mapped)
    for equality in definition.joint_equalities:
        if not implied_by_equalities(equality, classes):
            return Verdict(GAVE_UP, f"joint equality {equality!r} not implied by consumer")
    for covering in definition.covering_conjuncts:
        if not any(have == covering or range_implies(have, covering) for have in mapped):
            return Verdict(
                GAVE_UP, f"covering conjunct {covering!r} not implied by consumer"
            )
    joint_classes = EquivalenceClasses.from_conjuncts(definition.joint_equalities)
    available = {o.expr for o in definition.outputs if isinstance(o.expr, ColumnRef)}
    for conjunct in mapped:
        if _guaranteed(conjunct, definition, joint_classes):
            continue
        if not conjunct.columns() <= available:
            return Verdict(
                GAVE_UP, f"residual {conjunct!r} references unavailable columns"
            )
    if definition.has_groupby:
        mapped_keys = set()
        for key in group.agg_keys:
            mapped_key = remap_expr(key, table_map)
            if not isinstance(mapped_key, ColumnRef):
                return Verdict(GAVE_UP, "consumer grouping key is not a column")
            mapped_keys.add(mapped_key)
        if not mapped_keys <= set(definition.group_keys):
            return Verdict(GAVE_UP, "consumer keys not contained in CSE keys")
        for out in group.agg_outs:
            if not isinstance(out, AggExpr):
                return Verdict(GAVE_UP, f"non-aggregate output {out!r}")
            if remap_expr(out, table_map) not in set(definition.aggregates):
                return Verdict(GAVE_UP, f"aggregate {out!r} not computed by the CSE")
    else:
        for expr in group.required_outputs:
            if not remap_expr(expr, table_map).columns() <= available:
                return Verdict(GAVE_UP, f"required output {expr!r} not in CSE output")
    return Verdict(PROVED, "containment obligations all proved")


# -- the differential ------------------------------------------------------------


def recording_matches(monkeypatch):
    """Record every ``match_consumer`` call the optimizer makes, constructed
    (:func:`match_constructed`) and stacked (Step 2's §5.5 search):
    returns the list ``(definition, profile, verdict, spec, stacked)`` is
    appended to."""
    records = []
    match = matching.match_consumer

    def recorder(stacked):
        def recording(definition, profile):
            verdict, spec = match(definition, profile)
            records.append((definition, profile, verdict, spec, stacked))
            return verdict, spec
        return recording

    monkeypatch.setattr(matching, "match_consumer", recorder(False))
    monkeypatch.setattr(step2, "match_consumer", recorder(True))
    return records


def assert_matches_oracle(records):
    """Every recorded match has the oracle's verdict outcome and spec, and no
    constructed consumer was refused."""
    infos = {}
    for definition, profile, verdict, spec, stacked in records:
        group = profile.group
        key = id(group.block)
        if key not in infos:
            infos[key] = (group.block, BlockInfo(group.block, profile.space.estimator))
        info = infos[key][1]
        want = check_consumer_match(definition, group, info)
        want_spec = reference_spec(definition, group, info)
        where = f"{definition.cse_id} / g{group.gid} ({'stacked' if stacked else 'constructed'})"
        assert (want_spec is None) == (not want.proved), f"oracle disagrees with itself: {where}"
        assert verdict.outcome == want.outcome, f"{where}: {verdict!r} vs oracle {want!r}"
        assert stacked or verdict.proved, f"constructed consumer refused: {where}: {verdict!r}"
        if want_spec is None:
            assert spec is None, where
            continue
        assert spec.group is group and spec.cse_id == definition.cse_id, where
        assert spec.table_map == want_spec.table_map, where
        assert spec.residual == want_spec.residual, where
        assert spec.column_map == want_spec.column_map, where
        assert spec.reagg_keys == want_spec.reagg_keys, where
        assert spec.reagg_computes == want_spec.reagg_computes, where


# -- seeded wrong matches -------------------------------------------------------


def _mutant(mutate):
    """``match_consumer`` with ``mutate`` applied to every proved spec it
    returns (``mutate`` returns the spec unchanged when it does not apply)."""
    match = matching.match_consumer

    def mutant(definition, profile):
        verdict, spec = match(definition, profile)
        return verdict, spec if spec is None else mutate(spec)
    return mutant


def _drop_conjunct(spec):
    """The compensation forgets the consumer's first residual conjunct."""
    return replace(spec, residual=spec.residual[1:])


def _widen_range(spec):
    """The first residual range bound moves outward by its own magnitude
    (``x < 100`` becomes ``x < 200``): the spool's rows pass a weaker test
    than the consumer asked for."""
    for index, conjunct in enumerate(spec.residual):
        part = range_part(conjunct)
        if part is None or part[1] in (ComparisonOp.EQ, ComparisonOp.NE):
            continue
        comparison = conjunct.normalized()
        step = max(abs(part[2]), 1)
        upper = part[1] in (ComparisonOp.LT, ComparisonOp.LE)
        literal = replace(
            comparison.right, value=part[2] + step if upper else part[2] - step
        )
        widened = replace(comparison, right=literal)
        return replace(
            spec,
            residual=spec.residual[:index] + (widened,) + spec.residual[index + 1:],
        )
    return spec


def _swap_sides(spec):
    """The two instances of a self-join exchange their spool columns: each
    side reads the rows of the other. (An outer join never reaches a match:
    an extension block is one table, and a reducible outer join is an inner
    join by then; so the self-join is where a side swap can happen.)"""
    by_table = {}
    for table in spec.table_map:
        by_table.setdefault(table.table, []).append(table)
    pair = next((tables for tables in by_table.values() if len(tables) == 2), None)
    if pair is None:
        return spec
    swap = {pair[0]: pair[1], pair[1]: pair[0]}
    return replace(
        spec,
        table_map={swap.get(t, t): body for t, body in spec.table_map.items()},
        column_map=tuple((name, remap_expr(e, swap)) for name, e in spec.column_map),
    )


#: name -> a wrong ``match_consumer``.
MUTANTS = {
    "dropped-conjunct": _mutant(_drop_conjunct),
    "widened-range": _mutant(_widen_range),
    "swapped-sides": _mutant(_swap_sides),
}


def install_mutant(monkeypatch, name):
    """Make every consumer match of the optimizer go through ``name``."""
    monkeypatch.setattr(matching, "match_consumer", MUTANTS[name])
    monkeypatch.setattr(step2, "match_consumer", MUTANTS[name])


# -- block-level bag equivalence -------------------------------------------------


def _slot_map(a, b):
    """Map b's table instances onto a's via the shared slot assignment, or
    None when the table multisets differ."""
    slots_a = slot_assignment(a.tables)
    slots_b = slot_assignment(b.tables)
    by_slot = {slot: tref for tref, slot in slots_a.items()}
    if set(by_slot) != set(slots_b.values()):
        return None
    return {tref: by_slot[slot] for tref, slot in slots_b.items()}


def blocks_equivalent(a, b):
    """Conservative bag-semantics equivalence of two SPJ(G) blocks.

    ``proved`` requires: identical table multisets (up to instance renaming
    along slot assignment), mutually implying predicate conjunct sets, and
    identical grouping keys, aggregates, and outputs after renaming.
    """
    table_map = _slot_map(a, b)
    if table_map is None:
        return Verdict(REFUTED, "different table multisets")

    b_conjuncts = [remap_expr(c, table_map) for c in b.conjuncts]
    a_conjuncts = list(a.conjuncts)
    classes_a = EquivalenceClasses.from_conjuncts(a_conjuncts)
    classes_b = EquivalenceClasses.from_conjuncts(b_conjuncts)
    if not conjuncts_imply(a_conjuncts, b_conjuncts, classes_a):
        return Verdict(GAVE_UP, "left predicate does not provably imply right")
    if not conjuncts_imply(b_conjuncts, a_conjuncts, classes_b):
        return Verdict(GAVE_UP, "right predicate does not provably imply left")

    if a.has_groupby != b.has_groupby:
        return Verdict(REFUTED, "one side aggregates, the other does not")
    if a.has_groupby:
        keys_b = {remap_expr(k, table_map) for k in b.group_keys}
        if set(a.group_keys) != keys_b:
            return Verdict(REFUTED, "different grouping keys")
        aggs_b = {remap_expr(agg, table_map) for agg in b.aggregates}
        if set(a.aggregates) != aggs_b:
            return Verdict(REFUTED, "different aggregate sets")

    if len(a.output) != len(b.output):
        return Verdict(REFUTED, "different output arity")
    for out_a, out_b in zip(a.output, b.output):
        if out_a.expr != remap_expr(out_b.expr, table_map):
            return Verdict(GAVE_UP, f"output {out_a.name} differs")
    return Verdict(PROVED, "table multiset, predicate, shape all match")
