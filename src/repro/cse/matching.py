"""View matching of consumer groups against candidate CSEs (paper §5.1).

Candidate CSEs are treated "in the same way as materialized views": a
consumer group matches a CSE when the CSE provably contains every row and
column the consumer needs; the substitute is a spool read plus compensation
(residual predicate, and a re-aggregation when the CSE's grouping is finer
than the consumer's).

The same matcher serves both the CSE's *constructed* consumers (where it
always succeeds, by §4.2's construction) and **stacked** consumers found
inside other candidates' bodies (§5.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..equiv import check_consumer_match
from ..expr.expressions import AggExpr, ColumnRef, Expr, TableRef
from ..expr.predicates import (
    EquivalenceClasses,
    implied_by_equalities,
    range_implies,
)
from ..obs import active_journal
from ..optimizer.aggs import AggCompute, reaggregate_computes
from ..optimizer.memo import BlockInfo, Group
from .compatibility import (
    consumer_conjuncts,
    consumer_table_map,
    remap_expr,
    slot_assignment,
)
from .construct import CseDefinition


@dataclass
class ConsumerSpec:
    """Everything needed to substitute one consumer group with a spool read."""

    group: Group
    cse_id: str
    #: consumer table instance -> CSE body instance.
    table_map: Dict[TableRef, TableRef]
    #: residual conjuncts, in *consumer* column space.
    residual: Tuple[Expr, ...]
    #: work-table column name -> consumer-side expression key.
    column_map: Tuple[Tuple[str, Expr], ...]
    #: re-aggregation; None when the CSE grouping equals the consumer's (or
    #: the CSE is not aggregated).
    reagg_keys: Optional[Tuple[ColumnRef, ...]] = None
    reagg_computes: Optional[Tuple[AggCompute, ...]] = None

    @property
    def needs_reagg(self) -> bool:
        """Whether the consumer must re-aggregate the spool."""
        return self.reagg_keys is not None


def try_match_consumer(
    definition: CseDefinition,
    group: Group,
    info: BlockInfo,
) -> Optional[ConsumerSpec]:
    """Attempt to match ``group`` against ``definition``; returns the
    compensation recipe or None.

    Checks, in body column space:

    1. identical table signature (slot sets);
    2. the consumer's predicate implies the CSE's joint equalities;
    3. the consumer's predicate implies every covering conjunct
       (so the CSE contains all the consumer's rows);
    4. the residual (consumer conjuncts the CSE does not guarantee) references
       only columns the CSE outputs — grouping keys, for aggregated CSEs;
    5. for aggregated CSEs: consumer keys ⊆ CSE keys and consumer aggregates
       ⊆ CSE aggregates.
    """
    if group.signature != definition.signature:
        return None
    body_by_slot: Dict[Tuple[str, int], TableRef] = {}
    assignment = slot_assignment(definition.block.tables)
    for tref, slot in assignment.items():
        body_by_slot[slot] = tref
    consumer_slots = set(slot_assignment(group.tables).values())
    if consumer_slots != set(body_by_slot):
        return None
    table_map = consumer_table_map(group, body_by_slot)

    mapped_conjuncts = [
        remap_expr(c, table_map) for c in consumer_conjuncts(group, info)
    ]
    consumer_classes = EquivalenceClasses.from_conjuncts(mapped_conjuncts)

    # 2. Joint equalities must hold in the consumer.
    for equality in definition.joint_equalities:
        if not implied_by_equalities(equality, consumer_classes):
            return None

    # 3. Every covering conjunct must be implied by the consumer's predicate.
    for covering in definition.covering_conjuncts:
        if not _implied_by_any(covering, mapped_conjuncts):
            return None

    # Residual: consumer conjuncts the CSE does not already guarantee.
    residual_body: List[Expr] = []
    for conjunct in mapped_conjuncts:
        if implied_by_equalities(conjunct, definition.joint_classes):
            continue
        if any(
            guaranteed == conjunct or range_implies(guaranteed, conjunct)
            for guaranteed in definition.covering_conjuncts
        ):
            continue
        residual_body.append(conjunct)

    # 4. Residual columns must be available in the CSE output.
    output_exprs = {o.expr for o in definition.outputs}
    available_columns = {
        e for e in output_exprs if isinstance(e, ColumnRef)
    }
    for conjunct in residual_body:
        if not conjunct.columns() <= available_columns:
            return None

    reagg_keys: Optional[Tuple[ColumnRef, ...]] = None
    reagg_computes: Optional[Tuple[AggCompute, ...]] = None
    if definition.has_groupby:
        mapped_keys = set()
        for key in group.agg_keys:
            mapped_key = remap_expr(key, table_map)
            if not isinstance(mapped_key, ColumnRef):
                return None
            mapped_keys.add(mapped_key)
        cse_keys = set(definition.group_keys)
        if not mapped_keys <= cse_keys:
            return None
        agg_outs: List[AggExpr] = []
        for out in group.agg_outs:
            if not isinstance(out, AggExpr):
                return None
            mapped_out = remap_expr(out, table_map)
            if mapped_out not in set(definition.aggregates):
                return None
            agg_outs.append(out)
        if mapped_keys != cse_keys:
            reagg_keys = tuple(group.agg_keys)
            reagg_computes = reaggregate_computes(agg_outs)
    else:
        # 5'. SPJ case: consumer's required columns must be in the output.
        for expr in group.required_outputs:
            mapped = remap_expr(expr, table_map)
            if not mapped.columns() <= available_columns:
                return None

    # Final admission gate: the independent bag-semantics checker
    # (repro.equiv) must *prove* the containment obligations this matcher
    # just derived. Anything short of a proof falls back to no sharing for
    # this consumer — the gate is what makes widened-surface matches
    # (semi/anti build sides, reduced outer joins) safe to admit.
    verdict = check_consumer_match(definition, group, info)
    active_journal().event(
        "equiv",
        cse_id=definition.cse_id,
        consumer=f"g{group.gid}",
        outcome=verdict.outcome,
        reason=verdict.reason,
    )
    if not verdict.proved:
        return None

    inverse = {v: k for k, v in table_map.items()}
    residual = tuple(remap_expr(c, inverse) for c in residual_body)
    column_map = tuple(
        (out.name, remap_expr(out.expr, inverse)) for out in definition.outputs
    )
    return ConsumerSpec(
        group=group,
        cse_id=definition.cse_id,
        table_map=table_map,
        residual=residual,
        column_map=column_map,
        reagg_keys=reagg_keys,
        reagg_computes=reagg_computes,
    )


def _implied_by_any(covering: Expr, conjuncts: Sequence[Expr]) -> bool:
    return any(
        have == covering or range_implies(have, covering) for have in conjuncts
    )


def build_consumer_specs(
    definition: CseDefinition,
    infos: Dict[str, BlockInfo],
) -> List[ConsumerSpec]:
    """Matching recipes for the CSE's constructed consumers. Construction
    guarantees success; a failed match indicates an internal inconsistency
    and the consumer is silently dropped (conservative)."""
    specs: List[ConsumerSpec] = []
    for group in definition.consumer_groups:
        info = infos[group.block.name]
        spec = try_match_consumer(definition, group, info)
        if spec is not None:
            specs.append(spec)
    return specs
