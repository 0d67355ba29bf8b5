"""View matching of consumer groups against candidate CSEs (paper §5.1).

Candidate CSEs are treated "in the same way as materialized views": a
consumer group matches a CSE when the CSE provably contains every row and
column the consumer needs; the substitute is a spool read plus compensation
(residual predicate, and a re-aggregation when the CSE's grouping is finer
than the consumer's).

The same matcher serves both the CSE's *constructed* consumers (where it
always succeeds, by §4.2's construction) and **stacked** consumers found
inside other candidates' bodies (§5.5). It proves the containment
obligations once, as integer tests on the ids Algorithm 1 already minted:
the consumer's :class:`ConsumerProfile` against the :class:`CoveringState`
the CSE was materialised from, both over one :class:`IdSpace`. Expressions
are built only for a match that succeeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..equiv import GAVE_UP, PROVED, REFUTED, Verdict
from ..errors import OptimizerError
from ..expr.expressions import ColumnRef, Expr, TableRef
from ..expr.predicates import bound_implies
from ..optimizer.aggs import AggCompute, reaggregate_computes
from ..optimizer.memo import Group
from .compatibility import ConsumerProfile, IdSpace, bit_positions, remap_expr
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


def match_consumer(
    definition: CseDefinition, profile: ConsumerProfile
) -> Tuple[Verdict, Optional[ConsumerSpec]]:
    """Match ``profile``'s group against ``definition``: the verdict, and the
    compensation recipe when it is ``proved``.

    The obligations, in slot-template space:

    1. identical table signature and slot templates;
    2. each joint class (the CSE's equalities) lies inside one of the
       consumer's classes;
    3. every covering conjunct is one of the consumer's conjuncts or is
       range-implied by one, and every covering hull by a consumer bound on
       its column — so the CSE contains all the consumer's rows;
    4. the residual (consumer conjuncts neither the joint classes nor the
       covering imply) references only columns the CSE outputs — grouping
       keys, for aggregated CSEs;
    5. for aggregated CSEs: consumer keys (columns only) ⊆ CSE keys and
       consumer aggregates ⊆ CSE aggregates; otherwise the columns the
       consumer's ancestors read ⊆ the CSE's columns.
    """
    state = definition.state
    space = profile.space
    if space is not state.members[0].space:
        raise OptimizerError("consumer profile and CSE state use different id spaces")
    if profile.group.signature != definition.signature:
        return Verdict(REFUTED, "table signature mismatch"), None
    if profile.tables != state.members[0].tables:
        return Verdict(REFUTED, "slot multiset mismatch"), None

    for joint in state.joint:
        if not any(joint & mine == joint for mine in profile.classes):
            return _gave_up(f"joint class {_names(space, joint)} not implied by consumer")

    ranges = space.ranges
    held = set(profile.equalities) | set(profile.filters)
    bounds = [ranges[f] for f in profile.filters if ranges[f] is not None]
    for fid in state.commons:
        if fid not in held and not _implied(ranges[fid], bounds):
            return _gave_up(
                f"covering conjunct {space.conjuncts[fid]!r} not implied by consumer"
            )
    for hull in state.hulls:
        if not _implied(hull, bounds):
            cid, op, value = hull
            return _gave_up(
                f"covering bound {space.columns[cid]!r} {op.value} {value!r} "
                "not implied by consumer"
            )

    # The residual: consumer conjuncts the CSE does not already guarantee.
    commons = set(state.commons)
    guaranteed = [ranges[f] for f in state.commons if ranges[f] is not None]
    guaranteed += state.hulls
    available = sum(1 << cid for cid in state.group_keys + state.columns)
    equality_count = len(profile.equalities)
    residual: List[int] = []
    for index, fid in enumerate(profile.equalities + profile.filters):
        columns = space.conjunct_columns[fid]
        if index < equality_count and any(c & columns == columns for c in state.joint):
            continue
        if fid in commons or _implied(ranges[fid], guaranteed):
            continue
        if columns & ~available:
            return _gave_up(
                f"residual {space.conjuncts[fid]!r} references unavailable columns"
            )
        residual.append(index)

    group = profile.group
    reagg_keys: Optional[Tuple[ColumnRef, ...]] = None
    reagg_computes: Optional[Tuple[AggCompute, ...]] = None
    if definition.has_groupby:
        if not all(isinstance(key, ColumnRef) for key in group.agg_keys):
            return _gave_up("consumer grouping key is not a column")
        keys = sum(1 << cid for cid in state.group_keys)
        if profile.group_keys & ~keys:
            return _gave_up("consumer keys not contained in CSE keys")
        computed = set(state.aggregates)
        for aid in profile.aggregates:
            if aid not in computed:
                return _gave_up(
                    f"aggregate {space.aggregates[aid]!r} not computed by the CSE"
                )
        if profile.group_keys != keys:
            reagg_keys = tuple(group.agg_keys)
            reagg_computes = reaggregate_computes(list(group.agg_outs))
    elif profile.required & ~available:
        return _gave_up(
            f"required columns {_names(space, profile.required & ~available)} "
            "not in CSE output"
        )

    # Proved: read the ids back as the consumer's expressions. The body
    # tables are in slot order, and template ``k`` stands for slot ``k``.
    body = definition.block.tables
    inverse = {template: table for table, template in profile.template_map.items()}
    exprs = (
        [space.columns[cid] for cid in state.group_keys]
        + [space.aggregates[aid] for aid in state.aggregates]
        + [space.columns[cid] for cid in state.columns]
    )
    return Verdict(PROVED, "containment obligations all proved"), ConsumerSpec(
        group=group,
        cse_id=definition.cse_id,
        table_map={
            table: body[template.instance]
            for table, template in profile.template_map.items()
        },
        residual=tuple(profile.conjuncts[index] for index in residual),
        column_map=tuple(
            (out.name, remap_expr(expr, inverse))
            for out, expr in zip(definition.outputs, exprs)
        ),
        reagg_keys=reagg_keys,
        reagg_computes=reagg_computes,
    )


def _implied(want, bounds) -> bool:
    """Whether one of the ``(column id, op, value)`` ``bounds`` implies the
    bound ``want`` (None — no bound — is never implied)."""
    return want is not None and any(bound_implies(have, want) for have in bounds)


def _gave_up(reason: str) -> Tuple[Verdict, None]:
    return Verdict(GAVE_UP, reason), None


def _names(space: IdSpace, mask: int) -> str:
    return "{" + ", ".join(repr(space.columns[c]) for c in bit_positions(mask)) + "}"


def match_constructed(
    definition: CseDefinition,
) -> List[Tuple[Group, Verdict, Optional[ConsumerSpec]]]:
    """``(group, verdict, spec)`` for each of the CSE's constructed
    consumers, in member order. Construction guarantees the match, so a
    refusal is an internal inconsistency: its verdict is recorded like
    every other and the consumer is left unshared (``spec`` None)."""
    return [
        (profile.group, *match_consumer(definition, profile))
        for profile in definition.state.members
    ]
