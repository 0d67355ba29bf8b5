"""Canonical fingerprints for bound batches (plan-cache keys).

A fingerprint is a SHA-256 digest of a *normalized* textual rendering of a
:class:`~repro.logical.blocks.BoundBatch`. Normalization keeps everything
that can change the chosen plan (tables, predicates, groupings, aggregates,
outputs, ORDER BY, subqueries) while erasing presentation noise that cannot:
conjunct order inside a WHERE clause and table order inside a block are
sorted, because conjunction and cross products commute.

The full cache key combines the batch fingerprint with the database's
catalog version (schema/statistics changes re-key everything) and the
repr of the optimizer options and cost model (both plain dataclasses, so
their reprs are stable value renderings). See :mod:`repro.serve.cache`.
"""

from __future__ import annotations

import hashlib
import re
from typing import Callable, Dict, List, Tuple

from ..logical.blocks import BoundBatch, BoundQuery, QueryBlock
from ..optimizer.cost import CostModel
from ..optimizer.options import OptimizerOptions
from ..storage.database import Database

#: A plan-cache key: (batch fingerprint, catalog version, config key).
CacheKey = Tuple[str, int, str]


#: a binder-assigned table reference like ``customer#3``.
_REF_TOKEN = re.compile(r"\b([A-Za-z_]\w*)#(\d+)\b")

#: canonicalizer type: rewrites one repr string.
_Canon = Callable[[str], str]

_IDENTITY: _Canon = lambda text: text  # noqa: E731


def _block_text(block: QueryBlock, canon: _Canon) -> str:
    parts: List[str] = [
        f"block {block.name}",
        "tables " + " ".join(sorted(canon(repr(t)) for t in block.tables)),
        "where " + " & ".join(sorted(canon(repr(c)) for c in block.conjuncts)),
        "group " + " ".join(canon(repr(k)) for k in block.group_keys),
        "aggs " + " ".join(sorted(canon(repr(a)) for a in block.aggregates)),
        "output " + " ".join(canon(repr(o)) for o in block.output),
        "having " + " & ".join(sorted(canon(repr(c)) for c in block.having)),
    ]
    return "\n".join(parts)


def _render_query(query: BoundQuery, canon: _Canon) -> str:
    parts = [f"query {query.name}", _block_text(query.block, canon)]
    for ext in query.extensions:
        keys = " ".join(
            f"{canon(repr(a))}={canon(repr(b))}" for a, b in ext.keys
        )
        parts.append(f"extension {ext.ext_id} {ext.kind} keys {keys}")
        parts.append(_block_text(ext.block, canon))
    if query.post is not None:
        post = query.post
        parts.append(
            "post"
            + "\nfilters " + " & ".join(sorted(canon(repr(c)) for c in post.filters))
            + "\ngroup " + " ".join(canon(repr(k)) for k in post.group_keys)
            + "\naggs " + " ".join(sorted(canon(repr(a)) for a in post.aggregates))
            + "\nhaving " + " & ".join(sorted(canon(repr(c)) for c in post.having))
            + "\noutput " + " ".join(canon(repr(o)) for o in post.output)
        )
    for sid in sorted(query.subqueries):
        parts.append(f"subquery {sid}")
        parts.append(_block_text(query.subqueries[sid], canon))
    parts.append(
        "order "
        + " ".join(
            f"{canon(repr(expr))}:{'desc' if descending else 'asc'}"
            for expr, descending in query.order_by
        )
    )
    return "\n".join(parts)


def _query_text(query: BoundQuery) -> str:
    """The query's normalized text, with canonical table-reference ids.

    The binder numbers table references in FROM-clause order, and those
    ordinals appear in every expression repr — so without renumbering,
    ``from nation, customer`` and ``from customer, nation`` would
    fingerprint differently even though cross products commute. A first
    raw rendering collects the referenced ordinals; each name's ordinals
    are then replaced by their 1-based rank. The remapping is a bijection
    (distinct references stay distinct, including self-joins), and it is
    applied to each repr *before* the conjunct/table sorts so the sorted
    order itself cannot depend on binder numbering."""
    raw = _render_query(query, _IDENTITY)
    ordinals: Dict[str, set] = {}
    for name, num in _REF_TOKEN.findall(raw):
        ordinals.setdefault(name, set()).add(int(num))
    remap = {
        (name, num): rank
        for name, nums in ordinals.items()
        for rank, num in enumerate(sorted(nums), start=1)
    }

    def canon(text: str) -> str:
        return _REF_TOKEN.sub(
            lambda m: f"{m.group(1)}#{remap[(m.group(1), int(m.group(2)))]}",
            text,
        )

    return _render_query(query, canon)


def batch_fingerprint(batch: BoundBatch) -> str:
    """The normalized SHA-256 fingerprint of a bound batch."""
    text = "\n--\n".join(_query_text(q) for q in batch.queries)
    return hashlib.sha256(text.encode()).hexdigest()


def config_key(options: OptimizerOptions, cost_model: CostModel) -> str:
    """A stable key for the optimizer configuration a plan depends on."""
    return f"{options!r}|{cost_model!r}"


def batch_tables(batch: BoundBatch) -> frozenset:
    """Lower-cased physical table names the batch reads (for invalidation).

    Delta references (§6.4) are left out: a delta table is the maintenance
    batch's *input*, re-filled before every run, so the plan depends on
    which table that is and not on what it holds."""
    return frozenset(
        t.physical_name.lower()
        for block in batch.all_blocks()
        for t in block.tables
        if not t.is_delta
    )


def cache_key(
    batch: BoundBatch,
    database: Database,
    options: OptimizerOptions,
    cost_model: CostModel,
) -> CacheKey:
    """The composite plan-cache key for one lookup."""
    return (
        batch_fingerprint(batch),
        database.catalog_version,
        config_key(options, cost_model),
    )
