"""Vectorized physical-operator implementations.

Each operator consumes/produces a *frame*: a mapping from expression keys to
numpy column arrays of equal length. Filters, scan residuals, sorts and the
inner, semi and anti joins select rows without copying columns: their
output columns are deferred gathers (:class:`~repro.expr.evaluator.Gather`)
whose row indices compose through later selections (``index[rows]``, once
per distinct index), and a column is gathered when an operator first reads
it — as a predicate, join or group key, aggregate argument, sort key, spool
column or result column. Join and group-by keys are coded to
dense integers without sorting (direct addressing; string columns arrive as
``string_pool`` codes, so they are integer keys too); equi joins then
address a ``bincount`` table over the build side (emitting rows in classic
hash-join order: right rows ascending, left matches in build order),
aggregation numbers groups by first appearance through a first-occurrence
table, spools materialize frames into work tables. Keeping the hot loops
inside numpy matters beyond single-query speed: numpy kernels release the
GIL, which is what lets the parallel batch executor (``repro.serve``) get
real wall-clock speedup from threads.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ExecutionError
from ..expr.evaluator import (
    Frame,
    Gather,
    evaluate,
    evaluate_predicate,
    frame_length,
    placeholder,
    string_ranks,
)
from ..expr.expressions import AggExpr, AggFunc, ColumnRef, Expr
from ..optimizer.aggs import AggCompute
from ..optimizer.physical import (
    PhysFilter,
    PhysHashAgg,
    PhysHashJoin,
    PhysIdentityAgg,
    PhysIndexScan,
    PhysProject,
    PhysScan,
    PhysSort,
    PhysSpoolDef,
    PhysSpoolRead,
    PhysicalPlan,
)
from ..catalog.schema import ColumnSchema, TableSchema
from ..storage.table import Table
from ..types import DataType, string_pool
from .runtime import ExecutionContext


def execute_node(
    plan: PhysicalPlan, ctx: ExecutionContext, charge_output: bool = True
) -> Frame:
    """Evaluate a plan node to a frame.

    When ``ctx.op_stats`` is enabled, each node's invocation count, output
    rows, and inclusive wall time are recorded (keyed by node identity) for
    EXPLAIN ANALYZE; the disabled path costs one ``is None`` check.

    When ``ctx.token`` is set, every invocation is a cooperative
    governance checkpoint: deadline expiry / cancellation raise before the
    operator runs, and (with a row budget) the operator's output rows are
    charged afterwards — so a runaway plan stops at the next operator
    boundary instead of stalling the batch. ``charge_output=False``
    suppresses the output-row charge for this node only (a spool body's
    top output is charged at each consumer read, never at the producer)."""
    token = ctx.token
    if token is not None:
        token.check()
    ctx.metrics.operator_invocations += 1
    tracer = ctx.tracer
    if ctx.op_stats is None and not tracer.enabled:
        frame = _dispatch(plan, ctx)
        if token is not None and token.charges_rows and charge_output:
            token.charge_rows(frame_length(frame))
        return frame
    start = perf_counter()
    if tracer.enabled:
        # One span per operator invocation; children nest via the
        # tracer's per-thread stack, so the trace mirrors the plan tree.
        with tracer.span(_op_span_name(plan)) as span:
            frame = _dispatch(plan, ctx)
            rows = frame_length(frame)
            if span is not None:
                span.attrs["rows"] = rows
    else:
        frame = _dispatch(plan, ctx)
        rows = frame_length(frame)
    if ctx.op_stats is not None:
        elapsed = perf_counter() - start
        stats = ctx.stats_for(plan)
        stats.invocations += 1
        stats.rows_out += rows
        stats.wall_time += elapsed
    if token is not None and token.charges_rows and charge_output:
        token.charge_rows(rows)
    return frame


def _op_span_name(plan: PhysicalPlan) -> str:
    """``PhysHashJoin`` → ``op:HashJoin`` (span names group by operator)."""
    return "op:" + type(plan).__name__[4:]


def _dispatch(plan: PhysicalPlan, ctx: ExecutionContext) -> Frame:
    if isinstance(plan, PhysScan):
        return _scan(plan, ctx)
    if isinstance(plan, PhysIndexScan):
        return _index_scan(plan, ctx)
    if isinstance(plan, PhysHashJoin):
        return _hash_join(plan, ctx)
    if isinstance(plan, PhysHashAgg):
        return _hash_agg(plan, ctx)
    if isinstance(plan, PhysFilter):
        return _filter(plan, ctx)
    if isinstance(plan, PhysSpoolRead):
        return _spool_read(plan, ctx)
    if isinstance(plan, PhysSpoolDef):
        return _spool_def(plan, ctx)
    if isinstance(plan, PhysProject):
        # Interior projection: keep the child frame restricted to the
        # expressions the projection computes (keyed by expression).
        frame = execute_node(plan.child, ctx)
        return _restrict(frame, tuple(out.expr for out in plan.outputs))
    if isinstance(plan, PhysSort):
        frame = execute_node(plan.child, ctx)
        return _take(frame, _sort_order(plan, frame, ctx))
    raise ExecutionError(f"cannot execute plan node {type(plan).__name__}")


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


def _scan_frame(
    plan_outputs: Tuple[Expr, ...], conjuncts: Tuple[Expr, ...], table
) -> Frame:
    needed: Dict[Expr, np.ndarray] = {}
    wanted = set(plan_outputs)
    for conjunct in conjuncts:
        wanted.update(conjunct.columns())
    for expr in wanted:
        if not isinstance(expr, ColumnRef):
            raise ExecutionError(f"scan cannot produce {expr!r}")
        needed[expr] = table.stored_column(expr.column)
    return needed or placeholder(table.row_count)


def _scan(plan: PhysScan, ctx: ExecutionContext) -> Frame:
    if ctx.scans is not None:
        # Engine v2: one physical scan per (table, needed-columns) group
        # per batch; the manager does the Def 5.1-split charging.
        return _restrict(ctx.scans.scan_frame(plan, ctx), plan.outputs)
    table = ctx.database.table(plan.table_ref.physical_name)
    frame = _scan_frame(plan.outputs, plan.conjuncts, table)
    rows = table.row_count
    ctx.metrics.rows_scanned += rows
    width = table.row_width()
    ctx.metrics.cost_units += ctx.cost_model.scan(rows, width, len(plan.conjuncts))
    if plan.conjuncts:
        frame = _take(frame, _matching_rows(plan.conjuncts, frame))
    return _restrict(frame, plan.outputs)


def _index_scan(plan: PhysIndexScan, ctx: ExecutionContext) -> Frame:
    index = ctx.database.index_for(
        plan.table_ref.physical_name, plan.column.column
    )
    if index is None:
        raise ExecutionError(
            f"no index on {plan.table_ref.physical_name}.{plan.column.column}"
        )
    positions = index.lookup_range(
        plan.low, plan.high, plan.low_inclusive, plan.high_inclusive
    )
    table = ctx.database.table(plan.table_ref.physical_name)
    frame = _take(_scan_frame(plan.outputs, plan.residual, table), positions)
    ctx.metrics.rows_scanned += len(positions)
    ctx.metrics.cost_units += ctx.cost_model.index_scan(
        len(positions), table.row_width(), len(plan.residual)
    )
    if plan.residual:
        frame = _take(frame, _matching_rows(plan.residual, frame))
    return _restrict(frame, plan.outputs)


def _restrict(frame: Frame, outputs: Tuple[Expr, ...]) -> Frame:
    """``frame``'s columns among ``outputs``, passed on as they are (a
    deferred one stays deferred); an output that is no column of the frame
    is computed from it."""
    if not outputs:
        return placeholder(frame_length(frame))
    wanted = set(outputs)
    restricted = Frame((k, v) for k, v in dict.items(frame) if k in wanted)
    for expr in outputs:
        if expr not in restricted:
            # Computable output (e.g. a passthrough expression).
            restricted[expr] = evaluate(expr, frame)
    return restricted


def _matching_rows(conjuncts: Tuple[Expr, ...], frame: Frame) -> np.ndarray:
    """Ascending indices of the rows every conjunct holds for. Filters
    gather by these rather than by the boolean mask: the mask is scanned
    once, not once per column."""
    mask = np.ones(frame_length(frame), dtype=bool)
    for conjunct in conjuncts:
        mask &= evaluate_predicate(conjunct, frame)
    return np.flatnonzero(mask)


def _take(frame: Frame, rows: np.ndarray) -> Frame:
    """The rows ``rows`` of ``frame``, every column deferred: an array
    becomes ``Gather(array, rows)``, and a deferred column keeps its source
    under the composed index ``index[rows]``, computed once per distinct
    index (a join's left columns all share one)."""
    taken = Frame()
    composed: Dict[int, np.ndarray] = {}
    for key, column in dict.items(frame):
        if type(column) is Gather:
            index = composed.get(id(column.index))
            if index is None:
                index = composed[id(column.index)] = column.index[rows]
            taken[key] = Gather(column.source, index)
        else:
            taken[key] = Gather(column, rows)
    return taken


def _pairs(
    left: Frame, right: Frame, left_idx: np.ndarray, right_idx: np.ndarray
) -> Frame:
    """The joined rows ``(left[left_idx[i]], right[right_idx[i]])``, every
    column deferred; a key both sides hold comes from the left."""
    joined = _take(left, left_idx)
    for key, column in dict.items(_take(right, right_idx)):
        if key not in joined:
            joined[key] = column
    return joined


# ---------------------------------------------------------------------------
# Join
# ---------------------------------------------------------------------------


def _hash_join(plan: PhysHashJoin, ctx: ExecutionContext) -> Frame:
    left = execute_node(plan.left, ctx)
    right = execute_node(plan.right, ctx)
    n_left = frame_length(left)
    n_right = frame_length(right)
    if plan.keys:
        left_idx, right_idx = _equi_join_indices(plan.keys, left, right)
        ctx.metrics.key_factorizations += len(plan.keys)
    else:
        left_idx = np.repeat(np.arange(n_left), n_right)
        right_idx = np.tile(np.arange(n_right), n_left)
    if plan.residual:
        # Only inner joins carry a residual: decorrelation refuses outer
        # ON and correlation conjuncts that are not keys or one-side
        # filters, and the search builds every outer/semi/anti join with
        # ``residual=()``. Restricting the matched pairs is then the same
        # as filtering the joined rows.
        passing = _matching_rows(
            plan.residual, _pairs(left, right, left_idx, right_idx)
        )
        left_idx = left_idx[passing]
        right_idx = right_idx[passing]
    joined: Frame
    if plan.join_type == "inner":
        joined = _pairs(left, right, left_idx, right_idx)
    elif plan.join_type in ("semi", "anti"):
        matched = np.zeros(n_left, dtype=bool)
        matched[left_idx] = True
        keep = matched if plan.join_type == "semi" else ~matched
        joined = _take(left, np.flatnonzero(keep))
    elif plan.join_type == "left_outer":
        matched = np.zeros(n_left, dtype=bool)
        matched[left_idx] = True
        unmatched = np.flatnonzero(~matched)
        # Matched pairs, then the unmatched left rows with NULL right sides.
        joined = _take(left, np.concatenate([left_idx, unmatched]))
        matches = _take(right, right_idx)
        for key in right:
            if key not in joined:
                joined[key] = _null_extend(matches[key], len(unmatched))
    else:
        raise ExecutionError(f"unknown join type {plan.join_type!r}")
    out_rows = frame_length(joined)
    ctx.metrics.rows_joined += out_rows
    ctx.metrics.cost_units += ctx.cost_model.hash_join(
        min(n_left, n_right), max(n_left, n_right), out_rows, len(plan.residual)
    )
    return _restrict(joined, plan.outputs)


def _null_extend(values: np.ndarray, pad: int) -> np.ndarray:
    """Append ``pad`` NULL entries: NaN, widening the column (string codes
    included) to float64."""
    return np.concatenate(
        [
            values.astype(np.float64, copy=False),
            np.full(pad, np.nan, dtype=np.float64),
        ]
    )


#: A key's code domain may reach this multiple of the row count (plus a
#: constant, so short inputs are not pushed to the sorting fallback) and
#: still be direct-addressed. Every table the kernels allocate over a
#: domain (bincount, build slots, first occurrences) is bounded by it.
_DENSE_FACTOR = 4
_DENSE_FLOOR = 1024


def _dense_bound(n: int) -> int:
    return _DENSE_FACTOR * n + _DENSE_FLOOR


def _column_codes(col: np.ndarray) -> Tuple[np.ndarray, int]:
    """``(int64 codes, domain)`` for one key column, without sorting.

    Two rows get the same code iff their values are equal, and every code
    lies in ``range(domain)``. Integer, bool, date and string-code columns
    are direct-addressed (``col - min``) while the value span stays within
    :func:`_dense_bound`. Floats (NULL-widened columns included) and sparse
    integers fall back to ``np.unique``, which also collapses NaNs into one
    code. Code *order* is arbitrary and must never reach a result — callers
    renumber by position."""
    n = len(col)
    if n == 0:
        return np.empty(0, dtype=np.int64), 1
    if col.dtype.kind in "biu":
        ints = col.astype(np.int64, copy=False)
        low = int(ints.min())
        span = int(ints.max()) - low + 1
        if span <= _dense_bound(n):
            return ints - low, span
    uniques, inverse = np.unique(col, return_inverse=True)
    return inverse.astype(np.int64, copy=False), len(uniques)


def _key_codes(cols: List[np.ndarray]) -> Tuple[np.ndarray, int]:
    """``(int64 codes, domain)`` per row, equal iff the key tuples are equal.

    Columns are coded by :func:`_column_codes` and mixed by radix; a
    product that outgrows :func:`_dense_bound` is itself re-coded as one
    integer column (a sort only if its codes are sparse too), so the
    domain stays within the bound for any key arity."""
    codes, domain = _column_codes(cols[0])
    bound = _dense_bound(len(codes))
    for col in cols[1:]:
        col_codes, radix = _column_codes(col)
        codes = codes * radix + col_codes
        domain *= radix
        if domain > bound:
            codes, domain = _column_codes(codes)
    return codes, domain


def _equi_join_indices(
    keys: Tuple[Tuple[Expr, Expr], ...], left: Frame, right: Frame
) -> Tuple[np.ndarray, np.ndarray]:
    """Matching (left, right) row indices for an equi join.

    Each key pair is coded over the concatenated rows (codes must be
    comparable across sides) and the left side is the build side: a
    ``bincount`` over its codes sizes every key's run. The output order is
    the hash-join contract the rest of the engine relies on: right rows
    ascending, and within one right row its left matches in original left
    order. Unique build keys (the PK side) need no sort at all — one
    scatter of left positions into the code table, one gather per right
    row; duplicate build keys keep a stable argsort of the left codes
    (equal codes stay in position order) with run starts read off the
    ``bincount`` table.
    """
    n_left = frame_length(left)
    n_right = frame_length(right)
    codes, domain = _key_codes(
        [
            np.concatenate([evaluate(l_expr, left), evaluate(r_expr, right)])
            for l_expr, r_expr in keys
        ]
    )
    left_codes, right_codes = codes[:n_left], codes[n_left:]
    build_counts = np.bincount(left_codes, minlength=domain)
    if build_counts.max() <= 1:
        slots = np.full(domain, -1, dtype=np.int64)
        slots[left_codes] = np.arange(n_left, dtype=np.int64)
        matches = slots[right_codes]
        right_idx = np.flatnonzero(matches >= 0)
        return matches[right_idx], right_idx
    order = np.argsort(left_codes, kind="stable")
    run_starts = np.cumsum(build_counts) - build_counts
    counts = build_counts[right_codes]
    total = int(counts.sum())
    right_idx = np.repeat(np.arange(n_right, dtype=np.int64), counts)
    starts = np.repeat(run_starts[right_codes], counts)
    run_offsets = np.repeat(np.cumsum(counts) - counts, counts)
    within = np.arange(total, dtype=np.int64) - run_offsets
    return order[starts + within], right_idx


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _group_ids(
    keys: Tuple[Expr, ...], frame: Frame
) -> Tuple[np.ndarray, int, Frame]:
    """(group id per row, group count, frame of group-key columns).

    Groups are numbered by first appearance — the insertion order of a
    hash aggregate — whatever codes the keys were given: a first-occurrence
    table over the code domain finds each group's first row, and only those
    rows (one per group) are sorted."""
    n = frame_length(frame)
    if not keys:
        # A scalar aggregate is one group, also over an empty input.
        return np.zeros(n, dtype=np.int64), 1, {}
    key_cols = [evaluate(k, frame) for k in keys]
    codes, domain = _key_codes(key_cols)
    first = np.full(domain, n, dtype=np.int64)
    np.minimum.at(first, codes, np.arange(n, dtype=np.int64))
    group_rows = np.sort(first[first < n])
    count = len(group_rows)
    renumber = np.empty(domain, dtype=np.int64)
    renumber[codes[group_rows]] = np.arange(count, dtype=np.int64)
    key_frame: Frame = {}
    for key_expr, col in zip(keys, key_cols):
        key_frame[key_expr] = np.asarray(
            col[group_rows], dtype=key_expr.data_type.numpy_dtype
        )
    return renumber[codes], count, key_frame


def _hash_agg(plan: PhysHashAgg, ctx: ExecutionContext) -> Frame:
    frame = execute_node(plan.child, ctx)
    n = frame_length(frame)
    if isinstance(plan, PhysIdentityAgg):
        # The input is unique on the keys: row i is group i, in row order
        # (first appearance), and the charge is the projection priced.
        gids, count = np.arange(n, dtype=np.int64), n
        out: Frame = {
            key: np.asarray(evaluate(key, frame), dtype=key.data_type.numpy_dtype)
            for key in plan.keys
        }
        cost = ctx.cost_model.project(n, len(plan.outputs))
    else:
        gids, count, out = _group_ids(plan.keys, frame)
        ctx.metrics.key_factorizations += len(plan.keys)
        cost = ctx.cost_model.aggregate(n, count, len(plan.computes))
    for compute in plan.computes:
        out[compute.out] = _aggregate_column(compute, gids, count, frame, n)
    ctx.metrics.rows_aggregated += n
    ctx.metrics.cost_units += cost
    return out


def _aggregate_column(
    compute: AggCompute, gids: np.ndarray, count: int, frame: Frame, n: int
) -> np.ndarray:
    func = compute.func
    if func is AggFunc.COUNT:
        result = np.bincount(gids, minlength=count).astype(np.int64)
        return result
    if compute.arg is None:
        raise ExecutionError(f"aggregate {compute!r} requires an argument")
    if compute.arg.data_type is DataType.STRING:
        # Codes are not values: their arithmetic and order mean nothing.
        raise ExecutionError(f"aggregate {compute!r} over a STRING argument")
    values = evaluate(compute.arg, frame)
    # NULLs (NaN, from outer-join null extension) are skipped per SQL
    # aggregate semantics. NULL-free inputs take the original fast path.
    nulls: Optional[np.ndarray] = None
    if np.issubdtype(values.dtype, np.floating):
        isnan = np.isnan(values)
        if isnan.any():
            nulls = isnan
    if func is AggFunc.SUM:
        if n == 0:
            return np.zeros(count, dtype=np.float64)
        weights = values.astype(np.float64, copy=False)
        if nulls is not None:
            weights = np.where(nulls, 0.0, weights)
        sums = np.bincount(gids, weights=weights, minlength=count)
        if compute.out.data_type is DataType.INT:
            return sums.astype(np.int64)
        return sums
    if func in (AggFunc.MIN, AggFunc.MAX):
        fill = np.inf if func is AggFunc.MIN else -np.inf
        result = np.full(count, fill, dtype=np.float64)
        operation = np.minimum if func is AggFunc.MIN else np.maximum
        live_gids, live_values = gids, values.astype(np.float64, copy=False)
        if nulls is not None:
            live_gids, live_values = gids[~nulls], live_values[~nulls]
        operation.at(result, live_gids, live_values)
        seen = np.zeros(count, dtype=bool)
        seen[live_gids] = True
        # A group with no live row (all NULL, or a scalar aggregate over no
        # rows) aggregates to NULL.
        result[~seen] = np.nan
        if compute.out.data_type is DataType.INT and bool(seen.all()):
            return result.astype(np.int64)
        return result
    if func is AggFunc.AVG:
        live_gids, live_values = gids, values.astype(np.float64, copy=False)
        if nulls is not None:
            live_gids, live_values = gids[~nulls], live_values[~nulls]
        sums = np.bincount(live_gids, weights=live_values, minlength=count)
        counts = np.bincount(live_gids, minlength=count)
        result = sums / np.maximum(counts, 1)
        # A group with no live row averages to NULL, as for MIN/MAX.
        result[counts == 0] = np.nan
        return result
    raise ExecutionError(f"unsupported aggregate function {func!r}")


# ---------------------------------------------------------------------------
# Filters, spools, sorting
# ---------------------------------------------------------------------------


def _filter(plan: PhysFilter, ctx: ExecutionContext) -> Frame:
    frame = execute_node(plan.child, ctx)
    n = frame_length(frame)
    ctx.metrics.cost_units += ctx.cost_model.filter(n, len(plan.conjuncts))
    return _take(frame, _matching_rows(plan.conjuncts, frame))


def _spool_read(plan: PhysSpoolRead, ctx: ExecutionContext) -> Frame:
    start = perf_counter()
    table = ctx.spool(plan.cse_id)
    frame: Frame = {}
    for name, expr in plan.column_map:
        frame[expr] = table.stored_column(name)
    rows = table.row_count
    read_cost = ctx.cost_model.spool_read(rows, table.row_width())
    ctx.metrics.spool_rows_read += rows
    ctx.metrics.cost_units += read_cost
    spool = ctx.metrics.spool(plan.cse_id)
    spool.reads += 1
    spool.rows_read += rows
    spool.read_row_counts.append(rows)
    spool.read_cost_units += read_cost
    spool.read_wall_time += perf_counter() - start
    if ctx.tracer.enabled:
        # The producer→consumer edge: ``from_span`` is the materializing
        # span's id (registered before the spool was published, so it is
        # visible under the same happens-before edge as the table).
        ctx.tracer.event(
            "spool_flow",
            spool=plan.cse_id,
            from_span=ctx.spool_spans.get(plan.cse_id),
            rows=rows,
        )
    ctx.registry.observe("executor.spool_read_rows", rows)
    ctx.registry.observe(
        "executor.spool_read_bytes", rows * table.row_width()
    )
    return frame


def materialize_spool(
    cse_id: str, body: PhysicalPlan, ctx: ExecutionContext
) -> Table:
    """Evaluate a spool body (a named projection) into a work table: a
    :class:`Table` whose schema is never added to the catalog."""
    tracer = ctx.tracer
    if not tracer.enabled:
        return _materialize_spool(cse_id, body, ctx)
    with tracer.span("spool_materialize", spool=cse_id) as span:
        # Register the span id before the table is published (our
        # caller stores it into the shared ``spools`` dict after we
        # return), so any consumer that can see the spool can also see
        # its producing span — the flow edge is never dangling.
        ctx.spool_spans[cse_id] = span.span_id
        table = _materialize_spool(cse_id, body, ctx)
        span.attrs["rows"] = table.row_count
        return table


def _materialize_spool(
    cse_id: str, body: PhysicalPlan, ctx: ExecutionContext
) -> Table:
    if not isinstance(body, PhysProject):
        raise ExecutionError(
            f"spool body for {cse_id!r} must end in a projection"
        )
    if ctx.token is not None:
        ctx.token.check()
    start = perf_counter()
    cost_before = ctx.metrics.cost_units
    # Interior operators charge their outputs here as usual; the body's
    # *top* projection is evaluated manually below and deliberately never
    # charged — those rows are charged at every consumer read
    # (spool_read), so charging the producer too would double-count them.
    frame = execute_node(body.child, ctx)
    columns = {out.name: evaluate(out.expr, frame) for out in body.outputs}
    # Everything charged so far is body evaluation — the measured C_E.
    body_cost = ctx.metrics.cost_units - cost_before
    table = Table(TableSchema(cse_id, [
        ColumnSchema(out.name, out.expr.data_type) for out in body.outputs
    ]))
    table.load_stored(columns)
    if ctx.token is not None:
        # Charge before any accounting or publication: a budget bust raises
        # here, so a partially-governed spool is never visible to readers.
        ctx.token.charge_spool(
            table.row_count,
            table.row_count * table.row_width(),
        )
    write_cost = ctx.cost_model.spool_write(
        table.row_count, table.row_width()
    )
    ctx.metrics.spool_rows_written += table.row_count
    ctx.metrics.spools_materialized += 1
    ctx.metrics.cost_units += write_cost
    elapsed = perf_counter() - start
    spool = ctx.metrics.spool(cse_id)
    spool.writes += 1
    spool.rows_written += table.row_count
    # Measured "initial cost" per Definition 5.1: the body's evaluation
    # cost units (everything charged while producing the frame) plus C_W;
    # ``body_cost_units`` keeps the C_E share so the sharing ledger can
    # recompute the savings identity from measured terms.
    spool.write_cost_units += ctx.metrics.cost_units - cost_before
    spool.body_cost_units += body_cost
    spool.materialize_wall_time += elapsed
    ctx.registry.observe("executor.spool_write_rows", table.row_count)
    ctx.registry.observe(
        "executor.spool_write_bytes",
        table.row_count * table.row_width(),
    )
    if ctx.op_stats is not None:
        stats = ctx.stats_for(body)
        stats.invocations += 1
        stats.rows_out += table.row_count
        stats.wall_time += elapsed
    return table


def _spool_def(plan: PhysSpoolDef, ctx: ExecutionContext) -> Frame:
    for cse_id, body in plan.spools:
        if cse_id not in ctx.spools:
            ctx.spools[cse_id] = materialize_spool(cse_id, body, ctx)
    return execute_node(plan.child, ctx)


def _rank_codes(values: np.ndarray) -> np.ndarray:
    """Dense int64 rank codes for one sort key; NULL ranks largest.

    NULL-extended outer-join frames (PR 6) flow NaN columns into ORDER BY
    (string keys arrive here already mapped to pool sort ranks, NULL still
    NaN). Encoding each key as dense ranks with NULL = highest rank gives a
    single deterministic NULL order — NULLs last ascending, first
    descending — for every type, and lets descending sort negate the codes
    (``np.argsort(-codes)``) instead of reversing a stable order (which
    broke multi-key stability on ties)."""
    if np.issubdtype(values.dtype, np.floating):
        nulls = np.isnan(values)
        if nulls.any():
            live = values[~nulls]
            uniq = np.unique(live)
            codes = np.full(len(values), len(uniq), dtype=np.int64)
            codes[~nulls] = np.searchsorted(uniq, live)
            return codes
    _, inverse = np.unique(values, return_inverse=True)
    return inverse.astype(np.int64, copy=False).reshape(len(values))


def _sort_order(plan: PhysSort, frame: Frame, ctx: ExecutionContext) -> np.ndarray:
    n = frame_length(frame)
    ctx.metrics.cost_units += ctx.cost_model.sort(n)
    return sort_order_for(plan.sort_items, frame)


def sort_order_for(
    sort_items: Tuple[Tuple[Expr, bool], ...], frame: Frame
) -> np.ndarray:
    """Row order for ORDER BY items evaluated against ``frame``."""
    n = frame_length(frame)
    order = np.arange(n)
    # Stable sorts applied last-key-first give lexicographic order;
    # descending keys negate their rank codes, keeping the sort stable
    # (NULL = largest rank, so NULLs sort last asc / first desc).
    for expr, descending in reversed(sort_items):
        values = evaluate(expr, frame)[order]
        if expr.data_type is DataType.STRING:
            values = string_ranks(expr, values, string_pool.order())
        codes = _rank_codes(values)
        inner = np.argsort(-codes if descending else codes, kind="stable")
        order = order[inner]
    return order
