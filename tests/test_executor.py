"""Executor tests: operator semantics and full-bundle execution vs oracle."""

import uuid

import numpy as np
import pytest

from repro import OptimizerOptions, Session, types
from repro.catalog.schema import ColumnSchema, TableSchema
from repro.errors import ExecutionError
from repro.executor import iterators
from repro.executor.executor import Executor, bind_scalars
from repro.executor.iterators import (
    _column_codes,
    _equi_join_indices,
    _group_ids,
    _key_codes,
    execute_node,
    materialize_spool,
)
from repro.executor.reference import evaluate_batch, evaluate_query
from repro.executor.runtime import ExecutionContext
from repro.expr.evaluator import evaluate, frame_length
from repro.expr.expressions import (
    AggExpr,
    AggFunc,
    ColumnRef,
    Literal,
    TableRef,
    eq,
    gt,
    lt,
)
from repro.logical.blocks import OutputColumn, ScalarSubquery
from repro.optimizer.aggs import AggCompute
from repro.optimizer.physical import (
    PhysFilter,
    PhysHashAgg,
    PhysHashJoin,
    PhysIndexScan,
    PhysProject,
    PhysScan,
    PhysSpoolRead,
)
from repro.storage.table import Table
from repro.types import DataType, string_pool

from .rows import assert_same_rows


def ctx_for(db):
    return ExecutionContext(database=db)


def cust_ref():
    return TableRef("customer", 1, alias="c")


def ccol(name, dtype=DataType.INT):
    return ColumnRef(cust_ref(), name, dtype)


class TestOperators:
    def test_scan_outputs_and_filter(self, tiny_db):
        key = ccol("c_custkey")
        nation = ccol("c_nationkey")
        scan = PhysScan(
            table_ref=cust_ref(),
            conjuncts=(eq(nation, Literal(3)),),
            outputs=(key,),
            est_rows=10,
        )
        frame = execute_node(scan, ctx_for(tiny_db))
        assert set(frame) == {key}
        expected = np.count_nonzero(
            tiny_db.table("customer").column("c_nationkey") == 3
        )
        assert len(frame[key]) == expected

    def test_scan_filter_column_not_in_outputs(self, tiny_db):
        # The filter references a column that is not produced.
        key = ccol("c_custkey")
        scan = PhysScan(
            table_ref=cust_ref(),
            conjuncts=(gt(ccol("c_acctbal", DataType.FLOAT), Literal(0.0)),),
            outputs=(key,),
        )
        frame = execute_node(scan, ctx_for(tiny_db))
        assert set(frame) == {key}

    def test_index_scan_matches_filter_scan(self, tiny_db):
        orders = TableRef("orders", 2, alias="o")
        okey = ColumnRef(orders, "o_orderkey", DataType.INT)
        odate = ColumnRef(orders, "o_orderdate", DataType.DATE)
        from repro.types import date_to_int

        cut = date_to_int("1993-01-01")
        index_scan = PhysIndexScan(
            table_ref=orders,
            column=odate,
            low=None,
            high=float(cut),
            low_inclusive=True,
            high_inclusive=False,
            residual=(),
            outputs=(okey,),
        )
        plain = PhysScan(
            table_ref=orders,
            conjuncts=(lt(odate, Literal(cut, DataType.DATE)),),
            outputs=(okey,),
        )
        via_index = execute_node(index_scan, ctx_for(tiny_db))
        via_scan = execute_node(plain, ctx_for(tiny_db))
        assert sorted(via_index[okey].tolist()) == sorted(via_scan[okey].tolist())

    def test_hash_join_and_cross_join(self, tiny_db):
        nation = TableRef("nation", 3)
        region = TableRef("region", 4)
        nkey = ColumnRef(nation, "n_regionkey", DataType.INT)
        nname = ColumnRef(nation, "n_name", DataType.STRING)
        rkey = ColumnRef(region, "r_regionkey", DataType.INT)
        rname = ColumnRef(region, "r_name", DataType.STRING)
        left = PhysScan(region, (), (rkey, rname), est_rows=5)
        right = PhysScan(nation, (), (nkey, nname), est_rows=25)
        join = PhysHashJoin(
            left=left, right=right, keys=((rkey, nkey),),
            residual=(), outputs=(rname, nname),
        )
        frame = execute_node(join, ctx_for(tiny_db))
        assert len(frame[nname]) == 25  # every nation matches one region
        cross = PhysHashJoin(
            left=left, right=right, keys=(), residual=(),
            outputs=(rname, nname),
        )
        frame = execute_node(cross, ctx_for(tiny_db))
        assert len(frame[nname]) == 125

    def test_join_residual(self, tiny_db):
        nation = TableRef("nation", 3)
        region = TableRef("region", 4)
        nkey = ColumnRef(nation, "n_regionkey", DataType.INT)
        rkey = ColumnRef(region, "r_regionkey", DataType.INT)
        nid = ColumnRef(nation, "n_nationkey", DataType.INT)
        join = PhysHashJoin(
            left=PhysScan(region, (), (rkey,)),
            right=PhysScan(nation, (), (nkey, nid)),
            keys=((rkey, nkey),),
            residual=(gt(nid, Literal(10)),),
            outputs=(nid,),
        )
        frame = execute_node(join, ctx_for(tiny_db))
        assert (frame[nid] > 10).all()

    def test_hash_agg_sums(self, tiny_db):
        nation = TableRef("nation", 3)
        nreg = ColumnRef(nation, "n_regionkey", DataType.INT)
        count = AggExpr(AggFunc.COUNT, None)
        agg = PhysHashAgg(
            child=PhysScan(nation, (), (nreg,)),
            keys=(nreg,),
            computes=(AggCompute(out=count, func=AggFunc.COUNT, arg=None),),
        )
        frame = execute_node(agg, ctx_for(tiny_db))
        assert int(frame[count].sum()) == 25
        assert len(frame[nreg]) == 5

    def test_scalar_agg_over_empty_input(self, tiny_db):
        nation = TableRef("nation", 3)
        nid = ColumnRef(nation, "n_nationkey", DataType.INT)
        count = AggExpr(AggFunc.COUNT, None)
        agg = PhysHashAgg(
            child=PhysScan(nation, (eq(nid, Literal(-1)),), (nid,)),
            keys=(),
            computes=(AggCompute(out=count, func=AggFunc.COUNT, arg=None),),
        )
        frame = execute_node(agg, ctx_for(tiny_db))
        assert frame[count].tolist() == [0]

    def test_min_max_aggregates(self, tiny_db):
        nation = TableRef("nation", 3)
        nid = ColumnRef(nation, "n_nationkey", DataType.INT)
        mn = AggExpr(AggFunc.MIN, nid)
        mx = AggExpr(AggFunc.MAX, nid)
        agg = PhysHashAgg(
            child=PhysScan(nation, (), (nid,)),
            keys=(),
            computes=(
                AggCompute(out=mn, func=AggFunc.MIN, arg=nid),
                AggCompute(out=mx, func=AggFunc.MAX, arg=nid),
            ),
        )
        frame = execute_node(agg, ctx_for(tiny_db))
        assert frame[mn].tolist() == [0]
        assert frame[mx].tolist() == [24]

    def test_filter_node(self, tiny_db):
        nation = TableRef("nation", 3)
        nid = ColumnRef(nation, "n_nationkey", DataType.INT)
        plan = PhysFilter(
            child=PhysScan(nation, (), (nid,)),
            conjuncts=(lt(nid, Literal(5)),),
        )
        frame = execute_node(plan, ctx_for(tiny_db))
        assert sorted(frame[nid].tolist()) == [0, 1, 2, 3, 4]

    def test_spool_materialize_and_read(self, tiny_db):
        nation = TableRef("nation", 3)
        nid = ColumnRef(nation, "n_nationkey", DataType.INT)
        body = PhysProject(
            child=PhysScan(nation, (lt(nid, Literal(3)),), (nid,)),
            outputs=(OutputColumn("k0", nid),),
        )
        ctx = ctx_for(tiny_db)
        worktable = materialize_spool("E1", body, ctx)
        assert worktable.row_count == 3
        assert ctx.metrics.spools_materialized == 1
        # A spool is a table outside the catalog, typed like its body.
        assert isinstance(worktable, Table)
        assert worktable.schema.column_type("k0") is DataType.INT
        assert not tiny_db.catalog.has_table("E1")
        from repro.optimizer.physical import PhysSpoolRead

        ctx.spools["E1"] = worktable
        read = PhysSpoolRead("E1", (("k0", nid),))
        frame = execute_node(read, ctx)
        assert sorted(frame[nid].tolist()) == [0, 1, 2]

    def test_spool_write_makes_no_per_value_calls(self, tiny_db, monkeypatch):
        """Work count for Def 5.1's C_W: materialising a spool with string
        columns checks them per element type — zero ``coerce_value``
        calls."""
        calls = []
        monkeypatch.setattr(
            types, "coerce_value", lambda value, _: calls.append(value)
        )
        shared = (
            "from customer, orders, lineitem where c_custkey = o_custkey "
            "and o_orderkey = l_orderkey and o_orderdate < '1996-01-01' "
        )
        outcome = Session(tiny_db, OptimizerOptions()).execute(
            f"select c_mktsegment, sum(l_extendedprice) as s {shared}"
            "group by c_mktsegment;"
            f"select o_orderpriority, sum(l_extendedprice) as s {shared}"
            "group by o_orderpriority"
        )
        (_, body), = outcome.optimization.bundle.root_spools
        written = [out.expr.data_type for out in body.outputs]
        assert written.count(DataType.STRING) == 2
        assert outcome.execution.metrics.spool_rows_written > 0
        assert calls == []

    def test_spool_read_before_materialize_fails(self, tiny_db):
        from repro.optimizer.physical import PhysSpoolRead

        read = PhysSpoolRead("ghost", ())
        with pytest.raises(ExecutionError):
            execute_node(read, ctx_for(tiny_db))


class TestBindScalars:
    def test_filter_rebound(self, tiny_db):
        nation = TableRef("nation", 3)
        nid = ColumnRef(nation, "n_nationkey", DataType.INT)
        sub = ScalarSubquery("sq1", DataType.INT)
        plan = PhysProject(
            child=PhysFilter(
                child=PhysScan(nation, (), (nid,)),
                conjuncts=(lt(nid, sub),),
            ),
            outputs=(OutputColumn("n", nid),),
        )
        bound = bind_scalars(plan, {sub: Literal(4)})
        frame = execute_node(bound.child, ctx_for(tiny_db))
        assert sorted(frame[nid].tolist()) == [0, 1, 2, 3]


class TestFullExecution:
    SQL = (
        "select c_nationkey, sum(l_extendedprice) as le "
        "from customer, orders, lineitem "
        "where c_custkey = o_custkey and o_orderkey = l_orderkey "
        "  and o_orderdate < '1996-07-01' "
        "group by c_nationkey;"
        "select c_mktsegment, sum(l_quantity) as lq "
        "from customer, orders, lineitem "
        "where c_custkey = o_custkey and o_orderkey = l_orderkey "
        "  and o_orderdate < '1996-07-01' "
        "group by c_mktsegment"
    )

    def test_matches_oracle_with_cse(self, small_session):
        batch = small_session.bind(self.SQL)
        outcome = small_session.execute(batch)
        oracle = evaluate_batch(small_session.database, batch)
        for query in batch.queries:
            assert_same_rows(
                outcome.execution.query(query.name).rows, oracle[query.name]
            )

    def test_matches_oracle_without_cse(self, no_cse_session):
        batch = no_cse_session.bind(self.SQL)
        outcome = no_cse_session.execute(batch)
        oracle = evaluate_batch(no_cse_session.database, batch)
        for query in batch.queries:
            assert_same_rows(
                outcome.execution.query(query.name).rows, oracle[query.name]
            )

    def test_order_by_respected(self, small_session):
        outcome = small_session.execute(
            "select c_nationkey, sum(c_acctbal) as total from customer "
            "group by c_nationkey order by total desc"
        )
        totals = [row[1] for row in outcome.execution.results[0].rows]
        assert totals == sorted(totals, reverse=True)

    def test_metrics_accumulated(self, small_session):
        outcome = small_session.execute(self.SQL)
        metrics = outcome.execution.metrics
        assert metrics.cost_units > 0
        assert metrics.rows_scanned > 0
        assert metrics.spools_materialized == 1
        assert metrics.spool_rows_read >= 2 * metrics.spool_rows_written

    def test_spool_sharing_cheaper_than_recompute(self, small_db):
        with_cse = Session(small_db, OptimizerOptions()).execute(self.SQL)
        without = Session(
            small_db, OptimizerOptions(enable_cse=False)
        ).execute(self.SQL)
        assert (
            with_cse.execution.metrics.cost_units
            < without.execution.metrics.cost_units
        )

    def test_missing_query_name(self, small_session):
        outcome = small_session.execute("select r_name from region")
        with pytest.raises(ExecutionError):
            outcome.execution.query("nope")


# ---------------------------------------------------------------------------
# Join / group-by key kernels
# ---------------------------------------------------------------------------
#
# The sort-based implementations the dense-coding kernels replaced survive
# only here, as the references the kernels must equal index for index.


def _sorted_joint_codes(cols):
    """Per-column ``np.unique`` codes mixed pairwise, re-compressed after
    every step."""
    codes = None
    for col in cols:
        _, inverse = np.unique(col, return_inverse=True)
        inverse = inverse.astype(np.int64, copy=False)
        if codes is None:
            codes = inverse
            continue
        radix = int(inverse.max()) + 1 if len(inverse) else 1
        _, codes = np.unique(codes * radix + inverse, return_inverse=True)
        codes = codes.astype(np.int64, copy=False)
    return codes


def _reference_join_indices(keys, left, right):
    """Sort-merge join over codes of the *concatenated* key columns."""
    n_left = frame_length(left)
    n_right = frame_length(right)
    codes = _sorted_joint_codes(
        [
            np.concatenate([evaluate(l_expr, left), evaluate(r_expr, right)])
            for l_expr, r_expr in keys
        ]
    )
    left_codes, right_codes = codes[:n_left], codes[n_left:]
    order = np.argsort(left_codes, kind="stable")
    sorted_codes = left_codes[order]
    lo = np.searchsorted(sorted_codes, right_codes, side="left")
    hi = np.searchsorted(sorted_codes, right_codes, side="right")
    counts = hi - lo
    total = int(counts.sum())
    right_idx = np.repeat(np.arange(n_right, dtype=np.int64), counts)
    starts = np.repeat(lo, counts)
    run_offsets = np.repeat(np.cumsum(counts) - counts, counts)
    within = np.arange(total, dtype=np.int64) - run_offsets
    return order[starts + within].astype(np.int64, copy=False), right_idx


def _reference_group_ids(keys, frame):
    """``np.unique`` over the rows' joint codes, groups renumbered by first
    appearance."""
    key_cols = [evaluate(k, frame) for k in keys]
    codes = _sorted_joint_codes(key_cols)
    _, first_idx, inverse = np.unique(
        codes, return_index=True, return_inverse=True
    )
    appearance = np.argsort(first_idx, kind="stable")
    remap = np.empty(len(first_idx), dtype=np.int64)
    remap[appearance] = np.arange(len(first_idx), dtype=np.int64)
    gids = remap[inverse.astype(np.int64, copy=False)]
    group_rows = first_idx[appearance]
    key_frame = {
        key_expr: np.asarray(
            col[group_rows], dtype=key_expr.data_type.numpy_dtype
        )
        for key_expr, col in zip(keys, key_cols)
    }
    return gids, len(first_idx), key_frame


KEY_DTYPES = (
    "dense_int", "sparse_int", "negative_int", "bool",
    "date", "float_nan", "string", "mixed",
)
KEY_SHAPES = (
    "empty_left", "empty_right", "unique_build", "duplicate_build",
    "no_matches",
)


#: prefix of the STRING key values, unique to this module's process.
_STRING_TAG = f"key-kernels-{uuid.uuid4().hex}-"


def _key_pool(dtype):
    """``(left type, right type, left pool, right pool)``: distinct values,
    equal across the two pools exactly at equal positions."""
    ints = np.arange(12, dtype=np.int64)
    if dtype == "dense_int":
        return DataType.INT, DataType.INT, ints, ints
    if dtype == "sparse_int":
        # Spans ~2**41 over a dozen rows: far past the direct-address bound.
        pool = np.array(
            [-(10**12), -7, 0, 3, 10**6, 10**9, 2**40, 2**40 + 1,
             2**41, 5, 10**12, 77],
            dtype=np.int64,
        )
        return DataType.INT, DataType.INT, pool, pool
    if dtype == "negative_int":
        return DataType.INT, DataType.INT, ints - 9, ints - 9
    if dtype == "bool":
        pool = np.array([False, True])
        return DataType.BOOL, DataType.BOOL, pool, pool
    if dtype == "date":
        return DataType.DATE, DataType.DATE, ints + 9000, ints + 9000
    if dtype == "float_nan":
        pool = ints.astype(np.float64) + 0.5
        pool[3] = np.nan
        return DataType.FLOAT, DataType.FLOAT, pool, pool
    if dtype == "string":
        # STRING frames hold pool codes. The process-wide pool may already
        # hold common strings, so these carry a tag no other code interns:
        # interned in one call, their codes are consecutive, hence dense.
        values = ["a", "b", "c", "aa", "ab", "", "B", "zz", "a b", "é", "0", "c0"]
        pool = string_pool.intern([_STRING_TAG + value for value in values])
        return DataType.STRING, DataType.STRING, pool, pool
    assert dtype == "mixed"
    return DataType.INT, DataType.FLOAT, ints, ints.astype(np.float64)


def _key_frames(dtype, shape, arity, seed):
    """Left/right frames with ``arity`` key columns plus a payload each.

    The first key column has ``dtype`` and carries ``shape``; further key
    columns rotate through the other dtypes over three values each."""
    rng = np.random.default_rng(seed)
    n_left = 0 if shape == "empty_left" else int(rng.integers(2, 40))
    n_right = 0 if shape == "empty_right" else int(rng.integers(1, 40))
    lref, rref = TableRef("l", 1), TableRef("r", 2)
    left, right, keys = {}, {}, []
    for j in range(arity):
        name = KEY_DTYPES[(KEY_DTYPES.index(dtype) + j) % len(KEY_DTYPES)]
        ltype, rtype, lpool, rpool = _key_pool(name)
        size = len(lpool)
        if j > 0:
            li = rng.integers(0, min(size, 3), n_left)
            ri = rng.integers(0, min(size, 3), n_right)
        elif shape == "unique_build":
            n_left = min(n_left, size)
            li = rng.permutation(size)[:n_left]
            ri = rng.integers(0, size, n_right)
        elif shape == "no_matches":
            li = rng.integers(0, size // 2, n_left)
            ri = rng.integers(size // 2, size, n_right)
        else:
            li = rng.integers(0, size, n_left)
            ri = rng.integers(0, size, n_right)
        if shape == "duplicate_build":
            li[1] = li[0]
        lkey = ColumnRef(lref, f"k{j}", ltype)
        rkey = ColumnRef(rref, f"k{j}", rtype)
        left[lkey], right[rkey] = lpool[li], rpool[ri]
        keys.append((lkey, rkey))
    left[ColumnRef(lref, "pay", DataType.INT)] = np.arange(
        n_left, dtype=np.int64
    )
    right[ColumnRef(rref, "pay", DataType.INT)] = np.arange(
        n_right, dtype=np.int64
    )
    return left, right, tuple(keys)


def _assert_group_ids_equal(got, want):
    assert got[0].dtype == np.int64
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1] == want[1]
    assert list(got[2]) == list(want[2])
    for key_expr, col in want[2].items():
        assert got[2][key_expr].dtype == col.dtype
        np.testing.assert_array_equal(got[2][key_expr], col)


def _spool_source(cse_id, frame, ctx):
    """Publish ``frame`` as a spool in ``ctx`` and return a plan reading it."""
    names = [f"c{i}" for i in range(len(frame))]
    table = Table(TableSchema(cse_id, [
        ColumnSchema(name, expr.data_type) for name, expr in zip(names, frame)
    ]))
    table.load_stored(dict(zip(names, frame.values())))
    ctx.spools[cse_id] = table
    return PhysSpoolRead(cse_id, tuple(zip(names, frame)))


class TestKeyKernels:
    @pytest.mark.parametrize("shape", KEY_SHAPES)
    @pytest.mark.parametrize("dtype", KEY_DTYPES)
    def test_kernels_match_sort_references(self, dtype, shape):
        """3 arities x 2 seeds per (dtype, shape): join index arrays and
        ``(gids, count, key frame)`` exactly equal the sort-based
        references."""
        for arity in (1, 2, 3):
            for seed in (0, 1):
                left, right, keys = _key_frames(dtype, shape, arity, seed)
                got = _equi_join_indices(keys, left, right)
                want = _reference_join_indices(keys, left, right)
                for got_idx, want_idx in zip(got, want):
                    assert got_idx.dtype == np.int64
                    np.testing.assert_array_equal(got_idx, want_idx)
                if shape == "no_matches":
                    assert len(got[0]) == 0
                if shape == "unique_build" and len(got[1]):
                    # Every right row has at most one match.
                    assert np.all(np.diff(got[1]) > 0)
                for frame, side in ((left, 0), (right, 1)):
                    exprs = tuple(pair[side] for pair in keys)
                    _assert_group_ids_equal(
                        _group_ids(exprs, frame),
                        _reference_group_ids(exprs, frame),
                    )

    @pytest.mark.parametrize("seed", range(25))
    def test_hash_join_matches_sort_reference(self, seed, tiny_db, monkeypatch):
        """Inner/semi/anti/left_outer output frames through ``_hash_join``
        equal the frames the sort-merge reference indices produce."""
        dtype = KEY_DTYPES[seed % len(KEY_DTYPES)]
        shape = KEY_SHAPES[seed % len(KEY_SHAPES)]
        left, right, keys = _key_frames(dtype, shape, 1 + seed % 3, 100 + seed)
        ctx = ctx_for(tiny_db)
        for join_type in ("inner", "semi", "anti", "left_outer"):
            outputs = tuple(left) + (
                () if join_type in ("semi", "anti") else tuple(right)
            )
            plan = PhysHashJoin(
                left=_spool_source("L", left, ctx),
                right=_spool_source("R", right, ctx),
                keys=keys,
                residual=(),
                outputs=outputs,
                join_type=join_type,
            )
            got = execute_node(plan, ctx)
            with monkeypatch.context() as patch:
                patch.setattr(
                    iterators, "_equi_join_indices", _reference_join_indices
                )
                want = execute_node(plan, ctx)
            assert list(got) == list(want) == list(outputs)
            for expr, col in want.items():
                assert got[expr].dtype == col.dtype
                np.testing.assert_array_equal(got[expr], col)

    def test_dense_keys_never_sort_rows(self, monkeypatch):
        """Dense integer, bool, date and string keys reach no ``np.unique``;
        with unique build keys the join reaches no ``argsort`` either."""

        def no_sort(*args, **kwargs):
            raise AssertionError("sorted the rows of a dense key")

        monkeypatch.setattr(np, "unique", no_sort)
        for dtype in ("dense_int", "negative_int", "bool", "date", "string"):
            left, right, keys = _key_frames(dtype, "duplicate_build", 1, 3)
            _equi_join_indices(keys, left, right)
            _group_ids(tuple(pair[0] for pair in keys), left)
        monkeypatch.setattr(np, "argsort", no_sort)
        for dtype in ("dense_int", "string"):
            left, right, keys = _key_frames(dtype, "unique_build", 1, 3)
            assert len(_equi_join_indices(keys, left, right)[0])

    def test_column_codes_direct_address_bound(self):
        """``col - min`` up to the bound; past it the codes come from the
        ``np.unique`` fallback and the domain is the distinct count."""
        col = np.array([7, 3, 7, 5], dtype=np.int64)
        codes, domain = _column_codes(col)
        assert codes.tolist() == [4, 0, 4, 2] and domain == 5
        widest = iterators._dense_bound(len(col))
        col[1] = 7 - (widest - 1)
        assert _column_codes(col)[1] == widest
        col[1] -= 1
        codes, domain = _column_codes(col)
        assert codes.tolist() == [2, 0, 2, 1] and domain == 3
        floats = np.array([np.nan, 1.5, np.nan], dtype=np.float64)
        codes, domain = _column_codes(floats)
        assert codes[0] == codes[2] != codes[1] and domain == 2

    def test_wide_key_product_is_recompressed(self):
        """A radix product past the bound is re-compressed, so the domain
        stays addressable at any arity."""
        n = 50
        cols = [np.arange(n, dtype=np.int64) * 3 for _ in range(4)]
        codes, domain = _key_codes(cols)
        assert domain <= iterators._dense_bound(n)
        assert len(np.unique(codes)) == n and codes.max() < domain

    #: two queries over the same unfiltered join, CSE off so both execute
    #: their own join and aggregation.
    SHARED_KEY_SQL = (
        "select o_orderpriority, sum(l_extendedprice) as le "
        "from orders, lineitem where o_orderkey = l_orderkey "
        "group by o_orderpriority;"
        "select l_returnflag, max(l_discount) as md "
        "from orders, lineitem where o_orderkey = l_orderkey "
        "group by l_returnflag"
    )

    def test_shared_join_keys_end_to_end(self, small_db):
        """Rows match the oracle, and every join/group-by key column coded
        is counted (at least a join key pair and a group key per query)."""
        session = Session(small_db, OptimizerOptions(enable_cse=False))
        batch = session.bind(self.SHARED_KEY_SQL)
        outcome = session.execute(batch)
        metrics = outcome.execution.metrics
        assert metrics.key_factorizations >= 4
        assert metrics.key_factor_reuses == 0
        oracle = evaluate_batch(small_db, batch)
        for query in batch.queries:
            assert_same_rows(
                outcome.execution.query(query.name).rows, oracle[query.name]
            )

    def test_parallel_matches_serial(self, small_db):
        serial = Session(small_db, OptimizerOptions()).execute(
            TestFullExecution.SQL
        )
        parallel = Session(small_db, OptimizerOptions(), workers=4).execute(
            TestFullExecution.SQL, workers=4
        )
        assert [
            (r.name, r.columns, r.rows) for r in serial.execution.results
        ] == [
            (r.name, r.columns, r.rows) for r in parallel.execution.results
        ]
        # Per-task counts merge to the serial total.
        assert (
            parallel.execution.metrics.key_factorizations
            == serial.execution.metrics.key_factorizations
            > 0
        )
