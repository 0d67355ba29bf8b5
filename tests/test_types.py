"""Unit tests for the type system (repro.types)."""

import datetime
import operator
import sys
import threading
import uuid

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from repro import Session, types
from repro.catalog.schema import ColumnSchema, TableSchema
from repro.errors import StorageError
from repro.expr.evaluator import evaluate
from repro.expr.expressions import (
    ColumnRef,
    Comparison,
    ComparisonOp,
    Literal,
    TableRef,
)
from repro.storage.database import Database
from repro.types import (
    DataType,
    coerce_column,
    coerce_value,
    common_numeric_type,
    comparable,
    date_to_int,
    int_to_date,
    literal_type,
    string_pool,
)


class TestDateConversion:
    def test_epoch_is_zero(self):
        assert date_to_int("1970-01-01") == 0

    def test_known_date(self):
        assert date_to_int("1970-01-02") == 1
        assert date_to_int("1996-07-01") == (
            datetime.date(1996, 7, 1) - datetime.date(1970, 1, 1)
        ).days

    def test_accepts_date_objects(self):
        assert date_to_int(datetime.date(1992, 1, 1)) == date_to_int("1992-01-01")

    def test_accepts_ints_passthrough(self):
        assert date_to_int(12345) == 12345

    def test_roundtrip(self):
        for iso in ("1970-01-01", "1996-07-01", "1998-08-02"):
            assert int_to_date(date_to_int(iso)).isoformat() == iso

    def test_rejects_bool(self):
        with pytest.raises(StorageError):
            date_to_int(True)

    def test_rejects_garbage(self):
        with pytest.raises(StorageError):
            date_to_int(object())


class TestCoercion:
    def test_int(self):
        assert coerce_value(42, DataType.INT) == 42

    def test_int_rejects_float(self):
        with pytest.raises(StorageError):
            coerce_value(4.2, DataType.INT)

    def test_int_rejects_bool(self):
        with pytest.raises(StorageError):
            coerce_value(True, DataType.INT)

    def test_float_accepts_int(self):
        assert coerce_value(7, DataType.FLOAT) == 7.0

    def test_string(self):
        assert coerce_value("abc", DataType.STRING) == "abc"

    def test_string_rejects_number(self):
        with pytest.raises(StorageError):
            coerce_value(3, DataType.STRING)

    def test_date_from_string(self):
        assert coerce_value("1970-01-03", DataType.DATE) == 2

    def test_bool(self):
        assert coerce_value(True, DataType.BOOL) is True

    def test_null_rejected(self):
        with pytest.raises(StorageError):
            coerce_value(None, DataType.INT)

    def test_coerce_column_int(self):
        column = coerce_column([1, 2, 3], DataType.INT)
        assert column.dtype == np.int64
        assert column.tolist() == [1, 2, 3]

    def test_coerce_column_passthrough(self):
        original = np.array([1, 2], dtype=np.int64)
        assert coerce_column(original, DataType.INT) is original

    def test_coerce_column_dates(self):
        column = coerce_column(["1970-01-02", "1970-01-03"], DataType.DATE)
        assert column.tolist() == [1, 2]

    def test_coerce_column_string_interns_once_per_distinct_value(
        self, monkeypatch
    ):
        """A STRING column is stored as pool codes; exact ``str`` values —
        pooled or new — never reach the per-value ``coerce_value`` path."""

        def no_per_value_path(value, data_type):
            raise AssertionError(f"coerce_value called for {value!r}")

        monkeypatch.setattr(types, "coerce_value", no_per_value_path)
        original = np.array(["a", "", "b", "a"], dtype=object)
        before = len(string_pool)
        codes = coerce_column(original, DataType.STRING)
        assert codes.dtype == np.int64
        assert codes[0] == codes[3] and len(set(codes.tolist())) == 3
        assert string_pool.decode(codes).tolist() == original.tolist()
        grown = len(string_pool)
        assert grown - before <= 3
        again = coerce_column(original, DataType.STRING)
        assert again.tolist() == codes.tolist() and len(string_pool) == grown
        empty = coerce_column(np.empty(0, dtype=object), DataType.STRING)
        assert empty.dtype == np.int64 and len(empty) == 0

    @pytest.mark.parametrize("bad", [None, 3, 2.5, b"x", ["a"]])
    def test_coerce_column_string_array_rejects_like_per_value(self, bad):
        """Arrays and lists raise exactly the per-value path's error, for
        the first offending entry — and ints are never taken for codes."""
        values = ["a", bad, None, "b"]
        array = np.empty(len(values), dtype=object)
        for position, value in enumerate(values):
            array[position] = value
        with pytest.raises(StorageError) as per_value:
            coerce_value(bad, DataType.STRING)
        for column in (array, values):
            with pytest.raises(StorageError) as raised:
                coerce_column(column, DataType.STRING)
            assert str(raised.value) == str(per_value.value)
        with pytest.raises(StorageError):
            coerce_column(np.array([0, 1], dtype=np.int64), DataType.STRING)

    def test_coerce_column_string_subclass_accepted(self):
        """Subclasses are accepted and stored as exact ``str``, sharing the
        plain string's code."""

        class Tagged(str):
            pass

        assert type(coerce_value(Tagged("t"), DataType.STRING)) is str
        array = np.array(["t", Tagged("t"), np.str_("n")], dtype=object)
        codes = coerce_column(array, DataType.STRING)
        assert codes[0] == codes[1] != codes[2]
        decoded = string_pool.decode(codes).tolist()
        assert decoded == ["t", "t", "n"]
        assert {type(v) for v in decoded} == {str}

    def test_coerce_column_other_inputs_take_per_value_path(self, monkeypatch):
        """Lists and arrays not already of the storage dtype are coerced
        value by value (STRING: only the non-exact-``str`` values)."""
        seen = []
        real = types.coerce_value

        def counting(value, data_type):
            seen.append(value)
            return real(value, data_type)

        monkeypatch.setattr(types, "coerce_value", counting)
        column = coerce_column(["a", "b"], DataType.STRING)
        assert string_pool.decode(column).tolist() == ["a", "b"]
        fixed_width = np.array(["a", "b"])  # dtype '<U1', not object
        column = coerce_column(fixed_width, DataType.STRING)
        assert string_pool.decode(column).tolist() == ["a", "b"]
        assert seen == []
        narrow = np.array([1, 2], dtype=np.int32)
        assert coerce_column(narrow, DataType.INT).dtype == np.int64
        assert len(seen) == 2


class TestLiteralTypes:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (1, DataType.INT),
            (1.5, DataType.FLOAT),
            ("x", DataType.STRING),
            (True, DataType.BOOL),
            (datetime.date(2000, 1, 1), DataType.DATE),
        ],
    )
    def test_inference(self, value, expected):
        assert literal_type(value) is expected

    def test_unknown_rejected(self):
        with pytest.raises(StorageError):
            literal_type(object())


class TestTypeAlgebra:
    def test_common_numeric(self):
        assert common_numeric_type(DataType.INT, DataType.FLOAT) is DataType.FLOAT
        assert common_numeric_type(DataType.INT, DataType.INT) is DataType.INT
        assert common_numeric_type(DataType.DATE, DataType.INT) is DataType.DATE
        assert common_numeric_type(DataType.DATE, DataType.DATE) is DataType.INT

    def test_common_numeric_rejects_strings(self):
        with pytest.raises(StorageError):
            common_numeric_type(DataType.STRING, DataType.INT)

    def test_comparable(self):
        assert comparable(DataType.INT, DataType.FLOAT)
        assert comparable(DataType.DATE, DataType.INT)
        assert comparable(DataType.STRING, DataType.STRING)
        assert not comparable(DataType.STRING, DataType.INT)
        assert not comparable(DataType.DATE, DataType.FLOAT)

    def test_byte_widths(self):
        assert DataType.INT.byte_width == 8
        assert DataType.STRING.byte_width == 25
        assert DataType.BOOL.byte_width == 1

    def test_numpy_dtypes(self):
        assert DataType.INT.numpy_dtype == np.dtype(np.int64)
        assert DataType.BOOL.numpy_dtype == np.dtype(np.bool_)


# ---------------------------------------------------------------------------
# The STRING representation contract: int64 pool codes from scan to result
# ---------------------------------------------------------------------------

_TEXT = st.text(max_size=6)
_OPS = {
    ComparisonOp.EQ: operator.eq,
    ComparisonOp.NE: operator.ne,
    ComparisonOp.LT: operator.lt,
    ComparisonOp.LE: operator.le,
    ComparisonOp.GT: operator.gt,
    ComparisonOp.GE: operator.ge,
}
_T = TableRef("t", 1)
_L = ColumnRef(_T, "l", DataType.STRING)
_R = ColumnRef(_T, "r", DataType.STRING)


def _string_db(values):
    schema = TableSchema(
        "words",
        [ColumnSchema("k", DataType.INT), ColumnSchema("s", DataType.STRING)],
        primary_key=("k",),
    )
    db = Database()
    db.create_table(schema, {"k": list(range(len(values))), "s": values})
    db.analyze()
    return db


class TestStringPool:
    @given(st.lists(_TEXT, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_intern_decode_is_the_identity(self, values):
        """Empty strings, unicode and duplicates included; equal strings
        share a code and ranks order codes like python orders strings."""
        codes = string_pool.intern(values)
        assert codes.dtype == np.int64 and len(codes) == len(values)
        assert string_pool.decode(codes).tolist() == values
        assert [string_pool.code(v) for v in values] == codes.tolist()
        assert len(set(codes.tolist())) == len(set(values))
        ranks = string_pool.order().ranks[codes].tolist()
        assert sorted(range(len(values)), key=ranks.__getitem__) == sorted(
            range(len(values)), key=values.__getitem__
        )

    @given(
        st.lists(st.tuples(_TEXT, _TEXT), min_size=1, max_size=12),
        _TEXT,
        st.text(alphabet="\U0001F600\U0001F601\U0001F602", min_size=7, max_size=9),
    )
    @settings(max_examples=100, deadline=None)
    def test_comparisons_equal_python_row_by_row(self, pairs, pooled, absent):
        """All six operators, column against column and against a literal
        on either side — the literal pooled, or absent from the pool."""
        assume(string_pool.code(absent) == -1)
        lefts = [left for left, _ in pairs]
        rights = [right for _, right in pairs]
        frame = {_L: string_pool.intern(lefts), _R: string_pool.intern(rights)}
        string_pool.intern([pooled])
        size = len(string_pool)
        for op, python_op in _OPS.items():
            got = evaluate(Comparison(op, _L, _R), frame).tolist()
            assert got == [python_op(a, b) for a, b in pairs], op
            for literal in (pooled, absent):
                got = evaluate(Comparison(op, _L, Literal(literal)), frame)
                assert got.tolist() == [python_op(a, literal) for a in lefts]
                got = evaluate(Comparison(op, Literal(literal), _R), frame)
                assert got.tolist() == [python_op(literal, b) for b in rights]
            both = Comparison(op, Literal(absent), Literal(absent + "z"))
            assert evaluate(both, frame).tolist() == [
                python_op(absent, absent + "z")
            ] * len(pairs)
        assert len(string_pool) == size  # literals never grow the pool

    def test_null_string_decodes_to_none(self):
        a, b = string_pool.intern(["a", "b"]).tolist()
        decoded = string_pool.decode(np.array([b, np.nan, a]))
        assert decoded.tolist() == ["b", None, "a"]

    def test_concurrent_interning_gives_one_code_per_string(self):
        """Eight threads (more than cores) interning overlapping values
        under a shortened switch interval: a lost update would hand two
        codes to one string or leave a code undecodable."""
        words = [f"concurrent-{uuid.uuid4().hex}-{i}" for i in range(400)]
        before = len(string_pool)
        results, errors = {}, []
        barrier = threading.Barrier(8)

        def worker(index):
            try:
                mine = words[index * 40 : index * 40 + 120] * 2
                barrier.wait(timeout=30)
                results[index] = (mine, string_pool.intern(mine))
                string_pool.order()
                string_pool.decode(results[index][1])
            except BaseException as error:  # surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert len(results) == 8
        assert len(string_pool) == before + 400
        code_of = {}
        for mine, codes in results.values():
            assert string_pool.decode(codes).tolist() == mine
            for word, code in zip(mine, codes.tolist()):
                assert code_of.setdefault(word, code) == code
        assert len(set(code_of.values())) == len(code_of) == 400
        assert sorted(code_of.values()) == list(range(before, before + 400))


class TestStringQueries:
    WORDS = ["pear", "apple", "fig", "apple", "", "zebra", "Fig", "émile"]

    def _rows(self, session, sql):
        return session.execute(sql).execution.results[0].rows

    def test_reads_never_grow_the_pool(self):
        session = Session(_string_db(self.WORDS))
        size = len(string_pool)
        absent = f"never-stored-{uuid.uuid4().hex}"
        assert string_pool.code(absent) == -1
        rows = self._rows(
            session,
            f"select s, '{absent}' as tag from words "
            f"where s <> '{absent}' and s < '{absent}x' order by s",
        )
        assert rows == [(w, absent) for w in sorted(self.WORDS) if w < absent]
        assert self._rows(
            session, f"select k from words where s = '{absent}'"
        ) == []
        assert len(string_pool) == size
        assert string_pool.code(absent) == -1

    def test_ranks_refresh_after_insert_grows_the_pool(self):
        """A comparison and an ORDER BY issued after ``Database.insert``
        pooled new strings see them in their sorted place."""
        db = _string_db(self.WORDS)
        session = Session(db)
        sql = "select s from words where s >= 'b' and s < 'q' order by s desc"

        def expected(words):
            return [(w,) for w in sorted(words, reverse=True) if "b" <= w < "q"]

        assert self._rows(session, sql) == expected(self.WORDS)
        fresh = [f"{stem}-{uuid.uuid4().hex}" for stem in ("banana", "a", "kiwi")]
        size = len(string_pool)
        db.insert("words", [(100 + i, w) for i, w in enumerate(fresh)])
        assert len(string_pool) == size + 3
        assert self._rows(session, sql) == expected(self.WORDS + fresh)

    @pytest.mark.parametrize("direction", ["asc", "desc"])
    def test_outer_join_null_strings_decode_to_none_and_keep_their_order(
        self, tiny_db, direction
    ):
        """NULLs last ascending, first descending — and ``None`` in the
        result, not NaN — for a null-extended STRING column."""
        rows = self._rows(
            Session(tiny_db),
            "select n_name, c_mktsegment from nation left join customer "
            "on n_nationkey = c_nationkey and c_acctbal > 9000 "
            f"order by c_mktsegment {direction}, n_name",
        )
        segments = [row[1] for row in rows]
        nulls = [i for i, s in enumerate(segments) if s is None]
        live = [s for s in segments if s is not None]
        assert nulls and live and {type(s) for s in live} == {str}
        assert live == sorted(live, reverse=direction == "desc")
        if direction == "desc":
            assert nulls == list(range(len(nulls)))
        else:
            assert nulls == list(range(len(live), len(segments)))
