"""Unit tests for the type system (repro.types)."""

import datetime

import numpy as np
import pytest

from repro import types
from repro.errors import StorageError
from repro.types import (
    DataType,
    coerce_column,
    coerce_value,
    common_numeric_type,
    comparable,
    date_to_int,
    int_to_date,
    literal_type,
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

    def test_coerce_column_string_array_returned_uncopied(self, monkeypatch):
        """A valid object array is checked per element *type*, not per
        value, and is returned itself."""

        def no_per_value_path(value, data_type):
            raise AssertionError(f"coerce_value called for {value!r}")

        monkeypatch.setattr(types, "coerce_value", no_per_value_path)
        original = np.array(["a", "", "b"], dtype=object)
        assert coerce_column(original, DataType.STRING) is original
        empty = np.empty(0, dtype=object)
        assert coerce_column(empty, DataType.STRING) is empty

    @pytest.mark.parametrize("bad", [None, 3, 2.5, b"x", ["a"]])
    def test_coerce_column_string_array_rejects_like_per_value(self, bad):
        """The array path raises exactly the per-value path's error, for
        the first offending entry."""
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

    def test_coerce_column_string_subclass_accepted(self):
        class Tagged(str):
            pass

        assert coerce_value(Tagged("t"), DataType.STRING) == "t"
        array = np.array(["a", Tagged("t"), np.str_("n")], dtype=object)
        assert coerce_column(array, DataType.STRING) is array

    def test_coerce_column_other_inputs_take_per_value_path(self, monkeypatch):
        """Lists and arrays not already of the storage dtype are coerced
        value by value."""
        seen = []
        real = types.coerce_value

        def counting(value, data_type):
            seen.append(value)
            return real(value, data_type)

        monkeypatch.setattr(types, "coerce_value", counting)
        column = coerce_column(["a", "b"], DataType.STRING)
        assert column.dtype == object and column.tolist() == ["a", "b"]
        fixed_width = np.array(["a", "b"])  # dtype '<U1', not object
        column = coerce_column(fixed_width, DataType.STRING)
        assert column.dtype == object and column.tolist() == ["a", "b"]
        narrow = np.array([1, 2], dtype=np.int32)
        assert coerce_column(narrow, DataType.INT).dtype == np.int64
        assert len(seen) == 6


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
