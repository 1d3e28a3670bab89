"""RecordBatch unit tests: lazy conversion, edges, dtype fallback."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.streams.records import Record
from repro.streams.schema import TCP_SCHEMA
from repro.dsms.vectorized import RecordBatch

from tests.vectorized.conftest import VAL_SCHEMA, make_val_records


def _packets(n):
    # TCP(time, uts, srcIP, destIP, len, srcPort, destPort, protocol)
    return [
        Record(TCP_SCHEMA, [i, i * 7, 10 + i, 20 + i, 100 + i, 80, 443, 6])
        for i in range(n)
    ]


def test_lazy_conversion_only_touched_columns():
    batch = RecordBatch.from_records(TCP_SCHEMA, _packets(4))
    batch.column("len")
    assert set(batch._columns) == {"len"}
    batch.column("time")
    assert set(batch._columns) == {"len", "time"}


def test_column_dtypes():
    rows = [(0, 1, 1.5, True), (1, 2, 2.5, False)]
    batch = RecordBatch.from_records(VAL_SCHEMA, make_val_records(rows))
    assert batch.column("t").dtype == np.int64
    assert batch.column("f").dtype == np.float64
    assert batch.column("b").dtype == np.bool_


def test_uint_columns_use_signed_storage():
    # uint maps to int64 so ``time - 60`` can go negative without wrap.
    batch = RecordBatch.from_records(TCP_SCHEMA, _packets(2))
    assert batch.column("uts").dtype == np.int64


def test_object_fallback_on_heterogeneous_values():
    records = make_val_records([(0, 1, 1.0, True)])
    bad = Record(VAL_SCHEMA, [1, "not-an-int", 2.0, False])
    batch = RecordBatch.from_records(VAL_SCHEMA, records + [bad])
    col = batch.column("x")
    assert col.dtype == object
    assert col.tolist() == [1, "not-an-int"]


def test_object_fallback_on_int64_overflow():
    big = 2**80
    records = [Record(VAL_SCHEMA, [0, big, 0.0, True])]
    batch = RecordBatch.from_records(VAL_SCHEMA, records)
    col = batch.column("x")
    assert col.dtype == object
    assert col[0] == big and type(col[0]) is int


def test_to_records_passthrough_returns_original_list():
    records = _packets(3)
    batch = RecordBatch.from_records(TCP_SCHEMA, records)
    batch.column("len")  # converting a column must not break passthrough
    assert batch.to_records() is records


def test_to_records_from_columns_yields_python_scalars():
    batch = RecordBatch.from_records(TCP_SCHEMA, _packets(3))
    rebuilt = RecordBatch(
        TCP_SCHEMA, columns=dict(batch.materialized()), length=3
    ).to_records()
    for record in rebuilt:
        assert all(type(v) is int for v in record.values)
    assert [r.values for r in rebuilt] == [r.values for r in _packets(3)]


def test_take_filters_records_and_columns():
    batch = RecordBatch.from_records(TCP_SCHEMA, _packets(5))
    batch.column("len")
    mask = np.asarray([True, False, True, False, True])
    taken = batch.take(mask)
    assert len(taken) == 3
    assert taken.column("len").tolist() == [100, 102, 104]
    # Lazy columns still convert from the filtered backing.
    assert taken.column("time").tolist() == [0, 2, 4]


def test_empty_batch():
    batch = RecordBatch.empty(TCP_SCHEMA)
    assert len(batch) == 0
    assert batch.to_records() == []


def test_missing_column_without_backing_raises():
    batch = RecordBatch(TCP_SCHEMA, columns={}, length=0)
    with pytest.raises(SchemaError):
        batch.column("len")
