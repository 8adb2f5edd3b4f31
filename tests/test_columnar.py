"""The lossless columnar encoding kept in ``repro.columnar``.

No runtime path moves these batches (channel payloads are record lists);
the encoding is kept for the benchmark spine's ``columnar.ns_per_record``
floor.  These tests pin its contract: exact conformance or refusal,
bit-exact round trips, compact pickling.
"""

import pickle

import pytest

from repro.columnar import INT64, INT64_PAIR, ColumnarBatch, Schema


class TestBatchEncoding:
    def test_pair_round_trip_is_bit_exact(self):
        records = [(3, -7), (0, 2**60), (-(2**62), 5)]
        batch = ColumnarBatch.from_records(records, INT64_PAIR)
        out = batch.to_records()
        assert out == records
        for rec in out:
            assert type(rec) is tuple
            assert all(type(v) is int for v in rec)

    def test_scalar_round_trip_is_bit_exact(self):
        records = [4, -1, 0, 2**61]
        batch = ColumnarBatch.from_records(records, INT64)
        out = batch.to_records()
        assert out == records
        assert all(type(v) is int for v in out)

    def test_float_column(self):
        schema = Schema(("q", "d"))
        records = [(1, 0.5), (2, -3.25)]
        batch = ColumnarBatch.from_records(records, schema)
        assert batch.to_records() == records

    @pytest.mark.parametrize(
        "records",
        [
            [(1, 2), (3,)],  # wrong arity
            [(1, 2), [3, 4]],  # list is not a tuple
            [(1, True)],  # bool is not exactly int
            [(1, 2.0)],  # float in an int column
            [(1, 2**63)],  # outside int64
            [(1, 2), None],
        ],
    )
    def test_nonconforming_records_reject_the_whole_batch(self, records):
        assert ColumnarBatch.from_records(records, INT64_PAIR) is None

    def test_tuple_subclass_rejected(self):
        class Point(tuple):
            pass

        assert ColumnarBatch.from_records([Point((1, 2))], INT64_PAIR) is None

    def test_empty_batch(self):
        batch = ColumnarBatch.from_records([], INT64_PAIR)
        assert len(batch) == 0 and batch.to_records() == []

    def test_pickle_round_trip_preserves_schema(self):
        batch = ColumnarBatch.from_records([(1, 2), (3, 4)], INT64_PAIR)
        clone = pickle.loads(pickle.dumps(batch))
        assert clone == batch
        assert clone.schema == INT64_PAIR
        assert clone.to_records() == [(1, 2), (3, 4)]
