"""A lossless columnar encoding of int/float record lists.

A :class:`ColumnarBatch` holds a record list as one ``array.array`` per
column instead of one Python tuple per record.  Encoding is exact or
refused: :meth:`ColumnarBatch.from_records` accepts only records that
conform to the schema field for field, and :meth:`ColumnarBatch.to_records`
gives back the identical list.

No runtime path uses this module.  Channel payloads are record lists and
nothing else: an opt-in columnar data plane once moved these batches
through exchanges, coalesced deliveries and pool replies, and was slower
than plain lists on every workload it was built for (DESIGN.md, "Negative
result: the columnar data plane").  The encoding survives only because
the benchmark spine's frozen ``columnar.ns_per_record`` floor imports it;
dropping that floor and this module together is a later benchmark
change's call.
"""

from __future__ import annotations

from array import array
from typing import Any, List, Optional, Sequence, Tuple

#: typecode -> the exact Python type a conforming record field must be.
#: ``bool`` is an ``int`` subclass but round-trips to ``int`` through an
#: array, so conformance requires the exact type.
_FIELD_TYPES = {"q": int, "d": float}


class Schema:
    """The column layout of a batch: one typecode per column.

    ``scalar`` declares that records are bare values (``3``) rather than
    1-tuples (``(3,)``); it is only valid for single-column schemas.
    Supported typecodes: ``"q"`` (int64, Python ``int``) and ``"d"``
    (float64, Python ``float``).
    """

    __slots__ = ("typecodes", "scalar")

    def __init__(self, typecodes: Sequence[str], scalar: bool = False):
        self.typecodes = tuple(typecodes)
        if not self.typecodes:
            raise ValueError("a schema needs at least one column")
        for typecode in self.typecodes:
            if typecode not in _FIELD_TYPES:
                raise ValueError(
                    "unsupported column typecode %r (supported: %s)"
                    % (typecode, sorted(_FIELD_TYPES))
                )
        if scalar and len(self.typecodes) != 1:
            raise ValueError("scalar schemas have exactly one column")
        self.scalar = bool(scalar)

    @property
    def width(self) -> int:
        return len(self.typecodes)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Schema)
            and self.typecodes == other.typecodes
            and self.scalar == other.scalar
        )

    def __hash__(self) -> int:
        return hash((Schema, self.typecodes, self.scalar))

    def __repr__(self) -> str:
        return "Schema(%r%s)" % (
            "".join(self.typecodes),
            ", scalar" if self.scalar else "",
        )

    def __reduce__(self):
        return (Schema, (self.typecodes, self.scalar))


#: Bare int64 records.
INT64 = Schema(("q",), scalar=True)
#: ``(int64, int64)`` tuple records (edges, arcs, key/value pairs).
INT64_PAIR = Schema(("q", "q"))


class ColumnarBatch:
    """An immutable-by-convention batch of ``len(self)`` records."""

    __slots__ = ("schema", "columns")

    def __init__(self, schema: Schema, columns: Sequence[array]):
        self.schema = schema
        self.columns = tuple(columns)
        if len(self.columns) != schema.width:
            raise ValueError(
                "schema %r expects %d columns, got %d"
                % (schema, schema.width, len(self.columns))
            )

    @classmethod
    def from_records(
        cls, records: List[Any], schema: Schema
    ) -> Optional["ColumnarBatch"]:
        """Encode ``records`` columnar, or None when they don't conform.

        Conformance is exact — plain tuples of the right arity whose
        fields have the exact Python type of their column (bare values
        for scalar schemas) — so ``to_records`` of the result compares
        equal, field for field, with the input.  Any non-conforming
        record rejects the whole batch.
        """
        typecodes = schema.typecodes
        try:
            if schema.scalar:
                field_type = _FIELD_TYPES[typecodes[0]]
                for record in records:
                    if type(record) is not field_type:
                        return None
                columns: Tuple[array, ...] = (array(typecodes[0], records),)
            else:
                width = schema.width
                field_types = tuple(_FIELD_TYPES[tc] for tc in typecodes)
                for record in records:
                    if type(record) is not tuple or len(record) != width:
                        return None
                    for value, field_type in zip(record, field_types):
                        if type(value) is not field_type:
                            return None
                if records:
                    columns = tuple(
                        array(tc, values)
                        for tc, values in zip(typecodes, zip(*records))
                    )
                else:
                    columns = tuple(array(tc) for tc in typecodes)
        except (TypeError, ValueError, OverflowError):
            # int outside int64, or a non-sequence sneaking past checks.
            return None
        return cls(schema, columns)

    def to_records(self) -> List[Any]:
        """The exact record list this batch encodes."""
        if self.schema.scalar:
            return self.columns[0].tolist()
        return list(zip(*self.columns))

    def __len__(self) -> int:
        return len(self.columns[0])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ColumnarBatch)
            and self.schema == other.schema
            and self.columns == other.columns
        )

    def __repr__(self) -> str:
        return "ColumnarBatch(%r, %d records)" % (self.schema, len(self))

    def __reduce__(self):
        # Schema plus raw column bytes: one blob per column, no
        # per-record encoding.
        return (
            _rebuild_batch,
            (
                self.schema.typecodes,
                self.schema.scalar,
                tuple(column.tobytes() for column in self.columns),
            ),
        )


def _rebuild_batch(
    typecodes: Tuple[str, ...], scalar: bool, blobs: Tuple[bytes, ...]
) -> ColumnarBatch:
    columns = []
    for typecode, blob in zip(typecodes, blobs):
        column = array(typecode)
        column.frombytes(blob)
        columns.append(column)
    return ColumnarBatch(Schema(typecodes, scalar), columns)


__all__ = ["ColumnarBatch", "Schema", "INT64", "INT64_PAIR"]
