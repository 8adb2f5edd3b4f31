"""Record-list helpers of the data plane: counting and sizing.

Channel payloads are record lists.  The paper's throughput experiments
move tens of millions of records per computer; materialising each one
as a Python object would make the simulation intractable, so a
:class:`SyntheticRecords` entry stands for ``count`` records of
``bytes_per_record`` bytes each while remaining a single Python object.
The runtime's cost and size models treat it as that many records, so
exchange benchmarks exercise the full routing, progress-tracking and
network code paths at the paper's data scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List


@dataclass(frozen=True)
class SyntheticRecords:
    """A stand-in for ``count`` fixed-size records.

    ``dest`` is an opaque routing tag: exchange connectors in benchmarks
    use ``partitioner=lambda batch: batch.dest`` to address a specific
    downstream vertex, mirroring a pre-partitioned exchange.
    """

    count: int
    bytes_per_record: int = 8
    dest: int = 0

    @property
    def total_bytes(self) -> int:
        return self.count * self.bytes_per_record


def record_count(records: List[Any]) -> int:
    """Number of logical records in a batch."""
    total = 0
    for record in records:
        if isinstance(record, SyntheticRecords):
            total += record.count
        else:
            total += 1
    return total


def batch_bytes(records: List[Any], default_record_bytes: int) -> int:
    """Serialized size of a batch.

    Three record classes: :class:`SyntheticRecords` report their modeled
    payload; records exposing a ``wire_bytes`` attribute (e.g. AllReduce
    vector chunks) report their own serialized size; everything else
    counts as ``default_record_bytes``.
    """
    total = 0
    for record in records:
        if isinstance(record, SyntheticRecords):
            total += record.total_bytes
        else:
            wire = getattr(record, "wire_bytes", None)
            total += default_record_bytes if wire is None else wire
    return total
