"""High-level programming libraries on timely dataflow (paper section 4).

- :mod:`repro.lib.stream` — LINQ-style fluent API and loop construction.
- :mod:`repro.lib.operators` — the operator vertices themselves.
- :mod:`repro.lib.bloom` — asynchronous (coordination-free) Datalog-style
  operators and monotonic aggregation.
- :mod:`repro.lib.pregel` — the Pregel bulk-synchronous vertex-program
  abstraction with receiver-side combiners (messages are folded per
  target on receipt, never before they are sent), aggregators and graph
  mutation.
- :mod:`repro.lib.allreduce` — data-parallel and binary-tree AllReduce
  collectives for iterative machine learning.
- :mod:`repro.lib.incremental` — incremental (differential-style)
  collections of difference records.
"""

from .allreduce import allreduce, tree_allreduce
from .bloom import async_distinct, async_join, monotonic_aggregate, transitive_closure
from .incremental import Collection, consolidate_diffs
from .pregel import NodeContext, final_states, pregel
from .stream import (
    FeedbackEdge,
    LoopScope,
    Probe,
    Stream,
    hash_partitioner,
)

__all__ = [
    "Collection",
    "FeedbackEdge",
    "LoopScope",
    "NodeContext",
    "Probe",
    "Stream",
    "allreduce",
    "async_distinct",
    "async_join",
    "consolidate_diffs",
    "final_states",
    "hash_partitioner",
    "monotonic_aggregate",
    "pregel",
    "transitive_closure",
    "tree_allreduce",
]
