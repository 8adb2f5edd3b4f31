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

import importlib
import sys
import types

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

#: Exports loaded on first use, by module: ``allreduce`` imports numpy,
#: which nothing else on the spine needs.
_LAZY = {"allreduce": "allreduce", "tree_allreduce": "allreduce"}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


class _Package(types.ModuleType):
    """Keeps ``repro.lib.allreduce`` the function, as an eager ``from
    .allreduce import allreduce`` would: the import system binds a
    loaded submodule onto its package under the same name."""

    def __setattr__(self, name, value):
        if isinstance(value, types.ModuleType) and _LAZY.get(name) == name:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
