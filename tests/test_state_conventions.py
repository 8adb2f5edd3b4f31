"""Audit: every library vertex obeys the picklable-state conventions.

The durable journal (section 3.4) and the multiprocessing execution
backend both pickle ``Vertex.checkpoint()`` snapshots, so every vertex
class must keep constructor-supplied callables out of its snapshot by
listing them in ``_CONFIG_ATTRS`` (see :mod:`repro.core.vertex`).

The test constructs each vertex with *locally defined lambdas* for all
function-valued configuration.  Local lambdas do not pickle, so a class
that forgets to exclude one fails ``pickle.dumps`` here — the audit
needs no per-class knowledge of what the config attributes are called.
Construction is registry-driven and the registry is checked for
completeness against the class tree, so a new vertex class cannot
silently dodge the audit.
"""

import pickle

import pytest

import repro.algorithms  # noqa: F401  (populate the subclass tree)
import repro.lib  # noqa: F401
from repro.algorithms.connectivity import MinLabelVertex
from repro.algorithms.hashtag_components import QueryVertex, _ImmediateSink
from repro.algorithms.logistic import TrainVertex
from repro.algorithms.pagerank import PageRankVertex, _EdgeBlockVertex, _SfcRankVertex
from repro.algorithms.shortest_paths import MultiSourceBfsVertex
from repro.core.vertex import ForwardingVertex, Vertex
from repro.lib.allreduce import (
    _GatherVertex,
    _ReduceChunkVertex,
    _ScatterVertex,
    _TreeBroadcastVertex,
    _TreeDeliverVertex,
    _TreeLevelVertex,
)
from repro.lib.bloom import AsyncDistinctVertex, AsyncJoinVertex, MonotonicAggregateVertex
from repro.lib.incremental import (
    IncrementalCountVertex,
    IncrementalDistinctVertex,
    IncrementalJoinVertex,
    IncrementalReduceVertex,
    UnionFindVertex,
    WindowedConnectedComponentsVertex,
    _EpochDiffVertex,
)
from repro.lib.operators import (
    AggregateByVertex,
    BinaryBufferingVertex,
    ConcatVertex,
    CountByVertex,
    DistinctVertex,
    GroupByVertex,
    InspectVertex,
    JoinVertex,
    ProbeVertex,
    SelectManyVertex,
    SelectVertex,
    SubscribeVertex,
    UnaryBufferingVertex,
    WhereVertex,
)
from repro.lib.pregel import PregelVertex, _AggregatorVertex
from repro.opt.fused import FusedVertex
from repro.serve.arrangement import ArrangeVertex
from repro.serve.session import ServeVertex


def _make_fused():
    return FusedVertex(
        [SelectVertex(lambda x: x), WhereVertex(lambda x: True)],
        ("select", "where"),
    )


#: class -> zero-argument constructor using local (unpicklable) lambdas
#: for every function-valued configuration parameter.
CONSTRUCTORS = {
    SelectVertex: lambda: SelectVertex(lambda x: x),
    WhereVertex: lambda: WhereVertex(lambda x: True),
    SelectManyVertex: lambda: SelectManyVertex(lambda x: [x]),
    ConcatVertex: ConcatVertex,
    DistinctVertex: DistinctVertex,
    UnaryBufferingVertex: lambda: UnaryBufferingVertex(lambda rs: rs),
    BinaryBufferingVertex: lambda: BinaryBufferingVertex(lambda ls, rs: ls),
    GroupByVertex: lambda: GroupByVertex(lambda r: r, lambda k, vs: vs),
    CountByVertex: lambda: CountByVertex(lambda r: r),
    AggregateByVertex: lambda: AggregateByVertex(
        lambda r: r, lambda r: r, lambda a, b: a
    ),
    JoinVertex: lambda: JoinVertex(lambda l: l, lambda r: r, lambda l, r: (l, r)),
    SubscribeVertex: lambda: SubscribeVertex(lambda t, rs: None),
    ProbeVertex: ProbeVertex,
    InspectVertex: lambda: InspectVertex(lambda t, rs: None),
    IncrementalDistinctVertex: IncrementalDistinctVertex,
    IncrementalCountVertex: lambda: IncrementalCountVertex(lambda r: r),
    IncrementalReduceVertex: lambda: IncrementalReduceVertex(
        lambda r: r, lambda k, vs: vs
    ),
    IncrementalJoinVertex: lambda: IncrementalJoinVertex(
        lambda l: l, lambda r: r, lambda l, r: (l, r)
    ),
    UnionFindVertex: UnionFindVertex,
    WindowedConnectedComponentsVertex: WindowedConnectedComponentsVertex,
    AsyncDistinctVertex: AsyncDistinctVertex,
    AsyncJoinVertex: lambda: AsyncJoinVertex(
        lambda l: l, lambda r: r, lambda l, r: (l, r)
    ),
    MonotonicAggregateVertex: lambda: MonotonicAggregateVertex(
        lambda r: r, lambda r: r, lambda new, cur: new < cur
    ),
    _ScatterVertex: _ScatterVertex,
    _ReduceChunkVertex: lambda: _ReduceChunkVertex(lambda a, b: a),
    _GatherVertex: _GatherVertex,
    _TreeLevelVertex: lambda: _TreeLevelVertex(0, lambda a, b: a),
    _TreeBroadcastVertex: _TreeBroadcastVertex,
    _TreeDeliverVertex: _TreeDeliverVertex,
    PregelVertex: lambda: PregelVertex(
        lambda ctx: None, 3, lambda a, b: a, lambda a, b: a
    ),
    _AggregatorVertex: lambda: _AggregatorVertex(lambda a, b: a),
    ForwardingVertex: ForwardingVertex,
    MinLabelVertex: MinLabelVertex,
    QueryVertex: QueryVertex,
    _ImmediateSink: lambda: _ImmediateSink(lambda t, rs: None),
    TrainVertex: lambda: TrainVertex(2, 0.1, 3),
    PageRankVertex: lambda: PageRankVertex(2),
    _EdgeBlockVertex: _EdgeBlockVertex,
    _SfcRankVertex: lambda: _SfcRankVertex(2),
    MultiSourceBfsVertex: MultiSourceBfsVertex,
    FusedVertex: _make_fused,
    # The serving layer: the arrangement key and the reader list
    # (vertex references) are config; the arrangement itself is state
    # and rides checkpoints.  The serve vertex's only config is its
    # driver-side manager.
    ArrangeVertex: lambda: ArrangeVertex("arr", lambda r: r),
    ServeVertex: lambda: ServeVertex(None),
}

#: Abstract bases never instantiated by the library builders.
ABSTRACT = {Vertex, _EpochDiffVertex}


def _all_vertex_classes():
    found = set()
    frontier = [Vertex]
    while frontier:
        cls = frontier.pop()
        for sub in cls.__subclasses__():
            if sub not in found:
                found.add(sub)
                frontier.append(sub)
    # Only audit library code; test files define throwaway vertices.
    return {cls for cls in found if cls.__module__.startswith("repro.")}


def test_registry_covers_every_library_vertex():
    missing = _all_vertex_classes() - set(CONSTRUCTORS) - ABSTRACT
    assert not missing, (
        "vertex classes missing from the state-convention audit: %s"
        % sorted(cls.__name__ for cls in missing)
    )


@pytest.mark.parametrize(
    "cls", sorted(CONSTRUCTORS, key=lambda c: c.__name__), ids=lambda c: c.__name__
)
def test_checkpoint_is_picklable_and_round_trips(cls):
    vertex = CONSTRUCTORS[cls]()
    state = vertex.checkpoint()
    # The snapshot must survive the pickle boundary even though every
    # config function above is an unpicklable local lambda.
    pickle.loads(pickle.dumps(state))
    # And restore() must accept its own checkpoint.
    vertex.restore(state)
    again = vertex.checkpoint()
    pickle.loads(pickle.dumps(again))


@pytest.mark.parametrize(
    "cls", sorted(CONSTRUCTORS, key=lambda c: c.__name__), ids=lambda c: c.__name__
)
def test_config_attrs_really_name_attributes(cls):
    vertex = CONSTRUCTORS[cls]()
    for name in vertex._CONFIG_ATTRS:
        assert hasattr(vertex, name), (
            "%s._CONFIG_ATTRS names %r which the instance lacks"
            % (cls.__name__, name)
        )


def test_on_recv_is_the_only_receive_path():
    # Channel payloads are record lists and nothing else, so no vertex
    # class carries a second, encoding-specific receive callback.
    for cls in _all_vertex_classes() | {Vertex}:
        assert not [name for name in vars(cls) if name.startswith("on_recv_")], cls


def test_driver_side_vertices_are_pinned_to_coordinator():
    # Vertices whose callbacks touch driver-side objects (callbacks,
    # probes, subscriptions) must not run in pool children.
    for cls in (SubscribeVertex, ProbeVertex, InspectVertex, _ImmediateSink):
        assert cls.coordinator_only, cls.__name__
