"""Audit: every library vertex obeys the picklable-state conventions.

The durable journal (section 3.4) pickles ``Vertex.checkpoint()``
snapshots, so every vertex class must keep constructor-supplied
callables out of its snapshot by listing them in ``_CONFIG_ATTRS``
(see :mod:`repro.core.vertex`).

The test constructs each vertex with *locally defined lambdas* for all
function-valued configuration.  Local lambdas do not pickle, so a class
that forgets to exclude one fails ``pickle.dumps`` here — the audit
needs no per-class knowledge of what the config attributes are called.
Construction is registry-driven and the registry is checked for
completeness against the class tree, so a new vertex class cannot
silently dodge the audit.

The snapshots themselves are made by ``snapshot_copy``; the second half
of this file checks it against ``copy.deepcopy``.
"""

import copy
import operator
import pickle
from collections import Counter, OrderedDict, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.algorithms  # noqa: F401  (populate the subclass tree)
import repro.lib  # noqa: F401
from repro.algorithms.connectivity import MinLabelVertex
from repro.algorithms.hashtag_components import QueryVertex, _ImmediateSink
from repro.algorithms.logistic import TrainVertex
from repro.algorithms.pagerank import PageRankVertex, _EdgeBlockVertex, _SfcRankVertex
from repro.algorithms.shortest_paths import MultiSourceBfsVertex
from repro.core.timestamp import Timestamp
from repro.core.vertex import ForwardingVertex, Vertex, snapshot_copy
from repro.lib import Stream
from repro.lib.allreduce import (
    Chunk,
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
from repro.runtime import ClusterComputation
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



# ----------------------------------------------------------------------
# snapshot_copy: the copy every checkpoint and restore makes.
# ----------------------------------------------------------------------

_LEAF_TYPES = (int, float, str, bool, type(None), Timestamp)


class _Opaque:
    """A custom object, which snapshot_copy hands to deepcopy."""

    def __init__(self, payload):
        self.payload = payload

    def __eq__(self, other):
        return type(other) is _Opaque and self.payload == other.payload


_leaves = st.one_of(
    st.text(max_size=3),
    st.integers(),
    st.floats(allow_nan=False),
    st.none(),
    st.booleans(),
    st.builds(
        Timestamp,
        st.integers(0, 5),
        st.lists(st.integers(0, 3), max_size=2).map(tuple),
    ),
)
_hashables = st.recursive(
    _leaves,
    lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=3),
    max_leaves=4,
)
_states = st.recursive(
    _hashables,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(_hashables, inner, max_size=4),
        st.sets(_hashables, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(_hashables, st.integers(), max_size=3).map(Counter),
        st.dictionaries(_hashables, inner, max_size=3).map(
            lambda d: defaultdict(list, d)
        ),
        st.dictionaries(_hashables, inner, max_size=3).map(OrderedDict),
    ),
    max_leaves=20,
)


def _is_leaf(value):
    if type(value) in _LEAF_TYPES:
        return True
    return type(value) in (tuple, frozenset) and all(map(_is_leaf, value))


def _pairs(original, copied):
    """Each object of ``original`` with its counterpart in ``copied``,
    reached through exact dict/list/tuple containers."""
    yield original, copied
    if type(original) is dict:
        for (key, value), (key2, value2) in zip(original.items(), copied.items()):
            yield from _pairs(key, key2)
            yield from _pairs(value, value2)
    elif type(original) in (list, tuple):
        for item, item2 in zip(original, copied):
            yield from _pairs(item, item2)


def _mutable_parts(obj, found):
    """Every mutable object reachable from ``obj``, by id."""
    if isinstance(obj, (dict, list, set, _Opaque)):
        if id(obj) in found:
            return
        found[id(obj)] = obj
    if isinstance(obj, dict):
        for value in obj.values():
            _mutable_parts(value, found)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _mutable_parts(item, found)
    elif isinstance(obj, _Opaque):
        _mutable_parts(obj.payload, found)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_states)
def test_snapshot_copy_means_deepcopy(data):
    shared = [data]
    pair = (shared, data)
    clock = lambda: 0  # noqa: E731 — a lambda leaf must be tolerated
    root = {
        "data": data,
        "first": shared,
        "again": pair,
        "opaque": _Opaque(shared),
        "pairs": [pair, pair],
        "clock": clock,
    }
    oracle = copy.deepcopy(root)
    copied = snapshot_copy(root)

    # Same value, same types and the same dict iteration order as deepcopy.
    assert copied == oracle
    for expected, got in _pairs(oracle, copied):
        assert type(got) is type(expected)
        assert got == expected
        if type(expected) is dict:
            assert list(got) == list(expected)

    # Leaves are shared by identity; exact containers are fresh.
    for original, got in _pairs(root, copied):
        if _is_leaf(original):
            assert got is original
        elif type(original) in (dict, list, set):
            assert got is not original
    assert copied["clock"] is clock

    # One list referenced three times, twice through a container and
    # once through a deepcopy-handled object, is one list in the copy;
    # likewise a tuple holding it.
    assert copied["first"] is copied["again"][0] is copied["opaque"].payload
    assert copied["first"] is not shared
    assert copied["again"] is copied["pairs"][0] is copied["pairs"][1]

    # Mutating every container of the copy leaves the source unchanged.
    found = {}
    _mutable_parts(copied, found)
    for part in found.values():
        if isinstance(part, dict):
            part[("mutated",)] = 1
        elif isinstance(part, list):
            part.append("mutated")
        elif isinstance(part, set):
            part.add("mutated")
        else:
            part.payload = "mutated"
    assert root == oracle


def test_snapshot_copy_keeps_cycles():
    state = {"items": [1, 2]}
    state["self"] = state
    state["items"].append(state["items"])
    copied = snapshot_copy(state)
    assert copied["self"] is copied
    assert copied["items"][2] is copied["items"] is not state["items"]


class _NullHarness:
    """A stand-in harness that drops what a vertex sends or requests."""

    def send(self, vertex, output_port, records, timestamp):
        pass

    def request_notification(self, vertex, timestamp, capability=True):
        pass


def test_distinct_snapshot_shares_its_count_keys():
    # The snapshot rebuilds the dict but keeps the live key objects; a
    # pickle round-trip would duplicate every one of them.
    vertex = IncrementalDistinctVertex()
    vertex._harness = _NullHarness()
    diffs = [((user, "#t%d" % (user % 3)), 1) for user in range(50)]
    vertex.on_recv(0, diffs, Timestamp(0))
    vertex.on_notify(Timestamp(0))
    state = vertex.checkpoint()
    assert state["counts"] == vertex.counts
    assert state["counts"] is not vertex.counts
    assert all(map(operator.is_, state["counts"], vertex.counts))


def test_snapshot_of_vertices_holding_arrays():
    # AllReduce vertices hold numpy vectors mid-epoch; an array has no
    # single truth value, so the copy must never test one for emptiness.
    t = Timestamp(0)
    tree = _TreeLevelVertex(0, np.add)
    chunks = _ReduceChunkVertex(np.add)
    for vertex in (tree, chunks):
        vertex._harness = _NullHarness()
        vertex.on_recv(0, [Chunk(dest=0, index=0, data=np.ones(8))], t)
    state = {vertex: vertex.checkpoint() for vertex in (tree, chunks)}
    for vertex in (tree, chunks):
        vertex.on_recv(0, [Chunk(dest=0, index=0, data=np.ones(8))], t)
        vertex.restore(state[vertex])
    assert (tree.partial[t] == np.ones(8)).all()
    assert (chunks.partial[t][0] == np.ones(8)).all()
    assert tree.partial[t] is not state[tree]["partial"][t]


class _ClockedVertex(Vertex):
    """Keeps a callable in its state without declaring it configuration,
    as a benchmark vertex holding a clock does."""

    def __init__(self, clock):
        super().__init__()
        self.clock = clock
        self.seen = []

    def on_recv(self, input_port, records, timestamp):
        self.seen.append(self.clock())
        self.send_by(0, records, timestamp)


def test_cluster_build_snapshots_state_holding_a_lambda():
    comp = ClusterComputation(num_processes=2, workers_per_process=1)
    inp = comp.new_input()
    out = []
    Stream.from_input(inp)._unary(
        "clocked", lambda: _ClockedVertex(lambda: comp.now)
    ).subscribe(lambda t, records: out.extend(records))
    comp.build()  # snapshots every vertex as the initial rollback target
    initial = comp.recovery.initial["vertices"]
    for (stage, worker), vertex in comp.vertices.items():
        if isinstance(vertex, _ClockedVertex):
            assert initial[(stage.index, worker)]["clock"] is vertex.clock
    inp.on_next([1, 2, 3])
    inp.on_completed()
    comp.run()
    assert comp.drained()
    assert sorted(out) == [1, 2, 3]
