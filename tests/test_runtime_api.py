"""Conformance tests for the unified :class:`repro.core.TimelyRuntime` API.

Every test here is parametrized over both runtimes — the single-threaded
reference scheduler and the simulated distributed cluster — and exercises
only the shared control surface: ``run``/``step``/``drained``/``frontier``,
``checkpoint``/``restore``, ``attach_trace_sink`` and ``debug_state``.
"""

import pytest

from repro.core import Computation, RuntimeDebugState, TimelyRuntime
from repro.lib import Collection, Stream
from repro.lib.incremental import IncrementalDistinctVertex
from repro.obs import TraceSink
from repro.runtime import ClusterComputation

RUNTIMES = [
    pytest.param(lambda: Computation(), id="reference"),
    pytest.param(
        lambda: ClusterComputation(num_processes=2, workers_per_process=2),
        id="cluster",
    ),
]


def build_wordcount(comp):
    inp = comp.new_input()
    out = []
    (
        Stream.from_input(inp)
        .select_many(str.split)
        .count_by(lambda w: w)
        .subscribe(lambda t, recs: out.extend(recs))
    )
    comp.build()
    return inp, out


@pytest.mark.parametrize("make", RUNTIMES)
class TestTimelyRuntimeConformance:
    def test_is_a_timely_runtime(self, make):
        assert isinstance(make(), TimelyRuntime)

    def test_run_drains_and_produces_output(self, make):
        comp = make()
        inp, out = build_wordcount(comp)
        inp.on_next(["a b a", "b c"])
        inp.on_completed()
        comp.run()
        assert comp.drained()
        assert sorted(out) == [("a", 2), ("b", 2), ("c", 1)]

    def test_run_accepts_both_unified_keywords(self, make):
        comp = make()
        inp, _ = build_wordcount(comp)
        inp.on_next(["a b"])
        # max_steps bounds delivered events on both runtimes; until is a
        # virtual-time bound (a documented no-op without a virtual clock).
        comp.run(max_steps=1)
        assert not comp.drained()
        inp.on_completed()
        comp.run(until=None)
        comp.run()
        assert comp.drained()

    def test_step_makes_progress_and_reports_exhaustion(self, make):
        comp = make()
        inp, _ = build_wordcount(comp)
        inp.on_next(["a"])
        inp.on_completed()
        stepped = 0
        while comp.step():
            stepped += 1
            assert stepped < 100_000
        assert stepped > 0
        assert comp.drained()

    def test_frontier_active_then_empty(self, make):
        comp = make()
        inp, _ = build_wordcount(comp)
        inp.on_next(["a b"])
        assert comp.frontier(), "open input must keep the frontier nonempty"
        inp.on_completed()
        comp.run()
        assert comp.frontier() == []

    def test_checkpoint_restore_round_trip(self, make):
        comp = make()
        inp, out = build_wordcount(comp)
        inp.on_next(["a b a"])
        inp.on_completed()
        comp.run()
        assert comp.drained()
        snapshot = comp.checkpoint()
        for key in ("vertices", "occurrence", "pending", "epochs"):
            assert key in snapshot
        before = sorted(out)
        comp.restore(snapshot)
        comp.run()
        assert comp.drained()
        assert sorted(out) == before  # nothing replays, nothing duplicates

    def test_restoring_one_snapshot_twice(self, make):
        comp = make()
        inp = comp.new_input()
        out = []
        Collection.from_records(Stream.from_input(inp)).distinct().subscribe(
            lambda t, diffs: out.extend(diffs)
        )
        comp.build()
        inp.on_next(["a", "b", "a"])
        comp.run()
        snapshot = comp.checkpoint()
        comp.restore(snapshot)
        distinct = [
            part
            for vertex in comp.vertices.values()
            for part in getattr(vertex, "parts", [vertex])
            if isinstance(part, IncrementalDistinctVertex)
        ]
        assert distinct
        for vertex in distinct:
            vertex.counts["poison"] = 1
        # The second restore must not see the first restore's mutation.
        comp.restore(snapshot)
        assert not any("poison" in vertex.counts for vertex in distinct)
        inp.on_next(["c", "poison"])
        inp.on_completed()
        comp.run()
        assert comp.drained()
        assert sorted(out) == [("a", 1), ("b", 1), ("c", 1), ("poison", 1)]

    def test_attach_trace_sink_records_activity(self, make):
        comp = make()
        sink = TraceSink()
        comp.attach_trace_sink(sink)
        inp, _ = build_wordcount(comp)
        inp.on_next(["a b a", "c"])
        inp.on_completed()
        comp.run()
        assert comp.drained()
        kinds = {event.kind for event in sink}
        assert "input" in kinds
        assert "activation" in kinds or "notification" in kinds
        assert "frontier" in kinds
        # Detaching stops emission.
        comp.attach_trace_sink(None)
        recorded = len(sink)
        comp.run()
        assert len(sink) == recorded

    def test_debug_state_is_structured_and_str_compatible(self, make):
        comp = make()
        inp, _ = build_wordcount(comp)
        inp.on_next(["a b"])
        state = comp.debug_state()
        assert isinstance(state, RuntimeDebugState)
        assert state.runtime == type(comp).__name__
        assert state.frontier, "open input must appear in the frontier"
        assert str(state) == state.text
        # The historical string behaviours still work on the dataclass.
        assert state.text.split()  # renders to something non-empty
        inp.on_completed()
        comp.run()
        done = comp.debug_state()
        assert done.queued_messages == 0
        assert done.pending_notifications == 0
        assert done.frontier == ()

    def test_deliveries_counted(self, make):
        comp = make()
        inp, _ = build_wordcount(comp)
        inp.on_next(["a b c"])
        inp.on_completed()
        comp.run()
        state = comp.debug_state()
        assert state.delivered_messages > 0
        assert state.delivered_notifications > 0
