"""Tests for the `repro.obs` observability layer.

Covers the trace-event schema round-trip (emit -> JSONL -> reload ->
identical analysis results) and the zero-overhead-when-off guarantee:
with no sink attached the hot paths must not construct a single
:class:`TraceEvent` and must execute the identical schedule.
"""

import pytest

import repro.obs.trace as trace_mod
from repro.core import Computation, Vertex
from repro.lib import Stream
from repro.obs import (
    TraceEvent,
    TraceSink,
    critical_path,
    event_counts,
    frontier_trace,
    stage_timelines,
    worker_timelines,
)
from repro.runtime import ClusterComputation


def run_traced_wcc_like(sink=None):
    """A small iterative job on the cluster runtime; returns the comp."""
    comp = ClusterComputation(
        num_processes=2, workers_per_process=2, progress_mode="local+global"
    )
    if sink is not None:
        comp.attach_trace_sink(sink)
    inp = comp.new_input()
    out = []
    (
        Stream.from_input(inp)
        .select_many(str.split)
        .count_by(lambda w: w)
        .subscribe(lambda t, recs: out.extend(recs))
    )
    comp.build()
    inp.on_next(["a b a c", "b b a"])
    inp.on_next(["c a"])
    inp.on_completed()
    comp.run()
    assert comp.drained()
    return comp, out


class TestTraceRoundTrip:
    def test_jsonl_round_trip_is_exact(self, tmp_path):
        sink = TraceSink()
        run_traced_wcc_like(sink)
        assert len(sink) > 0
        path = str(tmp_path / "trace.jsonl")
        written = sink.dump_jsonl(path)
        assert written == len(sink)
        reloaded = TraceSink.load_jsonl(path)
        # Bit-identical events: floats serialize via repr and reload
        # exactly, tuples keep their types.
        assert list(reloaded) == list(sink)

    def test_reloaded_trace_gives_identical_analyses(self, tmp_path):
        sink = TraceSink()
        run_traced_wcc_like(sink)
        path = str(tmp_path / "trace.jsonl")
        sink.dump_jsonl(path)
        reloaded = TraceSink.load_jsonl(path)
        original, again = list(sink), list(reloaded)
        assert critical_path(again).lines() == critical_path(original).lines()
        assert event_counts(again) == event_counts(original)
        assert frontier_trace(again) == frontier_trace(original)
        assert stage_timelines(again).keys() == stage_timelines(original).keys()
        assert worker_timelines(again).keys() == worker_timelines(original).keys()

    def test_trace_covers_the_expected_kinds(self):
        sink = TraceSink()
        run_traced_wcc_like(sink)
        counts = event_counts(list(sink))
        for kind in ("input", "activation", "deliver", "message", "frontier"):
            assert counts.get(kind, 0) > 0, counts
        # Every event maps into the SnailTrail activity vocabulary.
        assert all(e.activity != "unknown" for e in sink)

    def test_critical_path_spans_the_run(self):
        sink = TraceSink()
        comp, _ = run_traced_wcc_like(sink)
        summary = critical_path(list(sink))
        # The makespan covers the span window (first activation start to
        # last callback finish); trailing progress-only traffic can keep
        # the virtual clock running slightly past it.
        assert 0 < summary.makespan <= comp.now
        assert summary.segments > 0
        total = summary.processing + summary.communication + summary.waiting
        assert total == pytest.approx(summary.path_time)

    def test_reference_runtime_accepts_the_same_sink(self, tmp_path):
        comp = Computation()
        sink = TraceSink()
        comp.attach_trace_sink(sink)
        inp = comp.new_input()
        out = []
        (
            Stream.from_input(inp)
            .select_many(str.split)
            .count_by(lambda w: w)
            .subscribe(lambda t, recs: out.extend(recs))
        )
        comp.build()
        inp.on_next(["a b a"])
        inp.on_completed()
        comp.run()
        counts = event_counts(list(sink))
        for kind in ("input", "activation", "frontier"):
            assert counts.get(kind, 0) > 0, counts
        path = str(tmp_path / "ref.jsonl")
        sink.dump_jsonl(path)
        assert list(TraceSink.load_jsonl(path)) == list(sink)


class _FrontierRecorder(TraceSink):
    """Records the settled frontier beside every "frontier" event."""

    def __init__(self, comp):
        super().__init__()
        self.comp = comp
        self.frontiers = []

    def emit(self, event):
        super().emit(event)
        if event.kind == "frontier":
            self.frontiers.append(frozenset(self.comp.progress.frontier()))


class _Lines(Vertex):
    """Forwards each record as a message of its own, so one epoch puts
    several messages on one connector."""

    def on_recv(self, input_port, records, timestamp):
        for record in records:
            self.send_by(0, [record], timestamp)


class TestReferenceFrontierEvents:
    def test_word_count_emits_one_event_per_frontier_move(self):
        # The reference runtime settles before it compares frontier
        # versions, so an event marks a real membership change.
        comp = Computation()
        sink = _FrontierRecorder(comp)
        comp.attach_trace_sink(sink)
        inp = comp.new_input()
        lines = comp.graph.new_stage("lines", lambda s, w: _Lines(), 1, 1)
        Stream.from_input(inp).connect_to(lines)
        (
            Stream(comp, lines, 0)
            .select_many(str.split)
            .count_by(lambda w: w)
            .subscribe(lambda t, recs: None)
        )
        comp.build()
        epochs = 3
        for epoch in range(epochs):
            before = len(sink.frontiers)
            inp.on_next(["a b a", "c", "b"])
            comp.run()
            events = [e for e in sink if e.kind == "frontier"][before:]
            assert events, epoch
            # The epoch ends with the frontier on the input's next epoch.
            assert events[-1].detail == (1, 1, epoch + 1)
        frontiers = sink.frontiers
        assert all(a != b for a, b in zip(frontiers, frontiers[1:])), frontiers


class TestZeroOverheadWhenOff:
    def test_untraced_run_constructs_no_trace_events(self, monkeypatch):
        def forbidden(cls, *args, **kwargs):
            raise AssertionError(
                "TraceEvent constructed with tracing off: %r %r" % (args, kwargs)
            )

        monkeypatch.setattr(trace_mod.TraceEvent, "__new__", forbidden)
        comp, out = run_traced_wcc_like(sink=None)
        assert comp.drained()
        # Per-epoch counts: epoch 0 = "a b a c" + "b b a", epoch 1 = "c a".
        assert sorted(out) == [("a", 1), ("a", 3), ("b", 3), ("c", 1), ("c", 1)]

    def test_tracing_does_not_perturb_the_schedule(self):
        untraced, out_a = run_traced_wcc_like(sink=None)
        traced, out_b = run_traced_wcc_like(TraceSink())
        assert traced.now == untraced.now
        assert traced.sim.events_executed == untraced.sim.events_executed
        assert sorted(out_a) == sorted(out_b)

    def test_detach_stops_emission(self):
        comp = ClusterComputation(num_processes=2, workers_per_process=1)
        sink = TraceSink()
        comp.attach_trace_sink(sink)
        inp = comp.new_input()
        Stream.from_input(inp).count_by(lambda x: x).subscribe(lambda t, r: None)
        comp.build()
        inp.on_next([1, 2, 3])
        comp.run()
        recorded = len(sink)
        assert recorded > 0
        comp.attach_trace_sink(None)
        inp.on_completed()
        comp.run()
        assert comp.drained()
        assert len(sink) == recorded


class TestTraceEventSchema:
    def test_activity_distinguishes_progress_messages(self):
        data = TraceEvent("message", 0.0, 1e-4, 0.0, -1, 0, "", (), (0, 1, 64, "data"))
        progress = TraceEvent(
            "message", 0.0, 1e-4, 0.0, -1, 0, "", (), (0, 1, 64, "progress")
        )
        assert data.activity == "data message"
        assert progress.activity == "control message"

    def test_finish_is_start_plus_duration(self):
        event = TraceEvent("activation", 2.0, 0.5, 0.0, 0, 0, "s", (1,), ())
        assert event.finish == 2.5
