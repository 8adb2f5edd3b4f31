"""Semantics tests for repro.lib operators against naive-Python oracles."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import Computation
from repro.core.timestamp import Timestamp
from repro.lib import Stream
from repro.lib.operators import (
    AggregateByVertex,
    CountByVertex,
    UnaryBufferingVertex,
)


def run_unary(build, epochs):
    """Build `stream -> stream` pipeline, feed epochs, return per-epoch output."""
    comp = Computation()
    inp = comp.new_input()
    out = {}
    build(Stream.from_input(inp)).subscribe(
        lambda t, records: out.setdefault(t.epoch, []).extend(records)
    )
    comp.build()
    for epoch in epochs:
        inp.on_next(list(epoch))
    inp.on_completed()
    comp.run()
    assert comp.drained()
    return out


small_records = st.lists(st.integers(min_value=-10, max_value=10), max_size=20)
epoch_lists = st.lists(small_records, min_size=1, max_size=4)


class TestStatelessOperators:
    @given(epoch_lists)
    @settings(max_examples=30, deadline=None)
    def test_select(self, epochs):
        out = run_unary(lambda s: s.select(lambda x: x * 2), epochs)
        for e, records in enumerate(epochs):
            assert sorted(out.get(e, [])) == sorted(x * 2 for x in records)

    @given(epoch_lists)
    @settings(max_examples=30, deadline=None)
    def test_where(self, epochs):
        out = run_unary(lambda s: s.where(lambda x: x % 2 == 0), epochs)
        for e, records in enumerate(epochs):
            assert sorted(out.get(e, [])) == sorted(x for x in records if x % 2 == 0)

    @given(epoch_lists)
    @settings(max_examples=30, deadline=None)
    def test_select_many(self, epochs):
        out = run_unary(lambda s: s.select_many(lambda x: [x, x]), epochs)
        for e, records in enumerate(epochs):
            assert sorted(out.get(e, [])) == sorted(
                y for x in records for y in (x, x)
            )

    def test_inspect_passthrough(self):
        probes = []
        out = run_unary(
            lambda s: s.inspect(lambda t, r: probes.append((t.epoch, list(r)))),
            [[1, 2], [3]],
        )
        assert sorted(out[0]) == [1, 2]
        assert sorted(out[1]) == [3]
        assert probes


class TestCoordinatedOperators:
    @given(epoch_lists)
    @settings(max_examples=30, deadline=None)
    def test_distinct(self, epochs):
        out = run_unary(lambda s: s.distinct(), epochs)
        for e, records in enumerate(epochs):
            assert sorted(out.get(e, [])) == sorted(set(records))

    @given(epoch_lists)
    @settings(max_examples=30, deadline=None)
    def test_count_by(self, epochs):
        out = run_unary(lambda s: s.count_by(lambda x: x % 3), epochs)
        for e, records in enumerate(epochs):
            expected = Counter(x % 3 for x in records)
            assert dict(out.get(e, [])) == dict(expected)

    @given(epoch_lists)
    @settings(max_examples=30, deadline=None)
    def test_group_by(self, epochs):
        out = run_unary(
            lambda s: s.group_by(lambda x: x % 2, lambda k, vs: [(k, sorted(vs))]),
            epochs,
        )
        for e, records in enumerate(epochs):
            expected = {}
            for x in records:
                expected.setdefault(x % 2, []).append(x)
            assert dict(out.get(e, [])) == {k: sorted(v) for k, v in expected.items()}

    @given(epoch_lists)
    @settings(max_examples=30, deadline=None)
    def test_aggregate_by_sum(self, epochs):
        out = run_unary(
            lambda s: s.aggregate_by(
                lambda x: x % 2, lambda x: x, lambda a, b: a + b
            ),
            epochs,
        )
        for e, records in enumerate(epochs):
            expected = {}
            for x in records:
                expected[x % 2] = expected.get(x % 2, 0) + x
            assert dict(out.get(e, [])) == expected

    @given(epoch_lists)
    @settings(max_examples=20, deadline=None)
    def test_count(self, epochs):
        out = run_unary(lambda s: s.count(), epochs)
        for e, records in enumerate(epochs):
            if records:
                assert out[e] == [len(records)]
            else:
                assert e not in out

    def test_buffered_generic(self):
        out = run_unary(lambda s: s.buffered(lambda rs: [sum(rs)]), [[1, 2, 3]])
        assert out[0] == [6]

    def test_epochs_are_independent(self):
        # distinct() is per-timestamp: a record reappearing in a later
        # epoch is emitted again.
        out = run_unary(lambda s: s.distinct(), [[7], [7]])
        assert out[0] == [7]
        assert out[1] == [7]


class TestBinaryOperators:
    def run_binary(self, build, left_epochs, right_epochs):
        comp = Computation()
        left = comp.new_input()
        right = comp.new_input()
        out = {}
        build(Stream.from_input(left), Stream.from_input(right)).subscribe(
            lambda t, records: out.setdefault(t.epoch, []).extend(records)
        )
        comp.build()
        for lhs, rhs in zip(left_epochs, right_epochs):
            left.on_next(list(lhs))
            right.on_next(list(rhs))
        left.on_completed()
        right.on_completed()
        comp.run()
        assert comp.drained()
        return out

    @given(epoch_lists, epoch_lists)
    @settings(max_examples=30, deadline=None)
    def test_concat(self, lefts, rights):
        n = min(len(lefts), len(rights))
        lefts, rights = lefts[:n], rights[:n]
        out = self.run_binary(lambda a, b: a.concat(b), lefts, rights)
        for e in range(n):
            assert sorted(out.get(e, [])) == sorted(lefts[e] + rights[e])

    @given(epoch_lists, epoch_lists)
    @settings(max_examples=30, deadline=None)
    def test_join(self, lefts, rights):
        n = min(len(lefts), len(rights))
        lefts, rights = lefts[:n], rights[:n]
        out = self.run_binary(
            lambda a, b: a.join(
                b, lambda x: x % 3, lambda y: y % 3, lambda x, y: (x, y)
            ),
            lefts,
            rights,
        )
        for e in range(n):
            expected = sorted(
                (x, y) for x in lefts[e] for y in rights[e] if x % 3 == y % 3
            )
            assert sorted(out.get(e, [])) == expected

    def test_join_does_not_cross_epochs(self):
        out = self.run_binary(
            lambda a, b: a.join(b, lambda x: x, lambda y: y, lambda x, y: (x, y)),
            [[1], [2]],
            [[2], [1]],
        )
        assert out == {}

    def test_binary_buffered(self):
        out = self.run_binary(
            lambda a, b: a.binary_buffered(
                b, lambda left, right: [(sum(left), sum(right))],
                partitioner=lambda r: 0,
            ),
            [[1, 2], [4]],
            [[10], [20, 30]],
        )
        assert out == {0: [(3, 10)], 1: [(4, 50)]}

    def test_binary_buffered_context_mismatch_rejected(self):
        comp = Computation()
        a = Stream.from_input(comp.new_input())
        b = Stream.from_input(comp.new_input())
        with a.scoped_loop() as loop:
            loop.feed(loop.entered)
            with pytest.raises(ValueError):
                loop.entered.binary_buffered(b, lambda lhs, rhs: [])

    def test_concat_context_mismatch_rejected(self):
        comp = Computation()
        a = Stream.from_input(comp.new_input())
        b = Stream.from_input(comp.new_input())
        with a.scoped_loop() as loop:
            loop.feed(loop.entered)
            with pytest.raises(ValueError):
                loop.entered.concat(b)


class TestIterate:
    def test_fixed_point_collatz_style(self):
        # Halve even numbers until odd; emits the trajectory, converges.
        out = run_unary(
            lambda s: s.iterate(
                lambda body: body.select(lambda x: x // 2).where(lambda x: x % 2 == 0)
            ),
            [[16]],
        )
        assert sorted(out[0]) == [2, 4, 8]  # 8,4,2 emitted; 1 is odd, filtered

    def test_max_iterations_bounds_loop(self):
        # x -> x forever; bounded by max_iterations.
        out = run_unary(
            lambda s: s.iterate(lambda body: body.select(lambda x: x + 1),
                                max_iterations=5),
            [[0]],
        )
        assert sorted(out[0]) == [1, 2, 3, 4, 5]

    def test_iterate_multiple_epochs(self):
        out = run_unary(
            lambda s: s.iterate(
                lambda body: body.select(lambda x: x - 1).where(lambda x: x > 0)
            ),
            [[2], [3]],
        )
        assert sorted(out[0]) == [1]
        assert sorted(out[1]) == [1, 2]

    def test_nested_iterate(self):
        # Outer loop decrements; inner loop burns each value to zero.
        def inner(body):
            return body.select(lambda x: x - 1).where(lambda x: x > 0)

        def outer(body):
            return body.iterate(inner).where(lambda x: x > 1)

        out = run_unary(lambda s: s.iterate(outer), [[3]])
        # Outer iteration 0: inner(3) -> {2, 1}, where(>1) keeps {2} (the
        # egress carries the body output, which is also fed back).
        # Outer iteration 1: inner(2) -> {1}, where(>1) -> {} (loop ends).
        assert sorted(out[0]) == [2]


class TestSubscribeOrdering:
    def test_epochs_notified_in_order(self):
        comp = Computation()
        inp = comp.new_input()
        seen = []
        Stream.from_input(inp).subscribe(lambda t, r: seen.append(t.epoch))
        comp.build()
        for e in range(5):
            inp.on_next([e])
        inp.on_completed()
        comp.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_collect_helper(self):
        comp = Computation()
        inp = comp.new_input()
        sink = Stream.from_input(inp).select(lambda x: x + 1).collect()
        comp.build()
        inp.on_next([1, 2])
        inp.on_completed()
        comp.run()
        assert [(t.epoch, sorted(r)) for t, r in sink] == [(0, [2, 3])]


class _NullHarness:
    """Absorbs send_by/notify_at so buffering vertices run standalone."""

    total_workers = 1

    def send(self, vertex, port, records, timestamp):
        pass

    def request_notification(self, vertex, timestamp, capability=True):
        pass


class TestBufferFlushLeavesNoSnapshotResidue:
    """Per-timestamp buffers must disappear from the vertex — and hence
    from any later checkpoint — once ``on_notify`` flushed them.  A
    flushed buffer lingering in a snapshot would be resurrected by a
    rollback and double-emitted on replay."""

    @pytest.mark.parametrize(
        "make,records,attr",
        [
            (
                lambda: UnaryBufferingVertex(lambda rs: sorted(rs)),
                [3, 1, 2],
                "buffers",
            ),
            (lambda: CountByVertex(lambda r: r), [5, 5, 9], "counts"),
            (
                lambda: AggregateByVertex(lambda r: r % 2, lambda r: r, max),
                [4, 7, 8],
                "state",
            ),
        ],
    )
    def test_flush_then_checkpoint_is_empty(self, make, records, attr):
        vertex = make()
        vertex._harness = _NullHarness()
        ts = Timestamp(0, ())
        vertex.on_recv(0, records, ts)
        # Mid-epoch: the buffered state is in the snapshot (it must be —
        # a rollback to this point needs it to replay correctly).
        assert vertex.checkpoint()[attr]
        vertex.on_notify(ts)
        # Flushed: the buffer is gone from the vertex...
        assert getattr(vertex, attr) == {}
        # ...and from every checkpoint taken after the flush.
        assert vertex.checkpoint()[attr] == {}
