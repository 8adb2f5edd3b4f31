"""Unit tests for repro.core.progress: occurrence/precursor counting."""

from hypothesis import given, settings, strategies as st

from repro.core import (
    Antichain,
    Computation,
    PathSummary,
    Pointstamp,
    ProgressState,
    Timestamp,
    Vertex,
)
from repro.lib import Stream


def ts(epoch, *counters):
    return Timestamp(epoch, tuple(counters))


def chain_summaries():
    """A three-location pipeline a -> b -> c at depth 0."""
    ident = Antichain([PathSummary.identity(0)])
    table = {}
    for pair in [("a", "b"), ("b", "c"), ("a", "c"), ("a", "a"), ("b", "b"), ("c", "c")]:
        table[pair] = ident
    return table


class TestOccurrenceCounting:
    def test_activation_and_deactivation(self):
        state = ProgressState(chain_summaries())
        p = Pointstamp(ts(0), "a")
        state.update(p, +1)
        assert state.is_active(p)
        state.update(p, -1)
        assert not state.is_active(p)
        assert len(state) == 0

    def test_counts_accumulate(self):
        state = ProgressState(chain_summaries())
        p = Pointstamp(ts(0), "a")
        state.update(p, +2)
        state.update(p, -1)
        assert state.is_active(p)
        state.update(p, -1)
        assert not state.is_active(p)

    def test_zero_delta_ignored(self):
        state = ProgressState(chain_summaries())
        state.update(Pointstamp(ts(0), "a"), 0)
        assert len(state) == 0

    def test_negative_transient_blocks(self):
        # Distributed runs can apply a -1 before the matching +1 arrives;
        # the pointstamp must still be treated as active (blocking).
        state = ProgressState(chain_summaries())
        p = Pointstamp(ts(0), "a")
        state.update(p, -1)
        assert state.is_active(p)
        state.update(p, +1)
        assert not state.is_active(p)

    def test_update_many(self):
        state = ProgressState(chain_summaries())
        state.update_many([(Pointstamp(ts(0), "a"), 1), (Pointstamp(ts(1), "b"), 1)])
        assert len(state) == 2


class TestFrontier:
    def test_upstream_blocks_downstream(self):
        state = ProgressState(chain_summaries())
        pa = Pointstamp(ts(0), "a")
        pc = Pointstamp(ts(0), "c")
        state.update(pa, +1)
        state.update(pc, +1)
        assert state.in_frontier(pa)
        assert not state.in_frontier(pc)
        state.update(pa, -1)
        assert state.in_frontier(pc)

    def test_later_time_blocked_same_location(self):
        state = ProgressState(chain_summaries())
        p0 = Pointstamp(ts(0), "b")
        p1 = Pointstamp(ts(1), "b")
        state.update(p0, +1)
        state.update(p1, +1)
        assert state.in_frontier(p0)
        assert not state.in_frontier(p1)

    def test_earlier_time_not_blocked_by_later(self):
        state = ProgressState(chain_summaries())
        p0 = Pointstamp(ts(0), "c")
        p1 = Pointstamp(ts(1), "a")
        state.update(p0, +1)
        state.update(p1, +1)
        # (1, a) could-result-in nothing at epoch 0, so (0, c) is free.
        assert state.in_frontier(p0)
        assert state.in_frontier(p1)

    def test_unrelated_locations_independent(self):
        # No (c, a) entry: c cannot reach a.
        state = ProgressState(chain_summaries())
        pc = Pointstamp(ts(0), "c")
        pa = Pointstamp(ts(5), "a")
        state.update(pc, +1)
        state.update(pa, +1)
        assert state.in_frontier(pc)
        assert state.in_frontier(pa)

    def test_frontier_listing(self):
        state = ProgressState(chain_summaries())
        state.update(Pointstamp(ts(0), "a"), +1)
        state.update(Pointstamp(ts(0), "b"), +1)
        assert state.frontier() == [Pointstamp(ts(0), "a")]
        assert set(state.active_pointstamps()) == {
            Pointstamp(ts(0), "a"),
            Pointstamp(ts(0), "b"),
        }

    def test_inactive_pointstamp_not_in_frontier(self):
        state = ProgressState(chain_summaries())
        assert not state.in_frontier(Pointstamp(ts(0), "a"))


class TestLoopFrontier:
    def loop_summaries(self):
        """body -> body around a feedback cycle at depth 1."""
        return {
            ("body", "body"): Antichain([PathSummary.identity(1)]),
        }

    def test_iteration_order(self):
        state = ProgressState(self.loop_summaries())
        p0 = Pointstamp(ts(0, 0), "body")
        p1 = Pointstamp(ts(0, 1), "body")
        state.update(p0, +1)
        state.update(p1, +1)
        assert state.in_frontier(p0)
        assert not state.in_frontier(p1)
        state.update(p0, -1)
        assert state.in_frontier(p1)

    def test_incomparable_iterations_both_free(self):
        state = ProgressState(self.loop_summaries())
        # (epoch 0, iter 5) and (epoch 1, iter 0) are incomparable.
        pa = Pointstamp(ts(0, 5), "body")
        pb = Pointstamp(ts(1, 0), "body")
        state.update(pa, +1)
        state.update(pb, +1)
        assert state.in_frontier(pa)
        assert state.in_frontier(pb)

    def test_could_result_in(self):
        state = ProgressState(self.loop_summaries())
        assert state.could_result_in(
            Pointstamp(ts(0, 0), "body"), Pointstamp(ts(0, 3), "body")
        )
        assert not state.could_result_in(
            Pointstamp(ts(0, 3), "body"), Pointstamp(ts(0, 0), "body")
        )
        assert not state.could_result_in(
            Pointstamp(ts(0, 0), "body"), Pointstamp(ts(0, 0), "nowhere")
        )


def one_loop_graph():
    """Input -> one loop around a single stage, built and frozen: the
    scope-indexed summaries (with per-scope version vectors) and each
    location's timestamp depth."""
    comp = Computation()
    inp = comp.new_input()
    with comp.scope("loop") as loop:
        body = loop.stage("body", lambda s, w: Vertex(), 2, 1)
        loop.enter(Stream.from_input(inp)).connect_to(body, 0)
        loop.feed(Stream(comp, body, 0))
        loop.feedback.connect_to(body, 1)
    comp.build()
    graph = comp.graph
    locations = [(graph.stages[0], 0), (body, 1)]
    locations += [(c, c.depth) for c in graph.connectors]
    return graph.summaries, locations


GRAPHS = {
    "chain": lambda: (chain_summaries(), [("a", 0), ("b", 0), ("c", 0)]),
    "one_loop": one_loop_graph,
}

#: ``("update", location, epoch, counter, delta)``,
#: ``("pair", location, epoch, counter)`` — a +1 and its cancelling -1 —
#: or ``("read", kind)``.
OPS = st.one_of(
    st.tuples(
        st.just("update"),
        st.integers(0, 5),
        st.integers(0, 2),
        st.integers(0, 2),
        st.sampled_from([1, -1]),
    ),
    st.tuples(
        st.just("pair"), st.integers(0, 5), st.integers(0, 2), st.integers(0, 2)
    ),
    st.tuples(
        st.just("read"),
        st.sampled_from(["in_frontier", "frontier", "dominates"]),
    ),
)


def eager_copy(summaries, occurrence):
    """A fresh state fed ``occurrence``, settled after every update."""
    fresh = ProgressState(summaries)
    for pointstamp, count in occurrence.items():
        fresh.update(pointstamp, count)
        fresh.settle()
    return fresh


class TestLazySettling:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(graph=st.sampled_from(sorted(GRAPHS)), ops=st.lists(OPS, max_size=40))
    def test_reads_match_an_eagerly_fed_state(self, graph, ops):
        summaries, locations = GRAPHS[graph]()
        state = ProgressState(summaries)

        def stamp(index, epoch, counter):
            location, depth = locations[index % len(locations)]
            return Pointstamp(ts(epoch, *[counter] * depth), location)

        touched = {}  # a dict, so the probe below is deterministic
        for op in ops + [("read", "frontier")]:
            if op[0] == "update":
                p = stamp(*op[1:4])
                touched[p] = None
                state.update(p, op[4])
                continue
            if op[0] == "pair":
                p = stamp(*op[1:])
                touched[p] = None
                state.update(p, +1)
                state.update(p, -1)
                continue
            # The first read settles, through whichever entry point.
            probe = next(iter(touched), stamp(0, 0, 0))
            if op[1] == "in_frontier":
                state.in_frontier(probe)
            elif op[1] == "frontier":
                state.frontier()
            else:
                state.frontier_dominates(probe)
            fresh = eager_copy(summaries, state.occurrence)
            assert set(state.frontier()) == set(fresh.frontier())
            assert state.precursor == fresh.precursor
            for p in touched:
                assert state.in_frontier(p) == fresh.in_frontier(p), p
                assert state.frontier_dominates(p) == fresh.frontier_dominates(p), p

    def test_cancelling_pair_between_reads_touches_nothing(self):
        state = ProgressState(chain_summaries())
        pa = Pointstamp(ts(0), "a")
        pc = Pointstamp(ts(0), "c")
        state.update(pc, +1)
        assert state.frontier() == [pc]
        version = state.version
        state.update(pa, +1)
        state.update(pa, -1)
        assert state.frontier() == [pc]
        assert state.version == version
        assert state.precursor == {pc: 0}

    def test_updates_defer_until_a_read(self):
        state = ProgressState(chain_summaries())
        pa = Pointstamp(ts(0), "a")
        pc = Pointstamp(ts(0), "c")
        state.update(pa, +1)
        state.update(pc, +1)
        assert state.precursor == {}
        assert state.is_active(pa) and state.is_active(pc)
        assert not state.in_frontier(pc)
        assert state.precursor == {pa: 0, pc: 1}
