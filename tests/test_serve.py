"""The serving layer (`repro.serve`): shared arrangements, sessions,
SLO classes and admission control.

The acceptance invariants from the ISSUE, all pinned here:

- arrangement memory is O(state), not O(sessions x state);
- fresh answers are bit-identical to the per-session ``QueryVertex``
  oracle (and to the plain-Python ``app_oracle``), including across a
  mid-run kill;
- measured stale-class p99 response time is below the fresh-class p99;
- every stale answer's *measured* staleness is within its bound, and
  every answer carries the epoch of the state it read (the satellite
  bugfix extends ``QueryVertex`` stale mode the same way).
"""

import pytest

from repro.core import Computation
from repro.lib.stream import Stream
from repro.obs import ACTIVITY_TYPES, TraceSink, serve_latency_stats
from repro.runtime import ClusterComputation, FaultTolerance
from repro.runtime.rescale import Hysteresis
from repro.serve import (
    AdmissionPolicy,
    Arrangement,
    CompactedEpochError,
    SessionManager,
    SharedArrangement,
)
from repro.workloads.tweets import Tweet, TweetGenerator, TweetStreamConfig
from repro.algorithms import (
    app_oracle,
    component_top_resolver,
    hashtag_component_app,
    hashtag_component_arrangements,
)


# ----------------------------------------------------------------------
# SharedArrangement units.
# ----------------------------------------------------------------------


class TestSharedArrangement:
    def test_versioned_reads(self):
        arr = SharedArrangement("a", retain=8)
        arr.apply(0, {"k": {"x": 1}})
        arr.apply(1, {"k": {"y": 1}})
        arr.apply(2, {"k": {"x": -1}})
        assert sorted(arr.lookup("k", 0)) == ["x"]
        assert sorted(arr.lookup("k", 1)) == ["x", "y"]
        assert sorted(arr.lookup("k", 2)) == ["y"]
        assert arr.published == 2

    def test_compaction_folds_and_bounds_memory(self):
        arr = SharedArrangement("a", retain=2)
        for epoch in range(20):
            deltas = {("rec", epoch): 1}
            if epoch:
                deltas[("rec", epoch - 1)] = -1
            arr.apply(epoch, {"k": deltas})
            arr.compact(epoch)
        # Only the retention window of logs survives.
        assert arr.compacted_through == 20 - 1 - 2
        assert len(arr.logs) == 2
        # The folded base is consolidated: one live record plus window.
        assert arr.entries() <= 1 + 2 * 2
        assert sorted(arr.lookup("k", 19)) == [("rec", 19)]

    def test_reads_below_floor_raise_or_clamp(self):
        arr = SharedArrangement("a", retain=1)
        for epoch in range(6):
            arr.apply(epoch, {"k": {("rec", epoch): 1}})
        arr.compact(4)
        assert arr.compacted_through == 4
        with pytest.raises(CompactedEpochError):
            arr.lookup("k", 1)
        # Clamped reads answer from the floor (a newer consistent view).
        assert len(arr.lookup("k", 1, clamp=True)) == 5
        assert arr.read_epoch(1) == 4
        assert arr.read_epoch(5) == 5

    def test_retain_window_always_survives(self):
        arr = SharedArrangement("a", retain=4)
        for epoch in range(6):
            arr.apply(epoch, {"k": {("rec", epoch): 1}})
        arr.compact(10)  # caller over-asks; clamped to published - retain
        assert arr.compacted_through == 5 - 4

    def test_apply_to_compacted_epoch_rejected(self):
        arr = SharedArrangement("a", retain=1)
        for epoch in range(4):
            arr.apply(epoch, {"k": {("rec", epoch): 1}})
        arr.compact(2)
        with pytest.raises(ValueError, match="already compacted"):
            arr.apply(1, {"k": {"late": 1}})

    def test_validation(self):
        with pytest.raises(ValueError, match="retain"):
            SharedArrangement("a", retain=0)


class TestCompactionEdgeCases:
    """The boundary semantics compaction must get exactly right."""

    @staticmethod
    def _filled(retain, epochs=8):
        arr = SharedArrangement("a", retain=retain)
        for epoch in range(epochs):
            arr.apply(
                epoch, {"k": {("rec", epoch): 1, ("rec", epoch - 2): -1}}
            )
        return arr

    def test_read_exactly_at_the_floor_is_exact(self):
        arr = self._filled(retain=1)
        twin = self._filled(retain=1)  # never compacted
        arr.compact(5)
        assert arr.compacted_through == 5
        # Epoch 5 is the floor itself: served from base, no clamp, no
        # error — and identical to the uncompacted history's answer.
        assert sorted(arr.lookup("k", 5)) == sorted(twin.lookup("k", 5))
        assert arr.read_epoch(5) == 5

    def test_below_floor_raises_and_clamp_answers_from_floor(self):
        arr = self._filled(retain=1)
        twin = self._filled(retain=1)
        arr.compact(5)
        # Raise-vs-clamp: the same read, both behaviours pinned.
        with pytest.raises(CompactedEpochError, match="floor 5"):
            arr.lookup("k", 4)
        clamped = arr.lookup("k", 4, clamp=True)
        assert sorted(clamped) == sorted(twin.lookup("k", 5))
        assert arr.read_epoch(4) == 5

    def test_compaction_racing_a_publish(self):
        """A publish that lands between choosing a floor and folding it
        must neither fold the new epoch nor corrupt reads."""
        arr = self._filled(retain=2, epochs=6)
        twin = self._filled(retain=2, epochs=6)
        # The writer picked floor=published while epoch 6 was landing:
        arr.apply(6, {"k": {("rec", 6): 1, ("rec", 4): -1}})
        twin.apply(6, {"k": {("rec", 6): 1, ("rec", 4): -1}})
        arr.compact(5)
        # The retain window off the *new* published epoch survives.
        assert arr.compacted_through == 6 - 2
        assert 6 in arr.logs and 5 in arr.logs
        for epoch in range(arr.compacted_through, 7):
            assert sorted(arr.lookup("k", epoch)) == sorted(
                twin.lookup("k", epoch)
            ), epoch
        # And the writer may keep publishing after the fold.
        arr.apply(7, {"k": {("rec", 7): 1}})
        twin.apply(7, {"k": {("rec", 7): 1}})
        assert sorted(arr.lookup("k", 7)) == sorted(twin.lookup("k", 7))

    def test_reader_floor_pins_compaction(self):
        """Compaction never folds an epoch a reader still has queries
        buffered for: the floor sits one below the reader's epoch."""
        from collections import namedtuple
        from types import SimpleNamespace

        from repro.serve.arrangement import ArrangeVertex

        TS = namedtuple("TS", "epoch")
        vertex = ArrangeVertex("a", key=lambda record: record[0], retain=1)
        for epoch in range(8):
            vertex.arr.apply(epoch, {"k": {("rec", epoch): 1}})
        vertex.readers = [SimpleNamespace(pending={TS(epoch=3): ["q"]})]
        vertex.arr.compact(vertex._reader_floor())
        assert vertex.arr.compacted_through == 2
        # Epoch 3 is still exact for the in-flight read.
        assert sorted(vertex.arr.lookup("k", 3)) == [
            ("rec", e) for e in range(4)
        ]
        # Once the reader drains, the same call folds up to the window.
        vertex.readers = []
        vertex.arr.compact(vertex._reader_floor())
        assert vertex.arr.compacted_through == 7 - 1


class TestHysteresis:
    def test_sustain_and_dead_band(self):
        h = Hysteresis(high=0.8, low=0.2, sustain=3)
        assert [h.update(0.9), h.update(0.9)] == [None, None]
        assert h.update(0.9) == "high"
        h.acknowledge("high")
        assert h.update(0.9) is None
        # A dead-band sample resets both streaks.
        h.update(0.9)
        assert h.update(0.5) is None and h.high_streak == 0
        assert [h.update(0.1), h.update(0.1), h.update(0.1)] == [None, None, "low"]

    def test_validation(self):
        with pytest.raises(ValueError, match="below high"):
            Hysteresis(high=0.5, low=0.5, sustain=1)
        with pytest.raises(ValueError, match="sustain"):
            Hysteresis(high=0.8, low=0.2, sustain=0)


# ----------------------------------------------------------------------
# Serving the Figure 8 workload (both runtimes).
# ----------------------------------------------------------------------

T_EPOCHS = [
    [Tweet(1, (2,), ("#x",)), Tweet(3, (), ("#y",))],
    [Tweet(2, (3,), ("#x",)), Tweet(3, (), ("#y",))],
    [Tweet(5, (6,), ()), Tweet(6, (), ("#z", "#z"))],
]
Q_EPOCHS = [[(2, "q0")], [(3, "q1")], [(5, "q2"), (1, "q3")]]


def fig8_workload(epochs=8, sessions=8, tweets_per_epoch=6, seed=17):
    """Deterministic tweet epochs plus per-session query users."""
    gen = TweetGenerator(
        TweetStreamConfig(num_users=60, num_hashtags=12, seed=seed)
    )
    qgen = TweetGenerator(TweetStreamConfig(num_users=60, seed=seed + 1))
    tweet_epochs = [gen.batch(tweets_per_epoch) for _ in range(epochs)]
    query_epochs = [
        [
            (qgen.query(), "q%d_%d" % (epoch, s))
            for s in range(sessions)
        ]
        for epoch in range(epochs)
    ]
    return tweet_epochs, query_epochs


def serve_run(
    comp,
    tweet_epochs,
    query_epochs,
    slo="fresh",
    bound=3,
    policy=None,
    trace=None,
    kill=None,
    rescale=None,
):
    """Drive the arranged Figure 1 app through a SessionManager; one
    session per query-stream column, answers in delivery order.

    ``slo="mixed"`` opens the first half of the columns fresh and the
    second half ``stale(bound)``.
    """
    ti, qi = comp.new_input(), comp.new_input()
    arrangements = hashtag_component_arrangements(Stream.from_input(ti))
    manager = SessionManager(
        comp, qi, list(arrangements), component_top_resolver, policy=policy
    )
    if trace is not None:
        comp.attach_trace_sink(trace)
    comp.build()
    if kill is not None:
        comp.kill_process(kill[0], at=kill[1])
    if rescale is not None:
        for op in rescale:
            if op[0] == "add":
                comp.add_process(at=op[1])
            else:
                comp.remove_process(op[1], at=op[2])
    sessions = {}
    for tweets, queries in zip(tweet_epochs, query_epochs):
        for column, (user, query_id) in enumerate(queries):
            session = sessions.get(column)
            if session is None:
                column_slo = slo
                if slo == "mixed":
                    column_slo = "fresh" if column < len(queries) // 2 else "stale"
                session = sessions[column] = manager.open_session(
                    column_slo, bound=bound if column_slo == "stale" else None
                )
            manager.submit(session, user, query_id=query_id)
        ti.on_next(tweets)
        manager.pump()
        comp.run()
    ti.on_completed()
    manager.close()
    comp.run()
    manager.drain()
    assert comp.drained()
    return manager, arrangements


class TestServingFresh:
    @pytest.mark.parametrize("cluster", [False, True])
    def test_fresh_matches_plain_oracle(self, cluster):
        comp = ClusterComputation(2, 2) if cluster else Computation()
        manager, _ = serve_run(comp, T_EPOCHS, Q_EPOCHS)
        got = sorted((a.query_id, a.user, a.value) for a in manager.answers)
        assert got == sorted(app_oracle(T_EPOCHS, Q_EPOCHS))
        assert all(a.staleness == 0 for a in manager.answers)

    def test_fresh_bit_identical_to_queryvertex_oracle(self):
        # N >= 100 concurrent sessions against ONE pair of arrangements,
        # versus the pre-serving design: a QueryVertex fed per-session
        # query streams.  Same answers, bit for bit.
        tweet_epochs, query_epochs = fig8_workload(epochs=6, sessions=100)
        manager, _ = serve_run(
            ClusterComputation(2, 2), tweet_epochs, query_epochs
        )
        served = sorted((a.query_id, a.user, a.value) for a in manager.answers)

        oracle_comp = ClusterComputation(2, 2)
        ti, qi = oracle_comp.new_input(), oracle_comp.new_input()
        responses = []
        hashtag_component_app(
            Stream.from_input(ti),
            Stream.from_input(qi),
            lambda t, recs: responses.extend(recs),
            fresh=True,
        )
        oracle_comp.build()
        for tweets, queries in zip(tweet_epochs, query_epochs):
            ti.on_next(tweets)
            qi.on_next(queries)
            oracle_comp.run()
        ti.on_completed()
        qi.on_completed()
        oracle_comp.run()
        assert served == sorted(responses)
        assert len(served) == 600

    def test_same_epoch_batching(self):
        # 100 sessions' queries ride one injected epoch each round: the
        # server takes one notification and one view snapshot per epoch,
        # not one per session.
        tweet_epochs, query_epochs = fig8_workload(epochs=4, sessions=100)
        manager, _ = serve_run(
            ClusterComputation(1, 2), tweet_epochs, query_epochs
        )
        assert manager.fresh_injected == 400
        assert manager.fresh_epochs == 4


class TestServingStale:
    def test_staleness_measured_and_bounded(self):
        tweet_epochs, query_epochs = fig8_workload(epochs=8, sessions=12)
        manager, _ = serve_run(
            ClusterComputation(2, 2),
            tweet_epochs,
            query_epochs,
            slo="stale",
            bound=3,
        )
        assert len(manager.answers) == 96
        for answer in manager.answers:
            assert answer.slo == "stale"
            assert answer.staleness <= 3
            # The tag is the epoch of the state actually read.
            assert answer.state_epoch >= -1

    def test_stale_p99_beats_fresh_p99(self):
        # The Figure 8 trade-off, measured from the serve trace events:
        # stale answers skip the update path and return in stale_cost,
        # fresh answers wait for their epoch to complete.
        tweet_epochs, _ = fig8_workload(epochs=8, sessions=0)
        _, query_epochs = fig8_workload(epochs=8, sessions=60)
        stale_half = [q[:30] for q in query_epochs]
        fresh_half = [q[30:] for q in query_epochs]

        trace = TraceSink()
        comp = ClusterComputation(2, 2)
        ti, qi = comp.new_input(), comp.new_input()
        arrangements = hashtag_component_arrangements(Stream.from_input(ti))
        manager = SessionManager(
            comp, qi, list(arrangements), component_top_resolver
        )
        comp.attach_trace_sink(trace)
        comp.build()
        fresh = [manager.open_session("fresh") for _ in range(30)]
        stale = [manager.open_session("stale", bound=4) for _ in range(30)]
        for tweets, fresh_queries, stale_queries in zip(
            tweet_epochs, fresh_half, stale_half
        ):
            for session, (user, query_id) in zip(fresh, fresh_queries):
                manager.submit(session, user, query_id=query_id)
            for session, (user, query_id) in zip(stale, stale_queries):
                manager.submit(session, user, query_id=query_id)
            ti.on_next(tweets)
            manager.pump()
            comp.run()
        ti.on_completed()
        manager.close()
        comp.run()
        manager.drain()

        stats = serve_latency_stats(trace.events)
        assert set(stats) == {"fresh", "stale"}
        assert stats["fresh"].answers == stats["stale"].answers == 240
        assert stats["stale"].p99 < stats["fresh"].p99
        assert stats["stale"].p50 <= stats["stale"].p99
        assert stats["stale"].max_staleness <= 4

    def test_serve_trace_kind_registered(self):
        assert ACTIVITY_TYPES["serve"] == "processing"


class TestArrangementMemory:
    def test_memory_is_o_state_not_o_sessions(self):
        # The acceptance bound: 8 vs 128 sessions over the same tweet
        # stream leave the arrangement footprint identical.
        tweet_epochs, _ = fig8_workload(epochs=6, sessions=0)
        footprints = {}
        for sessions in (8, 128):
            _, query_epochs = fig8_workload(epochs=6, sessions=sessions)
            manager, arrangements = serve_run(
                ClusterComputation(1, 2), tweet_epochs, query_epochs
            )
            assert len(manager.sessions) == sessions
            footprints[sessions] = manager.arrangement_entries()
        assert footprints[8] == footprints[128]

    def test_compaction_bounds_log_history(self):
        # Long stream, small retention: live log epochs stay within the
        # retain window instead of growing with the epoch count.
        gen = TweetGenerator(TweetStreamConfig(num_users=40, seed=9))
        comp = ClusterComputation(1, 2)
        ti, qi = comp.new_input(), comp.new_input()
        arrangements = hashtag_component_arrangements(
            Stream.from_input(ti), retain=3
        )
        manager = SessionManager(
            comp, qi, list(arrangements), component_top_resolver
        )
        comp.build()
        session = manager.open_session("fresh")
        for _ in range(25):
            manager.submit(session, gen.query())
            ti.on_next(gen.batch(4))
            manager.pump()
            comp.run()
        ti.on_completed()
        manager.close()
        comp.run()
        for handle in arrangements:
            state = handle.state
            # Diff-free epochs never reach the arranger, so `published`
            # may trail the epoch count; the retention window is always
            # measured from it.
            assert state.published >= 15
            assert state.compacted_through == state.published - 3
            assert len(state.logs) <= 3
            assert state.compactions > 0


# ----------------------------------------------------------------------
# Admission control.
# ----------------------------------------------------------------------


class TestAdmission:
    def make_manager(self, policy):
        comp = ClusterComputation(1, 2)
        ti, qi = comp.new_input(), comp.new_input()
        arrangements = hashtag_component_arrangements(Stream.from_input(ti))
        manager = SessionManager(
            comp, qi, list(arrangements), component_top_resolver, policy=policy
        )
        comp.build()
        return comp, ti, manager

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="recover"):
            AdmissionPolicy(degrade_depth=8, shed_depth=4).validate()
        with pytest.raises(ValueError, match="lag_recover"):
            AdmissionPolicy(lag_degrade=2, lag_recover=2).validate()
        with pytest.raises(ValueError, match="degrade_bound"):
            AdmissionPolicy(degrade_bound=-1).validate()

    def test_burst_degrades_then_recovers(self):
        policy = AdmissionPolicy(
            degrade_depth=8,
            shed_depth=64,
            recover_depth=2,
            sustain=2,
            cooldown=0.0,
            degrade_bound=4,
        )
        comp, ti, manager = self.make_manager(policy)
        gen = TweetGenerator(TweetStreamConfig(num_users=40, seed=5))
        sessions = [manager.open_session("fresh") for _ in range(32)]
        for i in range(32):  # burst without pumping: depth builds up
            manager.submit(sessions[i], gen.query())
        assert manager.admission.mode == "degrade"
        assert manager.admission.degraded > 0
        degraded = [a for a in manager.answers if a.degraded]
        assert degraded and all(a.slo == "stale" for a in degraded)
        assert all(a.staleness <= 4 for a in degraded)
        ti.on_next(gen.batch(4))
        manager.pump()
        comp.run()
        for _ in range(6):  # light steady load: mode recovers
            manager.submit(sessions[0], gen.query())
            ti.on_next(gen.batch(2))
            manager.pump()
            comp.run()
        assert manager.admission.mode == "normal"
        transitions = [t["mode"] for t in manager.admission.transitions]
        assert transitions == ["degrade", "normal"]

    def test_sustained_overload_sheds(self):
        policy = AdmissionPolicy(
            degrade_depth=6,
            shed_depth=24,
            recover_depth=2,
            sustain=2,
            cooldown=0.0,
            degrade_bound=0,
        )
        comp, ti, manager = self.make_manager(policy)
        gen = TweetGenerator(TweetStreamConfig(num_users=40, seed=6))
        # Data epochs are injected but never run: the publish frontier
        # stalls, so degraded stale(0) queries park and depth keeps
        # climbing until the shed threshold sustains.
        for _ in range(4):
            ti.on_next(gen.batch(3))
            manager.pump()
        sessions = [manager.open_session("fresh") for _ in range(60)]
        for session in sessions:
            manager.submit(session, gen.query())
        assert manager.admission.mode == "shed"
        assert manager.rejections
        (query_id, session_id, _at) = manager.rejections[0]
        assert manager.sessions[session_id].rejected == 1
        ti.on_completed()
        manager.close()
        comp.run()
        manager.drain()
        assert manager.outstanding == 0
        # Rejected queries are rejected, not deferred: no late answers.
        rejected_ids = {r[0] for r in manager.rejections}
        assert rejected_ids.isdisjoint(a.query_id for a in manager.answers)

    def test_stale_sessions_never_degraded_only_shed(self):
        policy = AdmissionPolicy(
            degrade_depth=4,
            shed_depth=1000,
            recover_depth=1,
            sustain=1,
            cooldown=0.0,
        )
        comp, ti, manager = self.make_manager(policy)
        gen = TweetGenerator(TweetStreamConfig(num_users=40, seed=7))
        for _ in range(3):
            ti.on_next(gen.batch(2))
            manager.pump()
        session = manager.open_session("stale", bound=10)
        for _ in range(12):
            manager.submit(session, gen.query())
        assert session.degraded == 0
        assert all(not a.degraded for a in manager.answers)


# ----------------------------------------------------------------------
# Satellite bugfix: QueryVertex stale answers carry their state epoch.
# ----------------------------------------------------------------------


class TestQueryVertexStaleTag:
    def run_stale_app(self):
        comp = Computation()
        ti, qi = comp.new_input(), comp.new_input()
        answers = []
        hashtag_component_app(
            Stream.from_input(ti),
            Stream.from_input(qi),
            lambda t, recs: answers.extend(recs),
            fresh=False,
        )
        comp.build()
        for epoch, (tweets, queries) in enumerate(zip(T_EPOCHS, Q_EPOCHS)):
            ti.on_next(tweets)
            qi.on_next(queries)
            comp.run()
        ti.on_completed()
        qi.on_completed()
        comp.run()
        return answers

    def test_stale_answers_are_tagged_with_state_epoch(self):
        answers = self.run_stale_app()
        assert len(answers) == sum(len(q) for q in Q_EPOCHS)
        for answer in answers:
            assert len(answer) == 4
            query_id, _user, _tag, state_epoch = answer
            epoch = int(query_id[1:].split("_")[0]) if "_" in query_id else int(
                query_id[1:]
            )
            # The tag is a conservative floor: never ahead of the
            # query's own epoch, -1 before the first epoch completes.
            assert -1 <= state_epoch <= epoch

    def test_fresh_answers_unchanged_three_tuples(self):
        comp = Computation()
        ti, qi = comp.new_input(), comp.new_input()
        answers = []
        hashtag_component_app(
            Stream.from_input(ti),
            Stream.from_input(qi),
            lambda t, recs: answers.extend(recs),
            fresh=True,
        )
        comp.build()
        for tweets, queries in zip(T_EPOCHS, Q_EPOCHS):
            ti.on_next(tweets)
            qi.on_next(queries)
            comp.run()
        ti.on_completed()
        qi.on_completed()
        comp.run()
        assert all(len(answer) == 3 for answer in answers)


# ----------------------------------------------------------------------
# Serving under failure (the fast kill case; the heavy sweeps live in
# the chaos matrix).
# ----------------------------------------------------------------------


class TestServingRecovery:
    def test_fresh_bit_identical_across_midrun_kill(self):
        tweet_epochs, query_epochs = fig8_workload(epochs=8, sessions=100)
        ft = FaultTolerance(
            mode="checkpoint",
            checkpoint_every=2,
            restart_delay=0.005,
        )
        manager, _ = serve_run(
            ClusterComputation(2, 2, fault_tolerance=ft),
            tweet_epochs,
            query_epochs,
        )
        expected = sorted(
            (a.query_id, a.user, a.value) for a in manager.answers
        )
        duration = manager.computation.sim.now

        killed, _ = serve_run(
            ClusterComputation(2, 2, fault_tolerance=ft),
            tweet_epochs,
            query_epochs,
            kill=(1, duration * 0.5),
        )
        assert len(killed.computation.recovery.failures) == 1
        got = sorted((a.query_id, a.user, a.value) for a in killed.answers)
        assert got == expected

    def test_stale_bound_holds_across_kill(self):
        tweet_epochs, query_epochs = fig8_workload(epochs=8, sessions=10)
        ft = FaultTolerance(
            mode="checkpoint",
            checkpoint_every=2,
            restart_delay=0.005,
        )
        probe_manager, _ = serve_run(
            ClusterComputation(2, 2, fault_tolerance=ft),
            tweet_epochs,
            query_epochs,
            slo="stale",
            bound=3,
        )
        duration = probe_manager.computation.sim.now
        manager, _ = serve_run(
            ClusterComputation(2, 2, fault_tolerance=ft),
            tweet_epochs,
            query_epochs,
            slo="stale",
            bound=3,
            kill=(1, duration * 0.5),
        )
        assert len(manager.answers) == 80
        assert all(a.staleness <= 3 for a in manager.answers)


# ----------------------------------------------------------------------
# Builder-level details.
# ----------------------------------------------------------------------


class TestBuilders:
    def test_arrange_by_returns_handle_and_registers(self):
        comp = Computation()
        ti = comp.new_input()
        from repro.lib.incremental import Collection

        tweets = Collection.from_records(Stream.from_input(ti))
        handle = tweets.arrange_by(lambda d: d[0], name="tweets_by_user")
        assert isinstance(handle, Arrangement)
        assert comp.arrangements["tweets_by_user"] is handle
        with pytest.raises(ValueError, match="already registered"):
            tweets.arrange_by(lambda d: d[0], name="tweets_by_user")

    def test_vertex_resolution_requires_build(self):
        comp = Computation()
        ti = comp.new_input()
        from repro.lib.incremental import Collection

        handle = Collection.from_records(Stream.from_input(ti)).arrange_by(
            lambda d: d[0], name="a"
        )
        with pytest.raises(RuntimeError, match="build"):
            handle.vertex()

    def test_session_manager_validation(self):
        comp = Computation()
        comp.new_input()
        qi = comp.new_input()
        with pytest.raises(ValueError, match="at least one arrangement"):
            SessionManager(comp, qi, [], component_top_resolver)

    def test_session_validation(self):
        comp = Computation()
        ti, qi = comp.new_input(), comp.new_input()
        from repro.lib.incremental import Collection

        handle = Collection.from_records(Stream.from_input(ti)).arrange_by(
            lambda d: d[0], name="a"
        )
        manager = SessionManager(comp, qi, [handle], component_top_resolver)
        comp.build()
        with pytest.raises(ValueError, match="slo"):
            manager.open_session("eventually")
        with pytest.raises(ValueError, match="bound"):
            manager.open_session("stale")
        session = manager.open_session("fresh")
        manager.close_session(session)
        with pytest.raises(RuntimeError, match="closed"):
            manager.submit(session, 1)
