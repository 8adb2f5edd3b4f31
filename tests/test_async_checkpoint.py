"""Asynchronous incremental checkpoints and partial rollback.

The marker protocol (every cut under ``FaultTolerance(mode="checkpoint")``)
must assemble a consistent global cut *without pausing the cluster*: the
only per-worker pause is the incremental state copy, orders of magnitude
smaller than the stop-the-world drain + synchronous write of the barrier
baseline (``repro.baselines.BarrierCheckpoints``).
Recovery from the asynchronous cut is *partial*: only the killed
process's workers restore state and replay their journal suffix while
survivors keep running behind a frontier fence — and the per-epoch
outputs stay bit-identical to a failure-free run (DESIGN.md
invariant 5, unchanged).
"""

import hashlib
from collections import Counter
from contextlib import contextmanager

import pytest

from repro import Computation
from repro.baselines import BarrierCheckpoints
from repro.lib import Collection, Stream
from repro.obs import TraceSink, checkpoint_pause_stats
from repro.obs.trace import timestamp_tuple
from repro.runtime import ClusterComputation, FaultTolerance
from repro.runtime.async_checkpoint import AsyncCheckpointManager
from repro.runtime.cluster import _Worker

from tests.test_recovery import (
    CASES, baseline, iterate_two_kills, make_ft, manual_checkpoint_roundtrip,
    run_cluster,
)


def make_async_ft(mode="checkpoint", policy="restart", every=2):
    ft = make_ft(mode, policy)
    ft.checkpoint_every = every
    return ft


@contextmanager
def reinjections(monkeypatch):
    """Log every ``_Worker.enqueue_message`` call made inside the block
    as (dst, stage, timestamp, src, tag, record count)."""
    calls = []
    enqueue = _Worker.enqueue_message

    def logged(self, connector, records, timestamp, remote_bytes=0, src=-1,
               sent=-1.0, tag=0, *rest, **kwargs):
        calls.append((
            self.index, connector.dst.name, timestamp_tuple(timestamp), src,
            tag, len(records),
        ))
        return enqueue(
            self, connector, records, timestamp, remote_bytes, src, sent, tag,
            *rest, **kwargs
        )

    monkeypatch.setattr(_Worker, "enqueue_message", logged)
    try:
        yield calls
    finally:
        monkeypatch.setattr(_Worker, "enqueue_message", enqueue)


def digest(calls):
    return len(calls), hashlib.sha256(repr(calls).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# The cut itself: cycles complete and become durable with no barrier.
# ----------------------------------------------------------------------


class TestAsyncCycle:
    def test_cycles_complete_and_become_durable(self):
        expected, _ = baseline("wordcount", (2, 2))
        out, comp = run_cluster("wordcount", (2, 2), ft=make_async_ft())
        assert out == expected
        ac = comp.async_ckpt
        assert ac is not None
        assert ac.completed_cycle >= 1
        assert ac.durable_cycle == ac.completed_cycle
        assert not ac.active
        assert comp.recovery.snapshot is not None

    def test_no_barrier_pause_events(self):
        # Async mode must never emit a stop-the-world pause: every
        # ``checkpoint`` event is a zero-drain durable-commit parity
        # record, and the cluster never pauses input release.
        sink = TraceSink()
        out, comp = run_cluster("wordcount", (2, 2), ft=make_async_ft(), trace=sink)
        stats = checkpoint_pause_stats(sink)
        assert stats.barrier_pauses == ()
        assert len(stats.async_max_stalls) >= 1

    def test_snapshot_events_schema(self):
        sink = TraceSink()
        run_cluster("wordcount", (2, 2), ft=make_async_ft(), trace=sink)
        summaries = [
            e for e in sink if e.kind == "snapshot" and e.worker == -1
        ]
        workers = [e for e in sink if e.kind == "snapshot" and e.worker >= 0]
        assert summaries and workers
        for event in summaries:
            cycle, fresh, reused, channel_entries, max_stall, lag = event.detail
            assert cycle >= 1
            assert fresh >= 0 and reused >= 0 and channel_entries >= 0
            assert max_stall >= 0.0 and lag >= 0.0
            assert event.dur >= 0.0  # marker latency: cut start -> cut
        for event in workers:
            cycle, n_fresh, total = event.detail
            assert 0 <= n_fresh <= total

    def test_incremental_snapshots_reuse_clean_state(self):
        # Later cycles must re-serialize only dirty vertices: across all
        # cycles some snapshots are reused from the cache (a cluster
        # where every vertex is dirty every cycle would re-copy all).
        # Epochs are paced so successive triggers start distinct cycles
        # instead of coalescing into one.
        expected, _ = baseline("wordcount", (4, 1))
        sink = TraceSink()
        out, _ = run_cluster(
            "wordcount", (4, 1), ft=make_async_ft(), trace=sink, pace=2e-3
        )
        assert out == expected
        stats = checkpoint_pause_stats(sink)
        assert len(stats.async_increments) >= 2
        assert any(reused > 0 for _fresh, reused in stats.async_increments)

    def test_manual_checkpoint_restore_roundtrip_async(self):
        # The async twin of the quiescent round trip: an explicit
        # checkpoint() drives one marker cycle (the first) to durability,
        # restore() rolls back to it, and replay is exactly-once.
        snapshot, _ = manual_checkpoint_roundtrip(make_async_ft(every=10 ** 9))
        assert snapshot["cycle"] == 1


# ----------------------------------------------------------------------
# The headline number: async pauses are >= 5x smaller than the barrier
# baseline's on the Figure 7c workload (k-exposure, periodic checkpoints).
# ----------------------------------------------------------------------


def run_kexposure(barrier, sink, kill_at=None):
    """k-exposure with a cut every 4 epochs: asynchronous marker cuts,
    or (``barrier=True``) the stop-the-world baseline on mode "none"."""
    from repro.algorithms.kexposure import k_exposure_incremental
    from repro.workloads import TweetGenerator, TweetStreamConfig

    ft = FaultTolerance(
        mode="none" if barrier else "checkpoint",
        checkpoint_every=4,
        state_bytes_per_worker=3 << 20,
        disk_bandwidth=200e6,
    )
    comp = ClusterComputation(
        num_processes=4, workers_per_process=1, fault_tolerance=ft
    )
    comp.attach_trace_sink(sink)
    tweets_in = comp.new_input()
    followers_in = comp.new_input()
    out = {}
    k_exposure_incremental(
        Collection(Stream.from_input(tweets_in)),
        Collection(Stream.from_input(followers_in)),
    ).subscribe(
        lambda t, diffs: out.setdefault(t.epoch, Counter()).update(diffs)
    )
    if barrier:
        cuts = BarrierCheckpoints(comp, every=4)
        tweets_in, followers_in = cuts.hold(tweets_in), cuts.hold(followers_in)
    comp.build()
    if kill_at is not None:
        comp.kill_process(1, at=kill_at)
    generator = TweetGenerator(
        TweetStreamConfig(num_users=400, num_hashtags=40, seed=4)
    )
    followers_in.on_next(
        [((generator.query(), generator.query()), +1) for _ in range(600)]
    )
    followers_in.on_completed()
    for epoch in range(12):
        batch = [
            ((tweet.user, tag), +1)
            for tweet in generator.batch(40)
            for tag in tweet.hashtags or ("#none",)
        ]
        assert tweets_in.on_next(batch) == epoch
    tweets_in.on_completed()
    with pytest.raises(RuntimeError, match="closed"):  # at the call, held or not
        tweets_in.on_next([])
    comp.run()
    assert comp.drained(), comp.debug_state()
    return out, comp


class TestKExposurePushdownKill:
    def test_kill_mid_stream_matches_the_unpushed_pipeline(self):
        # k-exposure's distinct before the join, under async cuts and a
        # kill while tweets (some of them retractions) still arrive,
        # answers what join -> distinct -> count answers failure-free.
        from repro.algorithms.kexposure import k_exposure_incremental
        from repro.workloads import TweetGenerator, TweetStreamConfig

        from tests.test_incremental import kexposure_without_pushdown, run_kexposure_epochs

        generator = TweetGenerator(
            TweetStreamConfig(num_users=200, num_hashtags=20, seed=5)
        )
        follows = [[((generator.query(), generator.query()), +1) for _ in range(400)]]
        tweets = []
        for epoch in range(16):
            batch = [
                ((tweet.user, tag), +1)
                for tweet in generator.batch(30)
                for tag in tweet.hashtags or ("#none",)
            ]
            if epoch >= 2:
                # Each batch's first insertion is taken back once, later.
                batch.append((tweets[epoch - 2][0][0], -1))
            tweets.append(batch)
        follows += [[] for _ in tweets[1:]]
        expected = run_kexposure_epochs(
            kexposure_without_pushdown, tweets, follows, Computation()
        )
        pace = 5e-3
        comp = ClusterComputation(
            num_processes=8,
            workers_per_process=1,
            fault_tolerance=FaultTolerance(
                mode="checkpoint",
                checkpoint_every=4,
                state_bytes_per_worker=3 << 20,
                disk_bandwidth=200e6,
            ),
        )
        out = run_kexposure_epochs(
            k_exposure_incremental, tweets, follows, comp, pace=pace, kill=(3, 9.5 * pace)
        )
        assert out == expected
        assert len(comp.recovery.failures) == 1
        assert comp.async_ckpt.completed_cycle >= 2


class TestPauseComparison:
    def test_async_pause_at_least_5x_smaller_than_barrier(self):
        barrier_sink, async_sink = TraceSink(), TraceSink()
        barrier_out, _ = run_kexposure(True, barrier_sink)
        async_out, _ = run_kexposure(False, async_sink)
        assert async_out == barrier_out  # same answers either way
        barrier = checkpoint_pause_stats(barrier_sink)
        asynchronous = checkpoint_pause_stats(async_sink)
        assert barrier.max_barrier_pause > 0.0
        assert asynchronous.async_max_stalls  # cycles actually ran
        assert (
            asynchronous.max_async_pause * 5 <= barrier.max_barrier_pause
        ), (asynchronous.max_async_pause, barrier.max_barrier_pause)

    def test_barrier_baseline_survives_a_kill(self):
        expected, clean = run_kexposure(True, TraceSink())
        sink = TraceSink()
        out, comp = run_kexposure(True, sink, kill_at=clean.now / 2)
        assert out == expected
        assert [f["mode"] for f in comp.recovery.failures] == ["global"]
        assert len(checkpoint_pause_stats(sink).barrier_pauses) >= 3

    def test_barrier_baseline_requires_mode_none(self):
        comp = ClusterComputation(2, 1, fault_tolerance=make_async_ft())
        with pytest.raises(ValueError, match="mode='none'"):
            BarrierCheckpoints(comp, every=4)


# ----------------------------------------------------------------------
# Partial rollback: only the killed process restores; survivors keep
# their state and perform zero restores.
# ----------------------------------------------------------------------


class TestPartialRollback:
    def kill_run(self, case, shape, frac, ft=None, **kwargs):
        expected, duration = baseline(case, shape)
        sink = TraceSink()
        out, comp = run_cluster(
            case,
            shape,
            ft=ft or make_async_ft(),
            kill=(1, duration * frac),
            trace=sink,
            **kwargs
        )
        return expected, out, comp, sink

    def test_partial_restores_only_the_killed_process(self):
        expected, out, comp, sink = self.kill_run("wordcount", (2, 2), 0.4)
        assert out == expected
        assert comp.recovery.failures[0]["mode"] == "partial"
        dead_workers = {
            w.index for w in comp.workers if comp._worker_process[w.index] == 1
        }
        restores = [e for e in sink if e.kind == "restore"]
        # Every restore is per-worker (no global restore event) and
        # every restored worker belongs to the killed process.
        assert restores
        assert all(e.worker >= 0 for e in restores)
        assert {e.worker for e in restores} <= dead_workers
        # Survivors perform zero state restores.
        survivor_restores = [e for e in restores if e.worker not in dead_workers]
        assert survivor_restores == []
        for event in restores:
            mode, snapshot_time, injected = event.detail
            assert mode == "partial"
            assert injected >= 0

    def test_partial_rollback_outputs_identical_across_kill_points(self):
        for frac in (0.15, 0.45, 0.85):
            expected, out, comp, _ = self.kill_run("iterate", (2, 2), frac)
            assert out == expected, frac
            assert comp.recovery.failures[0]["mode"] == "partial"

    def test_partial_rollback_under_logging_mode(self):
        expected, out, comp, _ = self.kill_run(
            "wordcount", (2, 2), 0.5, ft=make_async_ft("logging")
        )
        assert out == expected
        assert comp.recovery.failures[0]["mode"] == "partial"

    def test_partial_rollback_with_fusion(self):
        expected, out, comp, _ = self.kill_run(
            "wordcount", (2, 2), 0.6, optimize=True
        )
        assert out == expected
        assert comp.recovery.failures[0]["mode"] == "partial"

    def test_second_overlapping_kill_escalates_to_global(self):
        comp = iterate_two_kills()
        modes = [f["mode"] for f in comp.recovery.failures]
        assert modes == ["partial", "global"]  # replay ledgers still draining

    def test_reinjection_order_is_pinned(self, monkeypatch):
        # Paced epochs and a cut every epoch leave a pre-cut message in
        # the durable cut's channel for the killed worker; the kill lands
        # after it, so the restore re-injects that channel share first,
        # then the journal suffix in delivery order.
        expected, duration = baseline("iterate", (4, 1))
        seen = {}
        rollback = AsyncCheckpointManager.partial_rollback

        def recording_rollback(self, *args, **kwargs):
            seen["snapshot"] = args[1]
            seen["journal"] = list(self.journal)
            with reinjections(monkeypatch) as seen["calls"]:
                return rollback(self, *args, **kwargs)

        monkeypatch.setattr(
            AsyncCheckpointManager, "partial_rollback", recording_rollback
        )
        sink = TraceSink()
        out, comp = run_cluster(
            "iterate",
            (4, 1),
            ft=make_async_ft(every=1),
            kill=(1, duration * 1.95),
            trace=sink,
            pace=duration / 2,
        )
        assert out == expected
        assert comp.recovery.failures[0]["mode"] == "partial"
        moving = {1}
        share = [e for e in seen["snapshot"]["channel"] if e[0] in moving]
        # A delivery record ends (dst, connector, records, timestamp,
        # remote_bytes, src, tag); anything before dst is ignored.
        suffix = [
            entry for entry in seen["journal"]
            if entry[-7] in moving and entry[-2] not in moving
        ]
        assert share and suffix
        injected = [e.detail[2] for e in sink if e.kind == "restore"]
        reinjected = seen["calls"]
        assert injected == [len(reinjected)] == [len(share) + len(suffix)]
        assert digest(reinjected) == (14, "37d9f44223648a1e")

    def test_global_restore_reinjects_the_cut_channel(self, monkeypatch):
        # restore() to the latest durable cut, whose channel holds a
        # queued message and a crossing one for worker 0 and a crossing
        # one for worker 1: all of it re-enters, in the cut's order.
        expected, duration = baseline("iterate", (4, 1))
        out, comp = run_cluster(
            "iterate", (4, 1), ft=make_async_ft(every=1), pace=duration / 6
        )
        snapshot = comp.recovery.snapshot
        assert snapshot["channel"]
        with reinjections(monkeypatch) as reinjected:
            comp.restore(snapshot)
        assert len(reinjected) == len(snapshot["channel"])
        assert digest(reinjected) == (3, "9c35c6d1ddb2a80d")
        comp.run()
        assert comp.drained(), comp.debug_state()
        assert out == expected


# ----------------------------------------------------------------------
# The skip tier: a kill that loses nothing skips the rollback entirely.
# ----------------------------------------------------------------------


class TestSkipRollback:
    def test_idle_kill_with_clean_snapshot_skips_rollback(self):
        expected, _ = baseline("wordcount", (2, 2))
        program, epochs = CASES["wordcount"]
        ft = make_async_ft(every=10 ** 9)
        comp = ClusterComputation(
            num_processes=2, workers_per_process=2, fault_tolerance=ft
        )
        sink = TraceSink()
        comp.attach_trace_sink(sink)
        inp, out = program(comp)
        comp.build()
        for epoch in epochs[:3]:
            inp.on_next(epoch)
        comp.run()
        comp.checkpoint()  # durable cut == current state
        # Kill while idle: the restore set is provably empty, so the
        # process restarts in place — no rollback, no replay, and the
        # survivors' clocks never stop.
        comp.kill_process(1, at=comp.now + 1e-3)
        for epoch in epochs[3:]:
            inp.on_next(epoch)
        inp.on_completed()
        comp.run()
        assert comp.drained(), comp.debug_state()
        assert out == expected
        failure = comp.recovery.failures[0]
        assert failure["mode"] == "skip"
        assert failure["replayed_entries"] == 0
        # No restore of any kind happened.
        assert [e for e in sink if e.kind == "restore"] == []
        assert comp.recovery.failures[0]["policy"] == "restart"


# ----------------------------------------------------------------------
# Buffering vertices under the async cut: a mid-epoch kill lands while
# per-timestamp buffers are live; flushed buffers must not resurrect.
# ----------------------------------------------------------------------


def run_buffering_chain(ft=None, kill=None):
    """buffered -> count_by -> aggregate_by: every class of per-timestamp
    buffering state (list buffers, count tables, fold accumulators) is
    live mid-epoch, so an async cut + kill exercises exactly the state
    the incremental dirty-bit snapshots must get right."""
    comp = ClusterComputation(
        num_processes=2, workers_per_process=2, fault_tolerance=ft
    )
    inp = comp.new_input()
    out = {}
    (
        Stream.from_input(inp)
        .buffered(lambda rs: sorted(rs))
        .count_by(lambda x: x % 5)
        .aggregate_by(lambda kc: kc[0] % 2, lambda kc: kc[1], max)
        .subscribe(lambda t, recs: out.setdefault(t.epoch, []).append(sorted(recs)))
    )
    comp.build()
    if kill is not None:
        comp.kill_process(kill[0], at=kill[1])
    for epoch in [list(range(40)), [3] * 25, [], list(range(7, 29))]:
        inp.on_next(epoch)
    inp.on_completed()
    comp.run()
    assert comp.drained(), comp.debug_state()
    return {epoch: sorted(batches) for epoch, batches in out.items()}, comp


class TestBufferingVerticesSurviveMidEpochKill:
    @pytest.mark.parametrize("fraction", [0.2, 0.5, 0.8])
    def test_outputs_identical_across_kill_points(self, fraction):
        expected, clean = run_buffering_chain(ft=make_async_ft(every=1))
        assert clean.async_ckpt.completed_cycle >= 1
        out, comp = run_buffering_chain(
            ft=make_async_ft(every=1), kill=(1, clean.now * fraction)
        )
        assert out == expected
        assert len(comp.recovery.failures) == 1

    def test_flushed_buffers_leave_the_cached_snapshots(self):
        # White-box: after the run drains, every epoch's buffers were
        # flushed by on_notify, and because each flush marks the vertex
        # dirty, the next incremental capture re-serializes it — the
        # final cached snapshots hold no stale per-timestamp state.
        _, comp = run_buffering_chain(ft=make_async_ft(every=1))
        # One more cut at drain time: every buffer has been flushed and
        # every flush marked its vertex dirty, so this capture must
        # re-serialize them all with empty per-timestamp tables.
        comp.checkpoint()
        ac = comp.async_ckpt
        assert ac.completed_cycle >= 1
        buffering = {
            stage.index
            for stage in comp.graph.stages
            if stage.name.startswith(("buffered", "count_by", "aggregate_by"))
        }
        assert buffering
        checked = 0
        for (stage_index, _worker), state in ac._last_states.items():
            if stage_index not in buffering:
                continue
            for attr in ("buffers", "counts", "state"):
                if attr in state:
                    assert state[attr] == {}, (stage_index, attr)
                    checked += 1
        assert checked > 0


# ----------------------------------------------------------------------
# Explicit checkpoint(): a waiter for a fresh durable cut, like a planned
# move, wherever a kill lands around its cut.
# ----------------------------------------------------------------------


def fed_cluster(ft, sink=None, case="wordcount"):
    """``case`` on 3x2 with every epoch and the close fed at time 0."""
    program, epochs = CASES[case]
    comp = ClusterComputation(
        num_processes=3, workers_per_process=2, fault_tolerance=ft
    )
    if sink is not None:
        comp.attach_trace_sink(sink)
    inp, out = program(comp)
    comp.build()
    for epoch in epochs:
        inp.on_next(epoch)
    inp.on_completed()
    return comp, out


class TestExplicitCheckpointWaitsForADurableCut:
    @pytest.mark.parametrize(
        "point", ["before-assembly", "before-write", "after-write"]
    )
    def test_checkpoint_survives_a_kill_around_its_cut(self, point):
        # A first run times the cut from its trace: the assembly event
        # (worker -1) ends when the cut is assembled, and the durable
        # write records a ``checkpoint`` event.  The times are read, never
        # fixed, so a change to placement or to a cost model moves them too.
        expected, _ = baseline("wordcount", (3, 2))
        ft = make_async_ft(policy="reassign", every=100)
        sink = TraceSink()
        fed_cluster(ft, sink)[0].checkpoint()
        (assembled,) = [
            e.finish for e in sink if e.kind == "snapshot" and e.worker == -1
        ]
        (durable,) = [e.t for e in sink if e.kind == "checkpoint"]
        assert assembled < durable
        kill_at = {
            "before-assembly": assembled / 2,
            "before-write": (assembled + durable) / 2,
            "after-write": 2 * durable,
        }[point]
        comp, out = fed_cluster(make_async_ft(policy="reassign", every=100))
        comp.kill_process(2, at=kill_at)
        snapshot = comp.checkpoint()
        ac = comp.async_ckpt
        assert snapshot is comp.recovery.snapshot
        assert snapshot["cycle"] == ac.durable_cycle
        assert not ac.moves
        comp.run()
        assert comp.drained(), comp.debug_state().text
        assert out == expected
        assert [f["process"] for f in comp.recovery.failures] == [2]

    def test_checkpoint_waits_out_a_draining_replay(self):
        # Called while a kill's partial replay still drains (the same
        # kill as the rescale interleaving test), checkpoint() cuts only
        # once the last dedup ledger has drained, as a migration would.
        _, duration = baseline("incremental-join", (3, 2))

        def killed():
            comp, out = fed_cluster(
                make_async_ft(policy="reassign"), case="incremental-join"
            )
            comp.kill_process(1, at=0.4 * duration)
            comp.run(until=0.4005 * duration)
            assert comp.async_ckpt.replay_dedup
            return comp, out

        comp, _ = killed()
        while comp.async_ckpt.replay_dedup:
            comp.step()
        drained_at = comp.now
        comp, out = killed()
        snapshot = comp.checkpoint()
        assert snapshot["time"] >= drained_at
        comp.run()
        assert out == baseline("incremental-join", (3, 2))[0]

    def test_checkpoint_behind_an_unrecovered_crash_reports_the_stall(self):
        # A silent crash nobody supervises freezes every cut: checkpoint()
        # says so, and the waiter it gave up on does not outlive it, so
        # the next run() has nothing left to report.
        _, duration = baseline("wordcount", (3, 2))
        comp, _ = fed_cluster(make_async_ft(policy="reassign"))
        comp.crash_process(1, at=duration * 0.3)
        comp.run()
        with pytest.raises(RuntimeError, match="checkpoint.* stalled"):
            comp.checkpoint()
        assert comp.async_ckpt.moves == []
        comp.run()

    def test_a_stalled_error_names_the_waiting_cut(self):
        # The same crash behind a queued add: the stall error's state
        # dump counts the waiters and names the cycle the first awaits.
        _, duration = baseline("wordcount", (3, 2))
        comp, _ = fed_cluster(make_async_ft(policy="reassign"))
        comp.crash_process(1, at=duration * 0.3)
        comp.add_process(at=duration * 0.4)
        with pytest.raises(RuntimeError, match="rescale stalled") as error:
            comp.run()
        cycle = comp.async_ckpt.cycle
        assert (
            "after_cut: 1 waiter(s), the first waits for durable cycle %d" % cycle
        ) in str(error.value)
        assert comp.async_ckpt.durable_cycle < cycle
