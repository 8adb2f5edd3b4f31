"""Elastic rescaling: live add/remove_process and the autoscaler.

The tentpole invariant mirrors DESIGN.md invariant 5, extended to
planned membership changes: growing or shrinking the live process set
mid-computation must be invisible in the per-epoch outputs, and must
recover through the *partial* path — only the moving workers are
restored from the migration cut; every survivor keeps its live state.

Also covered here: the eager configuration validation (every rejected
combination raises an actionable ``ValueError`` at call time, not deep
inside a migration), the ``rescale`` trace kind and membership
timeline, the metrics-driven :class:`repro.runtime.Autoscaler`, and
live rescaling of a looping dataflow (WCC), which must drain as well.
"""

import pytest

from repro.algorithms import weakly_connected_components
from repro.lib import Stream
from repro.obs import ACTIVITY_TYPES, TraceSink, membership_timeline
from repro.runtime import (
    AutoscalePolicy,
    Autoscaler,
    ClusterComputation,
    CostModel,
    FaultTolerance,
)
from repro.sim import NetworkConfig
from repro.workloads import uniform_random_graph
from tests.test_recovery import (
    baseline,
    collect_per_epoch,
    make_ft,
    run_cluster,
    wordcount_program,
    WORDCOUNT_EPOCHS,
)


def rescale_ft():
    return make_ft("checkpoint", policy="reassign")


def build_wordcount(shape, ft):
    comp = ClusterComputation(
        num_processes=shape[0], workers_per_process=shape[1], fault_tolerance=ft
    )
    inp, out = wordcount_program(comp)
    comp.build()
    return comp, inp, out


# ----------------------------------------------------------------------
# Eager configuration validation: every rejected combination carries the
# reason and the fix.
# ----------------------------------------------------------------------


class TestRescaleValidation:
    def test_bogus_fault_tolerance_mode_rejected_at_construction(self):
        with pytest.raises(ValueError, match="FaultTolerance.mode"):
            ClusterComputation(
                num_processes=2,
                workers_per_process=2,
                fault_tolerance=FaultTolerance(mode="checkpoints"),
            )

    def test_mode_none_cannot_rescale(self):
        # Mode "none" builds no marker manager (on the wcc64 spine
        # workload it cost +13-24% wall time and +3.6 MB RSS), so there
        # is no asynchronous cut to migrate state over.
        comp, _, _ = build_wordcount((2, 2), make_ft("none", policy="reassign"))
        assert comp.async_ckpt is None
        with pytest.raises(ValueError, match="mode='checkpoint'"):
            comp.add_process()
        with pytest.raises(ValueError, match="mode='checkpoint'"):
            comp.remove_process(1)

    def test_barrier_checkpoint_mode_is_rejected(self):
        ft = FaultTolerance()
        ft.checkpoint_mode = "barrier"  # assigned after construction, too
        with pytest.raises(ValueError, match="BarrierCheckpoints"):
            ClusterComputation(2, 1, fault_tolerance=ft)

    def test_restart_recovery_cannot_rescale(self):
        ft = make_ft("checkpoint", policy="restart")
        comp, _, _ = build_wordcount((2, 2), ft)
        with pytest.raises(ValueError, match="recovery='reassign'"):
            comp.add_process()
        with pytest.raises(ValueError, match="recovery='reassign'"):
            comp.remove_process(1)

    def test_rescale_requires_built_computation(self):
        comp = ClusterComputation(
            num_processes=2, workers_per_process=2, fault_tolerance=rescale_ft()
        )
        wordcount_program(comp)
        with pytest.raises(RuntimeError):
            comp.add_process()
        with pytest.raises(RuntimeError):
            comp.remove_process(1)

    def test_add_rejected_when_no_worker_share_left(self):
        # 2 workers over 2 hosts: a third host would get an empty share.
        comp, _, _ = build_wordcount((2, 1), rescale_ft())
        with pytest.raises(ValueError, match="no\\s+share"):
            comp.add_process()

    def test_adds_not_yet_run_count_in_the_worker_share(self):
        # 4 workers over 2 hosts: two queued adds take the last shares.
        # A third must be rejected when it is called, not join later as
        # an empty host that still counts in the membership.
        expected, duration = baseline("wordcount", (2, 2))
        comp, inp, out = build_wordcount((2, 2), rescale_ft())
        comp.add_process(at=duration * 0.4)
        comp.add_process(at=duration * 0.4)
        with pytest.raises(ValueError, match="no\\s+share"):
            comp.add_process(at=duration * 0.4)
        for epoch in WORDCOUNT_EPOCHS:
            inp.on_next(epoch)
        inp.on_completed()
        comp.run()
        assert comp.drained(), comp.debug_state().text
        assert out == expected
        assert [r["process"] for r in comp.rescales] == [2, 3]
        assert all(r["workers"] for r in comp.rescales)
        with pytest.raises(ValueError, match="no\\s+share"):
            comp.add_process()

    def test_remove_rejects_process_zero_and_out_of_range(self):
        comp, _, _ = build_wordcount((2, 2), rescale_ft())
        with pytest.raises(ValueError, match="input controller"):
            comp.remove_process(0)
        with pytest.raises(ValueError, match="out of range"):
            comp.remove_process(7)
        with pytest.raises(ValueError, match="out of range"):
            comp.remove_process(-1)

    def test_remove_rejects_already_removed_process(self):
        expected, duration = baseline("wordcount", (3, 2))
        out, comp = run_cluster(
            "wordcount",
            (3, 2),
            ft=rescale_ft(),
            rescale=[("remove", 2, duration * 0.4)],
        )
        assert out == expected
        with pytest.raises(ValueError, match="already been removed"):
            comp.remove_process(2)

    def test_remove_rejects_dead_process(self):
        expected, duration = baseline("wordcount", (3, 2))
        out, comp = run_cluster(
            "wordcount", (3, 2), ft=rescale_ft(), kill=(2, duration * 0.4)
        )
        assert out == expected
        with pytest.raises(ValueError, match="dead"):
            comp.remove_process(2)

    def test_autoscaler_rejects_inverted_thresholds(self):
        comp, _, _ = build_wordcount((2, 2), rescale_ft())
        with pytest.raises(ValueError, match="low_utilization"):
            Autoscaler(
                comp,
                TraceSink(),
                AutoscalePolicy(high_utilization=0.2, low_utilization=0.5),
            )

    def test_autoscaler_rejects_non_rescalable_configuration(self):
        comp, _, _ = build_wordcount((2, 2), make_ft("none", policy="reassign"))
        with pytest.raises(ValueError, match="mode='checkpoint'"):
            Autoscaler(comp, TraceSink())


# ----------------------------------------------------------------------
# Live membership changes: outputs are bit-identical, recovery is
# partial (survivors never restored), bookkeeping is observable.
# ----------------------------------------------------------------------


def moved_and_restored(trace, comp):
    record = comp.rescales[0]
    moved = set(record["workers"])
    restores = [e for e in trace.events if e.kind == "restore"]
    return record, moved, restores


class TestLiveRescale:
    def test_live_add_matches_baseline_and_restores_only_movers(self):
        expected, duration = baseline("wordcount", (2, 2))
        trace = TraceSink()
        out, comp = run_cluster(
            "wordcount",
            (2, 2),
            ft=rescale_ft(),
            rescale=[("add", duration * 0.4)],
            trace=trace,
        )
        assert out == expected
        assert comp.live_processes == [0, 1, 2]
        record, moved, restores = moved_and_restored(trace, comp)
        assert record["kind"] == "add" and record["process"] == 2
        assert moved, "the new process received no workers"
        # The partial path: restore events name exactly the movers, with
        # the migration as the reason; nobody else was rolled back.
        assert {e.worker for e in restores} == moved
        assert all(e.detail[0] == "rescale" for e in restores)
        assert all(comp._worker_process[w] == 2 for w in moved)
        assert not comp.recovery.failures

    def test_live_add_trace_and_membership_timeline(self):
        assert ACTIVITY_TYPES["rescale"] == "barrier"
        expected, duration = baseline("wordcount", (2, 2))
        trace = TraceSink()
        out, comp = run_cluster(
            "wordcount",
            (2, 2),
            ft=rescale_ft(),
            rescale=[("add", duration * 0.4)],
            trace=trace,
        )
        assert out == expected
        rescale_events = [e for e in trace.events if e.kind == "rescale"]
        assert len(rescale_events) == 1
        timeline = membership_timeline(trace.events)
        assert len(timeline) == 1
        change = timeline[0]
        assert change.kind == "add"
        assert change.process == 2
        assert change.generation == 1
        assert change.live_count == 3
        assert change.moved_workers == comp.rescales[0]["workers"]
        assert change.blip >= 0.0
        info = comp.debug_state()
        assert info.fault_tolerance["live_processes"] == (0, 1, 2)
        assert info.fault_tolerance["rescale_generation"] == 1
        assert "membership: live=(0, 1, 2)" in info.text

    def test_live_remove_matches_baseline_and_rehomes_workers(self):
        expected, duration = baseline("wordcount", (3, 2))
        trace = TraceSink()
        out, comp = run_cluster(
            "wordcount",
            (3, 2),
            ft=rescale_ft(),
            rescale=[("remove", 2, duration * 0.4)],
            trace=trace,
        )
        assert out == expected
        assert comp.live_processes == [0, 1]
        record, moved, restores = moved_and_restored(trace, comp)
        assert record["kind"] == "remove" and record["process"] == 2
        assert {e.worker for e in restores} == moved
        assert all(w.process != 2 for w in comp.workers)
        assert not comp.recovery.failures

    def test_add_then_remove_in_one_run(self):
        expected, duration = baseline("wordcount", (2, 2))
        out, comp = run_cluster(
            "wordcount",
            (2, 2),
            ft=rescale_ft(),
            rescale=[("add", duration * 0.3), ("remove", 1, duration * 0.6)],
        )
        assert out == expected
        assert [r["kind"] for r in comp.rescales] == ["add", "remove"]
        assert comp.rescale_generation == 2
        assert comp.live_processes == [0, 2]

    def test_synchronous_add_returns_new_process_index(self):
        comp, inp, out = build_wordcount((2, 2), rescale_ft())
        for epoch in WORDCOUNT_EPOCHS[:3]:
            inp.on_next(epoch)
        comp.run()
        assert comp.add_process() == 2
        for epoch in WORDCOUNT_EPOCHS[3:]:
            inp.on_next(epoch)
        inp.on_completed()
        comp.run()
        assert comp.drained(), comp.debug_state().text
        expected, _ = baseline("wordcount", (2, 2))
        assert out == expected
        assert comp.live_processes == [0, 1, 2]

    def test_unplanned_kill_under_reassign_recovers_partially(self):
        # The soundness fix this PR ships: an unplanned kill under
        # recovery="reassign" takes the partial path — before, reassign
        # always escalated to a whole-cluster rollback.
        expected, duration = baseline("wordcount", (3, 2))
        trace = TraceSink()
        out, comp = run_cluster(
            "wordcount",
            (3, 2),
            ft=rescale_ft(),
            kill=(1, duration * 0.4),
            trace=trace,
        )
        assert out == expected
        assert len(comp.recovery.failures) == 1
        failure = comp.recovery.failures[0]
        assert failure["mode"] == "partial"
        assert failure["policy"] == "reassign"
        # Only the dead process's workers were restored, on new homes.
        dead_workers = {2, 3}
        restores = [e for e in trace.events if e.kind == "restore"]
        assert restores and {e.worker for e in restores} <= dead_workers
        assert all(w.process != 1 for w in comp.workers)


def run_streamed_wcc(rescale=None, optimize=None):
    """WCC streamed in six edge epochs over 8x2 workers, on the
    rescaling benchmark's blocked cost model and checkpoint policy."""
    comp = ClusterComputation(
        num_processes=8,
        workers_per_process=2,
        progress_mode="local+global",
        cost_model=CostModel(per_record_cost=2e-5, record_bytes=800),
        fault_tolerance=FaultTolerance(
            mode="checkpoint",
            checkpoint_every=2,
            state_bytes_per_worker=1 << 18,
            recovery="reassign",
            restart_delay=0.02,
        ),
        optimize=optimize,
    )
    outputs = {}
    inp = comp.new_input("edges")
    weakly_connected_components(Stream.from_input(inp)).subscribe(
        collect_per_epoch(outputs)
    )
    comp.build()
    for op in rescale or ():
        if op[0] == "add":
            comp.add_process(at=op[2])
        else:
            comp.remove_process(op[1], at=op[2])
    edges = uniform_random_graph(400, 800, seed=2)
    chunk = -(-len(edges) // 6)
    for start in range(0, len(edges), chunk):
        inp.on_next(edges[start : start + chunk])
    inp.on_completed()
    comp.run()
    return outputs, comp


_wcc_baselines = {}


def streamed_wcc_baseline(optimize):
    """Per-epoch outputs and duration of the fixed-shape run (cached)."""
    if optimize not in _wcc_baselines:
        outputs, comp = run_streamed_wcc(optimize=optimize)
        assert comp.drained(), comp.debug_state().text
        _wcc_baselines[optimize] = (outputs, comp.now)
    return _wcc_baselines[optimize]


class TestRescaleLoopingDataflow:
    """A migration must drain a loop too.  A rolled-back sender's
    in-flight copies to survivors used to land *and* be re-sent by its
    replay (only a kill's fence discarded them), leaving a negative
    count in the views and wrong outputs — on the default plan and on
    the ``optimize=False`` oracle alike."""

    @pytest.mark.parametrize(
        "kind,process,fraction,optimize",
        [
            ("remove", 2, 0.2, None),
            ("remove", 7, 0.3, None),
            ("remove", 4, 0.4, None),
            ("remove", 5, 0.5, None),
            ("add", None, 0.4, None),
            ("add", None, 0.5, None),
            ("remove", 1, 0.2, False),
            ("remove", 6, 0.4, False),
        ],
    )
    def test_live_rescale_of_wcc_drains_with_baseline_outputs(
        self, kind, process, fraction, optimize
    ):
        expected, duration = streamed_wcc_baseline(optimize)
        out, comp = run_streamed_wcc(
            [(kind, process, duration * fraction)], optimize=optimize
        )
        assert comp.drained(), comp.debug_state().text
        assert out == expected
        assert [r["kind"] for r in comp.rescales] == [kind]
        assert not comp.recovery.failures


class TestKillRescaleInterleavings:
    """A kill that lands while a migration waits.  The migration runs
    only once no replay is draining and a cut taken after the replay is
    durable; a rollback that abandons the migration's cut restarts it.
    The moved workers pin the placement each interleaving produces."""

    @pytest.mark.parametrize(
        "case,op,kill_at,moved",
        [
            # The add arrives while the kill's replay drains and waits.
            ("incremental-join", ("add", 0.4005), 0.4, (2, 5)),
            # The kill abandons the cut the migration waits for.
            ("wordcount", ("add", 0.4), 0.41, (2, 5)),
            ("wordcount", ("remove", 2, 0.4), 0.41, (3, 4, 5)),
        ],
    )
    def test_migration_waits_out_a_kill(self, case, op, kill_at, moved):
        expected, duration = baseline(case, (3, 2))
        scaled = op[:-1] + (op[-1] * duration,)
        out, comp = run_cluster(
            case,
            (3, 2),
            ft=rescale_ft(),
            rescale=[scaled],
            kill=(1, duration * kill_at),
        )
        assert out == expected
        assert comp.drained(), comp.debug_state().text
        assert [f["mode"] for f in comp.recovery.failures] == ["partial"]
        (record,) = comp.rescales
        assert record["kind"] == op[0]
        assert record["workers"] == moved

    def test_migration_behind_an_unrecovered_crash_reports_the_stall(self):
        # A silent crash with no supervisor freezes its workers, so no
        # cut completes; the run runs out of events while the add waits,
        # and says so instead of returning as if it had finished.
        _, duration = baseline("wordcount", (3, 2))
        with pytest.raises(RuntimeError, match="rescale stalled"):
            run_cluster(
                "wordcount",
                (3, 2),
                ft=rescale_ft(),
                rescale=[("add", duration * 0.4)],
                crash=[(1, duration * 0.3)],
            )


class TestRescaleUnderHostileNetwork:
    NETWORK = NetworkConfig(
        packet_loss_probability=0.2,
        retransmit_timeout=2e-3,
        gc_interval=1e-3,
        gc_pause=2e-3,
    )

    def test_add_survives_packet_loss_and_gc_pauses(self):
        expected, duration = baseline("wordcount", (2, 2))
        out, comp = run_cluster(
            "wordcount",
            (2, 2),
            ft=rescale_ft(),
            network=self.NETWORK,
            seed=7,
            rescale=[("add", duration * 0.4)],
        )
        assert out == expected
        assert comp.rescales[0]["kind"] == "add"

    def test_remove_survives_packet_loss_and_gc_pauses(self):
        expected, duration = baseline("wordcount", (3, 2))
        out, comp = run_cluster(
            "wordcount",
            (3, 2),
            ft=rescale_ft(),
            network=self.NETWORK,
            seed=7,
            rescale=[("remove", 2, duration * 0.4)],
        )
        assert out == expected
        assert comp.live_processes == [0, 1]


# ----------------------------------------------------------------------
# The autoscaler: metrics in, membership changes out, outputs unchanged.
# ----------------------------------------------------------------------


class TestAutoscaler:
    def run_autoscaled(self, shape, policy):
        comp, inp, out = build_wordcount(shape, rescale_ft())
        sink = TraceSink()
        comp.attach_trace_sink(sink)
        scaler = Autoscaler(comp, sink, policy).start()
        for epoch in WORDCOUNT_EPOCHS:
            inp.on_next(epoch)
        inp.on_completed()
        comp.run()
        assert comp.drained(), comp.debug_state().text
        return comp, scaler, out

    def test_sustained_load_grows_the_cluster(self):
        expected, _ = baseline("wordcount", (2, 2))
        # Any activity in a window counts as high load, idle windows
        # between bursts are neutral (negative low threshold), and the
        # long cooldown limits the run to a single decision.
        policy = AutoscalePolicy(
            interval=2e-5,
            high_utilization=1e-9,
            low_utilization=-1.0,
            sustain=1,
            cooldown=10.0,
            max_processes=3,
        )
        comp, scaler, out = self.run_autoscaled((2, 2), policy)
        assert out == expected
        assert scaler.samples, "the control loop never sampled"
        grows = [d for d in scaler.decisions if d["kind"] == "add"]
        assert len(grows) == 1
        assert comp.live_processes == [0, 1, 2]
        assert comp.rescales[0]["kind"] == "add"

    def test_idle_fleet_shrinks_to_the_floor(self):
        expected, _ = baseline("wordcount", (3, 2))
        # Thresholds no real window can reach: every sample is low.
        policy = AutoscalePolicy(
            interval=2e-5,
            high_utilization=1e9,
            low_utilization=1e8,
            sustain=2,
            cooldown=10.0,
            min_processes=2,
        )
        comp, scaler, out = self.run_autoscaled((3, 2), policy)
        assert out == expected
        shrinks = [d for d in scaler.decisions if d["kind"] == "remove"]
        assert len(shrinks) == 1
        assert shrinks[0]["process"] == 2
        assert comp.live_processes == [0, 1]

    def test_autoscaler_start_is_idempotent(self):
        comp, _, _ = build_wordcount((2, 2), rescale_ft())
        sink = TraceSink()
        comp.attach_trace_sink(sink)
        scaler = Autoscaler(comp, sink)
        assert scaler.start() is scaler
        before = comp.sim.background_pushes
        scaler.start()
        assert comp.sim.background_pushes == before
