"""Failure recovery on the simulated cluster (paper section 3.4).

The load-bearing property is DESIGN.md invariant 5, now enforced on the
distributed runtime: a checkpoint-failure-restore cycle is invisible in
the outputs.  A run that loses a whole process at a random virtual time
must release exactly the same epoch-by-epoch output multisets as a run
with no failure — for every fault-tolerance mode (``none`` replays the
input journal from scratch, ``checkpoint`` rolls back to the last
periodic checkpoint, ``logging`` additionally pays for and reads the
message log), for both recovery placements (restart the process, or
reassign its workers across survivors), across cluster shapes, on
fixed and randomized dataflow graphs.
"""

import random
from collections import Counter
from functools import partial

import pytest

from repro.lib import Collection, Stream
from repro.obs import TraceSink
from repro.runtime import ClusterComputation, FaultTolerance
from repro.sim import NetworkConfig

FT_MODES = ["none", "checkpoint", "logging"]
SHAPES = [(2, 2), (4, 1)]


def make_ft(mode, policy="restart"):
    return FaultTolerance(
        mode=mode,
        checkpoint_every=2,
        state_bytes_per_worker=1 << 20,
        disk_bandwidth=200e6,
        recovery=policy,
        restart_delay=0.02,
    )


def collect_per_epoch(out):
    def callback(t, recs):
        out.setdefault(t.epoch, Counter()).update(recs)

    return callback


# ----------------------------------------------------------------------
# Programs: four fixed shapes (keyed aggregation, a loop, incremental
# operators over retractions, an incremental self-join) plus randomized
# operator chains, all deterministic for a given seed.
# ----------------------------------------------------------------------


def wordcount_program(comp):
    inp = comp.new_input("lines")
    out = {}
    (
        Stream.from_input(inp)
        .select_many(str.split)
        .count_by(lambda w: w)
        .subscribe(collect_per_epoch(out))
    )
    return inp, out


WORDCOUNT_EPOCHS = [
    ["a b a c", "d d"],
    ["b b b"],
    [],
    ["a c d e f g"],
    ["a a e"],
    ["f g f"],
]


def iterate_program(comp):
    inp = comp.new_input()
    out = {}
    (
        Stream.from_input(inp)
        .iterate(
            lambda s: s.select(lambda x: x - 1).where(lambda x: x > 0),
            partitioner=lambda x: x,
        )
        .subscribe(collect_per_epoch(out))
    )
    return inp, out


ITERATE_EPOCHS = [list(range(8)), [3, 3, 12], [5, 1]]


def random_case(seed):
    """A random keyed operator chain and input, fixed by ``seed``."""
    rng = random.Random(seed)
    ops = [
        (rng.choice(["select", "where", "count_by"]), rng.randint(1, 7))
        for _ in range(rng.randint(2, 4))
    ]
    epochs = [
        [rng.randint(0, 50) for _ in range(rng.randint(3, 12))]
        for _ in range(rng.randint(3, 6))
    ]

    def program(comp):
        inp = comp.new_input()
        out = {}
        s = Stream.from_input(inp)
        for kind, k in ops:
            if kind == "select":
                s = s.select(lambda x, k=k: x + k if isinstance(x, int) else x)
            elif kind == "where":
                s = s.where(
                    lambda x, k=k: not isinstance(x, int) or x % 3 != k % 3
                )
            else:
                # Only ints and tuples of ints flow here, so hash() is
                # deterministic across processes and runs.
                s = s.count_by(lambda x, k=k: hash(x) % k)
        s.subscribe(collect_per_epoch(out))
        return inp, out

    return program, epochs


def incremental_program(comp):
    """Incremental distinct and count over ``(record, diff)`` inputs: the
    default plan fuses the count with its subscriber, behind two
    exchanges."""
    inp = comp.new_input("diffs")
    out = {}
    (
        Collection(Stream.from_input(inp))
        .map(lambda x: x % 12)
        .distinct()
        .count_by(lambda x: x % 3)
        .subscribe(collect_per_epoch(out))
    )
    return inp, out


def incremental_join_program(comp):
    """A self-join of one diff input: both sides carry every epoch, so the
    join runs its eager path, its deferral and its cleanups."""
    inp = comp.new_input("diffs")
    out = {}
    diffs = Collection(Stream.from_input(inp))
    diffs.join(
        diffs.map(lambda x: x + 1), lambda x: x % 4, lambda y: y % 4
    ).subscribe(collect_per_epoch(out))
    return inp, out


# Each epoch block keeps every running multiplicity non-negative, so the
# blocks may repeat; the retractions empty some distinct records and
# move the counts both ways.
INCREMENTAL_EPOCHS = [
    [(1, 1), (2, 1), (3, 1), (13, 1), (4, 2)],
    [(13, -1), (5, 1), (1, 1)],
    [],
    [(1, -2), (2, -1), (25, 1), (6, 1)],
    [(4, -2), (1, 1), (17, 1)],
]


# Kill points are seeded by a case's position here: a new case goes
# last, so it leaves the other cases' kill points where they were.
CASES = {
    "iterate": (iterate_program, ITERATE_EPOCHS),
    "random-a": random_case(101),
    "random-b": random_case(202),
    "wordcount": (wordcount_program, WORDCOUNT_EPOCHS),
    "incremental": (incremental_program, INCREMENTAL_EPOCHS),
    "incremental-join": (incremental_join_program, INCREMENTAL_EPOCHS),
}


def run_cluster(
    case, shape, ft=None, kill=None, crash=None, supervise=None,
    autoscale=None, network=None, seed=0, trace=None, rescale=None,
    partitions=None, epochs=None, pace=None, **kwargs
):
    program, case_epochs = CASES[case]
    epochs = case_epochs if epochs is None else epochs
    procs, wpp = shape
    comp = ClusterComputation(
        num_processes=procs,
        workers_per_process=wpp,
        fault_tolerance=ft,
        network=network,
        seed=seed,
        **kwargs
    )
    if trace is not None:
        comp.attach_trace_sink(trace)
    inp, out = program(comp)
    comp.build()
    autoscaler = None
    if autoscale is not None:
        from repro.obs import TraceSink
        from repro.runtime import Autoscaler

        autoscaler = Autoscaler(
            comp, trace if trace is not None else TraceSink(), autoscale
        ).start()
    if supervise is not None:
        comp.attach_supervisor(
            None if supervise is True else supervise, autoscaler=autoscaler
        )
    for op in rescale or ():
        if op[0] == "add":
            comp.add_process(at=op[1])
        else:
            comp.remove_process(op[1], at=op[2])
    if kill is not None:
        process, at = kill
        comp.kill_process(process, at=at)
    for process, at in crash or ():
        comp.crash_process(process, at=at)
    for spec in partitions or ():
        comp.network.partition(**spec)
    # All epochs at once, or one every ``pace`` seconds; then the close.
    for index, epoch in enumerate(list(epochs) + [None]):
        release = inp.on_completed if epoch is None else partial(inp.on_next, epoch)
        if pace is None:
            release()
        else:
            comp.sim.schedule_at(index * pace, release)
    comp.run()
    assert comp.drained(), comp.debug_state()
    return out, comp


def baseline_epochs(case, shape, epochs):
    """Like :func:`baseline` but for a custom (extended) input."""
    out, comp = run_cluster(case, shape, epochs=epochs)
    return out, comp.now


_baselines = {}


def baseline(case, shape):
    """Per-epoch outputs and duration of the no-failure run (cached)."""
    key = (case, shape)
    if key not in _baselines:
        out, comp = run_cluster(case, shape)
        _baselines[key] = (out, comp.now)
    return _baselines[key]


class TestInvariant5:
    """Epoch-by-epoch outputs survive a random process kill unchanged."""

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("mode", FT_MODES)
    def test_kill_and_recover_matches_unfailed_run(self, case, shape, mode):
        expected, duration = baseline(case, shape)
        rng = random.Random(
            1000 * FT_MODES.index(mode)
            + 100 * SHAPES.index(shape)
            + list(CASES).index(case)
        )
        process = rng.randrange(shape[0])
        kill_at = duration * rng.uniform(0.1, 0.9)
        out, comp = run_cluster(
            case, shape, ft=make_ft(mode), kill=(process, kill_at)
        )
        assert out == expected
        assert len(comp.recovery.failures) == 1
        failure = comp.recovery.failures[0]
        assert failure["process"] == process
        assert failure["ready"] >= failure["at"]

    @pytest.mark.parametrize("mode", FT_MODES)
    def test_reassign_policy_matches_unfailed_run(self, mode):
        shape = (3, 2)
        expected, _ = baseline("wordcount", shape)
        out, comp = run_cluster(
            "wordcount",
            shape,
            ft=make_ft(mode, policy="reassign"),
            kill=(1, 0.002),
        )
        assert out == expected
        assert comp.recovery.dead_processes == {1}
        # Every reassigned worker now lives on a survivor.
        assert all(w.process != 1 for w in comp.workers)


def manual_checkpoint_roundtrip(ft):
    """Checkpoint after three epochs, finish the run, restore, replay;
    returns the snapshot and the cluster."""
    expected, _ = baseline("wordcount", (2, 2))
    program, epochs = CASES["wordcount"]
    comp = ClusterComputation(
        num_processes=2, workers_per_process=2, fault_tolerance=ft
    )
    inp, out = program(comp)
    comp.build()
    for epoch in epochs[:3]:
        inp.on_next(epoch)
    comp.run()
    snapshot = comp.checkpoint()
    assert snapshot["journal_released"] == 3
    for epoch in epochs[3:]:
        inp.on_next(epoch)
    inp.on_completed()
    comp.run()
    assert out == expected
    # Roll back and replay: the journal suffix re-executes, released
    # outputs are suppressed, and the outputs remain exactly-once.
    comp.restore(snapshot)
    comp.run()
    assert comp.drained(), comp.debug_state()
    assert out == expected
    return snapshot, comp


def iterate_two_kills():
    """The loop case on 4x1 with processes 1 and 3 killed at 25% and
    80% of the unfailed run; returns the drained cluster."""
    expected, duration = baseline("iterate", (4, 1))
    program, epochs = CASES["iterate"]
    comp = ClusterComputation(
        num_processes=4, workers_per_process=1, fault_tolerance=make_ft("checkpoint")
    )
    inp, out = program(comp)
    comp.build()
    comp.kill_process(1, at=duration * 0.25)
    comp.kill_process(3, at=duration * 0.8)
    for epoch in epochs:
        inp.on_next(epoch)
    inp.on_completed()
    comp.run()
    assert comp.drained(), comp.debug_state()
    assert out == expected
    return comp


class TestRecoveryMechanics:
    def test_checkpoint_bounds_replay(self):
        # With periodic checkpoints a late failure rolls back to a
        # mid-run snapshot; without them it replays the whole journal.
        # Epochs arrive 1 ms apart so that cuts start mid-run, the state
        # is sized for each cut to be durable well before the kill, and
        # the kill lands in the last epoch's work (an idle kill skips
        # recovery altogether).
        kill = (1, (len(WORDCOUNT_EPOCHS) - 1) * 1e-3 + 2e-5)
        ft = make_ft("checkpoint")
        ft.state_bytes_per_worker = 4 << 10
        trace = TraceSink()
        _, with_ckpt = run_cluster(
            "wordcount", (2, 2), ft=ft, kill=kill, pace=1e-3, trace=trace
        )
        _, without = run_cluster(
            "wordcount", (2, 2), ft=make_ft("none"), kill=kill, pace=1e-3
        )
        ckpt_failure = with_ckpt.recovery.failures[0]
        none_failure = without.recovery.failures[0]
        assert [ckpt_failure["mode"], none_failure["mode"]] == ["partial", "global"]
        assert ckpt_failure["restored_from"] > 0.0
        assert none_failure["restored_from"] == 0.0
        # Input-journal entries on both sides (a partial rollback's
        # replayed_entries counts re-injected messages): what the kill
        # finds journaled, less the prefix the last durable cut covers.
        at = ckpt_failure["at"]
        journaled = sum(1 for e in trace if e.kind == "input" and e.t <= at)
        cut = [e.detail[1] for e in trace if e.kind == "checkpoint" and e.t <= at]
        assert journaled == none_failure["replayed_entries"]
        assert journaled - cut[-1] < none_failure["replayed_entries"]

    def test_multiple_failures(self):
        expected, duration = baseline("iterate", (4, 1))
        out, comp = run_cluster(
            "iterate", (4, 1), ft=make_ft("checkpoint"), kill=(0, duration * 0.3)
        )
        assert out == expected  # smoke: single kill of the controller
        out, comp = run_cluster(
            "iterate", (4, 1), ft=make_ft("checkpoint"), kill=(2, duration * 0.2)
        )
        # Second scenario: two distinct processes die at different times.
        comp = iterate_two_kills()
        assert [f["process"] for f in comp.recovery.failures] == [1, 3]

    @pytest.mark.parametrize("case,victim", [("iterate", 2), ("random-a", 1)])
    def test_kill_leaves_no_cancelled_keys(self, case, victim):
        # A partial rollback cancels by key the dead process's sends to
        # survivors; the generation fence drops those copies, and the
        # drop must retire the key too, or the set grows with each kill
        # until a global rollback.
        expected, duration = baseline(case, (3, 2))
        out, comp = run_cluster(
            case, (3, 2), ft=make_ft("checkpoint"), kill=(victim, duration * 0.2)
        )
        assert out == expected
        assert comp.recovery.failures[0]["mode"] == "partial"
        assert comp.fenced_drops > 0
        assert comp.async_ckpt.cancelled == set()

    def test_kill_central_accumulator_host(self):
        # Process 0 hosts the controller and the central accumulator;
        # killing it must still recover.
        program, epochs = CASES["wordcount"]
        expected, duration = baseline("wordcount", (2, 2))
        out, comp = run_cluster(
            "wordcount",
            (2, 2),
            ft=make_ft("checkpoint"),
            kill=(0, duration * 0.5),
            progress_mode="local+global",
        )
        assert out == expected

    def test_recovery_under_hostile_network(self):
        expected, duration = baseline("iterate", (2, 2))
        out, comp = run_cluster(
            "iterate",
            (2, 2),
            ft=make_ft("logging"),
            kill=(1, duration * 0.4),
            network=NetworkConfig(
                packet_loss_probability=0.2,
                retransmit_timeout=2e-3,
                gc_interval=1e-3,
                gc_pause=2e-3,
            ),
            seed=7,
        )
        assert out == expected

    def test_manual_checkpoint_restore_roundtrip(self):
        manual_checkpoint_roundtrip(None)

    def test_recovery_before_any_checkpoint(self):
        # A kill before the first periodic checkpoint rolls back to the
        # built state and replays everything.
        expected, _ = baseline("wordcount", (2, 2))
        ft = make_ft("checkpoint")
        ft.checkpoint_every = 1000
        out, comp = run_cluster("wordcount", (2, 2), ft=ft, kill=(1, 1e-5))
        assert out == expected
        assert comp.recovery.failures[0]["restored_from"] == 0.0

    def test_debug_state_reports_fault_tolerance(self):
        _, duration = baseline("wordcount", (2, 2))
        _, comp = run_cluster(
            "wordcount", (2, 2), ft=make_ft("logging"), kill=(1, duration * 0.5)
        )
        text = comp.debug_state()
        assert "fault-tolerance: mode=logging" in text
        assert "checkpoints=" in text
        assert "failure: process 1" in text
        assert "message log:" in text

    def test_kill_validates_process_index(self):
        comp = ClusterComputation(num_processes=2, workers_per_process=1)
        comp.new_input()
        with pytest.raises(RuntimeError):
            comp.kill_process(0)  # not built yet
        comp.build()
        with pytest.raises(ValueError):
            comp.kill_process(5)

    def test_control_api_rejects_reentrant_calls(self):
        # checkpoint()/restore()/kill_process() re-run the event loop;
        # calling them from inside a vertex callback must fail cleanly
        # instead of corrupting the clock.
        comp = ClusterComputation(num_processes=2, workers_per_process=1)
        inp = comp.new_input()
        errors = []

        def reenter(t, recs):
            for call in (
                comp.checkpoint,
                lambda: comp.restore(comp.recovery.initial),
                lambda: comp.kill_process(0),
            ):
                with pytest.raises(RuntimeError, match="vertex callback"):
                    call()
                errors.append(call)

        Stream.from_input(inp).count_by(lambda x: x).subscribe(reenter)
        comp.build()
        inp.on_next([1, 2])
        inp.on_completed()
        comp.run()
        assert comp.drained()
        # The subscription fires once per worker; each firing must have
        # exercised all three guarded calls.
        assert len(errors) >= 3 and len(errors) % 3 == 0
