"""Self-healing: detect silent failures, fence zombies, recover, evict.

``tests/test_recovery.py`` exercises *oracle* recovery — the test calls
``kill_process`` and the cluster is told about the failure at the
instant it happens.  This suite removes the oracle: ``crash_process``
silently freezes a process, and the :class:`repro.runtime.Supervisor`
must notice via heartbeats (paying real simulated-network latency, GC
pauses and partitions), fence the dead generation, drive the existing
recovery machinery, and reintegrate or quarantine the process.  The
invariant is the same as everywhere else in this repo: per-epoch output
multisets bit-identical to a failure-free run — and, stronger, to the
oracle-driven recovery of the *same* failure.

The heavier scenario tests are marked ``detection`` and run in CI's
marker step::

    PYTHONPATH=src python -m pytest -q -m "chaos or detection or serve_matrix"
"""

import os
import sys
from collections import Counter
from statistics import NormalDist

import pytest

from repro.obs import TraceSink, detection_stats
from repro.runtime import (
    Autoscaler,
    AutoscalePolicy,
    ClusterComputation,
    FaultTolerance,
    PhiAccrualDetector,
    SupervisorConfig,
)
from repro.sim import NetworkConfig
from tests.test_recovery import (
    CASES,
    WORDCOUNT_EPOCHS,
    baseline,
    baseline_epochs,
    make_ft,
    run_cluster,
)

#: Virtual time is cheap, so the test supervisor heartbeats at 50 µs
#: and falls back to a 1 ms cold-start deadline — failures land early
#: in the run, before the phi window has always warmed up.
def sup_cfg(**overrides):
    cfg = dict(
        heartbeat_interval=5e-5,
        min_samples=4,
        window=16,
        bootstrap_timeout=1e-3,
        backoff_jitter=0.0,
    )
    cfg.update(overrides)
    return SupervisorConfig(**cfg)


# ----------------------------------------------------------------------
# Phi-accrual detector unit tests.
# ----------------------------------------------------------------------


class TestPhiAccrualDetector:
    def test_cold_window_reports_nothing(self):
        d = PhiAccrualDetector(window=16, min_std=1e-5, min_samples=4)
        assert d.phi(1.0) == 0.0
        assert d.deadline(z=5.0) is None
        d.heartbeat(0.0)
        d.heartbeat(0.1)  # one interval < min_samples
        assert not d.ready
        assert d.deadline(z=5.0) is None

    def test_regular_arrivals_pin_sigma_at_floor(self):
        d = PhiAccrualDetector(window=16, min_std=1e-3, min_samples=4)
        for i in range(8):
            d.heartbeat(i * 0.1)
        assert d.ready
        # Perfectly regular gaps: sigma collapses to the floor, so the
        # deadline sits exactly mu + z*min_std past the last arrival.
        z = 5.0
        assert d.deadline(z) == pytest.approx(0.7 + 0.1 + z * 1e-3)

    def test_phi_crosses_threshold_at_deadline(self):
        d = PhiAccrualDetector(window=16, min_std=1e-3, min_samples=4)
        for i in range(8):
            d.heartbeat(i * 0.1)
        threshold = 8.0
        z = NormalDist().inv_cdf(1.0 - 10.0 ** -threshold)
        deadline = d.deadline(z)
        assert d.phi(deadline - 1e-4) < threshold
        assert d.phi(deadline) == pytest.approx(threshold, rel=1e-6)
        assert d.phi(deadline + 1e-4) > threshold

    def test_noisy_window_widens_the_deadline(self):
        regular = PhiAccrualDetector(window=16, min_std=1e-6, min_samples=4)
        noisy = PhiAccrualDetector(window=16, min_std=1e-6, min_samples=4)
        t_r = t_n = 0.0
        for i in range(12):
            t_r += 0.1
            regular.heartbeat(t_r)
            # Every fourth gap is a 5x straggler (a GC pause, say).
            t_n += 0.5 if i % 4 == 3 else 0.1
            noisy.heartbeat(t_n)
        slack_r = regular.deadline(5.0) - regular.last_arrival
        slack_n = noisy.deadline(5.0) - noisy.last_arrival
        # The detector that has *seen* stragglers tolerates longer
        # silences before suspecting — the whole point of phi-accrual.
        assert slack_n > 2 * slack_r

    def test_window_forgets_old_outliers(self):
        d = PhiAccrualDetector(window=4, min_std=1e-6, min_samples=4)
        t = 0.0
        d.heartbeat(t)
        t += 5.0
        d.heartbeat(t)  # one huge gap...
        for _ in range(4):  # ...pushed out by window-many regular ones
            t += 0.1
            d.heartbeat(t)
        mu, sigma = d._mu_sigma()
        assert mu == pytest.approx(0.1)


class TestSupervisorConfigValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"heartbeat_interval": 0.0},
            {"heartbeat_interval": -1e-3},
            {"heartbeat_bytes": -1},
            {"phi_threshold": 0.0},
            {"min_samples": 1},
            {"window": 4, "min_samples": 8},
            {"min_std": 0.0},
            {"bootstrap_timeout": 0.5e-3, "heartbeat_interval": 0.5e-3},
            {"naive_multiplier": 0.0},
            {"backoff_base": -0.1},
            {"backoff_factor": 0.5},
            {"backoff_jitter": 1.0},
            {"backoff_jitter": -0.1},
            {"quarantine_deaths": 0},
            {"quarantine_window": 0.0},
            {"placement": "elsewhere"},
        ],
        ids=lambda bad: ",".join("%s=%r" % kv for kv in sorted(bad.items())),
    )
    def test_bad_field_raises_at_construction(self, bad):
        with pytest.raises(ValueError):
            SupervisorConfig(**bad)

    def test_defaults_are_valid(self):
        cfg = SupervisorConfig()
        assert cfg.phi_threshold == 8.0


class TestNetworkConfigValidation:
    """Satellite: every NetworkConfig field is validated eagerly."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("latency", -1e-6),
            ("local_latency", -1e-6),
            ("bandwidth", 0.0),
            ("bandwidth", -1.0),
            ("per_message_bytes", -1),
            ("packet_loss_probability", -0.01),
            ("packet_loss_probability", 1.01),
            ("retransmit_timeout", -1e-3),
            ("nagle_delay", -1e-3),
            ("small_message_bytes", -1),
            ("gc_interval", -1.0),
            ("gc_pause", -1.0),
        ],
    )
    def test_bad_field_raises_at_construction(self, field, value):
        with pytest.raises(ValueError) as err:
            NetworkConfig(**{field: value})
        # The message names the offending field and echoes the value.
        assert field in str(err.value)
        assert repr(value) in str(err.value)

    def test_gc_pause_requires_gc_interval(self):
        with pytest.raises(ValueError, match="gc_interval"):
            NetworkConfig(gc_pause=1e-3)
        NetworkConfig(gc_interval=1e-2, gc_pause=1e-3)  # fine together

    def test_boundary_values_accepted(self):
        NetworkConfig(
            latency=0.0,
            local_latency=0.0,
            packet_loss_probability=1.0,
            per_message_bytes=0,
            nagle_delay=0.0,
        )


class TestPartitionValidation:
    def test_partition_rejects_self_and_out_of_range(self):
        comp = ClusterComputation(num_processes=2, workers_per_process=1)
        with pytest.raises(ValueError, match="itself"):
            comp.network.partition(1, 1)
        with pytest.raises(ValueError, match="out of range"):
            comp.network.partition(0, 7)

    def test_partition_heal_must_follow_start(self):
        comp = ClusterComputation(num_processes=2, workers_per_process=1)
        with pytest.raises(ValueError, match="heal_at"):
            comp.network.partition(0, 1, at=2.0, heal_at=1.0)


# ----------------------------------------------------------------------
# Silent crashes: the detector must match the oracle bit for bit.
# ----------------------------------------------------------------------


def busy_process(case, shape, at, epochs=None):
    """The crashable process that runs the most activations and
    notifications after ``at`` in the clean run.

    A silent crash there holds work the run cannot drain without, so the
    supervisor must notice it.  A victim picked without looking may hold
    nothing by ``at``, and the run then drains with the crash unnoticed.
    """
    sink = TraceSink()
    run_cluster(case, shape, epochs=epochs, trace=sink)
    work = Counter(
        e.process
        for e in sink.events
        if e.kind in ("activation", "notification") and e.t >= at and e.process > 0
    )
    assert work, "no crashable process works after %r" % at
    return work.most_common(1)[0][0]


def assert_engaged(comp, process):
    """The silent crash of ``process`` was suspected and recovered once."""
    assert [s["process"] for s in comp.supervisor.suspicions] == [process]
    assert [f["process"] for f in comp.recovery.failures] == [process]


@pytest.mark.detection
class TestSilentCrashDetection:
    @pytest.mark.parametrize("mode", ["none", "checkpoint", "logging"])
    @pytest.mark.parametrize("policy", ["restart", "reassign"])
    def test_detector_matches_oracle_and_clean_run(self, mode, policy):
        expected, duration = baseline("wordcount", (3, 2))
        crash_at = duration * 0.4
        victim = busy_process("wordcount", (3, 2), crash_at)
        oracle, comp_o = run_cluster(
            "wordcount", (3, 2), ft=make_ft(mode, policy=policy),
            kill=(victim, crash_at),
        )
        sink = TraceSink()
        out, comp = run_cluster(
            "wordcount", (3, 2), ft=make_ft(mode, policy=policy),
            crash=[(victim, crash_at)], supervise=sup_cfg(), trace=sink,
        )
        # The crash engaged: it was detected, fenced, and recovered.
        assert_engaged(comp, victim)
        (failure,) = comp.recovery.failures
        assert comp.generations[victim] >= 1
        sup = comp.supervisor
        assert sup.suspicions[0]["at"] > crash_at
        assert out == expected
        assert out == oracle
        stats = detection_stats(sink.events)
        (incident,) = stats.incidents
        assert incident.process == victim
        assert incident.mttd > 0
        assert incident.mttr >= incident.mttd
        assert incident.recovered_at == pytest.approx(failure["ready"])

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_async_checkpointing_cases(self, case):
        epochs = CASES[case][1] * 3  # stretch the run past the MTTD
        expected, duration = baseline_epochs(case, (3, 2), epochs)
        ft = make_ft("checkpoint", policy="reassign")
        # random-a's work after about 0.08x of the run all sits on
        # process 0, which cannot crash silently: crash it earlier.
        crash_at = duration * (0.05 if case == "random-a" else 0.4)
        victim = busy_process(case, (3, 2), crash_at, epochs=epochs)
        out, comp = run_cluster(
            case, (3, 2), ft=ft, crash=[(victim, crash_at)],
            supervise=sup_cfg(bootstrap_timeout=3e-4), epochs=epochs,
        )
        assert out == expected
        assert_engaged(comp, victim)
        # Reassigned away: nothing runs on the dead process after.
        assert all(w.process != victim for w in comp.workers)

    @pytest.mark.parametrize("plan", ["unfused", "fused"])
    def test_fused_plans(self, plan):
        expected, duration = baseline("wordcount", (3, 2))
        victim = busy_process("wordcount", (3, 2), duration * 0.4)
        kwargs = {}
        if plan == "fused":
            kwargs["optimize"] = True
        out, comp = run_cluster(
            "wordcount", (3, 2), ft=make_ft("checkpoint"),
            crash=[(victim, duration * 0.4)], supervise=sup_cfg(), **kwargs
        )
        assert_engaged(comp, victim)
        assert out == expected, plan

    def test_crash_traffic_after_fence_is_discarded(self):
        """A fenced generation's messages are provably dropped, not
        applied: the drop counters and the trace agree."""
        expected, duration = baseline("wordcount", (3, 2))
        victim = busy_process("wordcount", (3, 2), duration * 0.4)
        sink = TraceSink()
        out, comp = run_cluster(
            "wordcount", (3, 2), ft=make_ft("checkpoint"),
            crash=[(victim, duration * 0.4)], supervise=sup_cfg(), trace=sink,
        )
        assert_engaged(comp, victim)
        assert out == expected
        stats = detection_stats(sink.events)
        assert comp.fenced_drops == sum(
            n for reason, n in stats.drops.items()
            if reason in ("stale-data", "stale-progress")
        )
        assert comp.supervisor.heartbeat_drops == stats.drops.get(
            "stale-heartbeat", 0
        )


# ----------------------------------------------------------------------
# GC storms: long pauses must not trigger recovery.
# ----------------------------------------------------------------------


@pytest.mark.detection
class TestGCStorm:
    def test_gc_pause_beyond_naive_timeout_not_suspected(self):
        """The false-positive regression: exponential GC pauses blow
        through a fixed 3x-interval timeout many times over, yet the
        adaptive detector (which has *seen* the pauses in its window)
        never fires and no recovery runs."""
        epochs = CASES["iterate"][1] * 3  # integer keys: hash-stable
        expected, _ = baseline_epochs("iterate", (3, 2), epochs)
        net = NetworkConfig(gc_interval=1.5e-3, gc_pause=0.25e-3)
        out, comp = run_cluster(
            "iterate", (3, 2), ft=make_ft("checkpoint"), network=net,
            epochs=epochs,
            supervise=sup_cfg(
                heartbeat_interval=1e-4,
                min_samples=8,
                window=32,
                min_std=2e-4,
                naive_multiplier=3.0,
                bootstrap_timeout=2.5e-3,
            ),
        )
        assert out == expected
        sup = comp.supervisor
        # A naive fixed-timeout detector would have fired repeatedly...
        assert sup.naive_violations > 0
        # ...but phi-accrual stays quiet and nothing was recovered.
        assert sup.suspicions == []
        assert comp.recovery.failures == []
        assert comp.generations == [0, 0, 0]

    def test_crash_still_detected_under_gc_noise(self):
        epochs = CASES["iterate"][1] * 3
        expected, duration = baseline_epochs("iterate", (3, 2), epochs)
        net = NetworkConfig(gc_interval=1.5e-3, gc_pause=0.25e-3)
        out, comp = run_cluster(
            "iterate", (3, 2), ft=make_ft("checkpoint"), network=net,
            epochs=epochs, crash=[(1, duration * 0.6)],
            supervise=sup_cfg(
                heartbeat_interval=1e-4,
                min_samples=8,
                window=32,
                min_std=2e-4,
                bootstrap_timeout=2.5e-3,
            ),
        )
        assert out == expected
        # The real crash is detected.  (GC tails during the recovery
        # stall may additionally suspect a survivor; that is the safe
        # direction — recovery preserves outputs — and the quiet-case
        # regression above pins down the false-positive behaviour.)
        suspected = [s["process"] for s in comp.supervisor.suspicions]
        assert 1 in suspected
        assert any(f["process"] == 1 for f in comp.recovery.failures)


# ----------------------------------------------------------------------
# Partitions: one-way cuts make zombies; the fence contains them.
# ----------------------------------------------------------------------


@pytest.mark.detection
class TestPartitions:
    """These use the ``iterate`` case, whose schedule repeats exactly
    run to run, so the partition timing (and hence exactly what gets
    fenced) is reproducible."""

    def test_one_way_partition_fences_the_zombie(self):
        """Heartbeats 1->0 are cut but process 1 keeps computing and
        sending — a zombie.  The supervisor suspects it, the fence
        bumps its generation, and everything it sent from the old
        generation is discarded with a trace, so the recovered run
        still matches the clean one."""
        epochs = CASES["iterate"][1] * 3
        expected, duration = baseline_epochs("iterate", (3, 2), epochs)
        at = duration * 0.3
        ft = make_ft("checkpoint", policy="reassign")
        sink = TraceSink()
        out, comp = run_cluster(
            "iterate", (3, 2), ft=ft, epochs=epochs,
            partitions=[dict(a=1, b=0, at=at, heal_at=at + 2.5e-3,
                             one_way=True)],
            supervise=sup_cfg(), trace=sink,
        )
        assert out == expected
        sup = comp.supervisor
        assert [s["process"] for s in sup.suspicions] == [1]
        assert comp.generations[1] >= 1
        assert len(comp.recovery.failures) >= 1
        # The zombie's stale traffic was provably dropped and traced:
        # the late heartbeats it had in flight across the healed cut,
        # and the progress/data it sent from the fenced generation.
        stats = detection_stats(sink.events)
        assert comp.fenced_drops > 0
        assert sup.heartbeat_drops > 0
        assert comp.fenced_drops == sum(
            n for reason, n in stats.drops.items()
            if reason in ("stale-data", "stale-progress")
        )
        assert stats.drops.get("stale-heartbeat", 0) == sup.heartbeat_drops

    def test_full_partition_heals_after_recovery(self):
        epochs = CASES["iterate"][1] * 3
        expected, duration = baseline_epochs("iterate", (3, 2), epochs)
        at = duration * 0.3
        ft = make_ft("checkpoint", policy="reassign")
        out, comp = run_cluster(
            "iterate", (3, 2), ft=ft, epochs=epochs,
            partitions=[dict(a=1, b=0, at=at, heal_at=at + 2.5e-3)],
            supervise=sup_cfg(),
        )
        assert out == expected
        assert len(comp.recovery.failures) >= 1
        assert comp.generations[1] >= 1


# ----------------------------------------------------------------------
# Crash loops: backoff grows, the third death evicts, backfill lands.
# ----------------------------------------------------------------------


@pytest.mark.detection
class TestCrashLoopQuarantine:
    def test_three_deaths_evict_and_backfill(self):
        ft = FaultTolerance(
            mode="checkpoint",
            checkpoint_every=2,
            state_bytes_per_worker=1 << 20,
            disk_bandwidth=200e6,
            recovery="reassign",
            restart_delay=0.0005,
        )
        epochs = WORDCOUNT_EPOCHS * 4  # long enough for three cycles
        expected, duration = baseline_epochs("wordcount", (3, 2), epochs)
        victim = busy_process("wordcount", (3, 2), duration * 0.05, epochs)

        sink = TraceSink()
        comp = ClusterComputation(
            num_processes=3, workers_per_process=2, fault_tolerance=ft
        )
        comp.attach_trace_sink(sink)
        program, _ = CASES["wordcount"]
        inp, out = program(comp)
        comp.build()
        auto = Autoscaler(
            comp,
            sink,
            AutoscalePolicy(
                max_processes=8, low_utilization=1e-9, high_utilization=1.0
            ),
        ).start()
        sup = comp.attach_supervisor(
            sup_cfg(
                placement="restart",
                quarantine_deaths=3,
                quarantine_window=5.0,
                backoff_base=0.0005,
                backoff_factor=2.0,
            ),
            autoscaler=auto,
        )

        # Crash the victim again each time it comes back, three times:
        # a genuine crash loop, not three independent incidents.
        crashes = []

        def maybe_crash():
            alive = any(
                w.process == victim and not w.dead for w in comp.workers
            )
            if (
                alive
                and victim not in comp._removed_processes
                and victim not in comp.recovery.dead_processes
            ):
                comp._crash_now(victim)
                crashes.append(comp.sim.now)
            if len(crashes) < 3:
                comp.sim.schedule_at(comp.sim.now + 3e-4, maybe_crash)

        comp.sim.schedule_at(duration * 0.05, maybe_crash)

        for epoch in epochs:
            inp.on_next(epoch)
        inp.on_completed()
        comp.run()
        assert comp.drained(), comp.debug_state()
        # Each crash engaged: two supervised recoveries with growing
        # backoff, then eviction.
        assert len(crashes) == 3
        mine = [s for s in sup.suspicions if s["process"] == victim]
        assert [s["action"] for s in mine] == [
            "recover", "recover", "quarantine",
        ]
        assert out == expected
        assert [s["deaths_in_window"] for s in mine] == [1, 2, 3]
        assert mine[1]["restart_delay"] > mine[0]["restart_delay"]
        assert sup.quarantined == [victim]

        # Eviction took the planned-remove bookkeeping path...
        assert victim in comp._removed_processes
        removed = [r["process"] for r in comp.rescales if r["kind"] == "remove"]
        assert victim in removed
        assert all(w.process != victim for w in comp.workers)
        # ...and the autoscaler backfilled a replacement process.
        backfills = [
            d for d in auto.decisions if d.get("reason") == "quarantine"
        ]
        assert len(backfills) == 1
        added = [r["process"] for r in comp.rescales if r["kind"] == "add"]
        assert added  # the backfilled process joined the membership

        stats = detection_stats(sink.events)
        assert stats.quarantined == (victim,)
        assert len(stats.incidents) == 3

    def test_backoff_schedule_is_deterministic_and_capped(self):
        comp = ClusterComputation(
            num_processes=2,
            workers_per_process=1,
            fault_tolerance=make_ft("checkpoint"),
        )
        comp.build()
        sup = comp.attach_supervisor(
            sup_cfg(backoff_base=0.01, backoff_factor=2.0, backoff_max=0.05)
        )
        delays = [sup._backoff(n) for n in range(1, 6)]
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05]

    def test_jitter_comes_from_the_supervisor_rng(self):
        comp = ClusterComputation(
            num_processes=2,
            workers_per_process=1,
            fault_tolerance=make_ft("checkpoint"),
        )
        comp.build()
        sup = comp.attach_supervisor(
            sup_cfg(backoff_base=0.01, backoff_jitter=0.5, seed=7)
        )
        state_before = comp.sim.rng.getstate()
        d = sup._backoff(1)
        # Jittered above the base, and the simulator's RNG untouched —
        # a draw from sim.rng would shift the GC/loss schedule and
        # break bit-identity with oracle recovery.
        assert 0.01 <= d <= 0.015
        assert comp.sim.rng.getstate() == state_before


# ----------------------------------------------------------------------
# Serving keeps answering across a *detected* failure.
# ----------------------------------------------------------------------


@pytest.mark.detection
class TestServingAcrossDetectedFailure:
    def test_interactive_responses_identical(self):
        import os
        import sys

        sys.path.insert(
            0,
            os.path.join(
                os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                "examples",
            ),
        )
        import interactive_recover

        expected, clean = interactive_recover.run()
        responses, comp = interactive_recover.run(
            crash=(2, clean.now * 0.5), supervise=sup_cfg()
        )
        assert responses == expected
        assert [s["process"] for s in comp.supervisor.suspicions] == [2]
        assert len(comp.recovery.failures) == 1
