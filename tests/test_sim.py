"""Tests for the discrete-event simulator and the network model."""

import pytest

from repro.sim import Network, NetworkConfig, Simulator


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(3.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_fifo_tie_break(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: log.append(i))
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_schedule_during_run(self):
        sim = Simulator()
        log = []

        def first():
            log.append("first")
            sim.schedule(0.5, lambda: log.append("nested"))

        sim.schedule(1.0, first)
        sim.run()
        assert log == ["first", "nested"]
        assert sim.now == 1.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_run_until(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(2.0, lambda: log.append(2))
        sim.run(until=1.5)
        assert log == [1]
        assert sim.now == 1.5
        sim.run()
        assert log == [1, 2]

    def test_run_until_fires_due_background_events(self):
        # Regression: `run(until=...)` used to jump the clock straight
        # to `until`, skipping background events whose due times the
        # clock passes through on the way there.
        sim = Simulator()
        log = []
        sim.schedule_background(1.0, lambda: log.append(("bg", sim.now)))
        sim.schedule(2.0, lambda: log.append(("fg", sim.now)))
        sim.run(until=1.5)
        assert log == [("bg", 1.0)]
        assert sim.now == 1.5
        sim.run()
        assert log == [("bg", 1.0), ("fg", 2.0)]

    def test_run_until_background_may_schedule_foreground(self):
        # A background callback that enqueues foreground work due
        # before `until` must see that work executed in the same run.
        sim = Simulator()
        log = []
        sim.schedule_background(
            1.0, lambda: sim.schedule_at(1.2, lambda: log.append(sim.now))
        )
        sim.schedule(2.0, lambda: log.append(sim.now))
        sim.run(until=1.5)
        assert log == [1.2]
        assert sim.now == 1.5

    def test_max_events(self):
        sim = Simulator()
        log = []
        for i in range(10):
            sim.schedule(float(i), lambda i=i: log.append(i))
        assert sim.run(max_events=3) == 3
        assert log == [0, 1, 2]

    def test_determinism_with_seed(self):
        values = []
        for _ in range(2):
            sim = Simulator(seed=42)
            values.append([sim.rng.random() for _ in range(5)])
        assert values[0] == values[1]


class TestNetwork:
    def make(self, procs=2, **overrides):
        sim = Simulator(seed=7)
        config = NetworkConfig(**overrides)
        return sim, Network(sim, procs, config)

    def test_remote_latency_and_bandwidth(self):
        sim, net = self.make(latency=1e-3, bandwidth=1e6, per_message_bytes=0)
        arrivals = []
        net.send(0, 1, 1000, "data", lambda: arrivals.append(sim.now))
        sim.run()
        # 1000 bytes at 1 MB/s = 1 ms transfer + 1 ms latency.
        assert arrivals == [pytest.approx(2e-3)]

    def test_local_delivery_is_fast(self):
        sim, net = self.make()
        arrivals = []
        net.send(0, 0, 10_000, "data", lambda: arrivals.append(sim.now))
        sim.run()
        assert arrivals[0] < 1e-4

    def test_fifo_per_pair(self):
        # A large message then a small one: the small one must not
        # overtake despite its shorter transfer time.
        sim, net = self.make(latency=0.0, bandwidth=1e6, per_message_bytes=0)
        log = []
        net.send(0, 1, 1_000_000, "data", lambda: log.append("big"))
        net.send(0, 1, 1, "data", lambda: log.append("small"))
        sim.run()
        assert log == ["big", "small"]

    def test_egress_contention_serialises(self):
        sim, net = self.make(procs=3, latency=0.0, bandwidth=1e6, per_message_bytes=0)
        arrivals = {}
        net.send(0, 1, 1_000_000, "data", lambda: arrivals.setdefault(1, sim.now))
        net.send(0, 2, 1_000_000, "data", lambda: arrivals.setdefault(2, sim.now))
        sim.run()
        # Both leave through process 0's NIC: second transfer waits.
        assert arrivals[1] == pytest.approx(1.0)
        assert arrivals[2] == pytest.approx(2.0)

    def test_traffic_accounting(self):
        sim, net = self.make(per_message_bytes=64)
        net.send(0, 1, 100, "data", lambda: None)
        net.send(0, 1, 50, "progress", lambda: None)
        sim.run()
        assert net.stats.bytes("data") == 164
        assert net.stats.bytes("progress") == 114
        assert net.stats.messages("data") == 1
        assert net.stats.total_bytes() == 278

    def test_packet_loss_adds_retransmit_timeout(self):
        sim, net = self.make(
            latency=0.0,
            packet_loss_probability=1.0,
            retransmit_timeout=20e-3,
            per_message_bytes=0,
        )
        arrivals = []
        net.send(0, 1, 8, "data", lambda: arrivals.append(sim.now))
        sim.run()
        assert arrivals[0] >= 20e-3

    def test_nagle_penalty_for_small_messages(self):
        sim, net = self.make(latency=0.0, nagle_delay=0.2, per_message_bytes=0)
        arrivals = {}
        net.send(0, 1, 8, "small", lambda: arrivals.setdefault("s", sim.now))
        sim.run()
        sim2, net2 = self.make(latency=0.0, nagle_delay=0.2, per_message_bytes=0)
        net2.send(0, 1, 10_000, "large", lambda: arrivals.setdefault("l", sim2.now))
        sim2.run()
        assert arrivals["s"] >= 0.2
        assert arrivals["l"] < 0.2

    def test_gc_pauses_stall_process(self):
        sim, net = self.make(gc_interval=1e-3, gc_pause=5e-3)
        # GC generators are background events: they need foreground work
        # to advance the clock, and never keep the simulation alive.
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.now == 1.0
        assert net._gc_busy_until[0] > 0  # at least one pause occurred

    def test_multicast_matches_one_send_per_destination(self):
        """A multicast is exactly one send per destination, in order —
        arrivals, accounting, partition drops, random draws and trace —
        under loss, Nagle, GC pauses and both kinds of partition."""
        from repro.obs.trace import TraceSink

        def drive(multicast):
            sim, net = self.make(
                procs=4,
                packet_loss_probability=0.2,
                nagle_delay=1e-3,
                gc_interval=2e-3,
                gc_pause=1e-3,
            )
            net.partition(0, 2, at=0.0, heal_at=4e-3)
            net.partition(1, 3, at=2e-3)
            net.trace = TraceSink()
            arrivals = []

            def arrive(dst, tag):
                arrivals.append((sim.now, dst, tag))

            def burst(round_):
                src = round_ % 4
                dsts = [(src + k) % 4 for k in range(4)]
                kind = "heartbeat" if round_ % 3 == 0 else "progress"
                size = 40 * (round_ % 5)
                if multicast:
                    net.multicast(src, dsts, size, kind, arrive, round_)
                else:
                    for dst in dsts:
                        net.send(src, dst, size, kind, arrive, dst, round_)

            for round_ in range(24):
                sim.schedule_at(round_ * 5e-4, burst, round_)
            sim.run()
            trace = [event._replace(wall=0.0) for event in net.trace.events]
            return (
                arrivals,
                net.stats,
                (net.in_flight, net.heartbeat_in_flight),
                net.partition_drops,
                sim.rng.random(),
                trace,
            )

        multicast, sends = drive(True), drive(False)
        assert multicast == sends
        arrivals, _, _, drops, _, trace = multicast
        assert drops > 0
        # Every copy either arrives (and is traced) or is dropped.
        assert len(arrivals) == len(trace) == 24 * 4 - drops

    def test_background_events_do_not_keep_sim_alive(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.schedule_background(0.1, tick)

        sim.schedule_background(0.1, tick)
        sim.schedule(0.35, lambda: None)
        sim.run()
        # Self-rescheduling background work ran only until the last
        # foreground event, then the simulation went quiescent.
        assert ticks == pytest.approx([0.1, 0.2, 0.3])
        assert sim.now == 0.35
