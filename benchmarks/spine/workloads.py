"""The six spine workloads.

Each workload is a small object with the same five steps, so the runner
can time set-up and the run separately and keep the oracle out of both:

``inputs(seed)``   the seed-determined inputs (the program sees only these)
``oracle(inputs)`` the expected outputs, computed once, never timed
``build(inputs)``  graph construction + ``build()`` on a fresh runtime
``drive(run)``     feed the inputs and ``run()`` to drained
``outcome(run)``   outputs, client-clock latencies and exact numbers
``check(outputs, expected)`` -> ``(attempted, failed)`` operations

All runtimes are constructed with their defaults (inline, unfused,
record mode, scoped progress) unless a workload's docstring says why
not.  Vertex bodies the workloads need are defined here, never imported
from ``bench_*.py``.
"""

from __future__ import annotations

import bisect
import os
import random
import time
from collections import Counter
from types import SimpleNamespace

from repro.algorithms import (
    component_top_resolver,
    hashtag_component_arrangements,
    top_hashtags_by_component,
    weakly_connected_components,
)
from repro.algorithms.kexposure import k_exposure_incremental
from repro.core import Computation, Timestamp, Vertex
from repro.lib import Collection, Stream
from repro.runtime import ClusterComputation, CostModel, FaultTolerance
from repro.serve import SessionManager
from repro.sim import NetworkConfig
from repro.workloads import (
    TweetGenerator,
    TweetStreamConfig,
    generate_corpus,
    uniform_random_graph,
)


def count_mismatches(expected: dict, got: dict) -> int:
    """Operations whose outcome differs from the oracle: missing, extra
    or wrong, over the union of the two key sets."""
    return sum(
        1 for key in expected.keys() | got.keys() if expected.get(key) != got.get(key)
    )


def cluster_exact(comp, **more) -> dict:
    """The numbers of a finished cluster run that repeat exactly for one
    seed: ``--compare`` gates each of them at 1%."""
    return dict(virtual_s=comp.now, des_events=comp.sim.events_executed, **more)


class Workload:
    """Common shape; subclasses fill in the steps."""

    name = ""
    #: One line for BENCHMARK.json: why this workload is in the suite.
    why = ""
    #: preset -> size parameters (attributes of ``self.size``).
    sizes: dict = {}
    #: The clock the client latencies are read on.  ``virtual`` ones repeat
    #: exactly for one seed; ``wall`` ones are, operation by operation, the
    #: best of the repetitions.
    client_clock = "virtual"

    def __init__(self, preset: str = "full"):
        self.size = SimpleNamespace(**self.sizes[preset])

    def inputs(self, seed: int):
        raise NotImplementedError

    def oracle(self, inputs):
        raise NotImplementedError

    def build(self, inputs):
        raise NotImplementedError

    def drive(self, run) -> None:
        """Feed the inputs and run to drained."""
        raise NotImplementedError

    def timed_drive(self, run) -> float:
        """Wall seconds of ``drive``."""
        started = time.perf_counter()
        self.drive(run)
        return time.perf_counter() - started

    def outcome(self, run):
        """``SimpleNamespace(outputs, done_s, latencies, exact)``."""
        raise NotImplementedError

    def check(self, outputs, expected):
        return len(expected), count_mismatches(expected, outputs)

    def layer_metrics(self, outcome) -> dict:
        """Per-layer metrics only this workload can give (traced run); the
        names are declared for every workload, so the rest report 0."""
        return dict(WORKLOAD_LAYER_METRICS)

    def floors(self, run, wall_s: float) -> dict:
        """Floors that need this workload's finished ``run`` (traced run)."""
        return dict(WORKLOAD_FLOORS)


WORKLOAD_LAYER_METRICS = {
    "serve.answers": 0,
    "serve.degraded": 0,
    "serve.max_staleness": 0,
    "serve.arrangement_entries": 0,
    "serve.fresh_p50_ms": 0.0,
    "serve.fresh_p99_ms": 0.0,
    "serve.stale_p99_ms": 0.0,
    "runtime.checkpoint.recovery_ms": 0.0,
}
WORKLOAD_FLOORS = {
    "runtime.checkpoint.snapshot_ms": 0.0,
    "parallel.mp_wall_ratio": 0.0,
}


def percentile(ordered, fraction):
    """Nearest-rank percentile of sorted samples."""
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


# ----------------------------------------------------------------------
# wcc64: the Figure 6 flagship.
# ----------------------------------------------------------------------


def _wcc_dataflow(comp):
    records, done_at = [], {}

    def observe(timestamp, labels):
        records.extend((timestamp.epoch, node, label) for node, label in labels)
        done_at[timestamp.epoch] = getattr(comp, "now", 0.0)  # no clock on the oracle

    inp = comp.new_input()
    weakly_connected_components(Stream.from_input(inp)).subscribe(observe)
    comp.build()
    return inp, records, done_at


def _labels_by_node(records) -> dict:
    """(epoch, node) -> sorted tuple of every label emitted for it (one,
    when right)."""
    labels: dict = {}
    for epoch, node, label in records:
        labels.setdefault((epoch, node), []).append(label)
    return {key: tuple(sorted(found)) for key, found in labels.items()}


class Wcc64(Workload):
    """Not on the flagship's ``progress_mode="local+global"``: under it (and
    the default scoped tracker) this dataflow never drains on about 1 input
    in 75 — ``uniform_random_graph(300, 600, seed=85)`` and ``seed=87``,
    ``(500, 1000, seed=7000)`` — and ``"local"`` drains with a wrong label on
    ``(300, 600, seed=90)``.  A benchmark may not have failing operations,
    so wcc64 runs ``"global"`` (no per-process buffer, only the central
    accumulator holds updates back; same data plane, 620 seeds pass) until
    the runtime is fixed; then it returns to
    ``"local+global"``.  Under ``"global"`` every callback reports to the
    central accumulator, so progress messages outnumber data messages
    whatever the graph; the data plane still leads in bytes (7:1) and in
    time (README, "Workloads")."""

    name = "wcc64"
    why = (
        "WCC on a degree-8 random graph over 64x2 workers, progress_mode global: the Fig 6 "
        "flagship; data plane (cluster+timestamp+network) ~50% of wall, progress plane ~30%"
    )
    #: Average degree 8, not the issue's 4: the label needs fewer rounds and
    #: every round moves more records, which is what puts the data plane
    #: ahead of the per-round progress traffic at two nodes per worker; and
    #: the round count, which sets the modelled time, swings less from seed
    #: to seed (7% quartile distance against 12%).
    sizes = {
        "full": dict(nodes=250, edges=1000),
        "smoke": dict(nodes=60, edges=240),
    }

    def inputs(self, seed):
        return uniform_random_graph(self.size.nodes, self.size.edges, seed=seed)

    def oracle(self, graph):
        comp = Computation()
        inp, records, _ = _wcc_dataflow(comp)
        self._feed(inp, graph)
        comp.run()
        return _labels_by_node(records)

    @staticmethod
    def _feed(inp, graph):
        inp.on_next(graph)
        inp.on_completed()

    def build(self, graph):
        comp = ClusterComputation(
            num_processes=64,
            workers_per_process=2,
            progress_mode="global",
            # The Figure 6 blocked cost model.
            cost_model=CostModel(per_record_cost=2e-5, record_bytes=800),
        )
        inp, records, done_at = _wcc_dataflow(comp)
        return SimpleNamespace(
            comp=comp, inp=inp, records=records, done_at=done_at, graph=graph
        )

    def drive(self, run):
        self._feed(run.inp, run.graph)
        run.comp.run()

    def outcome(self, run):
        comp = run.comp
        return SimpleNamespace(
            outputs=_labels_by_node(run.records) if comp.drained() else {},
            done_s=comp.now,
            # One graph, injected at virtual time 0: one latency sample.
            latencies=[run.done_at[epoch] for epoch in sorted(run.done_at)],
            exact=cluster_exact(comp),
        )

    def floors(self, run, wall_s):
        # ``comp.checkpoint()`` on the drained cluster, best of 5.
        best = float("inf")
        for _ in range(5):
            started = time.perf_counter()
            run.comp.checkpoint()
            best = min(best, time.perf_counter() - started)
        return dict(WORKLOAD_FLOORS, **{"runtime.checkpoint.snapshot_ms": 1e3 * best})


# ----------------------------------------------------------------------
# barrier64: the Figure 6b no-data notification loop.
# ----------------------------------------------------------------------


class BarrierVertex(Vertex):
    """Requests a notification per iteration; worker 0 records the
    delivery times."""

    def __init__(self, iterations, clock, samples):
        super().__init__()
        self.iterations = iterations
        self.clock = clock
        self.samples = samples

    def on_recv(self, port, records, timestamp: Timestamp) -> None:
        self.notify_at(timestamp)

    def on_notify(self, timestamp: Timestamp) -> None:
        if self.worker == 0:
            self.samples.append(self.clock())
        iteration = timestamp.counters[-1]
        if iteration + 1 < self.iterations:
            self.notify_at(timestamp.incremented())


class Barrier64(Workload):
    """The network is the clean default: no loss, no GC pauses, so no RNG
    draw happens during the run and the virtual numbers are a pure
    function of the protocol and the seed.  The seed's only input is the
    cluster's one-way link latency, within 0.5% of the paper's 100 us —
    the loop carries no data, so there is nothing else to generate."""

    name = "barrier64"
    why = (
        "no-data notification loop over 64x1 workers: the progress plane alone, "
        "the bypass for every data-plane change"
    )
    sizes = {
        "full": dict(computers=64, iterations=16),
        "smoke": dict(computers=16, iterations=6),
    }

    def inputs(self, seed):
        return 100e-6 * (1.0 + random.Random(seed).uniform(-0.005, 0.005))

    def oracle(self, latency):
        return {iteration: True for iteration in range(self.size.iterations)}

    def build(self, latency):
        size = self.size
        comp = ClusterComputation(
            num_processes=size.computers,
            workers_per_process=1,
            progress_mode="local+global",
            network=NetworkConfig(latency=latency),
        )
        samples = []
        inp = comp.new_input()
        with comp.scope("barrier", max_iterations=size.iterations) as loop:
            stage = loop.stage(
                "barrier",
                lambda s, w: BarrierVertex(size.iterations, lambda: comp.now, samples),
                2,
                1,
            )
            loop.enter(Stream.from_input(inp)).connect_to(stage, 0)
            loop.feed(Stream(comp, stage, 0))
            loop.feedback.connect_to(stage, 1)
        comp.build()
        return SimpleNamespace(comp=comp, inp=inp, samples=samples)

    def drive(self, run):
        run.inp.on_next(list(range(self.size.computers)))
        run.inp.on_completed()
        run.comp.run()

    def outcome(self, run):
        comp, samples = run.comp, run.samples
        return SimpleNamespace(
            outputs={index: True for index in range(len(samples))},
            done_s=comp.now,
            latencies=[b - a for a, b in zip(samples, samples[1:])],
            exact=cluster_exact(comp),
        )


# ----------------------------------------------------------------------
# udf_chain: vertex bodies dominate.
# ----------------------------------------------------------------------

UDF_STAGES = 4


def _burn(x):
    # ~700 us of real Python per record per stage.
    acc = 0
    for i in range(15000):
        acc += i * i
    return x + (acc & 1)


class UdfChain(Workload):
    name = "udf_chain"
    why = (
        "four heavy select bodies over many small epochs on 8x2 workers: user code is "
        "70-80% of wall, so runtime-overhead changes predict no change here"
    )
    sizes = {
        "full": dict(epochs=20, records=6),
        "smoke": dict(epochs=4, records=3),
    }

    def inputs(self, seed):
        # Epoch sizes vary around ``records`` but their total is fixed, so
        # every seed burns the same CPU; the seed decides where the work
        # falls, which is what the modelled times depend on.
        size = self.size
        rng = random.Random(seed)
        counts = [size.records + offset for offset in (-2, -1, 0, 1, 2)]
        counts = (counts * size.epochs)[: size.epochs]
        counts[-1] += size.records * size.epochs - sum(counts)
        rng.shuffle(counts)
        return [[rng.randrange(1 << 30) for _ in range(count)] for count in counts]

    def oracle(self, epochs):
        # Direct evaluation: every stage adds the same parity bit.
        bump = UDF_STAGES * _burn(0)
        return {
            epoch: tuple(sorted(x + bump for x in records))
            for epoch, records in enumerate(epochs)
        }

    def build(self, epochs, **backend):
        comp = ClusterComputation(
            num_processes=8, workers_per_process=2, progress_mode="local+global", **backend
        )
        outputs, done_at = {}, {}

        def observe(timestamp, records):
            outputs.setdefault(timestamp.epoch, []).extend(records)
            done_at[timestamp.epoch] = comp.now

        inp = comp.new_input()
        stream = Stream.from_input(inp)
        for _ in range(UDF_STAGES):
            stream = stream.select(_burn)
        stream.subscribe(observe)
        comp.build()
        return SimpleNamespace(
            comp=comp, inp=inp, epochs=epochs, outputs=outputs, done_at=done_at
        )

    def drive(self, run):
        for records in run.epochs:
            run.inp.on_next(records)
        run.inp.on_completed()
        run.comp.run()

    def outcome(self, run):
        comp = run.comp
        return SimpleNamespace(
            outputs={e: tuple(sorted(recs)) for e, recs in run.outputs.items()},
            done_s=comp.now,
            # Every epoch is injected at virtual time 0.
            latencies=[run.done_at[e] for e in sorted(run.done_at)],
            exact=cluster_exact(comp),
        )

    def floors(self, run, wall_s):
        """``parallel.mp_wall_ratio``: one repetition on the fork pool with a
        child per core, over the inline wall (0 where fork is missing)."""
        from repro.parallel import fork_available

        if not fork_available():
            return dict(WORKLOAD_FLOORS)
        pooled = self.build(run.epochs, backend="mp", pool_workers=os.cpu_count())
        try:
            ratio = self.timed_drive(pooled) / wall_s
        finally:
            pooled.comp.close()
        return dict(WORKLOAD_FLOORS, **{"parallel.mp_wall_ratio": ratio})


# ----------------------------------------------------------------------
# ref_stream: the reference runtime, closed loop, real wall-clock latency.
# ----------------------------------------------------------------------


class RefStream(Workload):
    name = "ref_stream"
    why = (
        "streaming word count on the single-threaded reference runtime, closed loop, one "
        "client: the only wall-clock latency, no sim/runtime layer is called"
    )
    sizes = {
        "full": dict(epochs=2000, lines=20),
        "smoke": dict(epochs=200, lines=20),
    }
    client_clock = "wall"

    def inputs(self, seed):
        size = self.size
        corpus = generate_corpus(size.epochs * size.lines, seed=seed)
        return [
            corpus[start : start + size.lines]
            for start in range(0, len(corpus), size.lines)
        ]

    def oracle(self, epochs):
        # One digest per epoch, not the counts themselves: thousands of
        # epochs of counts would outweigh the program in ``peak_rss_mb``.
        return {
            epoch: (hash(frozenset(Counter(" ".join(lines).split()).items())),)
            for epoch, lines in enumerate(epochs)
        }

    def build(self, epochs):
        comp = Computation()
        outputs = {}
        inp = comp.new_input()
        Stream.from_input(inp).select_many(str.split).count_by(
            lambda word: word
        ).subscribe(
            lambda t, recs: outputs.setdefault(t.epoch, []).append(hash(frozenset(recs)))
        )
        comp.build()
        return SimpleNamespace(comp=comp, inp=inp, epochs=epochs, outputs=outputs)

    def drive(self, run):
        # Closed loop, one client: the next epoch is sent only after the
        # previous epoch's counts have arrived.  One mark per epoch: its
        # distance from the mark before is the epoch's latency.
        comp, inp, outputs = run.comp, run.inp, run.outputs
        clock = time.perf_counter
        marks = run.marks = [clock()]
        for epoch, lines in enumerate(run.epochs):
            inp.on_next(lines)
            comp.run()
            if epoch not in outputs:
                break  # counted as failed operations by check()
            marks.append(clock())
        inp.on_completed()
        comp.run()

    def outcome(self, run):
        comp, marks = run.comp, run.marks
        return SimpleNamespace(
            outputs={e: tuple(digests) for e, digests in run.outputs.items()},
            done_s=marks[-1] - marks[0],
            latencies=[after - before for before, after in zip(marks, marks[1:])],
            exact={
                "delivered_msgs": comp.delivered_messages,
                "delivered_notifs": comp.delivered_notifications,
            },
        )


# ----------------------------------------------------------------------
# serve_mixed: Figure 8 on repro.serve, open loop.
# ----------------------------------------------------------------------

SERVE_EPOCH_INTERVAL = 10e-3
SERVE_QUERY_RATE = 25.0  # queries/s of virtual time per session
SERVE_STALE_BOUND = 3
SERVE_USERS = 1500


class _MultisetMap:
    """key -> multiset of values, maintained from ``((key, value), +-1)``
    diffs; reads follow ``component_top_resolver``: the maximum
    surviving value."""

    def __init__(self):
        self.entries: dict = {}

    def apply(self, diffs):
        for (key, value), multiplicity in diffs:
            values = self.entries.setdefault(key, Counter())
            values[value] += multiplicity
            if not values[value]:
                del values[value]
                if not values:
                    del self.entries[key]

    def get(self, key):
        values = self.entries.get(key)
        return max(values) if values else None


class ServeMixed(Workload):
    name = "serve_mixed"
    why = (
        "Fig 8 serving on 4x1 workers: open-loop Poisson queries from fresh and stale(3) "
        "sessions read shared arrangements beside the update stream's writes"
    )
    sizes = {
        "full": dict(epochs=100, tweets=80, sessions=250),
        "smoke": dict(epochs=12, tweets=40, sessions=40),
    }

    def inputs(self, seed):
        size = self.size
        generator = TweetGenerator(
            TweetStreamConfig(num_users=SERVE_USERS, num_hashtags=80, seed=seed)
        )
        tweet_epochs = [generator.batch(size.tweets) for _ in range(size.epochs)]
        # Open loop: every arrival time is drawn up front, per class, and
        # never waits for an earlier answer.
        rng = random.Random(seed * 1009 + size.sessions)
        horizon = (size.epochs - 1) * SERVE_EPOCH_INTERVAL
        pools = {"fresh": size.sessions // 2}
        pools["stale"] = size.sessions - pools["fresh"]
        queries = []
        for slo, pool in pools.items():
            rate = SERVE_QUERY_RATE * pool
            at = rng.expovariate(rate)
            while at < horizon:
                queries.append((at, slo, rng.randrange(pool), generator.query()))
                at += rng.expovariate(rate)
        return SimpleNamespace(tweet_epochs=tweet_epochs, queries=queries, pools=pools)

    def oracle(self, inputs):
        """Answer history per queried user, from the reference runtime on
        the same update dataflow: ``lookup(user, epoch)`` is the top
        hashtag of the user's component once ``epoch`` is applied."""
        comp = Computation()
        tweets_in = comp.new_input()
        labels, top = top_hashtags_by_component(
            Collection.from_records(Stream.from_input(tweets_in))
        )
        label_diffs, top_diffs = {}, {}
        labels.subscribe(lambda t, diffs: label_diffs.setdefault(t.epoch, []).extend(diffs))
        top.subscribe(lambda t, diffs: top_diffs.setdefault(t.epoch, []).extend(diffs))
        comp.build()
        for batch in inputs.tweet_epochs:
            tweets_in.on_next(batch)
        tweets_in.on_completed()
        comp.run()

        users = sorted({user for _, _, _, user in inputs.queries})
        component, top_tag = _MultisetMap(), _MultisetMap()
        history = {user: ([], []) for user in users}
        for epoch in range(len(inputs.tweet_epochs)):
            component.apply(label_diffs.get(epoch, ()))
            top_tag.apply(top_diffs.get(epoch, ()))
            for user in users:
                cid = component.get(user)
                value = top_tag.get(cid) if cid is not None else None
                epochs, values = history[user]
                if value != (values[-1] if values else None):
                    epochs.append(epoch)
                    values.append(value)
        return SimpleNamespace(history=history, queries=inputs.queries)

    @staticmethod
    def lookup(history, user, epoch):
        epochs, values = history[user]
        index = bisect.bisect_right(epochs, epoch)
        return values[index - 1] if index else None

    def build(self, inputs):
        comp = ClusterComputation(
            num_processes=4, workers_per_process=1, progress_mode="local+global"
        )
        tweets_in = comp.new_input()
        queries_in = comp.new_input()
        arrangements = hashtag_component_arrangements(Stream.from_input(tweets_in))
        manager = SessionManager(
            comp, queries_in, list(arrangements), component_top_resolver
        )
        comp.build()
        sessions = {
            "fresh": [manager.open_session("fresh") for _ in range(inputs.pools["fresh"])],
            "stale": [
                manager.open_session("stale", bound=SERVE_STALE_BOUND)
                for _ in range(inputs.pools["stale"])
            ],
        }
        return SimpleNamespace(
            comp=comp,
            tweets_in=tweets_in,
            manager=manager,
            sessions=sessions,
            inputs=inputs,
        )

    def drive(self, run):
        comp, manager, inputs = run.comp, run.manager, run.inputs
        tweets_in, sessions = run.tweets_in, run.sessions
        last = len(inputs.tweet_epochs) - 1
        for query_id, (at, slo, index, user) in enumerate(inputs.queries):
            comp.sim.schedule_at(
                at,
                lambda s=sessions[slo][index], u=user, q=query_id: manager.submit(s, u, q),
            )

        def inject(epoch):
            tweets_in.on_next(inputs.tweet_epochs[epoch])
            manager.pump()  # fresh queries since the last pump join this epoch
            if epoch == last:
                tweets_in.on_completed()
                manager.close()

        for epoch in range(last + 1):
            comp.sim.schedule_at(epoch * SERVE_EPOCH_INTERVAL, lambda e=epoch: inject(e))
        run.comp.run()
        manager.drain()

    def outcome(self, run):
        comp, manager = run.comp, run.manager
        queries = run.inputs.queries
        # Latency is timed from the scheduled arrival, not from whenever
        # the system got round to accepting the query.
        latencies = {"fresh": [], "stale": []}
        for answer in manager.answers:
            latencies[answer.slo].append(answer.answered_at - queries[answer.query_id][0])
        fresh, stale = sorted(latencies["fresh"]), sorted(latencies["stale"])
        return SimpleNamespace(
            outputs=list(manager.answers),
            done_s=comp.now,
            # The client latency is the fresh class's: a stale answer costs
            # the modelled 500 us whatever the system does, and with half
            # the sessions stale a median over both would sit on the edge
            # between the classes.  The stale p99 is gated beside it.
            latencies=fresh,
            exact=cluster_exact(
                comp,
                fresh_virtual_p50_ms=1e3 * percentile(fresh, 0.50) if fresh else 0.0,
                fresh_virtual_p99_ms=1e3 * percentile(fresh, 0.99) if fresh else 0.0,
                stale_virtual_p99_ms=1e3 * percentile(stale, 0.99) if stale else 0.0,
            ),
            arrangement_entries=manager.arrangement_entries(),
        )

    def layer_metrics(self, outcome):
        answers, exact = outcome.outputs, outcome.exact
        return dict(
            WORKLOAD_LAYER_METRICS,
            **{
                "serve.answers": len(answers),
                "serve.degraded": sum(1 for answer in answers if answer.degraded),
                "serve.max_staleness": max(answer.staleness for answer in answers),
                "serve.arrangement_entries": outcome.arrangement_entries,
                "serve.fresh_p50_ms": exact["fresh_virtual_p50_ms"],
                "serve.fresh_p99_ms": exact["fresh_virtual_p99_ms"],
                "serve.stale_p99_ms": exact["stale_virtual_p99_ms"],
            },
        )

    def check(self, outputs, expected):
        """A query fails when it is unanswered, shed, answered twice, served
        under another class, staler than its bound, or wrong."""
        queries, history = expected.queries, expected.history
        seen = Counter(answer.query_id for answer in outputs)
        good = set()
        for answer in outputs:
            _, slo, _, user = queries[answer.query_id]
            bound = SERVE_STALE_BOUND if slo == "stale" else 0
            if (
                seen[answer.query_id] == 1
                and answer.slo == slo
                and not answer.degraded
                and answer.staleness <= bound
                and answer.user == user
                and answer.value == self.lookup(history, user, answer.state_epoch)
            ):
                good.add(answer.query_id)
        return len(queries), len(queries) - len(good)


# ----------------------------------------------------------------------
# kexp_ckpt: Figure 7c under async checkpoints, with one failure.
# ----------------------------------------------------------------------

KEXP_EPOCH_INTERVAL = 5e-3
KEXP_KILL_PROCESS = 3


def _kexp_dataflow(comp, observe):
    tweets_in = comp.new_input()
    followers_in = comp.new_input()
    k_exposure_incremental(
        Collection(Stream.from_input(tweets_in)),
        Collection(Stream.from_input(followers_in)),
    ).subscribe(observe)
    comp.build()
    return tweets_in, followers_in


class KexpCkpt(Workload):
    name = "kexp_ckpt"
    why = (
        "incremental k-exposure on 8x1 workers with async checkpoints every 10 epochs and "
        "one process kill: state writes and the recovery path beside the data plane"
    )
    sizes = {
        "full": dict(epochs=40, tweets=100, followers=3000),
        "smoke": dict(epochs=20, tweets=40, followers=600),
    }
    #: The kill lands at this share of the stream: the last 15% of the
    #: epochs wait for the recovery, so the tail percentile sits well
    #: inside them (not on their edge, where it would flap with the seed)
    #: and the median well outside.
    kill_share = 0.85

    def inputs(self, seed):
        size = self.size
        generator = TweetGenerator(
            TweetStreamConfig(num_users=2000, num_hashtags=100, seed=seed)
        )
        followers = [
            ((generator.query(), generator.query()), +1) for _ in range(size.followers)
        ]
        epochs = [
            [
                ((tweet.user, tag), +1)
                for tweet in generator.batch(size.tweets)
                for tag in tweet.hashtags or ("#none",)
            ]
            for _ in range(size.epochs)
        ]
        return SimpleNamespace(followers=followers, epochs=epochs)

    def oracle(self, inputs):
        outputs = {}
        comp = Computation()
        tweets_in, followers_in = _kexp_dataflow(
            comp, lambda t, diffs: outputs.setdefault(t.epoch, Counter()).update(diffs)
        )
        followers_in.on_next(inputs.followers)
        followers_in.on_completed()
        for batch in inputs.epochs:
            tweets_in.on_next(batch)
        tweets_in.on_completed()
        comp.run()
        return outputs

    def build(self, inputs):
        comp = ClusterComputation(
            num_processes=8,
            workers_per_process=1,
            progress_mode="local+global",
            fault_tolerance=FaultTolerance(
                mode="checkpoint",
                checkpoint_every=10,
                checkpoint_mode="async",
                state_bytes_per_worker=3 << 20,
                disk_bandwidth=200e6,
            ),
        )
        run = SimpleNamespace(
            comp=comp, inputs=inputs, outputs={}, arrivals={}, latencies=[]
        )

        def observe(timestamp, diffs):
            epoch = timestamp.epoch
            run.outputs.setdefault(epoch, Counter()).update(diffs)
            if epoch in run.arrivals:
                run.latencies.append(comp.now - run.arrivals[epoch])

        run.tweets_in, run.followers_in = _kexp_dataflow(comp, observe)
        return run

    def drive(self, run):
        comp, inputs = run.comp, run.inputs
        last = len(inputs.epochs) - 1
        comp.kill_process(
            KEXP_KILL_PROCESS,
            at=int(self.kill_share * len(inputs.epochs)) * KEXP_EPOCH_INTERVAL,
        )
        run.followers_in.on_next(inputs.followers)
        run.followers_in.on_completed()

        def inject(epoch):
            run.arrivals[epoch] = comp.now
            run.tweets_in.on_next(inputs.epochs[epoch])
            if epoch == last:
                run.tweets_in.on_completed()

        # Open loop: one epoch every interval, whatever the cluster is doing.
        for epoch in range(last + 1):
            comp.sim.schedule_at(epoch * KEXP_EPOCH_INTERVAL, lambda e=epoch: inject(e))
        run.comp.run()

    def outcome(self, run):
        comp = run.comp
        failures = comp.recovery.failures
        return SimpleNamespace(
            outputs=dict(run.outputs),
            done_s=comp.now,
            latencies=run.latencies,
            exact=cluster_exact(
                comp, recovery_virtual_s=sum(f["ready"] - f["at"] for f in failures)
            ),
        )

    def layer_metrics(self, outcome):
        return dict(
            WORKLOAD_LAYER_METRICS,
            **{"runtime.checkpoint.recovery_ms": 1e3 * outcome.exact["recovery_virtual_s"]},
        )


WORKLOADS = {
    cls.name: cls for cls in (Wcc64, Barrier64, UdfChain, RefStream, ServeMixed, KexpCkpt)
}
