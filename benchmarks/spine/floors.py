"""Layer floors: a tight loop over one public function each, best of 5.

The timely README's ``cargo bench`` pair (ns per progress round, ns per
queued batch) and their siblings here: what a layer costs when nothing
else is in the way, under the end-to-end numbers.
"""

from __future__ import annotations

import gc
from time import perf_counter

from repro.columnar import INT64_PAIR, ColumnarBatch
from repro.core import Computation, Pointstamp, ProgressState, Timestamp, Vertex
from repro.lib import Stream
from repro.serve import SharedArrangement
from repro.sim import Network, NetworkConfig, Simulator

REPS = 5


#: Iterations of the calibration loop (``host.calib_ns`` is per iteration).
CALIBRATION_ITERATIONS = 250_000


def calibrate() -> float:
    """Seconds for a fixed loop of integer arithmetic and dict stores, run
    before and after every repetition.  No metric is scaled by it (README:
    measured and rejected); it only shows the box's drift in the record and
    flags a run as ``noisy``."""
    started = perf_counter()
    acc = 0
    table = {}
    for i in range(200_000):
        acc += i * i
    for i in range(50_000):
        table[i & 1023] = (i, acc)
    return perf_counter() - started


def best_of(loop, reps: int = REPS) -> float:
    """Smallest ns per operation over ``reps`` runs of ``loop() ->
    (seconds, operations)``."""
    best = float("inf")
    for _ in range(reps):
        gc.collect()
        seconds, operations = loop()
        best = min(best, 1e9 * seconds / operations)
    return best


def _noop() -> None:
    pass


def des_event(count: int = 20_000):
    sim = Simulator()
    started = perf_counter()
    for index in range(count):
        sim.schedule(index * 1e-6, _noop)
    sim.run()
    return perf_counter() - started, count


def network_send(count: int = 10_000):
    sim = Simulator()
    network = Network(sim, 2, NetworkConfig())
    started = perf_counter()
    for _ in range(count):
        network.send(0, 1, 100, "data", _noop)
    sim.run()
    return perf_counter() - started, count


def _one_loop_graph():
    """Input -> one loop with one stage -> out: the smallest graph whose
    pointstamps carry a loop counter."""
    comp = Computation()
    inp = comp.new_input()
    with comp.scope("floor") as loop:
        stage = loop.stage("body", lambda s, w: Vertex(), 2, 1)
        loop.enter(Stream.from_input(inp)).connect_to(stage, 0)
        loop.feed(Stream(comp, stage, 0))
        loop.feedback.connect_to(stage, 1)
    comp.build()
    return comp.graph.summaries, stage


def progress_update(summaries, stage, count: int = 2_000):
    state = ProgressState(summaries)
    stamps = [Pointstamp(Timestamp(0, (index,)), stage) for index in range(64)]
    started = perf_counter()
    for _ in range(count // (2 * len(stamps))):
        for stamp in stamps:
            state.update(stamp, +1)
        state.frontier()
        for stamp in stamps:
            state.update(stamp, -1)
    return perf_counter() - started, count


def columnar_record(count: int = 20_000):
    records = [(index, index + 1) for index in range(count)]
    started = perf_counter()
    ColumnarBatch.from_records(records, INT64_PAIR).to_records()
    return perf_counter() - started, count


def serve_lookup(keys: int = 2_000, epochs: int = 4):
    arrangement = SharedArrangement("floor")
    started = perf_counter()
    for epoch in range(epochs):
        arrangement.apply(epoch, {key: {(key, epoch): 1} for key in range(keys)})
        for key in range(keys):
            arrangement.lookup(key, epoch)
    return perf_counter() - started, keys * epochs


def measure() -> dict:
    """The five floors that need no workload."""
    summaries, stage = _one_loop_graph()
    return {
        "sim.des.ns_per_event": best_of(des_event),
        "sim.network.ns_per_send": best_of(network_send),
        "core.progress.ns_per_update": best_of(lambda: progress_update(summaries, stage)),
        "columnar.ns_per_record": best_of(columnar_record),
        "serve.ns_per_lookup": best_of(serve_lookup),
    }
