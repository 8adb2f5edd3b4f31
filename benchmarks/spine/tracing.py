"""Per-layer attribution for the traced run (``--trace 1``).

Spans are recorded from here, around the calls into each layer; nothing
inside ``repro`` is instrumented.  Three sources:

- a ``cProfile`` pass around the timed section only, folded to layers by
  source path (a layer is one of this repo's modules);
- a ``TraceSink`` pass, no profiler, for the critical path of the
  modelled cluster and the checkpoint/serving summaries;
- the exact counters the runtimes keep unconditionally.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from collections import defaultdict

from repro.obs import TraceSink, checkpoint_pause_stats, collect_profile, critical_path

#: Path under ``repro/`` -> layer, first match wins (more specific first).
_REPRO_LAYERS = (
    ("sim/des.py", "sim.des"),
    ("sim/network.py", "sim.network"),
    ("core/computation.py", "core.computation"),
    ("core/progress.py", "core.progress"),
    ("core/scope.py", "core.scope"),
    ("core/pathsummary.py", "core.pathsummary"),
    ("core/timestamp.py", "core.timestamp"),
    ("core/", "core.graph"),  # graph, vertex, pointstamp, runtime_api, dot
    ("runtime/protocol.py", "runtime.protocol"),
    ("runtime/checkpoint.py", "runtime.checkpoint"),
    ("runtime/async_checkpoint.py", "runtime.checkpoint"),
    ("runtime/", "runtime.cluster"),  # cluster, rescale, supervisor, synthetic
    ("lib/", "lib"),
    ("algorithms/", "algorithms"),
    ("columnar/", "columnar"),
    ("opt/", "opt"),
    ("parallel/", "parallel"),
    ("serve/", "serve"),
    ("obs/", "obs"),
    ("workloads/", "user"),  # input generators are the benchmark's side
)

#: Every layer, in report order.  ``user`` is code the benchmark brings
#: (vertex bodies, callbacks); ``python`` is the standard library when
#: no layer called it.
LAYERS = (
    "sim.des",
    "sim.network",
    "core.computation",
    "core.progress",
    "core.scope",
    "core.pathsummary",
    "core.timestamp",
    "core.graph",
    "runtime.cluster",
    "runtime.protocol",
    "runtime.checkpoint",
    "lib",
    "algorithms",
    "columnar",
    "opt",
    "parallel",
    "serve",
    "obs",
    "user",
    "python",
)

_SPINE_DIR = os.path.dirname(os.path.abspath(__file__))
_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep


def layer_of(filename: str):
    """The layer a source file belongs to; None for builtins and C
    functions (cProfile files them under ``~``), which are charged to
    whichever layer called them."""
    if filename == "~":
        return None
    if filename.startswith(_SPINE_DIR):
        return "user"
    at = filename.find(_REPRO_MARK)
    if at < 0:
        return "python"
    relative = filename[at + len(_REPRO_MARK) :].replace(os.sep, "/")
    for prefix, layer in _REPRO_LAYERS:
        if relative.startswith(prefix):
            return layer
    return "python"


def fold_profile(profiler: cProfile.Profile):
    """Fold a profile to layers.

    Returns ``(layers, spans)``: per layer ``self_s`` (time in the layer's
    own frames plus the builtins it called — its total minus what callees
    in other layers cover), ``calls`` (calls of the layer's functions) and
    ``calls_in`` (those that crossed in from another layer); and the
    boundary spans ``(caller layer, callee layer) -> [count, cumulative
    seconds]``.
    """
    layers = {name: {"self_s": 0.0, "calls": 0, "calls_in": 0} for name in LAYERS}
    spans = defaultdict(lambda: [0, 0.0])
    for func, (_cc, nc, tt, _ct, callers) in pstats.Stats(profiler).stats.items():
        own = layer_of(func[0])
        if own is None:
            # A builtin: its time belongs to the layer that called it.
            if not callers:
                layers["python"]["self_s"] += tt
            for caller, (_nc, _cc2, edge_tt, _ct2) in callers.items():
                layers[layer_of(caller[0]) or "python"]["self_s"] += edge_tt
            continue
        layers[own]["self_s"] += tt
        layers[own]["calls"] += nc
        for caller, (edge_nc, _cc2, _tt2, edge_ct) in callers.items():
            source = layer_of(caller[0]) or "python"
            if source != own:
                layers[own]["calls_in"] += edge_nc
                span = spans[source, own]
                span[0] += edge_nc
                span[1] += edge_ct
    return layers, dict(spans)


def profile_pass(workload, inputs):
    """One repetition under ``cProfile``, the profiler on for the timed
    section only.  Returns ``(outcome, profiled wall, layers, spans)``."""
    run = workload.build(inputs)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        wall = workload.timed_drive(run)
    finally:
        profiler.disable()
    layers, spans = fold_profile(profiler)
    return workload.outcome(run), wall, layers, spans


def sink_pass(workload, inputs):
    """One repetition with a ``TraceSink`` attached and no profiler.
    Returns ``(outcome, wall, metrics)``."""
    run = workload.build(inputs)
    sink = TraceSink()
    run.comp.attach_trace_sink(sink)
    wall = workload.timed_drive(run)
    outcome = workload.outcome(run)
    events = list(sink)
    # Only a simulated cluster has a virtual clock and so a critical path;
    # the reference runtime stamps its events with a delivery counter.
    path = critical_path(events if hasattr(run.comp, "sim") else [])
    pauses = checkpoint_pause_stats(events)
    metrics = {
        "virt.processing_s": path.processing,
        "virt.communication_s": path.communication,
        "virt.waiting_s": path.waiting,
        "runtime.checkpoint.cycles": len(pauses.async_max_stalls)
        + len(pauses.barrier_pauses),
        "runtime.checkpoint.worst_stall_us": 1e6
        * max(pauses.max_async_pause, pauses.max_barrier_pause),
        "runtime.checkpoint.snapshots_fresh": sum(f for f, _ in pauses.async_increments),
        "runtime.checkpoint.snapshots_reused": sum(r for _, r in pauses.async_increments),
    }
    return outcome, wall, metrics


def counters(comp) -> dict:
    """The exact counters of a finished run (``obs.collect_profile`` and
    the network's traffic stats): a later claim may rest on them."""
    profile = collect_profile(comp)
    on_cluster = hasattr(comp, "sim")
    messages, sizes = profile.messages_by_kind, profile.bytes_by_kind
    plan = getattr(comp, "plan", None)
    return {
        "sim.des.events": profile.events_executed,
        "sim.des.heap_pushes": profile.heap_pushes,
        "sim.des.lane_pushes": profile.lane_pushes,
        "sim.des.peak_heap": profile.peak_heap,
        "sim.network.data_msgs": messages.get("data", 0),
        "sim.network.data_bytes": sizes.get("data", 0),
        "sim.network.progress_msgs": messages.get("progress", 0),
        "sim.network.progress_bytes": sizes.get("progress", 0),
        "runtime.protocol.hold_evals": profile.hold_evals,
        "runtime.protocol.hold_memo_hits": profile.hold_memo_hits,
        "runtime.cluster.delivered_msgs": profile.delivered_messages if on_cluster else 0,
        "runtime.cluster.delivered_notifs": (
            profile.delivered_notifications if on_cluster else 0
        ),
        "runtime.cluster.batch_bytes_calls": profile.batch_bytes_calls,
        "runtime.cluster.stage_cost_calls": profile.stage_cost_calls,
        "core.computation.delivered_msgs": 0 if on_cluster else profile.delivered_messages,
        "core.computation.delivered_notifs": (
            0 if on_cluster else profile.delivered_notifications
        ),
        "opt.rewrites": plan.rewrite_count if plan is not None else 0,
    }
