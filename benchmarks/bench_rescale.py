"""Elastic rescaling on the flagship WCC run: blip, not pause.

WCC over a random graph on the 64-computer Figure 6 preset, streamed
as edge epochs, rescaled mid-run.  The claim under test is the design
contract of `ClusterComputation.add_process` / `remove_process`
(DESIGN.md, "Elastic rescaling"): a live membership change costs a
*partial-rollback blip* — ship the moving workers' cut state, replay
their journal suffix, survivors keep streaming — and never the global
pause of the stop-the-world alternative.

Five runs, identical outputs required across all of them:

- ``fixed``       — async checkpoints, shape never changes (control);
- ``add``         — a 65th process joins at mid-run;
- ``remove``      — a founding process drains out at mid-run;
- ``barrier``     — the stop-the-world baseline
                    (``repro.baselines.BarrierCheckpoints``), fixed
                    shape: what each periodic pause costs on this
                    workload;
- ``barrier-kill`` — the baseline with the same process lost at the
                    same point but *unplanned*: the global rollback a
                    rescale would cost without async-cut migration
                    (every worker restored, full replay).

The report compares each migration's blip (cut-to-ready, from
``comp.rescales``) and the worst inter-output stall it induced against
the barrier's pauses and the global recovery outage.  Asserted: both
migrations take the partial path (no failure records, survivors never
restored) and their blips are a small fraction of the global outage.
"""

from collections import Counter

from repro.algorithms import weakly_connected_components
from repro.baselines import BarrierCheckpoints
from repro.lib import Stream
from repro.obs import TraceSink, checkpoint_pause_stats
from repro.runtime import ClusterComputation, CostModel, FaultTolerance
from repro.workloads import uniform_random_graph

from bench_harness import format_table, human_time, report

COMPUTERS = 64
WORKERS_PER_PROCESS = 2
EPOCHS = 6
GRAPH = uniform_random_graph(2000, 4000, seed=2)
#: The Figure 6 blocked cost model (see bench_fig6d_strong_scaling).
BLOCKED = CostModel(per_record_cost=2e-5, record_bytes=800)

#: Membership changes land at this fraction of the control duration.
RESCALE_POINT = 0.5


#: Epochs between checkpoints, asynchronous or barrier.
CHECKPOINT_EVERY = 2


def make_ft(barrier):
    """Asynchronous cuts, or mode "none" under the barrier baseline."""
    return FaultTolerance(
        mode="none" if barrier else "checkpoint",
        checkpoint_every=CHECKPOINT_EVERY,
        state_bytes_per_worker=1 << 18,
        disk_bandwidth=200e6,
        recovery="reassign",
        restart_delay=0.02,
    )


def edge_epochs():
    chunk = (len(GRAPH) + EPOCHS - 1) // EPOCHS
    return [GRAPH[i : i + chunk] for i in range(0, len(GRAPH), chunk)]


def run_wcc(barrier=False, rescale=None, kill=None):
    """One streamed WCC run; returns outputs and stall measurements."""
    comp = ClusterComputation(
        num_processes=COMPUTERS,
        workers_per_process=WORKERS_PER_PROCESS,
        progress_mode="local+global",
        cost_model=BLOCKED,
        fault_tolerance=make_ft(barrier),
    )
    trace = TraceSink()
    comp.attach_trace_sink(trace)
    outputs = {}
    releases = []

    def observe(timestamp, records):
        outputs.setdefault(timestamp.epoch, Counter()).update(records)
        releases.append(comp.now)

    inp = comp.new_input("edges")
    weakly_connected_components(Stream.from_input(inp)).subscribe(observe)
    if barrier:
        inp = BarrierCheckpoints(comp, CHECKPOINT_EVERY).hold(inp)
    comp.build()
    for op in rescale or ():
        if op[0] == "add":
            comp.add_process(at=op[1])
        else:
            comp.remove_process(op[1], at=op[2])
    if kill is not None:
        comp.kill_process(kill[0], at=kill[1])
    for batch in edge_epochs():
        inp.on_next(batch)
    inp.on_completed()
    comp.run()
    assert comp.drained(), comp.debug_state().text
    worst_stall = max(
        (b - a for a, b in zip(releases, releases[1:])), default=0.0
    )
    return {
        "outputs": outputs,
        "comp": comp,
        "trace": trace,
        "worst_stall": worst_stall,
        "duration": comp.now,
    }


def test_bench_rescale(benchmark):
    def experiment():
        results = {"fixed": run_wcc()}
        duration = results["fixed"]["duration"]
        at = duration * RESCALE_POINT
        results["add"] = run_wcc(rescale=[("add", at)])
        results["remove"] = run_wcc(rescale=[("remove", COMPUTERS - 1, at)])
        results["barrier"] = run_wcc(barrier=True)
        results["barrier-kill"] = run_wcc(barrier=True, kill=(COMPUTERS - 1, at))
        return results

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    expected = results["fixed"]["outputs"]
    for name, run in results.items():
        assert run["outputs"] == expected, (
            "run %r changed the per-epoch outputs" % name
        )

    # Both migrations took the partial path: planned changes are not
    # failures, and only the movers were restored.
    blips = {}
    for name in ("add", "remove"):
        comp = results[name]["comp"]
        assert not comp.recovery.failures, name
        (record,) = comp.rescales
        moved = set(record["workers"])
        restored = {
            event.worker
            for event in results[name]["trace"].events
            if event.kind == "restore"
        }
        assert restored == moved, (name, restored, moved)
        blips[name] = record["ready"] - record["at"]

    barrier_stats = checkpoint_pause_stats(results["barrier"]["trace"])
    worst_barrier_pause = max(barrier_stats.barrier_pauses)
    async_stats = checkpoint_pause_stats(results["fixed"]["trace"])

    kill_comp = results["barrier-kill"]["comp"]
    (failure,) = kill_comp.recovery.failures
    global_outage = failure["ready"] - failure["at"]

    # The tentpole claim: a live rescale is bounded by the partial-
    # rollback blip (ship + replay the movers), nowhere near the
    # global outage the barrier path pays for the same departure.
    for name, blip in blips.items():
        assert blip < global_outage / 3, (name, blip, global_outage)
        assert results[name]["worst_stall"] <= global_outage, name

    rows = []
    for name in ("fixed", "add", "remove", "barrier", "barrier-kill"):
        run = results[name]
        comp = run["comp"]
        blip = blips.get(name)
        if name == "barrier-kill":
            blip = global_outage
        rows.append(
            (
                name,
                len(comp.live_processes),
                human_time(run["duration"]),
                human_time(run["worst_stall"]),
                human_time(blip) if blip is not None else "-",
            )
        )
    lines = [
        "WCC/%d, %d epochs of edges, %d workers; rescale at %.0f%% of "
        "the control run"
        % (
            COMPUTERS,
            EPOCHS,
            COMPUTERS * WORKERS_PER_PROCESS,
            100 * RESCALE_POINT,
        ),
        "",
    ]
    lines += format_table(
        ("run", "live", "duration", "worst stall", "blip/outage"), rows
    )
    lines += [
        "",
        "barrier worst pause (periodic): %s"
        % human_time(worst_barrier_pause),
        "async cut worst stall: %s, durable staleness: %s"
        % (
            human_time(max(async_stats.async_max_stalls or (0.0,))),
            human_time(max(async_stats.async_durable_lags or (0.0,))),
        ),
        "global outage for the unplanned departure: %s"
        % human_time(global_outage),
        "migration blips: add %s, remove %s — bounded by the partial "
        "rollback, not the global pause"
        % (human_time(blips["add"]), human_time(blips["remove"])),
    ]
    report("bench_rescale", lines)
