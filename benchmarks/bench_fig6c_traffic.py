"""Figure 6c (scoped): progress traffic under boundary-summary tracking.

Companion to ``bench_fig6c_progress.py``: that file sweeps the paper's
four *accumulation* strategies; this one fixes the best accumulation
("local+global") and sweeps the *dissemination* strategy introduced by
the scoped-progress redesign — ``progress_tracking="flat"`` (every
interior pointstamp broadcast, the paper's protocol) versus ``"scoped"``
(only boundary projections of summarized loop scopes cross the network,
batched on the Naiad-style update timer).

For each WCC preset the report records progress messages, progress
bytes, hold-scan evaluations and memoized hold verdicts, plus the
flat/scoped reduction factors.  The flagship 64-computer preset also
backs the CI regression guard (``-k budget``): scoped traffic must stay
under a recorded budget and at least 5x below the recorded flat
baseline (60,708 messages / 10.5 MB).
"""

from repro.lib import Stream
from repro.obs import collect_profile
from repro.algorithms import weakly_connected_components
from repro.runtime import ClusterComputation
from repro.workloads import uniform_random_graph

from bench_harness import format_table, human_bytes, report

#: name -> (num_processes, workers_per_process, nodes, edges, seed)
PRESETS = {
    "wcc/8": (8, 2, 1250, 2500, 1),
    "wcc/16": (16, 2, 1250, 2500, 1),
    "wcc/64": (64, 2, 2000, 4000, 2),
}

#: Recorded flat baseline for wcc/64 (pre-redesign dissemination).
BASELINE_MESSAGES = 60_708
BASELINE_BYTES = 10_500_000

#: Regression budget for scoped wcc/64 (recorded: 1,215 msgs /
#: 301,360 bytes; ~2x headroom for cost-model drift).
BUDGET_MESSAGES = 3_000
BUDGET_BYTES = 800_000


def run_wcc(preset: str, tracking: str) -> dict:
    processes, workers, nodes, edges, seed = PRESETS[preset]
    comp = ClusterComputation(
        num_processes=processes,
        workers_per_process=workers,
        progress_mode="local+global",
        progress_tracking=tracking,
    )
    inp = comp.new_input()
    weakly_connected_components(Stream.from_input(inp)).subscribe(
        lambda t, recs: None
    )
    comp.build()
    inp.on_next(uniform_random_graph(nodes, edges, seed=seed))
    inp.on_completed()
    comp.run()
    assert comp.drained(), comp.debug_state()
    # The plane's endpoints, summed as the spine's hold rows sum them.
    profile = collect_profile(comp)
    return {
        "messages": comp.network.stats.messages("progress"),
        "bytes": comp.network.stats.bytes("progress"),
        "hold_evals": profile.hold_evals,
        "memo_hits": profile.hold_memo_hits,
    }


def test_fig6c_traffic(benchmark):
    def experiment():
        return {
            preset: {t: run_wcc(preset, t) for t in ("flat", "scoped")}
            for preset in PRESETS
        }

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = []
    for preset, by_tracking in results.items():
        for tracking in ("flat", "scoped"):
            r = by_tracking[tracking]
            rate = r["memo_hits"] / max(1, r["memo_hits"] + r["hold_evals"])
            rows.append(
                [
                    preset,
                    tracking,
                    r["messages"],
                    human_bytes(r["bytes"]),
                    r["hold_evals"],
                    "%.1f%%" % (100 * rate),
                ]
            )
        flat, scoped = by_tracking["flat"], by_tracking["scoped"]
        rows.append(
            [
                preset,
                "ratio",
                "%.1fx" % (flat["messages"] / max(1, scoped["messages"])),
                "%.1fx" % (flat["bytes"] / max(1, scoped["bytes"])),
                "%.1fx" % (flat["hold_evals"] / max(1, scoped["hold_evals"])),
                "",
            ]
        )
    report(
        "fig6c_traffic",
        format_table(
            ["preset", "tracking", "progress msgs", "progress bytes",
             "hold evals", "memo hit rate"],
            rows,
        ),
    )

    for preset, by_tracking in results.items():
        flat, scoped = by_tracking["flat"], by_tracking["scoped"]
        # Boundary-summary dissemination wins on every preset, and the
        # memoized hold verdicts actually hit (the 0.0% regression).
        assert scoped["messages"] < flat["messages"]
        assert scoped["bytes"] < flat["bytes"]
        assert scoped["memo_hits"] > 0
    flagship = results["wcc/64"]["scoped"]
    assert flagship["messages"] * 5 <= BASELINE_MESSAGES
    assert flagship["bytes"] * 5 <= BASELINE_BYTES


def test_progress_traffic_budget():
    """CI regression guard: the flagship preset's scoped traffic stays
    under the recorded budget (and >=5x below the flat baseline)."""
    r = run_wcc("wcc/64", "scoped")
    assert r["messages"] <= BUDGET_MESSAGES, r
    assert r["bytes"] <= BUDGET_BYTES, r
    assert r["messages"] * 5 <= BASELINE_MESSAGES, r
    assert r["bytes"] * 5 <= BASELINE_BYTES, r
    assert r["memo_hits"] > 0, r
