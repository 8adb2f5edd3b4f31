"""Shared utilities for the paper-reproduction benchmarks.

Every ``bench_*.py`` file regenerates one table or figure from the
paper's evaluation: it really executes the workload on the simulated
cluster (and the relevant baselines), prints rows shaped like the
paper's, asserts the qualitative findings (who wins, by roughly what
factor, where the knees fall), and appends a report to
``benchmarks/results/``.  Absolute numbers come from calibrated cost
models, not the authors' hardware — EXPERIMENTS.md records both sides.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Optional, Sequence

from repro.obs import TraceSink, collect_profile, critical_path

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: Set REPRO_TRACE=1 to record a full event trace during benchmark runs
#: (and REPRO_TRACE_DIR to also dump the JSONL next to the reports).
TRACE_ENV = "REPRO_TRACE"


def backend_lines(computation) -> List[str]:
    """One-line description of the backend a finished run used: the mp
    backend's two counters, tasks offloaded and child CPU seconds."""
    pool = getattr(computation, "pool", None)
    if pool is None:
        return ["backend: inline (vertex callbacks on the DES thread)"]
    return [
        "backend: mp (%d pool children, %d tasks offloaded, %.2f s child CPU)"
        % (pool.size, pool.tasks_offloaded, pool.child_seconds)
    ]


def tracing_enabled() -> bool:
    return os.environ.get(TRACE_ENV, "") not in ("", "0")


def attach_tracing(computation, enabled: Optional[bool] = None) -> Optional[TraceSink]:
    """Attach a fresh TraceSink when tracing is on; None otherwise."""
    if enabled is None:
        enabled = tracing_enabled()
    if not enabled:
        return None
    sink = TraceSink()
    computation.attach_trace_sink(sink)
    return sink


def profile_lines(computation) -> List[str]:
    """The DES self-profile of a finished run (repro.obs.profile)."""
    return collect_profile(computation).lines()


def critical_path_lines(sink: Optional[TraceSink], top_k: int = 5) -> List[str]:
    """SnailTrail-style critical-path summary of a recorded trace."""
    if sink is None or len(sink) == 0:
        return []
    summary = critical_path(list(sink), top_k=top_k)
    lines = summary.lines()
    directory = os.environ.get("%s_DIR" % TRACE_ENV, "")
    if directory:
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, "trace-%06d.jsonl" % len(sink))
        sink.dump_jsonl(path)
        lines.append("trace written to %s" % path)
    return lines


def report(name: str, lines: Iterable[str]) -> str:
    """Print a benchmark report and persist it under results/."""
    text = "\n".join(lines)
    banner = "\n=== %s ===\n%s\n" % (name, text)
    print(banner)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "%s.txt" % name), "w") as handle:
        handle.write(text + "\n")
    return banner


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> List[str]:
    """Simple aligned text table."""
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def fmt(row):
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rendered)
    return lines


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a list of samples."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[index]


def human_time(seconds: float) -> str:
    if seconds >= 1.0:
        return "%.2f s" % seconds
    if seconds >= 1e-3:
        return "%.2f ms" % (seconds * 1e3)
    return "%.0f us" % (seconds * 1e6)


def human_bytes(count: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if count < 1024:
            return "%.1f %s" % (count, unit)
        count /= 1024.0
    return "%.1f TB" % count
