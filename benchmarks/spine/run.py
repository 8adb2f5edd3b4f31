#!/usr/bin/env python3
"""The benchmark spine: two clocks, six workloads, per-layer attribution.

    python3 benchmarks/spine/run.py [--seed N] [--workload W]
        [--preset full|smoke] [--seconds S] [--trace 0|1] [--out FILE]
    python3 benchmarks/spine/run.py --compare A.json B.json

With ``--workload`` one workload runs in this process and the last line
of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` (the contract in BENCHMARK.json).  Without it,
every workload runs in a subprocess of its own and ``--out`` records the
lot.  ``--trace 0`` gives the end-to-end metrics, tracing off; ``--trace
1`` is the separate traced run that gives the per-layer metrics.  See
README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SPINE = Path(__file__).resolve().parent
ROOT = SPINE.parents[1]
MANIFEST = ROOT / "BENCHMARK.json"

#: Wall metrics are the best of at least this many repetitions.
MIN_REPS = 5
#: Untraced repetitions of a traced run: the base of the overhead ratios.
TRACE_BASE_REPS = 3
#: Calibration minimum and median further apart than this: the run is noisy.
NOISY_CALIBRATION = 0.25

#: ``--compare`` gates two records of ONE seed, between which only the wall
#: clock moves for one commit, so it applies ISSUE 11's bounds.
#: BENCHMARK.json's wider bounds are for the driver, whose medians run over
#: different seeds and so carry the inputs' spread as well.
SAME_SEED_BOUNDS = {"setup_s": 0.10, "wall_s": 0.05, "peak_rss_mb": 0.10}
#: A client metric read on the wall clock (``ref_stream``).
WALL_CLIENT_BOUND = 0.10
#: A client metric on the virtual clock, and every ``detail.exact`` number.
EXACT_BOUND = 0.01


def clean_environment() -> None:
    """Scrub ``REPRO_*`` (they select backends and plans) and pin the hash
    seed, re-executing once if either was off: event order, and so every
    exact metric, must not depend on the caller's shell."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    if env != dict(os.environ):
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def import_repro() -> None:
    """Put this checkout's ``src`` first on the path and refuse any other
    copy of ``repro``: the benchmark measures the tree it sits in."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit("spine: no src/repro under %s; run from a full checkout" % ROOT)
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        sys.exit("spine: imported repro from %s, not from %s" % (repro.__file__, src))


def load_manifest() -> dict:
    with open(MANIFEST) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------------


def quartiles(values):
    """``[q1, median, q3]``; a single value stands for all three."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def tail_fraction(count: int):
    """The highest of p99/p95/p90/p75 with at least ten samples beyond
    it; None (use the maximum) when the sample is too small for any."""
    for fraction in (0.99, 0.95, 0.90, 0.75):
        if count - 1 - int(fraction * count) >= 10:
            return fraction
    return None


def latency_summary(latencies):
    """``(p50, tail, tail label)`` of client latencies, in seconds."""
    from workloads import percentile

    if not latencies:  # a run that produced nothing; its operations failed
        return 0.0, 0.0, "none"
    ordered = sorted(latencies)
    fraction = tail_fraction(len(ordered))
    if fraction is None:
        return percentile(ordered, 0.5), ordered[-1], "max"
    return percentile(ordered, 0.5), percentile(ordered, fraction), "p%g" % (100 * fraction)


# ----------------------------------------------------------------------
# Repetitions.
# ----------------------------------------------------------------------


class Reps:
    """Fresh-computation repetitions of one workload, every one checked
    against the oracle and against the first.

    Every number read on the wall clock is the best (smallest) of the
    repetitions: the run is deterministic, so the repetition the box
    disturbed least is the one closest to what the program costs (README,
    "how wall time is made repeatable").  Numbers on the virtual clock are
    the same in every repetition, which is checked.
    """

    def __init__(self, workload, inputs, expected, keep_run=False):
        import floors

        self.workload, self.inputs, self.expected = workload, inputs, expected
        self.calibrate = floors.calibrate
        self.calib_iterations = floors.CALIBRATION_ITERATIONS
        self.calibrations = []
        #: Per untraced repetition: setup, wall, client done, p50, tail (s).
        self.rows = []
        #: Per client operation, its smallest latency over the untraced
        #: repetitions: operation i does the same work in every one.
        self.latencies = None
        self.attempted = self.failed = 0
        self.first = None
        #: The last untraced run, for its counters (traced run only: a
        #: second live cluster would double ``peak_rss_mb``).
        self.keep_run, self.last_run = keep_run, None

    def one(self, timed_run=None):
        """Run one repetition.  ``timed_run(workload, inputs)`` replaces the
        plain build+drive when a tracing pass wraps it; such repetitions
        are checked but kept out of the wall statistics."""
        workload = self.workload
        gc.collect()
        self.calibrations.append(self.calibrate())
        if timed_run is None:
            started = perf_counter()
            run = workload.build(self.inputs)
            setup = perf_counter() - started
            wall = workload.timed_drive(run)
            outcome = workload.outcome(run)
            median, tail, _ = latency_summary(outcome.latencies)
            self.rows.append((setup, wall, outcome.done_s, median, tail))
            if self.latencies is None or len(self.latencies) != len(outcome.latencies):
                self.latencies = list(outcome.latencies)  # a differing run is failed below
            else:
                self.latencies = list(map(min, self.latencies, outcome.latencies))
            if self.keep_run:
                self.last_run = run
            extra = None
        else:
            outcome, *extra = timed_run(workload, self.inputs)
        self.calibrations.append(self.calibrate())
        attempted, failed = workload.check(outcome.outputs, self.expected)
        if self.first is None:
            self.first = outcome
        elif outcome.exact != self.first.exact or outcome.outputs != self.first.outputs:
            failed += 1  # repetitions of a deterministic run must agree
        self.attempted += attempted
        self.failed += failed
        return outcome, extra

    @property
    def walls(self):
        return [row[1] for row in self.rows]

    @property
    def noisy(self) -> bool:
        low, mid = min(self.calibrations), statistics.median(self.calibrations)
        return mid > low * (1.0 + NOISY_CALIBRATION)

    def calib_ns(self, seconds: float) -> float:
        return 1e9 * seconds / self.calib_iterations


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: The columns of ``Reps.rows``: name and seconds-to-unit factor.
ROW_METRICS = (
    ("setup_s", 1.0),
    ("wall_s", 1.0),
    ("client_done_s", 1.0),
    ("client_p50_us", 1e6),
    ("client_tail_us", 1e6),
)


def end_to_end_metrics(reps: Reps):
    metrics, spread = {}, {}
    for (name, factor), column in zip(ROW_METRICS, zip(*reps.rows)):
        metrics[name] = factor * min(column)
        # Quartiles over the repetitions: the spread, not the metric.
        spread[name] = [factor * value for value in quartiles(column)]
    # The latency percentiles are read off the per-operation minima, not
    # taken as the smallest of the repetitions' own percentiles: on the
    # wall clock a repetition with fewer disturbed epochs than lie beyond
    # its p99 may never come, while every epoch is left alone in some
    # repetition.  On the virtual clock the two are the same number.
    median, tail, tail_label = latency_summary(reps.latencies)
    metrics["client_p50_us"], metrics["client_tail_us"] = 1e6 * median, 1e6 * tail
    metrics["peak_rss_mb"] = peak_rss_mb()
    detail = {
        "reps": len(reps.rows),
        "tail": tail_label,
        "latency_samples": len(reps.latencies),
        "client_clock": reps.workload.client_clock,
        "spread": spread,
        "exact": reps.first.exact,
    }
    return metrics, detail


def per_layer_metrics(workload, reps: Reps):
    """The traced run: a few untraced repetitions as the base, one
    profiled, one with a TraceSink, then the floors."""
    import floors
    import tracing

    for _ in range(TRACE_BASE_REPS):
        reps.one()
    wall = min(reps.walls)
    metrics = dict(tracing.counters(reps.last_run.comp))
    metrics.update(workload.floors(reps.last_run, wall))
    reps.last_run = None

    _, (profiled_wall, layers, spans) = reps.one(tracing.profile_pass)
    for layer, numbers in layers.items():
        for name, value in numbers.items():
            metrics["%s.%s" % (layer, name)] = value
    metrics["trace.profile_overhead_ratio"] = profiled_wall / wall

    outcome, (sink_wall, sink_metrics) = reps.one(tracing.sink_pass)
    metrics.update(sink_metrics)
    metrics["obs.trace_overhead_ratio"] = sink_wall / wall
    metrics.update(workload.layer_metrics(outcome))
    metrics.update(floors.measure())
    metrics["host.calib_ns"] = reps.calib_ns(min(reps.calibrations))
    detail = {
        "wall_s": wall,
        "profiled_wall_s": profiled_wall,
        "attributed_s": sum(numbers["self_s"] for numbers in layers.values()),
        "sink_wall_s": sink_wall,
        "spans": sorted(
            ([src, dst, count, seconds] for (src, dst), (count, seconds) in spans.items()),
            key=lambda span: -span[3],
        ),
    }
    return metrics, detail


def run_workload(args, manifest) -> int:
    """One workload in this process; prints the contract's JSON last."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.preset)
    inputs = workload.inputs(args.seed)
    expected = workload.oracle(inputs)
    reps = Reps(workload, inputs, expected, keep_run=bool(args.trace))
    if args.trace:
        declared = manifest["per_layer"]
        metrics, detail = per_layer_metrics(workload, reps)
    else:
        declared = manifest["end_to_end"]
        # Repetitions for ``--seconds``, by the clock: what steadies the best
        # of them is how long a stretch of the box's life they sample, and a
        # run that overstays breaks the driver's cap (README, "how wall time
        # is made repeatable").
        began = perf_counter()
        while len(reps.rows) < MIN_REPS or perf_counter() - began < args.seconds:
            reps.one()
        metrics, detail = end_to_end_metrics(reps)
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(metrics) != set(units):
        sys.exit(
            "spine: measured and declared metrics differ: %s"
            % sorted(set(metrics) ^ set(units))
        )
    detail.update(
        workload=workload.name,
        seed=args.seed,
        preset=args.preset,
        noisy=reps.noisy,
        calib_ns=[reps.calib_ns(seconds) for seconds in quartiles(reps.calibrations)],
    )
    result = {
        "correct": reps.failed == 0,
        "attempted": reps.attempted,
        "failed": reps.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    print("== %s  seed %d  preset %s ==" % (workload.name, args.seed, args.preset))
    for name in units:
        print("%-36s %.9g %s" % (name, metrics[name], units[name]))
    print(
        "failed_share %d/%d%s"
        % (reps.failed, reps.attempted, "  noisy" if reps.noisy else "")
    )
    print("DETAIL " + json.dumps(detail))
    print(json.dumps(result))
    return 0 if reps.failed == 0 else 1


# ----------------------------------------------------------------------
# All workloads, one subprocess each.
# ----------------------------------------------------------------------


def run_all(args) -> int:
    """All six workloads, whichever of them BENCHMARK.json hands the driver."""
    from floors import CALIBRATION_ITERATIONS, calibrate
    from workloads import WORKLOADS

    record = {
        "header": {
            "seed": args.seed,
            "preset": args.preset,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "host.calib_ns": 1e9
            * min(calibrate() for _ in range(5))
            / CALIBRATION_ITERATIONS,
        },
        "workloads": {},
    }
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(SPINE / "run.py"), "--workload", name]
        for flag in ("seed", "preset", "seconds", "trace"):
            command += ["--" + flag, str(getattr(args, flag))]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        detail = [line for line in lines if line.startswith("DETAIL ")]
        if not detail or not lines[-1].startswith("{"):
            print(child.stdout, end="")
            print("spine: %s produced no result (exit %d)" % (name, child.returncode))
            status = 1
            continue
        print("\n".join(line for line in lines[:-1] if not line.startswith("DETAIL ")))
        entry = json.loads(lines[-1])
        entry["detail"] = json.loads(detail[0][len("DETAIL ") :])
        record["workloads"][name] = entry
        status = status or child.returncode
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
        noisy = [name for name, entry in record["workloads"].items() if entry["detail"]["noisy"]]
        if noisy:
            print(
                "spine: the box was noisy during %s; --compare against this record "
                "cannot resolve their wall-clock rows" % ", ".join(noisy)
            )
    return status


# ----------------------------------------------------------------------
# --compare: the regression gate.
# ----------------------------------------------------------------------


def worsening(value_a, value_b, better: str) -> float:
    """By what share of A's value B is worse."""
    if value_a == value_b:
        return 0.0
    if better == "higher":
        value_a, value_b = value_b, value_a
    return value_b / value_a - 1.0 if value_a else float("inf")


def gated_rows(run_a, run_b, manifest):
    """``(name, unit, better, A, B, bound)`` for every end-to-end metric, then
    for every exact number of the workload (modelled completion, event
    count, and what only this workload has: recovery time, fresh and stale
    p99)."""
    virtual = run_a["detail"]["client_clock"] == "virtual"
    client = EXACT_BOUND if virtual else WALL_CLIENT_BOUND
    for metric in manifest["end_to_end"]:
        name = metric["name"]
        value_a = run_a["metrics"][name]["value"]
        value_b = run_b["metrics"][name]["value"]
        bound = SAME_SEED_BOUNDS.get(name, client)
        yield name, metric["unit"], metric["better"], value_a, value_b, bound
    exact_a, exact_b = run_a["detail"]["exact"], run_b["detail"]["exact"]
    for name in sorted(exact_a):
        yield name, "", "lower", exact_a[name], exact_b[name], EXACT_BOUND


def unsure(run, other, name: str, bound: float) -> bool:
    """Can ``run`` not resolve ``bound`` on ``name`` against ``other``?  Only
    a number read on the wall clock can fail to: the calibration loop flagged
    the run ``noisy``, its repetitions spread (quartile distance over
    median) wider than the bound, or the box ran at another level than
    during ``other`` (calibration medians further apart than the bound).  On
    the virtual clock the repetitions agree exactly, so the spread is 0 and
    the box's noise is no excuse."""
    q1, mid, q3 = run["detail"]["spread"].get(name, (0.0, 1.0, 0.0))
    if q3 == q1:
        return False
    level = run["detail"]["calib_ns"][1] / other["detail"]["calib_ns"][1]
    return run["detail"]["noisy"] or q3 - q1 > bound * mid or abs(level - 1.0) > bound


def compare(path_a: str, path_b: str, manifest) -> int:
    """Gate record B against record A of the same seed: one row per
    (workload, gated number) with both values, the ratio with its base, the
    bound and a verdict.  1 on any regression, 2 when the records cannot be
    compared at all."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    for key in ("seed", "preset", "seconds", "trace"):
        if a["header"][key] != b["header"][key]:
            print(
                "spine: cannot compare, %s differs: %r in %s, %r in %s"
                % (key, a["header"][key], path_a, b["header"][key], path_b)
            )
            return 2
    if a["header"]["trace"]:
        print("spine: --compare gates end-to-end records (--trace 0)")
        return 2
    print(
        "%-12s %-22s %14s %14s  %-22s %5s  %s"
        % ("workload", "metric", "A", "B", "B/A (base A)", "bound", "verdict")
    )
    regressed = 0
    for name in dict.fromkeys([*a["workloads"], *b["workloads"]]):
        if name not in a["workloads"] or name not in b["workloads"]:
            missing = path_a if name in b["workloads"] else path_b
            print("%-12s missing from %s" % (name, missing))
            regressed += 1
            continue
        run_a, run_b = a["workloads"][name], b["workloads"][name]
        if set(run_a["detail"]["exact"]) != set(run_b["detail"]["exact"]):
            print("%-12s the records are of different benchmarks" % name)
            return 2
        for metric, unit, better, value_a, value_b, bound in gated_rows(run_a, run_b, manifest):
            if worsening(value_a, value_b, better) <= bound:
                verdict = "ok"
            elif unsure(run_a, run_b, metric, bound) or unsure(run_b, run_a, metric, bound):
                verdict = "unresolved"  # the box's noise, or a regression under it
            else:
                verdict = "regressed"
                regressed += 1
            ratio = "%.4f" % (value_b / value_a) if value_a else "-"
            print(
                "%-12s %-22s %14.6g %14.6g  %-22s %4.0f%%  %s"
                % (
                    name,
                    metric,
                    value_a,
                    value_b,
                    "%s of %.6g %s" % (ratio, value_a, unit),
                    100 * bound,
                    verdict,
                )
            )
        for run in (run_a, run_b):
            if run["failed"]:
                print(
                    "%-12s failed %d of %d operations"
                    % (name, run["failed"], run["attempted"])
                )
                regressed += 1
    return 1 if regressed else 0


def main() -> int:
    manifest = load_manifest()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=2, help="inputs are made from it")
    parser.add_argument(
        "--seconds",
        type=float,
        help="measuring time per workload (default: BENCHMARK.json's; 1 for smoke)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--preset", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="write the record of an all-workloads run here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = float(manifest["run_seconds"]) if args.preset == "full" else 1.0
    if args.compare:
        return compare(*args.compare, manifest)
    clean_environment()
    import_repro()
    from workloads import WORKLOADS

    if args.workload is None:
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (one of %s)" % (args.workload, ", ".join(WORKLOADS)))
    return run_workload(args, manifest)


if __name__ == "__main__":
    sys.exit(main())
