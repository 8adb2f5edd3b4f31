"""Checks of the benchmark itself, on the smoke preset.

    python3 -m pytest benchmarks/spine/test_spine.py -q -p no:cacheprovider

Not collected by the repo's tier-1 run (``testpaths = ["tests"]``).
"""

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SPINE = Path(__file__).resolve().parent
ROOT = SPINE.parents[1]
RUN = SPINE / "run.py"
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

sys.path[:0] = [str(ROOT / "src"), str(SPINE)]

from workloads import WORKLOADS  # noqa: E402

#: All six; BENCHMARK.json hands the driver as many as its time cap allows.
WORKLOAD_NAMES = list(WORKLOADS)


def test_the_driver_runs_workloads_of_the_spine():
    driven = [spec["name"] for spec in MANIFEST["workloads"]]
    assert set(driven) <= set(WORKLOAD_NAMES) and len(set(driven)) == len(driven) >= 2
    for spec in MANIFEST["workloads"]:
        assert spec["why"] == WORKLOADS[spec["name"]].why


def spine(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(RUN), *map(str, args)],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=180,
    )


def smoke(tmp_path, tag, trace):
    out = tmp_path / ("%s.json" % tag)
    done = spine("--preset", "smoke", "--seconds", 0.5, "--trace", trace, "--out", out)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), done.stdout


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_twice_prints_every_metric_and_repeats_exactly(tmp_path, trace, kind):
    declared = {metric["name"]: metric["unit"] for metric in MANIFEST[kind]}
    assert all(NAME.fullmatch(name) for name in declared)
    (first, printed), (second, _) = (smoke(tmp_path, tag, trace) for tag in "ab")
    assert sorted(first["workloads"]) == sorted(WORKLOAD_NAMES)
    for name in WORKLOAD_NAMES:
        a, b = first["workloads"][name], second["workloads"][name]
        assert {k: v["unit"] for k, v in a["metrics"].items()} == declared
        assert a["correct"] and a["failed"] == 0 and a["attempted"] >= 1
        assert a["attempted"] % a["detail"].get("reps", 1) == 0  # whole repetitions
        if trace == 0:
            # The modelled numbers and the event counts repeat exactly.
            assert a["detail"]["exact"] == b["detail"]["exact"]
            if name != "ref_stream":  # its client clock is the wall clock
                for metric in ("client_done_s", "client_p50_us", "client_tail_us"):
                    assert a["metrics"][metric] == b["metrics"][metric]
            assert all(a["metrics"][metric]["value"] > 0 for metric in declared)
        else:
            # Counters repeat exactly, but for the profiler's call counts and
            # the hold-rule memo, whose scan order follows object addresses.
            loose = (".calls", ".calls_in", ".hold_evals", ".hold_memo_hits")
            exact = [
                metric
                for metric, unit in declared.items()
                if unit in ("count", "B") and not metric.endswith(loose)
            ]
            assert len(exact) > 20
            for metric in exact:
                assert a["metrics"][metric] == b["metrics"][metric], metric
            attributed = a["detail"]["attributed_s"]
            assert abs(attributed - a["detail"]["profiled_wall_s"]) <= 0.02 * attributed
    if trace == 1:
        # The facts on file (ISSUE 11) that hold at any size.
        barrier = first["workloads"]["barrier64"]["metrics"]
        assert barrier["sim.network.data_msgs"]["value"] == 0
        assert barrier["runtime.cluster.delivered_msgs"]["value"] == 2 * 16  # per computer
        stream = first["workloads"]["ref_stream"]["metrics"]
        assert stream["sim.des.calls"]["value"] == 0
        assert stream["runtime.protocol.calls"]["value"] == 0
    for metric in declared:
        assert re.search(r"^%s +\S+ " % re.escape(metric), printed, re.M), metric


def test_single_workload_prints_the_contract_json_last():
    done = spine(
        "--workload", "udf_chain", "--preset", "smoke", "--seconds", 0.2, "--seed", 7
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in MANIFEST["end_to_end"]]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_corrupted_output_counts_as_failed(name):
    workload = WORKLOADS[name]("smoke")
    inputs = workload.inputs(5)
    expected = workload.oracle(inputs)
    run = workload.build(inputs)
    workload.timed_drive(run)
    outputs = workload.outcome(run).outputs
    attempted, failed = workload.check(outputs, expected)
    assert attempted >= 1 and failed == 0
    if name == "serve_mixed":
        wrong = outputs[0]._replace(value="#not-the-top-tag")
        outputs[0] = wrong  # a wrong answer
        outputs.append(wrong)  # and the same query answered twice
        del outputs[1]  # and one query never answered
        assert workload.check(outputs, expected) == (attempted, 2)
    else:
        key = sorted(outputs)[0]
        dropped = dict(outputs)
        del dropped[key]  # an operation that never produced its output
        assert workload.check(dropped, expected) == (attempted, 1)
        extra = dict(outputs)
        extra[-1] = outputs[key]  # an output nobody asked for
        assert workload.check(extra, expected) == (attempted, 1)


def test_compare_applies_the_bounds(tmp_path):
    record, _ = smoke(tmp_path, "base", 0)
    for entry in record["workloads"].values():  # as if from a quiet box
        entry["detail"]["noisy"] = False
        for quartiles in entry["detail"]["spread"].values():
            if quartiles[2] > quartiles[0]:
                quartiles[:] = [1.00 * quartiles[1], quartiles[1], 1.01 * quartiles[1]]
    base = tmp_path / "base.json"
    base.write_text(json.dumps(record))

    def gate(changed):
        (tmp_path / "changed.json").write_text(json.dumps(changed))
        return spine("--compare", base, tmp_path / "changed.json")

    same = gate(record)
    assert same.returncode == 0, same.stdout
    rows = [line for line in same.stdout.splitlines() if line.endswith(" ok")]
    exact = sum(len(entry["detail"]["exact"]) for entry in record["workloads"].values())
    assert len(rows) == len(WORKLOAD_NAMES) * len(MANIFEST["end_to_end"]) + exact
    assert all(" of " in row for row in rows)  # every ratio names its base
    # What only one workload has is gated too.
    assert re.search(r"kexp_ckpt +recovery_virtual_s .* 1%  ok$", same.stdout, re.M)
    assert re.search(r"serve_mixed +stale_virtual_p99_ms .* 1%  ok$", same.stdout, re.M)

    # The wall clock: 5%; unresolved when either record is flagged noisy or
    # its repetitions spread wider than the bound.
    slower = copy.deepcopy(record)
    wcc = slower["workloads"]["wcc64"]
    wcc["metrics"]["wall_s"]["value"] *= 1.08
    worse = gate(slower)
    assert worse.returncode == 1
    regressed = re.findall(r"^(\S+ +\S+) .* regressed$", worse.stdout, re.M)
    assert [row.split() for row in regressed] == [["wcc64", "wall_s"]]
    wcc["detail"]["noisy"] = True
    unsure = gate(slower)
    assert unsure.returncode == 0
    assert re.search(r"wcc64 +wall_s .* unresolved$", unsure.stdout, re.M)
    wcc["detail"]["noisy"] = False
    wcc["detail"]["spread"]["wall_s"][2] *= 1.06
    unsure = gate(slower)
    assert unsure.returncode == 0
    assert re.search(r"wcc64 +wall_s .* unresolved$", unsure.stdout, re.M)
    wcc["detail"]["spread"]["wall_s"][2] /= 1.06
    wcc["detail"]["calib_ns"] = [1.07 * value for value in wcc["detail"]["calib_ns"]]
    unsure = gate(slower)  # the box was 7% slower while B was recorded
    assert unsure.returncode == 0
    assert re.search(r"wcc64 +wall_s .* unresolved$", unsure.stdout, re.M)

    # The virtual clock: 1%, and no excuse from a noisy box.
    later = copy.deepcopy(record)
    later["workloads"]["udf_chain"]["detail"]["noisy"] = True
    later["workloads"]["udf_chain"]["metrics"]["client_done_s"]["value"] *= 1.02
    later["workloads"]["udf_chain"]["detail"]["exact"]["virtual_s"] *= 1.02
    worse = gate(later)
    assert worse.returncode == 1
    assert re.search(r"udf_chain +client_done_s .* regressed$", worse.stdout, re.M)
    assert re.search(r"udf_chain +virtual_s .* regressed$", worse.stdout, re.M)
    # ... but ref_stream's client clock is the wall clock.
    later = copy.deepcopy(record)
    later["workloads"]["ref_stream"]["detail"]["noisy"] = True
    later["workloads"]["ref_stream"]["metrics"]["client_p50_us"]["value"] *= 1.5
    assert re.search(r"ref_stream +client_p50_us .* unresolved$", gate(later).stdout, re.M)

    # Records of different runs are refused, not compared.
    for key, value in (("seed", 99), ("preset", "full"), ("seconds", 15.0)):
        other = copy.deepcopy(record)
        other["header"][key] = value
        refused = gate(other)
        assert refused.returncode == 2 and key in refused.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        SPINE,
        tmp_path / "benchmarks" / "spine",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/spine/run.py", "--workload", "wcc64", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
