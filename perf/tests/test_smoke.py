"""Smoke tests of the benchmark itself (``pytest perf/tests``; not tier-1).

Every workload at 1/50 scale with a 2 s window must produce a result
whose metric names and units are exactly BENCHMARK.json's; op lists
must be a function of the seed; span self-time arithmetic must hold on
a hand-built tree.
"""

import json
import os
import subprocess
import sys

import pytest

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF)
sys.path.insert(0, PERF)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(PERF, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "2", "--scale", "0.02",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_result(result, declared):
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_spec_names_the_workloads_the_code_has():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_workload_reports_every_end_to_end_metric(workload):
    result = run_benchmark(workload, trace=0)
    check_result(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not [d for d in os.listdir(os.path.join(PERF, "out"))
                if d.startswith(workload + "-")], "temp dir left behind"


@pytest.mark.parametrize("workload", NAMES)
def test_traced_pass_reports_every_layer_metric(workload):
    check_result(run_benchmark(workload, trace=1), SPEC["per_layer"])
    with open(os.path.join(PERF, "out", "trace_%s.json" % workload)) as f:
        trace = json.load(f)
    assert {"http", "service", "m4lsm", "m4udf"} \
        <= {span["name"] for span in trace["spans"]}


@pytest.mark.parametrize("workload", ["overview", "zoom", "ingest_mix"])
def test_op_lists_are_a_function_of_the_seed(workload, tmp_path):
    digests = [workloads.make_inputs(workload, str(tmp_path / name), seed,
                                     0.02).digest
               for name, seed in (("a", 5), ("b", 5), ("c", 6))]
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_span_self_time_is_duration_minus_children():
    recorder = spans.SpanRecorder()
    recorder.add("http", 0, 0.0, 10.0)
    recorder.add("service", 0, 20.0, 27.0, parent="http")
    recorder.add("sql", 0, 30.0, 31.0, parent="service")
    recorder.add("executor", 0, 40.0, 44.5, parent="service")
    recorder.add("probe", 0, 50.0, 52.0)             # stand-alone
    recorder.add("http", 1, 60.0, 64.0)              # another op
    recorder.add("service", 1, 70.0, 75.0, parent="http")
    assert recorder.self_durations("http") == [3.0, -1.0]
    assert recorder.self_durations("service") == [1.5, 5.0]
    assert recorder.self_durations("executor") == [4.5]
    assert recorder.self_durations("probe") == [2.0]
    assert recorder.durations("http") == [10.0, 4.0]
    assert [s["parent"] for s in recorder.spans] \
        == [None, 0, 1, 1, None, None, 5]
