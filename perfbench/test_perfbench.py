"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Every workload prints every metric BENCHMARK.json names, with its unit;
another seed changes the inputs but not the metric set; a repeat run
reproduces the counts, quality numbers and digests exactly, traced or
not; and without the library's sources the benchmark fails cleanly.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


def result(workload, seed, trace):
    proc = run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    detail, last = proc.stdout.splitlines()[-2:]
    return json.loads(detail), json.loads(last)


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    w = request.param
    return {key: result(w, seed, trace) for key, (seed, trace) in {
        "a": (1, 0), "a_again": (1, 0), "a_traced": (1, 1),
        "a_traced_again": (1, 1), "b": (2, 0)}.items()}


def test_every_metric_is_printed_with_its_unit(runs):
    for key, kind in (("a", "end_to_end"), ("a_traced", "per_layer")):
        res = runs[key][1]
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert {n: m["unit"] for n, m in res["metrics"].items()} == units(kind)
        assert all(isinstance(m["value"], (int, float))
                   for m in res["metrics"].values())


def test_end_to_end_metrics_are_never_zero(runs):
    assert all(m["value"] > 0 for m in runs["a"][1]["metrics"].values())


def test_another_seed_changes_inputs_not_metric_set(runs):
    (detail_a, res_a), (detail_b, res_b) = runs["a"], runs["b"]
    assert res_b["correct"]
    assert set(res_b["metrics"]) == set(res_a["metrics"])
    assert set(detail_b["detail"]) == set(detail_a["detail"])
    assert detail_b["outcome"] != detail_a["outcome"]


def test_repeat_run_reproduces_counts_and_quality(runs):
    assert runs["a_again"][0]["outcome"] == runs["a"][0]["outcome"]
    counts = [{n: m["value"] for n, m in runs[k][1]["metrics"].items()
               if m["unit"] in ("count", "bytes")}
              for k in ("a_traced", "a_traced_again")]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_tracing_changes_no_bit(runs):
    assert runs["a_traced"][0]["outcome"] == runs["a"][0]["outcome"]


def test_every_layer_metric_is_reached_by_some_workload():
    reached = set()
    for w in WORKLOADS:
        metrics = result(w, 1, 1)[1]["metrics"]
        reached |= {n for n, m in metrics.items() if m["value"]}
    assert reached == set(units("per_layer"))


def test_fails_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("seq_train", 1, 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
