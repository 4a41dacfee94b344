"""The benchmark in perfbench/ imports the library by module, function
and field names, and its tracer patches names that cli imports.  Each
workload runs once, traced, at the tiny size, in a copy of the checkout,
so a rename that breaks the benchmark fails here first."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    WORKLOADS = [w["name"] for w in json.load(_fh)["workloads"]]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    for name in ("perfbench", "src"):
        shutil.copytree(os.path.join(ROOT, name), root / name, ignore=ignore)
    return root


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs_traced(checkout, workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1", "--size", "tiny"],
        cwd=checkout, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result


def test_importing_the_library_imports_numpy_random():
    # numpy 2 imports numpy.random on first use; a timer signal handler
    # that calls np.random (the benchmark's calibration sampler) and lands
    # inside that first import re-enters it and dies with a RecursionError
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, tmfusion; print('numpy.random' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]
