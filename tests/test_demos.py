"""The demos run end to end against the library in src/: each one is a
subprocess that must exit 0.  They call the public API by name, so a
rename that misses a demo fails here."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")


def run_demo(name, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout


@pytest.mark.parametrize("name", [
    "01_forward_backward.py", "02_occupancy_and_centers.py",
    "03_gradient_checks.py", "04_generate_data.py", "05_train_modes.py"])
def test_demo_runs(name):
    run_demo(name)


@pytest.mark.slow
def test_robustness_demo_quick_runs():
    run_demo("06_robustness_experiment.py", "--quick")
