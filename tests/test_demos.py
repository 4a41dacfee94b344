"""The demos, and the README's quick tour, run end to end against the
library in src/: each one is a subprocess that must exit 0, and demo 02
must print its center fixed point.  They call the public API by name,
so a rename that misses one of them fails here."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def run_demo(name, *args):
    out = run_python(os.path.join(DEMOS, name), *args)
    assert out
    return out


# a line each demo must print, where one pins a result
EXPECTED = {"02_occupancy_and_centers.py": "center 1 movement = 0.000e+00"}


@pytest.mark.parametrize("name", [
    "01_forward_backward.py", "02_occupancy_and_centers.py",
    "03_gradient_checks.py", "04_generate_data.py", "05_train_modes.py"])
def test_demo_runs(name):
    assert EXPECTED.get(name, "") in run_demo(name)


@pytest.mark.slow
def test_robustness_demo_quick_runs():
    run_demo("06_robustness_experiment.py", "--quick")


def test_readme_quick_tour_runs():
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    tour = readme.split("## Quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    assert "import tmfusion" in code or "from tmfusion import" in code
    run_python("-c", code)
