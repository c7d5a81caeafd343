"""Smoke test of the demo scripts.

Each demo runs in its own interpreter against the source tree, with
RuntimeWarning turned into an error as in the rest of the suite, and
must exit with status 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_inflection_points", "02_stratification", "03_loop_monodromy",
         "04_discriminant_crossings", "05_monodromy_group",
         "06_net_of_cubics", "07_numerical_invariants"]


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         str(ROOT / "demos" / f"{name}.py")],
        env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name):
    done = run_demo(name)
    assert done.returncode == 0, done.stderr
    if name == "01_inflection_points":
        # each of the nine Fermat flexes matches the classical table
        assert done.stdout.count("  ->  < 1e-12\n") == 9
    if name == "05_monodromy_group":
        # the lexicographically first conjugator onto the Hessian group
        assert "(relabelling (5,7,8)(6,9))" in done.stdout
    if name == "06_net_of_cubics":
        assert "24 cuspidal members found" in done.stdout
