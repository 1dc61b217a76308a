"""The example scripts run to the end at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, extra", [
    ("ard_regression.py", ["--d", "4", "--heldout", "10"]),
    ("gmm_clusters.py", []),
])
def test_script_with_fewer_iterations_than_one_evaluation(script, extra):
    # 3 iterations record no objective (evaluations come every 500)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--n", "40",
         "--minibatch", "10", "--iters", "3", *extra],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "no objective evaluations recorded" in proc.stdout
