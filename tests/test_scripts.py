"""The runnable scripts under scripts/, run as a user would from any directory."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_pencil_experiment_runs_from_a_bare_checkout(tmp_path):
    # no PYTHONPATH and another working directory: the script must find the
    # package in the src of its own checkout
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "pencil_experiment.py"), "10007", "1"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all counts equal 24" in proc.stdout
