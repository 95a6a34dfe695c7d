"""The narrative demos run to completion.

Demo 04 trains dual_cnn and runs the gradient check (about 7 s). Demo 05,
the mini ablation, trains three models and stays out. Each demo runs with
numpy's RuntimeWarning raised as an error, as in the test suite itself.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import radarpose

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(radarpose.__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script",
    ["01_chirp_physics.py", "02_single_target_detection.py", "03_scene_fusion_denoise.py",
     "04_train_and_gradcheck.py"],
)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(DEMOS / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
