"""The fast narrative demos run to completion.

Demos 04 and 05 train models and take about 12 s each, so they stay out.
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
    ["01_chirp_physics.py", "02_single_target_detection.py", "03_scene_fusion_denoise.py"],
)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
