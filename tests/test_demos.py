"""The narrative demos run to completion, and every name they import from
``radarpose`` exists.

Demo 04 trains dual_cnn and runs the gradient check (about 7 s). Demo 05,
the mini ablation, trains three models and does not run here; the import
check covers it. Each demo runs with numpy's RuntimeWarning raised as an
error, as in the test suite itself.
"""

import ast
import importlib
import importlib.util
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


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_imports_resolve(script):
    tree = ast.parse((DEMOS / script).read_text(encoding="utf-8"))
    imported = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names if a.name.split(".")[0] == "radarpose"]
            imported += len(modules)
            for name in modules:
                importlib.import_module(name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "radarpose":
            module = importlib.import_module(node.module)
            missing = [a.name for a in node.names if not hasattr(module, a.name)
                       and not (hasattr(module, "__path__") and importlib.util.find_spec(f"{node.module}.{a.name}"))]
            assert not missing, f"{script}: {node.module} has no {missing}"
            imported += len(node.names)
    assert imported
