#!/usr/bin/env python3
"""The four-way comparison at desk-miniature scale.

Runs exactly what `radarpose ablate` runs (dual-view CNN, dual-view MLP,
single-view point network, and the one-radar configuration) on a small
dataset so it finishes in about a minute, and prints the metrics table.
The test split holds one 0.6 s sequence of each action and subject, so the
arm-swing columns are filled: a swing sequence raises its arm from 0.45 s
on. Every file the run writes goes to a temporary directory that is removed
at exit. The full-scale run is:  radarpose ablate --frames 2000 --test-frames 500
"""

import tempfile
from pathlib import Path

from radarpose.harness import AblationConfig, per_joint_csv, report_to_csv, run_ablation

with tempfile.TemporaryDirectory(prefix="radarpose_ablation_") as tmp:
    workdir = Path(tmp)
    cfg = AblationConfig(
        workdir=workdir,
        n_train=160,
        n_test=96,  # 8 sequences (4 actions x 2 subjects) of 12 frames
        duration_s=0.6,
        epochs=6,
        seed=42,
        keep_files=True,
    )
    report = run_ablation(cfg)

    print(report_to_csv(report, workdir / "ablation.csv"), end="")
    print(f"\nmean-pose baseline MAE: {report.baseline.mae_all_cm:.2f} cm")
    for row in report.rows:
        verdict = "beats baseline" if row.mae_all_cm < report.baseline.mae_all_cm else "does not beat baseline"
        print(f"  {row.name:30s} {row.mae_all_cm:6.2f} cm  ({verdict})")
    print(f"\nsplit digests (identical across rows): {sorted(set(report.split_digests.values()))}")
    per_joint_csv(report.rows, workdir / "ablation.joints.csv")
    n_files = sum(1 for _ in workdir.iterdir())
    print(f"{n_files} files written (CSVs, checkpoints, loss curves, JSONL), removed at exit")
