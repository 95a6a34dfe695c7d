"""Outputs of a small fixed scenario, compared against ``reference.json``.

The workload seed changes from run to run, so a run's own outputs have no
stored reference. Each run therefore also renders, preprocesses and trains on
one fixed reference scenario through the same functions its workload uses, and
compares the result with the values kept in ``reference.json``:

* exact: record counts, record schema (keys in order), points per record;
* within ``TOLERANCE``: point values, SNR bounds, ``mae_cm`` and losses.
  Float reordering (numpy kernels, summation order) may move these in the
  last digits, never by the tolerance.

Regenerate the file with ``python3 perfbench/make_reference.py`` only when a
change is meant to alter the program's outputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

from radarpose import harness, model, pointcloud, scene
from radarpose.physics import ChirpConfig

from workloads import ABLATION, VARIANTS, Overfit

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 7
TOLERANCE = {
    "points_abs": 1e-6,  # m, m/s, dB and normalized SNR
    "mae_cm_abs": 1e-3,
    "loss_rel": 1e-6,
}


def _dataset_records():
    cfg = replace(ABLATION, duration_s=2 / ABLATION.fps, seed=REFERENCE_SEED)
    motion = scene.MotionConfig(fps=cfg.fps, duration_s=cfg.duration_s, walk_speed=cfg.walk_speed, seed=cfg.seed)
    raw = scene.generate_dataset(
        cfg.actions, motion, chirp_cfg=ChirpConfig(noise_std=cfg.noise_std), subjects=cfg.subjects,
        density=cfg.density, threshold_db=cfg.threshold_db,
    )
    fused = {}
    for key, radar_ids in (("both", (0, 1)), ("radar_a", (0,))):
        fused[key] = pointcloud.normalize_snr(
            pointcloud.fuse_records(raw, radar_ids=radar_ids, window_ms=cfg.window_ms, eps=cfg.eps, min_pts=cfg.min_pts)
        )
    return raw, fused


def _dataset_outputs(raw, fused) -> dict:
    both, bounds = fused["both"]
    return {
        "raw_count": len(raw),
        "raw_keys": list(raw[0]),
        "raw_point_counts": [len(r["points"]) for r in raw],
        "raw_points": [v for r in raw for p in r["points"] for v in p],
        "fused_keys": list(both[0]),
        "fused_point_counts": {k: [len(r["points"]) for r in recs] for k, (recs, _) in fused.items()},
        "fused_points": [v for r in both for p in r["points"] for v in p],
        "snr_bounds": list(bounds),
    }


def _train_outputs(fused) -> dict:
    """Each variant trained briefly on the reference frames, scored on them."""
    frames = harness.frames_from_records(fused["both"][0])
    examples = model.examples_from_frames(frames, ABLATION.n_max)
    hyper = model.Hyper(lr=ABLATION.lr, batch=8, epochs=2, seed=ABLATION.train_seed)
    mae = {}
    for variant in VARIANTS:
        mcfg = model.ModelConfig(variant=variant, n_max=ABLATION.n_max, seed=ABLATION.train_seed)
        params, _ = model.train(mcfg, examples, hyper)
        preds = model.predict_batch(params, examples)
        mae[variant] = harness.evaluate(preds, [f.gt for f in frames]).mae_all_cm
    return {"mae_cm": mae}


def _overfit_outputs() -> dict:
    """The overfit workload's first 20 steps on the reference frames."""
    workload = Overfit()
    examples = workload.setup(REFERENCE_SEED, workdir=None)["examples"]
    _, history = model.train(workload.model_config(), examples, workload.hyper(epochs=20))
    return {"losses": [h["train_loss"] for h in history]}


def reference_outputs(workload: str) -> dict:
    """The reference scenario's outputs for the layers ``workload`` exercises."""
    if workload == "dataset":
        return _dataset_outputs(*_dataset_records())
    if workload == "train":
        return _train_outputs(_dataset_records()[1])
    if workload == "overfit":
        return _overfit_outputs()
    raise ValueError(f"unknown workload {workload!r}")


def _close(expected, actual, abs_tol=0.0, rel_tol=0.0) -> bool:
    return all(
        math.isfinite(a) and math.isclose(e, a, abs_tol=abs_tol, rel_tol=rel_tol)
        for e, a in zip(expected, actual)
    )


def compare(workload: str, expected: dict, actual: dict) -> list[str]:
    """Problems found comparing a scenario's outputs with the reference."""
    problems = []

    def exact(key):
        if expected[key] != actual[key]:
            problems.append(f"reference {workload}: {key} differs (exact match required)")

    if workload == "dataset":
        for key in ("raw_count", "raw_keys", "raw_point_counts", "fused_keys", "fused_point_counts"):
            exact(key)
        for key in ("raw_points", "fused_points", "snr_bounds"):
            e, a = expected[key], actual[key]
            if len(e) != len(a) or not _close(e, a, abs_tol=TOLERANCE["points_abs"]):
                problems.append(f"reference {workload}: {key} off by more than {TOLERANCE['points_abs']:g}")
    elif workload == "train":
        for variant, e in expected["mae_cm"].items():
            a = actual["mae_cm"].get(variant, math.nan)
            if not _close([e], [a], abs_tol=TOLERANCE["mae_cm_abs"]):
                problems.append(
                    f"reference {workload}: mae_cm.{variant} {a:.6f} vs {e:.6f} "
                    f"(tolerance {TOLERANCE['mae_cm_abs']:g} cm)"
                )
    elif workload == "overfit":
        e, a = expected["losses"], actual["losses"]
        if len(e) != len(a) or not _close(e, a, rel_tol=TOLERANCE["loss_rel"]):
            problems.append(f"reference {workload}: loss curve off by more than {TOLERANCE['loss_rel']:g} relative")
    return problems


def load_reference(path=REFERENCE_PATH) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def check_reference(workload: str, reference: dict | None = None) -> list[str]:
    reference = load_reference() if reference is None else reference
    if reference.get("seed") != REFERENCE_SEED or workload not in reference:
        return [f"reference {workload}: reference.json does not hold this scenario"]
    return compare(workload, reference[workload], reference_outputs(workload))

