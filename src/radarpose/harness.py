"""Experiment harness: metric computation, the four-way ablation, reports.

Metrics (all in cm, computed per axis): overall MAE over the included
joints, MAE of the arm joints on swing frames, MAE of the lower body, MAE
along the depth (world y) axis, and the arm-swing recognition percentage.

The swing-recognition rule is this workbench's own definition: a swing
frame (ground-truth swing_state of "left" or "right") counts as correct
when the predicted elbow on that side sits at least ``margin_cm`` above the
predicted opposite elbow.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .model import (
    Hyper,
    ModelConfig,
    examples_from_frames,
    predict_batch,
    train,
)
from .physics import ChirpConfig
from .pointcloud import (
    DEFAULT_EPS_M,
    DEFAULT_MIN_PTS,
    DEFAULT_POSES,
    FusedFrame,
    fuse_records,
    normalize_snr,
)
from .records import read_jsonl, write_jsonl
from .scene import (
    ACTIONS,
    ARM_JOINTS,
    JOINT_INDEX,
    LOWER_BODY_JOINTS,
    MotionConfig,
    SkeletonFrame,
    generate_dataset,
)

SWING_MARGIN_CM = 5.0
TEST_SEED_OFFSET = 1000


@dataclass(frozen=True)
class JointSets:
    """Named joint groups the metrics are computed over; all configurable."""

    included: tuple = ModelConfig().included_joints
    lower_body: tuple = LOWER_BODY_JOINTS
    arms: tuple = ARM_JOINTS

    def __post_init__(self):
        for group in (self.included, self.lower_body, self.arms):
            unknown = [j for j in group if j not in JOINT_INDEX]
            if unknown:
                raise ValueError(f"unknown joints: {unknown}")


@dataclass
class VariantMetrics:
    name: str
    mae_all_cm: float
    mae_arms_swing_cm: float | None
    mae_lower_cm: float
    mae_depth_cm: float
    arm_swing_pct: float | None
    per_joint_mae_cm: dict = field(default_factory=dict)


@dataclass
class MetricsReport:
    rows: list
    baseline: VariantMetrics | None = None
    split_digests: dict = field(default_factory=dict)


def frames_from_records(records: list[dict]) -> list[FusedFrame]:
    """Materialize fused JSONL records into in-memory frames.

    Only preprocessed records (``"fused": true``: world-frame points,
    normalized SNR) are accepted, each ``frame_id`` at most once; every
    point value must be finite and ``gt`` must be 32 finite ``[x, y, z]``
    rows. Each error names the frame.
    """
    frames = []
    seen = set()
    for rec in records:
        fid = rec["frame_id"]
        if rec.get("fused") is not True:
            raise ValueError(f"frame {fid}: not a fused record (run preprocess first)")
        if fid in seen:
            raise ValueError(f"frame {fid}: frame_id repeated in the fused records")
        seen.add(fid)
        points = np.asarray(rec["points"], dtype=float).reshape(-1, 5)
        if not np.isfinite(points).all():
            raise ValueError(f"frame {fid}: non-finite point values")
        try:
            gt = SkeletonFrame(
                joints=rec["gt"],
                timestamp_ms=rec["t_ms"],
                action=rec["action"],
                subject_id=rec["subject"],
                swing_state=rec["swing_state"],
            )
        except ValueError as exc:  # ragged, non-numeric, mis-shaped or non-finite joints
            raise ValueError(f"frame {fid}: gt is not 32 finite [x, y, z] rows ({exc})") from None
        frames.append(FusedFrame(points=points, gt=gt, frame_id=fid))
    return frames


def evaluate(preds: np.ndarray, gts: list[SkeletonFrame], joint_sets: JointSets | None = None,
             name: str = "model") -> VariantMetrics:
    """MAE metrics (cm) of aligned predictions and ground-truth frames.

    ``preds`` is an (F, 32, 3) array in metres, such as
    :func:`~radarpose.model.predict_batch` returns (NaN rows allowed for
    absent joints); ``gts`` the F ground-truth frames, whose action and
    swing-state labels select the swing frames.
    """
    js = joint_sets or JointSets()
    gt = np.stack([g.joints for g in gts])
    if preds.shape != gt.shape:
        raise ValueError(f"prediction/ground-truth mismatch: {preds.shape} vs {gt.shape}")
    if len(preds) == 0:
        raise ValueError("no frames to evaluate")

    err_cm = np.abs(preds - gt) * 100.0  # (F, 32, 3)
    inc = np.array([JOINT_INDEX[j] for j in js.included])
    lower = np.array([JOINT_INDEX[j] for j in js.lower_body])
    arms = np.array([JOINT_INDEX[j] for j in js.arms])
    swing_mask = np.array([g.action in ("swing_right", "swing_left") for g in gts])

    mae_all = float(np.mean(err_cm[:, inc, :]))
    mae_depth = float(np.mean(err_cm[:, inc, 1]))
    mae_lower = float(np.mean(err_cm[:, lower, :]))
    if swing_mask.any():
        mae_arms = float(np.mean(err_cm[swing_mask][:, arms, :]))
    else:
        mae_arms = None
    per_joint = {j: float(np.mean(err_cm[:, JOINT_INDEX[j], :])) for j in js.included}

    return VariantMetrics(
        name=name,
        mae_all_cm=mae_all,
        mae_arms_swing_cm=mae_arms,
        mae_lower_cm=mae_lower,
        mae_depth_cm=mae_depth,
        arm_swing_pct=arm_swing_score(preds, gts, SWING_MARGIN_CM),
        per_joint_mae_cm=per_joint,
    )


def arm_swing_score(preds, gts, margin_cm: float = SWING_MARGIN_CM) -> float | None:
    """Percentage of swing frames whose raised arm the prediction gets right.

    A frame counts when the predicted elbow on the ground-truth swing side
    exceeds the opposite predicted elbow by at least ``margin_cm``. Returns
    None when the ground truth holds no swing frames.
    """
    el = {side: JOINT_INDEX[f"elbow_{side}"] for side in ("left", "right")}
    total = 0
    correct = 0
    for i, state in enumerate(g.swing_state for g in gts):
        if state not in ("left", "right"):
            continue
        total += 1
        other = "right" if state == "left" else "left"
        lift_cm = (preds[i, el[state], 2] - preds[i, el[other], 2]) * 100.0
        if math.isfinite(lift_cm) and lift_cm >= margin_cm:
            correct += 1
    if total == 0:
        return None
    return 100.0 * correct / total


def mean_pose_baseline(train_gts) -> np.ndarray:
    """(32, 3) constant predictor: the mean training pose."""
    return np.stack([g.joints for g in train_gts]).mean(axis=0)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return "" if value is None else f"{value:.4f}"


def report_header(joint_sets: JointSets | None = None) -> list[str]:
    n = len((joint_sets or JointSets()).included)
    return [
        "Model",
        f"MAE across {n} key points",
        "MAE when swinging arms",
        "MAE of the lower body",
        "MAE in the Depth direction",
        "Percentage of correct recognition of the arm swing",
    ]


def report_to_csv(report: MetricsReport, path, joint_sets: JointSets | None = None) -> str:
    """Write the metrics table; returns the CSV text (LF endings)."""
    lines = [",".join(report_header(joint_sets))]
    for row in report.rows:
        lines.append(
            ",".join(
                [
                    row.name,
                    _fmt(row.mae_all_cm),
                    _fmt(row.mae_arms_swing_cm),
                    _fmt(row.mae_lower_cm),
                    _fmt(row.mae_depth_cm),
                    _fmt(row.arm_swing_pct),
                ]
            )
        )
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    return text


def per_joint_csv(rows: list, path) -> str:
    """Companion per-joint MAE breakdown, one column per model row."""
    names = [r.name for r in rows]
    joints = sorted(rows[0].per_joint_mae_cm) if rows else []
    lines = [",".join(["Joint", *names])]
    for j in joints:
        lines.append(",".join([j, *[_fmt(r.per_joint_mae_cm.get(j)) for r in rows]]))
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    return text


def loss_curve_svg(history: list[dict], path, width: int = 640, height: int = 360) -> str:
    """Tiny standalone SVG of train/validation loss on a log-ish scale."""
    pad = 40
    train_pts = [(h["epoch"], h["train_loss"]) for h in history]
    val_pts = [(h["epoch"], h["val_loss"]) for h in history if not math.isnan(h["val_loss"])]
    all_vals = [v for _, v in train_pts + val_pts if v > 0]
    lo = min(all_vals) if all_vals else 1e-6
    hi = max(all_vals) if all_vals else 1.0
    lo, hi = math.log10(max(lo, 1e-12)), math.log10(max(hi, 1e-12))
    if hi - lo < 1e-9:
        hi = lo + 1.0
    n_epochs = max(len(history) - 1, 1)

    def xy(e, v):
        x = pad + (width - 2 * pad) * e / n_epochs
        y = height - pad - (height - 2 * pad) * (math.log10(max(v, 1e-12)) - lo) / (hi - lo)
        return f"{x:.1f},{y:.1f}"

    def polyline(pts, color):
        if not pts:
            return ""
        coords = " ".join(xy(e, v) for e, v in pts)
        return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'

    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<rect width="100%" height="100%" fill="white"/>'
        f'<text x="{pad}" y="20" font-size="12">loss (log10 scale), blue=train orange=val</text>'
        f"{polyline(train_pts, '#1f77b4')}{polyline(val_pts, '#ff7f0e')}"
        f"</svg>"
    )
    if path is not None:
        Path(path).write_text(svg, encoding="utf-8")
    return svg


# ---------------------------------------------------------------------------
# ablation
# ---------------------------------------------------------------------------

@dataclass
class AblationConfig:
    """Everything the four-row experiment needs; all seeds fixed up front."""

    workdir: Path | str = "ablation_work"
    n_train: int = 2000
    n_test: int = 500
    seed: int = 42
    fps: float = 20.0
    duration_s: float = 3.0
    walk_speed: float = 0.5
    actions: tuple = ACTIONS
    subjects: tuple = (0, 1)
    density: int = 4
    noise_std: float = 0.3
    threshold_db: float = 8.0
    window_ms: float = 50.0
    eps: float = DEFAULT_EPS_M
    min_pts: int = DEFAULT_MIN_PTS
    n_max: int = 64
    lr: float = 1e-3
    batch: int = 32
    epochs: int = 12
    train_seed: int = 0
    keep_files: bool = True


ABLATION_ROWS = (
    ("Two-radar + CNN", "dual_cnn", "both"),
    ("Two-radar + MLP", "dual_mlp", "both"),
    ("Two-radar + Simple PointNet", "single_pointnet", "both"),
    ("One-radar + CNN", "dual_cnn", "radar_a"),
)


def _split_digest(n_frames: int, frame_ids, hyper: Hyper) -> str:
    from .model import split_indices

    train_idx, val_idx = split_indices(n_frames, hyper.seed, hyper.val_fraction)
    ids = np.asarray(frame_ids)
    doc = {
        "seed": hyper.seed,
        "train": ids[train_idx].tolist(),
        "val": ids[val_idx].tolist(),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def _pipeline(records, radar_ids, cfg: AblationConfig, snr_bounds=None):
    fused = fuse_records(
        records,
        poses=DEFAULT_POSES,
        radar_ids=radar_ids,
        window_ms=cfg.window_ms,
        eps=cfg.eps,
        min_pts=cfg.min_pts,
    )
    fused, bounds = normalize_snr(fused, snr_bounds)
    return fused, bounds


def simulate_split(cfg: AblationConfig, out_dir: Path | None = None):
    """Generate the raw train and test record streams (disjoint seeds)."""
    motion = MotionConfig(fps=cfg.fps, duration_s=cfg.duration_s, walk_speed=cfg.walk_speed, seed=cfg.seed)
    chirp = ChirpConfig(noise_std=cfg.noise_std)
    train_records = generate_dataset(
        cfg.actions, motion, chirp_cfg=chirp, n_frames=cfg.n_train,
        subjects=cfg.subjects, density=cfg.density, threshold_db=cfg.threshold_db,
        out_path=None if out_dir is None else Path(out_dir) / "train_raw.jsonl",
    )
    test_motion = replace(motion, seed=cfg.seed + TEST_SEED_OFFSET)
    test_records = generate_dataset(
        cfg.actions, test_motion, chirp_cfg=chirp, n_frames=cfg.n_test,
        subjects=cfg.subjects, density=cfg.density, threshold_db=cfg.threshold_db,
        out_path=None if out_dir is None else Path(out_dir) / "test_raw.jsonl",
    )
    return train_records, test_records


def run_ablation(cfg: AblationConfig) -> MetricsReport:
    """Train and evaluate the four configurations on one shared dataset.

    All rows use identical raw data, split seed, and hyperparameters; the
    one-radar row sees only radar 0's stream. Returns the populated report
    (rows ordered as in ABLATION_ROWS, plus the mean-pose baseline) and
    leaves CSV writing to the caller.
    """
    # hyperparameters and model configs are checked before simulating
    hyper = Hyper(lr=cfg.lr, batch=cfg.batch, epochs=cfg.epochs, seed=cfg.train_seed)
    model_cfgs = [ModelConfig(variant=variant, n_max=cfg.n_max, seed=cfg.train_seed) for _, variant, _ in ABLATION_ROWS]
    workdir = Path(cfg.workdir)
    out_dir = None
    if cfg.keep_files:
        workdir.mkdir(parents=True, exist_ok=True)
        out_dir = workdir
    train_records, test_records = simulate_split(cfg, out_dir)

    pipelines = {}
    for key, radar_ids in (("both", (0, 1)), ("radar_a", (0,))):
        fused_train, bounds = _pipeline(train_records, radar_ids, cfg)
        fused_test, _ = _pipeline(test_records, radar_ids, cfg, snr_bounds=bounds)
        if cfg.keep_files:
            write_jsonl(workdir / f"train_fused_{key}.jsonl", fused_train)
            write_jsonl(workdir / f"test_fused_{key}.jsonl", fused_test)
        train_frames = frames_from_records(fused_train)
        test_frames = frames_from_records(fused_test)
        pipelines[key] = {
            "train": examples_from_frames(train_frames, cfg.n_max),
            "test": examples_from_frames(test_frames, cfg.n_max),
            "test_gts": [f.gt for f in test_frames],
            "train_gts": [f.gt for f in train_frames],
            "snr_bounds": bounds,
        }

    joint_sets = JointSets()
    report = MetricsReport(rows=[])

    base = pipelines["both"]
    baseline_pose = mean_pose_baseline(base["train_gts"])
    baseline_pred = np.tile(baseline_pose, (len(base["test_gts"]), 1, 1))
    report.baseline = evaluate(baseline_pred, base["test_gts"], joint_sets, name="Mean-pose baseline")

    for (name, variant, pipeline_key), mcfg in zip(ABLATION_ROWS, model_cfgs):
        data = pipelines[pipeline_key]
        params, history = train(mcfg, data["train"], hyper)
        params.snr_bounds = data["snr_bounds"]
        preds = predict_batch(params, data["test"])
        row = evaluate(preds, data["test_gts"], joint_sets, name=name)
        report.rows.append(row)
        report.split_digests[name] = _split_digest(
            len(data["train"]), data["train"].frame_ids, hyper
        )
        if cfg.keep_files:
            from .model import save_checkpoint

            tag = variant if pipeline_key == "both" else f"{variant}_{pipeline_key}"
            save_checkpoint(params, workdir / f"ckpt_{tag}.json")
            loss_curve_svg(history, workdir / f"loss_{tag}.svg")
    return report
