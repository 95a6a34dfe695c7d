"""Experiment harness: metric computation, the four-way ablation, reports.

Metrics (all in cm, computed per axis): overall MAE over the included
joints, MAE of the arm joints, MAE of the lower body, MAE along the depth
(world y) axis, and the arm-swing recognition percentage. The two arm
metrics select their frames differently:

- the arm MAE ("MAE when swinging arms") averages the arm joints over every
  frame of the ``swing_right`` and ``swing_left`` sequences, selected by the
  ground truth's ``action``, whether or not the arm is raised in that frame;
- the recognition percentage counts only the frames whose ground-truth
  ``swing_state`` names a side ("left" or "right": that elbow is above its
  shoulder line). This rule is this workbench's own definition: such a
  frame counts as correct when the predicted elbow on that side sits at
  least ``SWING_MARGIN_CM`` above the predicted opposite elbow.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import Hyper, ModelConfig, examples_from_frames, predict_batch, save_checkpoint, split_indices, train
from .physics import ChirpConfig
from .pointcloud import (
    DEFAULT_EPS_M,
    DEFAULT_MIN_PTS,
    DEFAULT_POSES,
    DEFAULT_WINDOW_MS,
    FusedFrame,
    check_dbscan_args,
    check_window_ms,
    fuse_records,
    normalize_snr,
)
from .records import read_jsonl, validate_record, write_jsonl
from .scene import (
    ACTIONS,
    ARM_JOINTS,
    DATASET_DENSITY,
    DATASET_NOISE_STD,
    DATASET_THRESHOLD_DB,
    JOINT_INDEX,
    LOWER_BODY_JOINTS,
    MotionConfig,
    SkeletonFrame,
    generate_dataset,
)

SWING_MARGIN_CM = 5.0
TEST_SEED_OFFSET = 1000


#: the joints the default model predicts, which the metrics cover by default
DEFAULT_INCLUDED = ModelConfig().included_joints


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

    Each record must pass :func:`~radarpose.records.validate_record`; only
    preprocessed records (``"fused": true``: world-frame points, normalized
    SNR) are accepted, each ``frame_id`` at most once, and every point and
    joint value must be finite. Each error names the frame.
    """
    frames = []
    seen = set()
    for rec in records:
        validate_record(rec)
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
        except ValueError as exc:  # non-numeric or non-finite joints
            raise ValueError(f"frame {fid}: gt is not 32 finite [x, y, z] rows ({exc})") from None
        frames.append(FusedFrame(points=points, gt=gt, frame_id=fid))
    return frames


def evaluate(preds: np.ndarray, gts: list[SkeletonFrame], included: tuple = DEFAULT_INCLUDED,
             name: str = "model") -> VariantMetrics:
    """MAE metrics (cm) of aligned predictions and ground-truth frames.

    ``preds`` is an (F, 32, 3) array in metres, such as
    :func:`~radarpose.model.predict_batch` returns (NaN rows allowed for
    absent joints); ``gts`` the F ground-truth frames. The overall, depth
    and per-joint MAEs cover the ``included`` joints; an unknown name
    raises. The lower-body and arm MAEs cover ``LOWER_BODY_JOINTS`` and
    ``ARM_JOINTS``. The arm MAE averages every frame whose ``action`` is
    ``swing_right`` or ``swing_left`` (None without such frames); the
    recognition percentage, :func:`arm_swing_score`, counts only the frames
    whose ``swing_state`` names a side.
    """
    unknown = [j for j in included if j not in JOINT_INDEX]
    if unknown:
        raise ValueError(f"unknown joints: {unknown}")
    gt = np.stack([g.joints for g in gts])
    if preds.shape != gt.shape:
        raise ValueError(f"prediction/ground-truth mismatch: {preds.shape} vs {gt.shape}")
    if len(preds) == 0:
        raise ValueError("no frames to evaluate")

    err_cm = np.abs(preds - gt) * 100.0  # (F, 32, 3)
    inc = np.array([JOINT_INDEX[j] for j in included])
    lower = np.array([JOINT_INDEX[j] for j in LOWER_BODY_JOINTS])
    arms = np.array([JOINT_INDEX[j] for j in ARM_JOINTS])
    swing_mask = np.array([g.action in ("swing_right", "swing_left") for g in gts])

    mae_all = float(np.mean(err_cm[:, inc, :]))
    mae_depth = float(np.mean(err_cm[:, inc, 1]))
    mae_lower = float(np.mean(err_cm[:, lower, :]))
    if swing_mask.any():
        mae_arms = float(np.mean(err_cm[swing_mask][:, arms, :]))
    else:
        mae_arms = None
    per_joint = {j: float(np.mean(err_cm[:, JOINT_INDEX[j], :])) for j in included}

    return VariantMetrics(
        name=name,
        mae_all_cm=mae_all,
        mae_arms_swing_cm=mae_arms,
        mae_lower_cm=mae_lower,
        mae_depth_cm=mae_depth,
        arm_swing_pct=arm_swing_score(preds, gts),
        per_joint_mae_cm=per_joint,
    )


def arm_swing_score(preds, gts) -> float | None:
    """Percentage of swing frames whose raised arm the prediction gets right.

    A frame counts when the predicted elbow on the ground-truth swing side
    exceeds the opposite predicted elbow by at least ``SWING_MARGIN_CM``. Returns
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
        if math.isfinite(lift_cm) and lift_cm >= SWING_MARGIN_CM:
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


def report_header(included: tuple = DEFAULT_INCLUDED) -> list[str]:
    return [
        "Model",
        f"MAE across {len(included)} key points",
        "MAE when swinging arms",
        "MAE of the lower body",
        "MAE in the Depth direction",
        "Percentage of correct recognition of the arm swing",
    ]


def joints_path(path) -> Path:
    """Where :func:`report_to_csv` writes the per-joint companion of the table at ``path``."""
    return Path(path).with_suffix(".joints.csv")


def _csv(table) -> str:
    return "".join(",".join(cells) + "\n" for cells in table)


def report_to_csv(report: MetricsReport, path, included: tuple = DEFAULT_INCLUDED) -> str:
    """The metrics table as CSV text (LF endings). With a ``path``, the table is
    written there and its per-joint MAE breakdown, one column per model row,
    to :func:`joints_path`."""
    rows = report.rows
    text = _csv([report_header(included)] + [
        [row.name, *map(_fmt, (row.mae_all_cm, row.mae_arms_swing_cm, row.mae_lower_cm, row.mae_depth_cm,
                               row.arm_swing_pct))]
        for row in rows
    ])
    if path is not None:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
        joints = sorted(rows[0].per_joint_mae_cm) if rows else []
        per_joint = [["Joint", *(r.name for r in rows)]]
        per_joint += [[j, *(_fmt(r.per_joint_mae_cm.get(j)) for r in rows)] for j in joints]
        joints_path(path).write_text(_csv(per_joint), encoding="utf-8", newline="\n")
    return text


def loss_curve_svg(history: list[dict], path) -> str:
    """Tiny standalone 640 x 360 SVG of train/validation loss on a log-ish scale."""
    width, height, pad = 640, 360, 40
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
    fps: float = MotionConfig.fps
    duration_s: float = MotionConfig.duration_s
    walk_speed: float = MotionConfig.walk_speed
    actions: tuple = ACTIONS
    subjects: tuple = (0, 1)
    density: int = DATASET_DENSITY
    noise_std: float = DATASET_NOISE_STD
    threshold_db: float = DATASET_THRESHOLD_DB
    window_ms: float = DEFAULT_WINDOW_MS
    eps: float = DEFAULT_EPS_M
    min_pts: int = DEFAULT_MIN_PTS
    n_max: int = ModelConfig.n_max
    lr: float = Hyper.lr
    batch: int = Hyper.batch
    epochs: int = 12
    train_seed: int = 0
    keep_files: bool = True


ABLATION_ROWS = (
    ("Two-radar + CNN", "dual_cnn", "both"),
    ("Two-radar + MLP", "dual_mlp", "both"),
    ("Two-radar + Simple PointNet", "single_pointnet", "both"),
    ("One-radar + CNN", "dual_cnn", "radar_a"),
)


def _split_digest(frame_ids, hyper: Hyper) -> str:
    train_idx, val_idx = split_indices(len(frame_ids), hyper.seed, hyper.val_fraction)
    ids = np.asarray(frame_ids)
    doc = {
        "seed": hyper.seed,
        "train": ids[train_idx].tolist(),
        "val": ids[val_idx].tolist(),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# pipeline steps: run_ablation and the CLI subcommands share each of these
# ---------------------------------------------------------------------------

def simulate(cfg: AblationConfig, seed: int, n_frames: int, out_path=None,
             n_radars: int = len(DEFAULT_POSES)) -> list[dict]:
    """Raw records of ``n_frames`` frames of ``cfg``'s scenes, drawn with ``seed``.

    One record per frame and radar, from radars 0 to ``n_radars - 1``; with
    ``out_path`` they are also written there as JSONL.
    """
    return generate_dataset(
        cfg.actions,
        MotionConfig(fps=cfg.fps, duration_s=cfg.duration_s, walk_speed=cfg.walk_speed, seed=seed),
        radar_ids=tuple(range(n_radars)),
        chirp_cfg=ChirpConfig(noise_std=cfg.noise_std),
        out_path=out_path,
        n_frames=n_frames,
        subjects=cfg.subjects,
        density=cfg.density,
        threshold_db=cfg.threshold_db,
    )


def simulate_split(cfg: AblationConfig, out_dir: Path | None = None):
    """Generate the raw train and test record streams (disjoint seeds)."""

    def split(name: str, seed: int, n_frames: int) -> list[dict]:
        return simulate(cfg, seed, n_frames, None if out_dir is None else Path(out_dir) / f"{name}_raw.jsonl")

    return split("train", cfg.seed, cfg.n_train), split("test", cfg.seed + TEST_SEED_OFFSET, cfg.n_test)


def meta_path(path) -> Path:
    """Where :func:`preprocess` writes the meta file of the data at ``path``."""
    return Path(str(path) + ".meta.json")


def _meta_bounds(meta: dict, meta_file, required: bool = False):
    """``(snr_min, snr_max)`` from a preprocess meta file.

    None when the file holds neither field and ``required`` is false; a
    ``ValueError`` naming the file and the field when one is missing.
    """
    missing = [k for k in ("snr_min", "snr_max") if k not in meta]
    if len(missing) == 2 and not required:
        return None
    if missing:
        raise ValueError(f"{meta_file} has no {missing[0]!r} field; SNR bounds need both snr_min and snr_max")
    return (meta["snr_min"], meta["snr_max"])


def read_snr_bounds(meta_file) -> tuple:
    """The SNR bounds that the preprocess meta file ``meta_file`` holds; both fields are required."""
    return _meta_bounds(json.loads(Path(meta_file).read_text(encoding="utf-8")), meta_file, required=True)


def preprocess(records, radar_ids, cfg: AblationConfig, snr_bounds=None, out_path=None):
    """Fused, SNR-scaled records and the SNR bounds used.

    The bounds are ``snr_bounds`` when given, else those of the fused
    records. With ``out_path`` the records are written there as JSONL, and
    the bounds and settings to its :func:`meta_path`.
    """
    fused = fuse_records(records, radar_ids=radar_ids, window_ms=cfg.window_ms, eps=cfg.eps, min_pts=cfg.min_pts)
    fused, (lo, hi) = normalize_snr(fused, snr_bounds)
    if out_path is not None:
        write_jsonl(out_path, fused)
        meta = {
            "snr_min": lo,
            "snr_max": hi,
            "eps": cfg.eps,
            "min_pts": cfg.min_pts,
            "window_ms": cfg.window_ms,
            "n_max": cfg.n_max,
            "radar_ids": list(radar_ids),
        }
        meta_path(out_path).write_text(json.dumps(meta), encoding="utf-8")
    return fused, (lo, hi)


def load(records, n_max: int):
    """The ``ExampleSet`` of fused records and their ground-truth frames."""
    frames = frames_from_records(records)
    return examples_from_frames(frames, n_max), [f.gt for f in frames]


def load_file(path, n_max: int | None = None):
    """:func:`load` of a fused JSONL file: ``(examples, gts, n_max, snr_bounds)``.

    ``n_max`` defaults to the one in the file's meta, else ``ModelConfig``'s;
    the SNR bounds are the meta's, or None without them.
    """
    meta_file = meta_path(path)
    meta = json.loads(meta_file.read_text(encoding="utf-8")) if meta_file.exists() else {}
    bounds = _meta_bounds(meta, meta_file)
    if n_max is None:
        n_max = meta.get("n_max", ModelConfig.n_max)
    return (*load(read_jsonl(path), n_max), n_max, bounds)


def fit(model_cfg: ModelConfig, examples, hyper: Hyper, snr_bounds, checkpoint=None, loss_svg=None):
    """Train a model, record the SNR bounds it was trained with, and save what is asked for."""
    params, history = train(model_cfg, examples, hyper)
    params.snr_bounds = snr_bounds
    if checkpoint is not None:
        save_checkpoint(params, checkpoint)
    if loss_svg is not None:
        loss_curve_svg(history, loss_svg)
    return params, history


def score(params, examples, gts, name: str) -> VariantMetrics:
    """The metrics row of a model's predictions on ``examples`` against ``gts``."""
    return evaluate(predict_batch(params, examples), gts, params.config.included_joints, name=name)


def run_ablation(cfg: AblationConfig) -> MetricsReport:
    """Train and evaluate the four configurations on one shared dataset.

    All rows use identical raw data, split seed, and hyperparameters; the
    one-radar row sees only radar 0's stream. Returns the populated report
    (rows ordered as in ABLATION_ROWS, plus the mean-pose baseline) and
    leaves CSV writing to the caller.
    """
    # fusion settings, hyperparameters and model configs are checked before simulating
    check_window_ms(cfg.window_ms)
    check_dbscan_args(cfg.eps, cfg.min_pts)
    hyper = Hyper(lr=cfg.lr, batch=cfg.batch, epochs=cfg.epochs, seed=cfg.train_seed)
    model_cfgs = [ModelConfig(variant=variant, n_max=cfg.n_max, seed=cfg.train_seed) for _, variant, _ in ABLATION_ROWS]
    workdir = Path(cfg.workdir) if cfg.keep_files else None
    if workdir is not None:
        workdir.mkdir(parents=True, exist_ok=True)
    train_records, test_records = simulate_split(cfg, workdir)

    def kept(name: str):
        return None if workdir is None else workdir / name

    data = {}
    for key, radar_ids in (("both", (0, 1)), ("radar_a", (0,))):
        fused_train, bounds = preprocess(train_records, radar_ids, cfg, out_path=kept(f"train_fused_{key}.jsonl"))
        fused_test, _ = preprocess(test_records, radar_ids, cfg, bounds, kept(f"test_fused_{key}.jsonl"))
        data[key] = (*load(fused_train, cfg.n_max), *load(fused_test, cfg.n_max), bounds)

    _, train_gts, _, test_gts, _ = data["both"]
    baseline_pred = np.tile(mean_pose_baseline(train_gts), (len(test_gts), 1, 1))
    report = MetricsReport(rows=[], baseline=evaluate(baseline_pred, test_gts, name="Mean-pose baseline"))
    for (name, variant, key), mcfg in zip(ABLATION_ROWS, model_cfgs):
        train_ex, _, test_ex, test_gts, bounds = data[key]
        tag = variant if key == "both" else f"{variant}_{key}"
        params, _ = fit(mcfg, train_ex, hyper, bounds, kept(f"ckpt_{tag}.json"), kept(f"loss_{tag}.svg"))
        report.rows.append(score(params, test_ex, test_gts, name))
        report.split_digests[name] = _split_digest(train_ex.frame_ids, hyper)
    return report
