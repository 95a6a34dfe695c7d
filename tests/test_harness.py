import math

import numpy as np
import pytest

from radarpose.harness import (
    AblationConfig,
    MetricsReport,
    VariantMetrics,
    arm_swing_score,
    evaluate,
    frames_from_records,
    joints_path,
    loss_curve_svg,
    mean_pose_baseline,
    report_header,
    report_to_csv,
    run_ablation,
)
from radarpose.model import ModelConfig
from radarpose.records import make_record
from radarpose.scene import JOINT_INDEX, JOINT_NAMES, MotionConfig, pose_at

DEPTH_AXIS = 1  # world y


def swing_gts(n=6):
    """Ground-truth frames alternating swing sides, elbows raised at peak."""
    cfg = MotionConfig(seed=1)
    frames = []
    for i in range(n):
        action = "swing_right" if i % 2 == 0 else "swing_left"
        frames.append(pose_at(action, 0.75, cfg))
    assert all(f.swing_state != "none" for f in frames)
    return frames


def walk_gts(n=4):
    cfg = MotionConfig(seed=2)
    return [pose_at("walk_toward", 0.1 * i, cfg) for i in range(n)]


def as_pred(gts):
    return np.stack([g.joints for g in gts])


def test_evaluate_zero_error_on_identity():
    gts = walk_gts() + swing_gts()
    row = evaluate(as_pred(gts), gts)
    assert row.mae_all_cm == 0.0
    assert row.mae_depth_cm == 0.0
    assert row.mae_lower_cm == 0.0
    assert row.mae_arms_swing_cm == 0.0
    assert row.arm_swing_pct == 100.0
    assert all(v == 0.0 for v in row.per_joint_mae_cm.values())


def test_evaluate_depth_axis_arithmetic():
    gts = walk_gts()
    pred = as_pred(gts).copy()
    pred[:, :, DEPTH_AXIS] += 0.01  # +1 cm on the depth axis only
    row = evaluate(pred, gts)
    assert row.mae_depth_cm == pytest.approx(1.0, rel=1e-12)
    assert row.mae_all_cm == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_evaluate_matches_flat_loop_oracle():
    rng = np.random.default_rng(3)
    gts = walk_gts(5)
    pred = as_pred(gts) + rng.normal(0, 0.05, size=(5, 32, 3))
    included = ModelConfig().included_joints
    row = evaluate(pred, gts, included)

    total, count = 0.0, 0
    for f in range(5):
        for j in included:
            for ax in range(3):
                total += abs(pred[f, JOINT_INDEX[j], ax] - gts[f].joints[JOINT_INDEX[j], ax]) * 100
                count += 1
    assert row.mae_all_cm == pytest.approx(total / count, abs=1e-9)


def test_evaluate_requires_aligned_shapes():
    gts = walk_gts(3)
    with pytest.raises(ValueError):
        evaluate(as_pred(gts)[:2], gts)


def test_evaluate_no_swing_frames_reports_absent():
    gts = walk_gts()
    row = evaluate(as_pred(gts), gts)
    assert row.mae_arms_swing_cm is None
    assert row.arm_swing_pct is None


def test_arm_swing_mirrored_prediction_scores_zero():
    gts = swing_gts()
    pred = as_pred(gts).copy()
    for name in JOINT_NAMES:
        if name.endswith("_left"):
            i, j = JOINT_INDEX[name], JOINT_INDEX[name.replace("_left", "_right")]
            pred[:, [i, j]] = pred[:, [j, i]]
    assert arm_swing_score(pred, gts) == 0.0


def test_arm_swing_rest_pose_predictor_scores_zero():
    gts = swing_gts()
    rest = pose_at("walk_toward", 0.0, MotionConfig(walk_speed=0.0, seed=5)).joints
    pred = np.tile(rest, (len(gts), 1, 1))
    assert arm_swing_score(pred, gts) == 0.0


def test_arm_swing_margin_rule():
    # the swing-side elbow must sit SWING_MARGIN_CM (5 cm) above the other one
    gts = swing_gts(2)
    for lift_m, score in ((0.03, 0.0), (0.049, 0.0), (0.051, 100.0), (0.07, 100.0)):
        pred = as_pred(gts).copy()
        for i, g in enumerate(gts):
            side = g.swing_state
            other = "left" if side == "right" else "right"
            lvl = pred[i, JOINT_INDEX[f"elbow_{other}"], 2]
            pred[i, JOINT_INDEX[f"elbow_{side}"], 2] = lvl + lift_m
        assert arm_swing_score(pred, gts) == score, lift_m


def test_mean_pose_baseline_is_mean():
    gts = walk_gts(4)
    base = mean_pose_baseline(gts)
    np.testing.assert_allclose(base, as_pred(gts).mean(axis=0), atol=1e-12)


def test_report_csv_schema(tmp_path):
    row = VariantMetrics(
        name="demo", mae_all_cm=1.0, mae_arms_swing_cm=None, mae_lower_cm=2.0,
        mae_depth_cm=3.0, arm_swing_pct=None, per_joint_mae_cm={"pelvis": 1.0},
    )
    text = report_to_csv(MetricsReport(rows=[row]), tmp_path / "r.csv")
    lines = text.strip().split("\n")
    assert lines[0].split(",") == report_header()
    assert lines[0].split(",")[1] == "MAE across 22 key points"
    assert lines[1] == "demo,1.0000,,2.0000,3.0000,"
    assert (tmp_path / "r.csv").read_text() == text


def test_per_joint_csv(tmp_path):
    # report_to_csv writes the per-joint companion next to every table it writes
    rows = [
        VariantMetrics(name=name, mae_all_cm=0, mae_arms_swing_cm=None, mae_lower_cm=0, mae_depth_cm=0,
                       arm_swing_pct=None, per_joint_mae_cm={"pelvis": pelvis, "head": 0.5})
        for name, pelvis in (("m", 1.25), ("n", 2.0))
    ]
    report_to_csv(MetricsReport(rows=rows), tmp_path / "j.csv")
    assert joints_path(tmp_path / "j.csv") == tmp_path / "j.joints.csv"
    assert (tmp_path / "j.joints.csv").read_text() == "Joint,m,n\nhead,0.5000,0.5000\npelvis,1.2500,2.0000\n"
    report_to_csv(MetricsReport(rows=rows), None)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["j.csv", "j.joints.csv"]


def test_evaluate_rejects_an_unknown_included_joint():
    gts = walk_gts(2)
    with pytest.raises(ValueError, match="unknown joints: \\['nonexistent'\\]"):
        evaluate(as_pred(gts), gts, included=("elbow_left", "nonexistent"))


def test_frames_from_records_roundtrip():
    gt = pose_at("swing_left", 0.75, MotionConfig(seed=7))
    rec = make_record(
        frame_id=3, t_ms=150, radar_id=-1,
        points=[[0.1, 2.0, 1.0, -0.2, 0.7]],
        gt=gt.joints.tolist(), action="swing_left", subject=1, swing_state=gt.swing_state,
        fused=True,
    )
    (frame,) = frames_from_records([rec])
    assert frame.frame_id == 3
    assert frame.gt.timestamp_ms == 150
    assert frame.gt.action == "swing_left"
    assert frame.gt.subject_id == 1
    assert frame.gt.swing_state == gt.swing_state
    np.testing.assert_allclose(frame.gt.joints, gt.joints)
    assert frame.points.shape == (1, 5)
    assert frame.points[0, 4] == 0.7


def _fused_record(frame_id, points, fused=True):
    gt = pose_at("walk_toward", 0.0, MotionConfig(seed=7))
    return make_record(
        frame_id=frame_id, t_ms=0, radar_id=-1, points=points, gt=gt.joints.tolist(),
        action="walk_toward", subject=0, swing_state="none", fused=fused,
    )


def test_frames_from_records_rejects_raw_records():
    good = _fused_record(1, [[0.1, 2.0, 1.0, -0.2, 0.7]])
    raw = _fused_record(8, [[0.1, 2.0, 1.0, -0.2, 17.0]], fused=False)
    with pytest.raises(ValueError, match="frame 8: not a fused record"):
        frames_from_records([good, raw])


def test_frames_from_records_rejects_nonfinite_points():
    for bad in (math.nan, math.inf, -math.inf):
        rec = _fused_record(5, [[0.1, 2.0, 1.0, -0.2, 0.7], [0.0, 2.0, bad, 0.0, 0.5]])
        with pytest.raises(ValueError, match="frame 5: non-finite"):
            frames_from_records([rec])


def test_frames_from_records_rejects_a_gt_row_that_is_not_3_numbers():
    rec = _fused_record(7, [[0.1, 2.0, 1.0, -0.2, 0.7]])
    rec["gt"][30] = [0.1, 2.0]
    with pytest.raises(ValueError, match=r"^frame 7: gt is not 32 finite \[x, y, z\] rows"):
        frames_from_records([rec])


def test_frames_from_records_rejects_a_nonfinite_gt_joint():
    rec = _fused_record(9, [[0.1, 2.0, 1.0, -0.2, 0.7]])
    rec["gt"][12][2] = math.nan
    with pytest.raises(ValueError, match=r"^frame 9: gt is not 32 finite \[x, y, z\] rows \(joints must be finite\)$"):
        frames_from_records([rec])


def test_frames_from_records_rejects_a_repeated_frame_id():
    recs = [_fused_record(i, [[0.1, 2.0, 1.0, -0.2, 0.7]]) for i in (4, 6, 4)]
    with pytest.raises(ValueError, match="frame 4: frame_id repeated"):
        frames_from_records(recs)


@pytest.mark.parametrize("field, value, message", [
    ("t_ms", True, r"^frame 5: t_ms must be an integer, got True$"),
    ("radar_id", -1.0, r"^frame 5: radar_id must be an integer, got -1\.0$"),
    ("action", "jump", r"^frame 5: action must be one of \('walk_toward', .*\), got 'jump'$"),
], ids=["t-ms-bool", "radar-id-float", "unknown-action"])
def test_frames_from_records_names_the_frame_and_field_of_a_bad_scalar(field, value, message):
    rec = _fused_record(5, [[0.1, 2.0, 1.0, -0.2, 0.7]])
    rec[field] = value
    with pytest.raises(ValueError, match=message):
        frames_from_records([_fused_record(4, [[0.1, 2.0, 1.0, -0.2, 0.7]]), rec])


def test_loss_curve_svg(tmp_path):
    hist = [{"epoch": i, "train_loss": 1.0 / (i + 1), "val_loss": 1.5 / (i + 1)} for i in range(5)]
    svg = loss_curve_svg(hist, tmp_path / "loss.svg")
    assert svg.startswith("<svg")
    assert "polyline" in svg
    assert (tmp_path / "loss.svg").exists()


def test_run_ablation_structure(tmp_path):
    cfg = AblationConfig(
        workdir=tmp_path / "work", n_train=24, n_test=16, epochs=1,
        duration_s=0.75, seed=3, keep_files=True,
    )
    report = run_ablation(cfg)
    assert [r.name for r in report.rows] == [
        "Two-radar + CNN",
        "Two-radar + MLP",
        "Two-radar + Simple PointNet",
        "One-radar + CNN",
    ]
    for row in report.rows:
        assert row.mae_all_cm >= 0
        assert row.mae_lower_cm >= 0
        assert row.mae_depth_cm >= 0
        assert row.arm_swing_pct is None or 0 <= row.arm_swing_pct <= 100
    assert report.baseline is not None
    # identical split seed on identical frame ids -> identical digests
    assert len(set(report.split_digests.values())) == 1
    assert (tmp_path / "work" / "train_raw.jsonl").exists()
    assert (tmp_path / "work" / "ckpt_dual_cnn.json").exists()
    assert (tmp_path / "work" / "loss_dual_cnn.svg").exists()
