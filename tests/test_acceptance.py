"""Acceptance gate: one test per release criterion.

Each test prints a single [PASS]/[FAIL] line (run with ``pytest -s`` to see
them) and enforces the criterion's tolerance and runtime budget.
"""

import math
import time

import numpy as np

from test_pointcloud import canonical_labels, random_instance, reference_dbscan

from radarpose.cli import main as cli_main
from radarpose.fmcw import detect_points, synthesize_frame
from radarpose.gradcheck import run_gradient_checks, toy_config, variant_inputs
from radarpose.harness import AblationConfig, frames_from_records, run_ablation
from radarpose.model import (
    ExampleSet,
    Hyper,
    ModelConfig,
    examples_from_frames,
    forward,
    init_params,
    predict_batch,
    train,
)
from radarpose.physics import (
    ChirpConfig,
    angle_from_phase,
    azimuth_phase,
    beat_frequency,
    doppler_phase,
    range_from_beat,
    velocity_from_phase,
)
from radarpose.pointcloud import (
    RadarPose,
    build_views,
    dbscan,
    fuse_records,
    normalize_snr,
    transform_to_world,
)
from radarpose.scene import MotionConfig, generate_dataset


def _gate(name: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------

def test_acceptance_physics_round_trips():
    rng = np.random.default_rng(0)
    lam = ChirpConfig().wavelength_m
    tc = 1e-4
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        d = float(rng.uniform(1e-3, 50.0))
        s = float(rng.uniform(1e12, 1e14))
        worst = max(worst, abs(range_from_beat(beat_frequency(d, s), s) - d) / d)

        v = float(rng.uniform(-0.999, 0.999)) * lam / (4 * tc)
        if v != 0:
            back = velocity_from_phase(doppler_phase(v, tc, lam), tc, lam)
            worst = max(worst, abs(back - v) / abs(v))

        th = float(rng.uniform(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6))
        if th != 0:
            back = angle_from_phase(azimuth_phase(th, lam / 2, lam), lam / 2, lam)
            worst = max(worst, abs(back - th) / abs(th))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _gate(
        "physics round trips (1000 samples x 3 pairs, 1e-12 relative)",
        ok,
        f"worst relative error {worst:.2e}, {elapsed:.2f}s",
    )


def test_acceptance_signal_recovery_sweep():
    cfg = ChirpConfig()  # zero noise
    ranges = np.linspace(1.0, 5.0, 6)
    velocities = np.linspace(-2.0, 2.0, 6)
    azimuths = np.radians(np.linspace(-45.0, 45.0, 6))
    n_points = 0
    worst_r, worst_v, worst_az = 0.0, 0.0, 0.0
    t0 = time.perf_counter()
    for r in ranges:
        for v in velocities:
            for az in azimuths:
                refl = [r * math.sin(az), r * math.cos(az), 0.0, float(v), 1.0]
                dets = detect_points(synthesize_frame([refl], cfg, seed=0))
                assert dets, f"nothing detected at r={r} v={v} az={az}"
                best = max(dets, key=lambda d: d.snr_db)
                worst_r = max(worst_r, abs(best.range_m - r))
                worst_v = max(worst_v, abs(best.radial_velocity - v))
                worst_az = max(worst_az, abs(best.azimuth_rad - az))
                n_points += 1
    elapsed = time.perf_counter() - t0
    # the two-chirp phase readout is exact without noise, so the velocity
    # budget is held far below one ambiguity span
    ok = (
        n_points >= 200
        and worst_r <= cfg.range_resolution_m
        and worst_v <= 1e-6
        and worst_az <= math.radians(1.0)
        and elapsed < 30.0
    )
    _gate(
        "signal recovery sweep (range/velocity/azimuth, 216 grid points)",
        ok,
        f"worst: range {worst_r * 100:.2f} cm (bin {cfg.range_resolution_m * 100:.2f} cm), "
        f"velocity {worst_v:.2e} m/s, azimuth {math.degrees(worst_az):.4f} deg, {elapsed:.1f}s",
    )


def test_acceptance_dbscan_oracle_equivalence():
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(100):
        pts = random_instance(rng)
        eps = float(rng.uniform(0.2, 0.4))
        min_pts = int(rng.integers(3, 7))
        got = canonical_labels(dbscan(pts, eps, min_pts))
        want = canonical_labels(reference_dbscan(pts.tolist(), eps, min_pts))
        if not np.array_equal(got, want):
            mismatches += 1
    perm_failures = 0
    for i in range(20):
        pts = random_instance(rng)
        base = canonical_labels(dbscan(pts, 0.3, 5))
        perm = rng.permutation(len(pts))
        shuffled = dbscan(pts[perm], 0.3, 5)
        unshuffled = np.empty_like(shuffled)
        unshuffled[perm] = shuffled
        if not np.array_equal(canonical_labels(unshuffled), base):
            perm_failures += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and perm_failures == 0 and elapsed < 30.0
    _gate(
        "dbscan oracle equivalence (100 instances) + permutation invariance (20 shuffles)",
        ok,
        f"{mismatches} oracle mismatches, {perm_failures} permutation failures, {elapsed:.1f}s",
    )


def test_acceptance_rigid_transform():
    rng = np.random.default_rng(3)
    pose = RadarPose(height_m=1.3, tilt_down_rad=math.radians(17.0), lateral_offset_m=0.2)
    a = rng.uniform(-4, 4, size=(10000, 3))
    b = rng.uniform(-4, 4, size=(10000, 3))
    wa, wb = transform_to_world(a, pose), transform_to_world(b, pose)
    dist_err = float(np.max(np.abs(np.linalg.norm(wa - wb, axis=1) - np.linalg.norm(a - b, axis=1))))

    mounted = RadarPose(height_m=2.0, tilt_down_rad=math.radians(20.0))
    (worked,) = transform_to_world(np.array([[0.0, 2.0, 0.0]]), mounted)
    example_err = float(np.max(np.abs(worked - np.array([0.0, 1.8794, 1.3160]))))

    ok = dist_err <= 1e-9 and example_err <= 1e-4
    _gate(
        "rigid transform (10k pairwise distances 1e-9; mounted-radar worked example 1e-4)",
        ok,
        f"max distance drift {dist_err:.2e} m, worked-example error {example_err:.2e} m",
    )


def test_acceptance_gradient_checks():
    t0 = time.perf_counter()
    results = run_gradient_checks(seeds=(0, 1, 2), rtol=1e-4, atol=1e-6)
    elapsed = time.perf_counter() - t0
    failed = [r.name for r in results if not r.passed]
    worst = max(r.max_ratio for r in results)
    ok = not failed and elapsed < 120.0
    _gate(
        "gradient check (all layers + all variants, 3 seeds, 1e-4 rel / 1e-6 abs)",
        ok,
        f"{len(results)} checks, worst error ratio {worst:.3f}, failed={failed}, {elapsed:.1f}s",
    )


def test_acceptance_order_invariance():
    rng = np.random.default_rng(4)
    worst = 0.0
    for variant in ("dual_mlp", "single_pointnet"):
        cfg = toy_config(variant, seed=5)
        mp = init_params(cfg)
        mp.flat += 0.1 * rng.normal(size=mp.flat.size)
        inputs = variant_inputs(cfg, rng, batch=1)
        ref = forward(cfg, mp, inputs)
        for _ in range(50):
            perm = rng.permutation(cfg.n_max)
            if variant == "single_pointnet":
                shuffled = inputs[:, perm, :]
            else:
                shuffled = (inputs[0][:, perm, :], inputs[1][:, perm, :])
            worst = max(worst, float(np.max(np.abs(forward(cfg, mp, shuffled) - ref))))

    pts = np.array([[*rng.uniform(-1, 3, 3), rng.normal(), rng.uniform()] for _ in range(20)])
    ref_xy, ref_yz = build_views(pts, n_max=32)
    views_exact = True
    for _ in range(50):
        perm = rng.permutation(len(pts))
        view_xy, view_yz = build_views(pts[perm], n_max=32)
        if not (np.array_equal(view_xy, ref_xy) and np.array_equal(view_yz, ref_yz)):
            views_exact = False
    ok = worst <= 1e-6 and views_exact
    _gate(
        "order invariance (pooled variants 1e-6 over 50 perms; build_views exact)",
        ok,
        f"worst model deviation {worst:.2e}, views exactly invariant: {views_exact}",
    )


def _ten_fused_frames():
    # frames 0.5 s apart so the ten point clouds are clearly distinct
    motion = MotionConfig(fps=2.0, duration_s=2.5, seed=11)
    records = generate_dataset(
        ["walk_toward", "swing_right"], motion, n_frames=10, subjects=(0,),
    )
    fused, _ = normalize_snr(fuse_records(records))
    frames = frames_from_records(fused)
    assert len(frames) == 10 and all(len(f.points) for f in frames)
    return frames


def test_acceptance_overfit_sanity():
    frames = _ten_fused_frames()
    examples = examples_from_frames(frames, n_max=64)
    cfg = ModelConfig(variant="dual_cnn", n_max=64, seed=1)
    t0 = time.perf_counter()
    params, history = train(
        cfg,
        examples,
        Hyper(lr=3e-3, batch=10, epochs=6500, seed=1, val_fraction=0.0, stop_loss=3e-7, lr_decay=0.9996),
    )
    preds = predict_batch(params, examples)
    elapsed = time.perf_counter() - t0
    final_loss = history[-1]["train_loss"]
    mask = ~np.isnan(preds[0, :, 0])
    per_joint_cm = np.linalg.norm((preds - examples.gt)[:, mask, :], axis=2) * 100.0
    worst_joint = float(per_joint_cm.max())
    ok = final_loss < 1e-3 and worst_joint < 1.0 and elapsed < 180.0
    _gate(
        "overfit sanity (10 frames: loss < 1e-3, per-joint error < 1 cm)",
        ok,
        f"loss {final_loss:.2e} after {len(history)} epochs, worst joint {worst_joint:.3f} cm, {elapsed:.0f}s",
    )


def test_acceptance_end_to_end_learning_signal():
    cfg = AblationConfig(n_train=2000, n_test=500, seed=42, epochs=8, keep_files=False)
    t0 = time.perf_counter()
    report = run_ablation(cfg)
    elapsed = time.perf_counter() - t0
    baseline = report.baseline.mae_all_cm
    detail_rows = []
    all_below = True
    for row in report.rows:
        below = row.mae_all_cm < baseline
        all_below = all_below and below
        detail_rows.append(f"{row.name} {row.mae_all_cm:.2f}")
    ok = all_below and elapsed < 600.0
    _gate(
        "end-to-end learning signal (all variants beat the mean-pose baseline)",
        ok,
        f"baseline {baseline:.2f} cm vs " + "; ".join(detail_rows) + f"; {elapsed:.0f}s",
    )


def test_acceptance_ablation_csv_deterministic(tmp_path):
    args = [
        "ablate", "--frames", "32", "--test-frames", "16", "--epochs", "1",
        "--duration", "0.75", "--seed", "9", "--keep-files", "false",
    ]
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    assert cli_main(args + ["--out-csv", str(csv_a), "--workdir", str(tmp_path / "wa")]) == 0
    assert cli_main(args + ["--out-csv", str(csv_b), "--workdir", str(tmp_path / "wb")]) == 0
    bytes_a, bytes_b = csv_a.read_bytes(), csv_b.read_bytes()

    lines = bytes_a.decode().strip().split("\n")
    header_ok = lines[0].split(",") == [
        "Model",
        "MAE across 22 key points",
        "MAE when swinging arms",
        "MAE of the lower body",
        "MAE in the Depth direction",
        "Percentage of correct recognition of the arm swing",
    ]
    shape_ok = len(lines) == 5 and all(len(l.split(",")) == 6 for l in lines)
    ok = bytes_a == bytes_b and header_ok and shape_ok
    _gate(
        "ablation report (4 rows x 5 metrics, byte-identical reruns)",
        ok,
        f"identical={bytes_a == bytes_b}, header={header_ok}, shape={shape_ok}",
    )
