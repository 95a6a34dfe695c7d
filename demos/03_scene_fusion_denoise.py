#!/usr/bin/env python3
"""From a moving skeleton to a fused, denoised world-frame point cloud.

Generates a few frames of a subject swinging the right arm, runs both
simulated radars, fuses their streams, and shows what DBSCAN removes and
how two mounting heights widen the vertical coverage.
"""

from radarpose.harness import frames_from_records
from radarpose.pointcloud import fuse_records
from radarpose.scene import MotionConfig, generate_dataset

motion = MotionConfig(fps=5.0, duration_s=2.0, seed=3)
records = generate_dataset(["swing_right"], motion, n_frames=10, subjects=(0,))

print(f"{len(records)} raw records ({len(records) // 2} frames x 2 radars)")
for rid in (0, 1):
    pts = [p for r in records if r["radar_id"] == rid for p in r["points"]]
    print(f"  radar {rid}: {len(pts)} raw points")

print("\n=== single-radar vs fused vertical coverage (world z) ===")
for label, ids in (("radar A only", (0,)), ("radar B only", (1,)), ("fused A+B", (0, 1))):
    fused = fuse_records(records, radar_ids=ids)
    zs = [p[2] for rec in fused for p in rec["points"]]
    if zs:
        print(f"  {label:13s}: {sum(len(r['points']) for r in fused):3d} denoised points, "
              f"z spans {min(zs):.2f} .. {max(zs):.2f} m")

print("\n=== what clustering removes (fused stream) ===")
loose = fuse_records(records, eps=100.0, min_pts=1)  # effectively no denoising
tight = fuse_records(records)
raw_n = sum(len(r["points"]) for r in loose)
kept_n = sum(len(r["points"]) for r in tight)
print(f"  merged points: {raw_n}, kept after DBSCAN: {kept_n}, removed as noise: {raw_n - kept_n}")

print("\n=== one fused frame vs its ground truth ===")
frame = frames_from_records(tight)[4]
cloud = frame.points[:, :3]
print(f"  frame {frame.frame_id} ({frame.gt.action}, swing_state={frame.gt.swing_state})")
print(f"  {len(cloud)} points, centroid ({cloud[:, 0].mean():+.2f}, {cloud[:, 1].mean():.2f}, {cloud[:, 2].mean():.2f})")
pelvis = frame.gt.joint("pelvis")
print(f"  ground-truth pelvis     ({pelvis[0]:+.2f}, {pelvis[1]:.2f}, {pelvis[2]:.2f})")
elbow_r = frame.gt.joint("elbow_right")
shoulder_r = frame.gt.joint("shoulder_right")
print(f"  right elbow z {elbow_r[2]:.2f} vs shoulder z {shoulder_r[2]:.2f}"
      f"  -> arm {'raised' if elbow_r[2] > shoulder_r[2] else 'down'}")
