#!/usr/bin/env python3
"""Synthesize IF samples for a few point reflectors and recover them.

Prints the range spectrum as an ASCII plot, then compares the detector's
output (range / radial velocity / azimuth / SNR) against the ground truth,
with and without receiver noise.
"""

import math

import numpy as np

from radarpose.fmcw import detect_points, range_spectrum, synthesize_frame
from radarpose.physics import ChirpConfig


def show_spectrum(frame, n_bins=50):
    spec = np.abs(range_spectrum(frame, chirp=0, rx=0))[:n_bins]
    top = spec.max() or 1.0
    cfg = frame.config
    bin_m = cfg.range_resolution_m
    for k in range(2, n_bins):
        bar = "#" * int(40 * spec[k] / top)
        marker = f" {k * bin_m:4.2f} m" if bar else ""
        print(f"  bin {k:3d} |{bar:<40s}|{marker if spec[k] > 0.2 * top else ''}")


# one row per reflector: [x, y, z] in the radar frame [m], radial velocity [m/s], amplitude
targets = np.array([
    [0.0, 1.50, 0.0, -0.8, 1.0],
    [0.6, 2.30, 0.0, 0.0, 0.7],
    [-0.9, 1.80, 0.0, 1.2, 0.5],
])

for noise in (0.0, 0.4):
    cfg = ChirpConfig(noise_std=noise)
    frame = synthesize_frame(targets, cfg, seed=7)
    print(f"\n=== noise_std = {noise} ===")
    if noise == 0.0:
        show_spectrum(frame)
    dets = detect_points(frame, threshold_db=10.0)
    print(f"{len(dets)} detections:")
    print("   range      velocity    azimuth     snr")
    for d in sorted(dets, key=lambda d: d.range_m):
        print(
            f"   {d.range_m:5.2f} m   {d.radial_velocity:+5.2f} m/s"
            f"   {math.degrees(d.azimuth_rad):+6.1f} deg   {d.snr_db:5.1f} dB"
        )
    print("ground truth:")
    for x, y, z, v, amp in targets.tolist():
        r = math.sqrt(x * x + y * y + z * z)
        az = math.degrees(math.atan2(x, y))
        print(f"   {r:5.2f} m   {v:+5.2f} m/s   {az:+6.1f} deg   (amp {amp})")
