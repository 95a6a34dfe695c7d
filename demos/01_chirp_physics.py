#!/usr/bin/env python3
"""Walk through the closed-form chirp relations one observable at a time.

Shows how range, radial velocity, and azimuth each map to a measurable
quantity of the IF signal (beat frequency, chirp-to-chirp phase step,
RX-to-RX phase step), and that every mapping inverts exactly.
"""

import math

import numpy as np

from radarpose.physics import (
    SPEED_OF_LIGHT,
    ChirpConfig,
    angle_from_phase,
    azimuth_phase,
    beat_frequency,
    doppler_phase,
    phase_at_range,
    range_from_beat,
    velocity_from_phase,
)

cfg = ChirpConfig()
lam = cfg.wavelength_m

print("=== waveform ===")
print(f"carrier            {cfg.start_freq_hz / 1e9:.0f} GHz   (wavelength {lam * 1000:.3f} mm)")
print(f"sweep slope        {cfg.slope_hz_per_s / 1e12:.0f} MHz/us")
print(f"chirp duration     {cfg.chirp_time_s * 1e6:.0f} us  -> bandwidth {cfg.bandwidth_hz / 1e9:.1f} GHz")
print(f"range resolution   {cfg.range_resolution_m * 100:.2f} cm")
print(f"max unambiguous    {cfg.max_unambiguous_range_m:.1f} m range, "
      f"{cfg.max_unambiguous_velocity_mps:.1f} m/s velocity")

print("\n=== range -> beat frequency ===")
for d in (1.0, 2.0, 3.5, 5.0):
    f0 = beat_frequency(d, cfg.slope_hz_per_s)
    tau = 2.0 * d / SPEED_OF_LIGHT  # round-trip delay
    print(f"  d = {d:4.1f} m   delay {tau * 1e9:7.3f} ns   beat {f0 / 1e3:8.2f} kHz"
          f"   inverted -> {range_from_beat(f0, cfg.slope_hz_per_s):.6f} m")

print("\n=== range -> carrier phase (fine but wrapped) ===")
for d in (1.0, 1.0005):
    print(f"  d = {d:.4f} m   phase {phase_at_range(d, lam):10.2f} rad")
print("  (a 0.5 mm step moves the phase by ~1.6 rad: sensitive, but only usable as a difference)")

print("\n=== velocity -> chirp-to-chirp phase ===")
for v in (-2.0, -0.5, 0.5, 2.0):
    dphi = doppler_phase(v, cfg.chirp_time_s, lam)
    print(f"  v = {v:+4.1f} m/s   phase step {dphi:+8.4f} rad"
          f"   inverted -> {velocity_from_phase(dphi, cfg.chirp_time_s, lam):+.6f} m/s")

print("\n=== azimuth -> RX-to-RX phase (spacing = lambda/2) ===")
for deg in (-45, -10, 10, 45):
    th = math.radians(deg)
    dphi = azimuth_phase(th, cfg.rx_spacing_m, lam)
    back = angle_from_phase(dphi, cfg.rx_spacing_m, lam)
    print(f"  az = {deg:+3d} deg   phase {dphi:+8.4f} rad   inverted -> {math.degrees(back):+7.3f} deg")

print("\n=== round-trip precision over random draws ===")
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(10000):
    d = float(rng.uniform(0.01, 20.0))
    worst = max(worst, abs(range_from_beat(beat_frequency(d, cfg.slope_hz_per_s), cfg.slope_hz_per_s) - d) / d)
print(f"worst relative error over 10,000 range round trips: {worst:.2e}")
