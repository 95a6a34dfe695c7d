import math

import numpy as np
import pytest

from radarpose.fmcw import (
    Detection,
    RawFrame,
    Reflector,
    bin_to_range,
    detect_points,
    detections_to_points,
    range_spectrum,
    synthesize_frame,
)
from radarpose.physics import ChirpConfig, beat_frequency

CFG = ChirpConfig()  # 77 GHz, 30 MHz/us slope, 100 us chirp, 200 samples @ 2 MHz


def one_reflector(d=2.0, v=0.0, az_rad=0.0, amp=1.0):
    return Reflector(
        position=[d * math.sin(az_rad), d * math.cos(az_rad), 0.0],
        radial_velocity=v,
        rcs_amplitude=amp,
    )


def test_empty_scene_zero_noise_is_silent():
    frame = synthesize_frame([], CFG, seed=0)
    assert frame.samples.shape == (2, 2, 200)
    assert not frame.samples.any()


def test_static_reflector_repeats_across_chirps():
    frame = synthesize_frame([one_reflector(v=0.0)], CFG, seed=0)
    np.testing.assert_array_equal(frame.samples[0], frame.samples[1])


def test_moving_reflector_differs_across_chirps():
    frame = synthesize_frame([one_reflector(v=1.0)], CFG, seed=0)
    assert not np.array_equal(frame.samples[0], frame.samples[1])


def test_synthesis_deterministic_given_seed():
    refl = [one_reflector(d=2.3, v=0.4, az_rad=0.2)]
    cfg = ChirpConfig(noise_std=0.5)
    a = synthesize_frame(refl, cfg, seed=42)
    b = synthesize_frame(refl, cfg, seed=42)
    assert np.array_equal(a.samples, b.samples)
    c = synthesize_frame(refl, cfg, seed=43)
    assert not np.array_equal(a.samples, c.samples)


def test_synthesis_rejects_degenerate_reflectors():
    with pytest.raises(ValueError):
        synthesize_frame([Reflector(position=[0.0, 0.0, 0.0])], CFG, seed=0)
    with pytest.raises(ValueError):
        synthesize_frame([Reflector(position=[0.0, -1.0, 0.0])], CFG, seed=0)


def test_dominant_frequency_matches_beat_oracle():
    frame = synthesize_frame([one_reflector(d=2.0)], CFG, seed=0)
    spec = np.abs(range_spectrum(frame, 0, 0))
    k = int(np.argmax(spec))
    f_bin = k * CFG.sample_rate_hz / CFG.n_samples
    assert abs(f_bin - beat_frequency(2.0, CFG.slope_hz_per_s)) <= CFG.sample_rate_hz / CFG.n_samples


def test_range_spectrum_of_zeros_is_zero():
    frame = RawFrame(samples=np.zeros((2, 2, 200), dtype=complex), config=CFG)
    assert not range_spectrum(frame, 0, 0).any()


def test_range_spectrum_pure_tone_hits_its_bin():
    n = CFG.n_samples
    tone = np.exp(2j * math.pi * 7 * np.arange(n) / n)
    samples = np.tile(tone, (2, 2, 1))
    frame = RawFrame(samples=samples, config=CFG)
    assert int(np.argmax(np.abs(range_spectrum(frame, 1, 1)))) == 7


def test_range_spectrum_index_bounds():
    frame = synthesize_frame([], CFG, seed=0)
    with pytest.raises(IndexError):
        range_spectrum(frame, 2, 0)
    with pytest.raises(IndexError):
        range_spectrum(frame, 0, 5)


def test_peak_range_within_resolution():
    frame = synthesize_frame([one_reflector(d=2.5)], CFG, seed=0)
    spec = np.abs(range_spectrum(frame, 0, 0))
    k = int(np.argmax(spec))
    assert abs(bin_to_range(CFG, k) - 2.5) <= CFG.range_resolution_m


def test_detect_single_reflector_recovers_parameters():
    frame = synthesize_frame([one_reflector(d=2.0, v=1.0)], CFG, seed=0)
    dets = detect_points(frame)
    assert len(dets) == 1
    d = dets[0]
    assert abs(d.range_m - 2.0) <= CFG.range_resolution_m
    assert d.radial_velocity == pytest.approx(1.0, abs=1e-6)
    assert abs(math.degrees(d.azimuth_rad)) < 1.0
    assert d.elevation_rad == 0.0
    assert d.snr_db > 12.0


def test_detect_offboresight_azimuth():
    az = math.radians(25.0)
    frame = synthesize_frame([one_reflector(d=3.0, az_rad=az)], CFG, seed=0)
    dets = detect_points(frame)
    assert len(dets) == 1
    assert math.degrees(abs(dets[0].azimuth_rad - az)) < 1.0


def test_detect_nothing_in_empty_frame():
    frame = synthesize_frame([], ChirpConfig(noise_std=0.5), seed=1)
    assert detect_points(frame, threshold_db=40.0) == []
    silent = synthesize_frame([], CFG, seed=0)
    assert detect_points(silent) == []


def test_detect_two_separated_reflectors():
    # put both exactly on FFT bins so leakage cannot fake extra peaks
    r1, r2 = bin_to_range(CFG, 40), bin_to_range(CFG, 50)
    assert r2 - r1 >= 2 * CFG.range_resolution_m
    frame = synthesize_frame([one_reflector(d=r1), one_reflector(d=r2)], CFG, seed=0)
    dets = detect_points(frame)
    assert len(dets) == 2
    assert dets[0].range_m == pytest.approx(r1, abs=CFG.range_resolution_m)
    assert dets[1].range_m == pytest.approx(r2, abs=CFG.range_resolution_m)


def test_snr_monotone_in_reflector_amplitude():
    cfg = ChirpConfig(noise_std=0.5)
    snrs = []
    for amp in (0.5, 1.0, 2.0):
        frame = synthesize_frame([one_reflector(d=2.0, amp=amp)], cfg, seed=7)
        dets = detect_points(frame)
        assert dets, f"no detection at amplitude {amp}"
        snrs.append(max(d.snr_db for d in dets))
    assert snrs[0] < snrs[1] < snrs[2]


def test_detection_requires_positive_range_and_finite_snr():
    with pytest.raises(ValueError):
        Detection(range_m=0.0, radial_velocity=0.0, azimuth_rad=0.0, elevation_rad=0.0, snr_db=3.0)
    with pytest.raises(ValueError):
        Detection(range_m=1.0, radial_velocity=0.0, azimuth_rad=0.0, elevation_rad=0.0, snr_db=math.inf)


def test_detections_to_points_boresight():
    det = Detection(range_m=2.0, radial_velocity=0.3, azimuth_rad=0.0, elevation_rad=0.0, snr_db=20.0)
    (p,) = detections_to_points([det])
    np.testing.assert_allclose(p[:3], [0.0, 2.0, 0.0], atol=1e-12)
    assert p[3] == 0.3 and p[4] == 20.0


def test_detections_to_points_hand_trigonometry():
    det = Detection(range_m=2.0, radial_velocity=0.0, azimuth_rad=math.radians(30), elevation_rad=0.0, snr_db=0.0)
    (p,) = detections_to_points([det])
    np.testing.assert_allclose(p[:3], [1.0, math.sqrt(3.0), 0.0], atol=1e-9)


def test_detections_to_points_inverse_transform_oracle():
    rng = np.random.default_rng(17)
    for _ in range(50):
        det = Detection(
            range_m=float(rng.uniform(0.5, 8.0)),
            radial_velocity=float(rng.normal()),
            azimuth_rad=float(rng.uniform(-1.2, 1.2)),
            elevation_rad=float(rng.uniform(-0.5, 0.5)),
            snr_db=float(rng.uniform(0, 40)),
        )
        (p,) = detections_to_points([det])
        # independent spherical reconstruction
        r = float(np.linalg.norm(p[:3]))
        az = math.atan2(p[0], p[1])
        el = math.asin(p[2] / r)
        assert r == pytest.approx(det.range_m, abs=1e-9)
        assert az == pytest.approx(det.azimuth_rad, abs=1e-9)
        assert el == pytest.approx(det.elevation_rad, abs=1e-9)


def test_raw_frame_shape_checked():
    with pytest.raises(ValueError):
        RawFrame(samples=np.zeros((2, 2, 10), dtype=complex), config=CFG)
