import math
import re

import numpy as np
import pytest

from radarpose.fmcw import (
    Detection,
    SNR_CAP_DB,
    RawFrame,
    bin_to_range,
    detect_points,
    detections_to_points,
    range_spectrum,
    synthesize_frame,
)
from radarpose.physics import ChirpConfig, beat_frequency, range_from_beat, velocity_from_phase

CFG = ChirpConfig()  # 77 GHz, 30 MHz/us slope, 100 us chirp, 200 samples @ 2 MHz

NO_REFLECTORS = np.empty((0, 5))


def one_reflector(d=2.0, v=0.0, az_rad=0.0, amp=1.0):
    """One reflector row [x, y, z, radial velocity, amplitude]."""
    return [d * math.sin(az_rad), d * math.cos(az_rad), 0.0, v, amp]


def test_empty_scene_zero_noise_is_silent():
    frame = synthesize_frame(NO_REFLECTORS, CFG, seed=0)
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
        synthesize_frame([[0.0, 0.0, 0.0, 0.0, 1.0]], CFG, seed=0)
    with pytest.raises(ValueError):
        synthesize_frame([[0.0, -1.0, 0.0, 0.0, 1.0]], CFG, seed=0)


def test_synthesis_rejects_negative_amplitude():
    with pytest.raises(ValueError, match="amplitude"):
        synthesize_frame([one_reflector(), one_reflector(amp=-0.1)], CFG, seed=0)


@pytest.mark.parametrize("shape", [(5,), (0,), (3, 4), (2, 6), (1, 5, 1)])
def test_synthesis_rejects_anything_but_reflector_rows(shape):
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        synthesize_frame(np.ones(shape), CFG, seed=0)


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
    frame = synthesize_frame(NO_REFLECTORS, CFG, seed=0)
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
    frame = synthesize_frame(NO_REFLECTORS, ChirpConfig(noise_std=0.5), seed=1)
    assert detect_points(frame, threshold_db=40.0) == []
    silent = synthesize_frame(NO_REFLECTORS, CFG, seed=0)
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


# --- oracles: the per-reflector and per-bin forms these functions replaced ---


def _synthesize_per_reflector(rows, cfg, seed):
    """IF samples built reflector by reflector with the scalar chirp formulas."""
    lam = cfg.wavelength_m
    f0, phi0, dphi_v, dphi_a, amp = [], [], [], [], []
    for x, y, z, v, a in rows:
        d = float(np.linalg.norm(np.array([x, y, z])))
        f0.append(cfg.slope_hz_per_s * 2.0 * d / 299_792_458.0)
        phi0.append(4.0 * math.pi * d / lam)
        dphi_v.append(4.0 * math.pi * v * cfg.chirp_time_s / lam)
        dphi_a.append(2.0 * math.pi * cfg.rx_spacing_m * math.sin(math.atan2(x, y)) / lam)
        amp.append(a)
    f0, phi0, dphi_v, dphi_a, amp = map(np.array, (f0, phi0, dphi_v, dphi_a, amp))
    t = np.arange(cfg.n_samples) / cfg.sample_rate_hz
    samples = np.zeros((cfg.n_chirps, 2, cfg.n_samples), dtype=complex)
    if rows:
        phase = (
            2.0 * math.pi * f0[:, None, None, None] * t[None, None, None, :]
            + phi0[:, None, None, None]
            + np.arange(cfg.n_chirps)[None, :, None, None] * dphi_v[:, None, None, None]
            + np.arange(2)[None, None, :, None] * dphi_a[:, None, None, None]
        )
        samples = np.sum(amp[:, None, None, None] * np.exp(1j * phase), axis=0)
    if cfg.noise_std > 0:
        rng = np.random.default_rng(seed)
        scale = cfg.noise_std / math.sqrt(2.0)
        samples = samples + scale * (
            rng.standard_normal(samples.shape) + 1j * rng.standard_normal(samples.shape)
        )
    return samples


def _detect_per_bin(frame, threshold_db):
    """The detector with its peak test written as a loop over bins 1..n-2."""
    cfg = frame.config
    s00, s10, s01 = (np.fft.fft(frame.samples[c, r]) for c, r in ((0, 0), (1, 0), (0, 1)))
    power = np.abs(s00) ** 2
    if not np.any(power > 0):
        return []
    floor = max(float(np.median(power)), float(power.max()) * 10 ** (-SNR_CAP_DB / 10.0))
    gate = floor * 10 ** (threshold_db / 10.0)
    lam = cfg.wavelength_m
    out = []
    for k in range(1, cfg.n_samples - 1):
        if not (power[k] > gate and power[k] > power[k - 1] and power[k] >= power[k + 1]):
            continue
        dphi_v = float(np.angle(s10[k] * np.conj(s00[k])))
        dphi_a = float(np.angle(s01[k] * np.conj(s00[k])))
        sin_az = float(np.clip(lam * dphi_a / (2.0 * math.pi * cfg.rx_spacing_m), -1.0, 1.0))
        out.append(
            Detection(
                range_m=range_from_beat(k * cfg.sample_rate_hz / cfg.n_samples, cfg.slope_hz_per_s),
                radial_velocity=velocity_from_phase(dphi_v, cfg.chirp_time_s, lam),
                azimuth_rad=math.asin(sin_az),
                elevation_rad=0.0,
                snr_db=min(10.0 * math.log10(power[k] / floor), SNR_CAP_DB),
            )
        )
    return out


def _random_rows(rng, n):
    r = rng.uniform(0.3, 6.0, n)
    az = rng.uniform(-1.4, 1.4, n)
    el = rng.uniform(-0.6, 0.6, n)
    return np.column_stack([
        r * np.sin(az) * np.cos(el),
        r * np.cos(az) * np.cos(el),
        r * np.sin(el),
        rng.uniform(-3.0, 3.0, n),
        rng.uniform(0.0, 1.5, n),
    ])


#: Largest |sample - reference| allowed, per unit of summed reflector amplitude.
SYNTHESIS_TOL = 1e-11


def _synthesize_long_double(rows, cfg, seed):
    """The per-reflector formula in np.longdouble from the same float64 inputs.

    The noise is the float64 draw synthesize_frame adds, added exactly.
    """
    ld = np.longdouble
    pi = 4 * np.arctan(ld(1))
    x, y, z, v, a = np.asarray(rows, dtype=ld).reshape(-1, 5).T
    lam = ld(cfg.wavelength_m)
    d = np.sqrt(x * x + y * y + z * z)
    f0 = ld(cfg.slope_hz_per_s) * 2 * d / ld(299_792_458.0)
    phi0 = 4 * pi * d / lam
    dphi_v = 4 * pi * v * ld(cfg.chirp_time_s) / lam
    dphi_a = 2 * pi * ld(cfg.rx_spacing_m) * np.sin(np.arctan2(x, y)) / lam
    t = np.arange(cfg.n_samples, dtype=ld) / ld(cfg.sample_rate_hz)
    phase = (
        2 * pi * f0[:, None, None, None] * t[None, None, None, :]
        + phi0[:, None, None, None]
        + np.arange(cfg.n_chirps, dtype=ld)[None, :, None, None] * dphi_v[:, None, None, None]
        + np.arange(2, dtype=ld)[None, None, :, None] * dphi_a[:, None, None, None]
    )
    re = np.sum(a[:, None, None, None] * np.cos(phase), axis=0)
    im = np.sum(a[:, None, None, None] * np.sin(phase), axis=0)
    if cfg.noise_std > 0:
        noise = _synthesize_per_reflector([], cfg, seed)
        re, im = re + noise.real.astype(ld), im + noise.imag.astype(ld)
    return re, im


def _worst_deviation(samples, reference):
    re, im = reference
    return float(np.max(np.hypot(samples.real.astype(np.longdouble) - re, samples.imag.astype(np.longdouble) - im)))


#: (n_samples, n_chirps) for the tone tables: squares, one above a square, and primes.
TABLE_SHAPES = [(n_samples, n_chirps) for n_samples in (8, 9, 16, 17, 200, 257) for n_chirps in (2, 3)]


def _shape_cfg(n_samples, n_chirps, noise_std):
    # the chirp is lengthened where n_samples at 2 MHz would not fit in 100 us
    return ChirpConfig(
        n_samples=n_samples,
        n_chirps=n_chirps,
        noise_std=noise_std,
        chirp_time_s=max(100e-6, n_samples / 2e6),
    )


@pytest.mark.parametrize("noise_std", [0.0, 0.3])
def test_synthesis_matches_the_per_reflector_loop(noise_std):
    # the tone tables and the tone x weight product reorder the float work, so
    # equality is to a bound set from float64 rounding of phases up to ~2e4
    # rad, not bitwise
    rng = np.random.default_rng(23)
    for n_samples, n_chirps in TABLE_SHAPES:
        cfg = _shape_cfg(n_samples, n_chirps, noise_std)
        for n in (0, 1, 2, 31, 124):
            rows = _random_rows(rng, n)
            got = synthesize_frame(rows, cfg, seed=n).samples
            oracle = _synthesize_per_reflector(rows.tolist(), cfg, seed=n)
            where = f"{n_samples} samples x {n_chirps} chirps, {n} reflectors"
            if n == 0:
                assert got.tobytes() == oracle.tobytes(), where  # nothing but the noise draw
            assert np.max(np.abs(got - oracle)) <= SYNTHESIS_TOL * rows[:, 4].sum(), where


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant,
    reason="np.longdouble is no wider than float64 on this platform, so it is no reference",
)
@pytest.mark.parametrize("noise_std", [0.0, 0.3])
def test_synthesis_and_the_loop_stay_near_a_long_double_sum(noise_std):
    # the old per-reflector loop meets the same bound, so the product form
    # costs no accuracy that the term-by-term sum had
    rng = np.random.default_rng(29)
    for n_samples, n_chirps in TABLE_SHAPES:
        cfg = _shape_cfg(n_samples, n_chirps, noise_std)
        for n in (0, 1, 2, 31, 124):
            rows = _random_rows(rng, n)
            reference = _synthesize_long_double(rows, cfg, seed=n)
            bound = SYNTHESIS_TOL * rows[:, 4].sum()
            where = f"{n_samples} samples x {n_chirps} chirps, {n} reflectors"
            assert _worst_deviation(synthesize_frame(rows, cfg, seed=n).samples, reference) <= bound, where
            assert _worst_deviation(_synthesize_per_reflector(rows.tolist(), cfg, seed=n), reference) <= bound, where


@pytest.mark.parametrize("threshold_db", [0.0, 3.0, 8.0, 12.0])
def test_peak_mask_finds_the_per_bin_loop_detections(threshold_db):
    rng = np.random.default_rng(5)
    cfg = ChirpConfig(noise_std=0.4)
    for seed in range(12):
        frame = synthesize_frame(_random_rows(rng, 1 + seed * 10), cfg, seed=seed)
        assert detect_points(frame, threshold_db) == _detect_per_bin(frame, threshold_db)


def test_peak_mask_handles_plateaus_and_edge_bins():
    # power plateau over bins 10-11 (only the first is a peak) and peaks on
    # the edge bins 0 and n-1 (never reported)
    spectrum = np.full(CFG.n_samples, 0.01 + 0j)
    spectrum[[0, 10, 11, 40, CFG.n_samples - 1]] = [50.0, 20.0, 20.0, 30.0, 40.0]
    tone = np.fft.ifft(spectrum)
    frame = RawFrame(samples=np.tile(tone, (2, 2, 1)), config=CFG)
    power = np.abs(range_spectrum(frame, 0, 0)) ** 2
    assert power[10] == power[11]
    dets = detect_points(frame)
    assert dets == _detect_per_bin(frame, 12.0)
    assert [d.range_m for d in dets] == [bin_to_range(CFG, 10), bin_to_range(CFG, 40)]
