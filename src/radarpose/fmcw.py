"""IF-signal synthesis and point-cloud recovery for a two-RX FMCW radar.

A frame is synthesized as complex (I/Q) baseband from reflectors given as
an (R, 5) array of radar-frame rows ``[x, y, z, radial velocity, amplitude]``
(the points layout, with amplitude where a point has SNR; radial velocity
is the range rate, positive when receding). Each reflector contributes one
tone whose frequency encodes range, whose chirp-to-chirp phase step
encodes radial velocity, and whose RX-to-RX phase step encodes azimuth.
Recovery inverts exactly those three observables: FFT peak bin, two-chirp
phase difference, two-RX phase difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .physics import (
    ChirpConfig,
    azimuth_phase,
    beat_frequency,
    doppler_phase,
    phase_at_range,
    range_from_beat,
    velocity_from_phase,
)

#: Cap on reported SNR so that noiseless spectra stay finite [dB].
SNR_CAP_DB = 120.0

DEFAULT_THRESHOLD_DB = 12.0


@dataclass
class RawFrame:
    """IF samples of one frame, indexed [chirp][rx][sample]."""

    samples: np.ndarray
    config: ChirpConfig
    timestamp_ms: int = 0

    def __post_init__(self):
        expected = (self.config.n_chirps, 2, self.config.n_samples)
        if self.samples.shape != expected:
            raise ValueError(f"samples must have shape {expected}, got {self.samples.shape}")


@dataclass
class Detection:
    """One recovered point in polar radar coordinates."""

    range_m: float
    radial_velocity: float
    azimuth_rad: float
    elevation_rad: float
    snr_db: float

    def __post_init__(self):
        if self.range_m <= 0:
            raise ValueError("range_m must be > 0")
        if not math.isfinite(self.snr_db):
            raise ValueError("snr_db must be finite")


def synthesize_frame(
    reflectors: np.ndarray,
    cfg: ChirpConfig,
    seed: int,
    timestamp_ms: int = 0,
) -> RawFrame:
    """Simulate the IF samples of one frame from (R, 5) reflector rows.

    Each sample is the coherent sum over reflectors of
    ``A * exp(i(2 pi f0 t + phi0 + chirp * dphi_vel + rx * dphi_az))``
    plus circular Gaussian noise of std ``cfg.noise_std``. The sum is taken
    as one product of a per-(chirp, rx) weight ``A * exp(i(chirp * dphi_vel
    + rx * dphi_az))`` and a per-sample tone ``exp(i(2 pi f0 t + phi0))``.
    With ``w = 2 pi f0 / fs``, ``B = ceil(sqrt(N))`` and sample ``n = q B +
    p``, the tone is ``exp(i(w p + phi0)) * exp(i w B q)``: two small phase
    tables, so about ``2 sqrt(N)`` complex exponentials per reflector
    instead of ``N``. Samples stay within 1e-11 * sum(A) of the term-by-term
    sum and of a long-double evaluation of it (seen: at most 5.2e-12 *
    sum(A)). Bit-identical for identical (reflectors, cfg, seed).
    """
    refl = np.asarray(reflectors, dtype=float)
    if refl.ndim != 2 or refl.shape[1] != 5:
        raise ValueError(f"reflectors must be an (R, 5) array, got shape {refl.shape}")
    lam = cfg.wavelength_m
    pos, amp = refl[:, :3], refl[:, 4]
    # vecdot keeps np.linalg.norm's per-vector dot, so ranges match it bitwise
    dist = np.sqrt(np.vecdot(pos, pos))
    if np.any(dist <= 0):
        raise ValueError("reflector at zero range")
    if np.any(pos[:, 1] <= 0):
        raise ValueError("reflectors must lie in the front half-space (y > 0)")
    if np.any(amp < 0):
        raise ValueError("reflector amplitude must be >= 0")
    f0 = beat_frequency(dist, cfg.slope_hz_per_s)
    phi0 = phase_at_range(dist, lam)
    dphi_v = doppler_phase(refl[:, 3], cfg.chirp_time_s, lam)
    dphi_a = azimuth_phase(np.arctan2(pos[:, 0], pos[:, 1]), cfg.rx_spacing_m, lam)

    # the signal separates into one tone per reflector, tone[r, sample], and
    # one weight per reflector and (chirp, rx) pair, weight[r, 2 * chirp + rx]
    n = cfg.n_samples
    block = math.isqrt(n - 1) + 1  # ceil(sqrt(n)): sample q * block + p
    n_blocks = -(-n // block)
    omega = 2.0 * math.pi * f0 / cfg.sample_rate_hz
    fine = _cis(omega[:, None] * np.arange(block) + phi0[:, None])
    coarse = _cis(omega[:, None] * (block * np.arange(n_blocks)))
    tone = (coarse[:, :, None] * fine[:, None, :]).reshape(len(refl), n_blocks * block)[:, :n]
    chirp, rx = np.divmod(np.arange(2 * cfg.n_chirps), 2)
    weight = amp[:, None] * np.exp(1j * (chirp * dphi_v[:, None] + rx * dphi_a[:, None]))
    # with no reflectors this is a sum over nothing: exact zeros
    samples = (weight.T @ tone).reshape(cfg.n_chirps, 2, cfg.n_samples)

    if cfg.noise_std > 0:
        rng = np.random.default_rng(seed)
        scale = cfg.noise_std / math.sqrt(2.0)
        samples = samples + scale * (
            rng.standard_normal(samples.shape) + 1j * rng.standard_normal(samples.shape)
        )
    return RawFrame(samples=samples, config=cfg, timestamp_ms=timestamp_ms)


def _cis(phase: np.ndarray) -> np.ndarray:
    """``exp(1j * phase)`` for a real phase, from one cos and one sin pass."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def range_spectrum(frame: RawFrame, chirp: int, rx: int) -> np.ndarray:
    """DFT of one chirp's samples; bin k sits at range k * c * fs / (2 S n)."""
    n_chirps, n_rx, _ = frame.samples.shape
    if not (0 <= chirp < n_chirps and 0 <= rx < n_rx):
        raise IndexError(f"chirp/rx index ({chirp}, {rx}) out of bounds")
    return np.fft.fft(frame.samples[chirp, rx])


def bin_to_range(cfg: ChirpConfig, k: int) -> float:
    """Range [m] represented by FFT bin ``k``."""
    return range_from_beat(k * cfg.sample_rate_hz / cfg.n_samples, cfg.slope_hz_per_s)


def detect_points(frame: RawFrame, threshold_db: float = DEFAULT_THRESHOLD_DB) -> list[Detection]:
    """Constant-threshold peak detector over the range spectrum.

    Peaks are local maxima of chirp 0 / RX 0 spectral power exceeding the
    noise floor (median power) by ``threshold_db``. Velocity comes from the
    chirp-0/chirp-1 phase difference at the peak bin, azimuth from the
    RX0/RX1 phase difference; elevation is fixed at the boresight plane.
    """
    if not math.isfinite(threshold_db):
        raise ValueError("threshold_db must be finite")
    cfg = frame.config
    spec_c0_rx0 = range_spectrum(frame, 0, 0)
    spec_c1_rx0 = range_spectrum(frame, 1, 0)
    spec_c0_rx1 = range_spectrum(frame, 0, 1)

    power = np.abs(spec_c0_rx0) ** 2
    if not np.any(power > 0):
        return []
    floor = max(float(np.median(power)), float(power.max()) * 10 ** (-SNR_CAP_DB / 10.0))
    gate = floor * 10 ** (threshold_db / 10.0)

    lam = cfg.wavelength_m
    inner = power[1:-1]
    peaks = 1 + np.flatnonzero((inner > gate) & (inner > power[:-2]) & (inner >= power[2:]))
    detections = []
    for k in peaks.tolist():
        rng_m = bin_to_range(cfg, k)
        dphi_v = float(np.angle(spec_c1_rx0[k] * np.conj(spec_c0_rx0[k])))
        vel = velocity_from_phase(dphi_v, cfg.chirp_time_s, lam)
        dphi_a = float(np.angle(spec_c0_rx1[k] * np.conj(spec_c0_rx0[k])))
        # clip: noise can push the implied sine epsilon past the field edge
        sin_az = float(np.clip(lam * dphi_a / (2.0 * math.pi * cfg.rx_spacing_m), -1.0, 1.0))
        az = math.asin(sin_az)
        snr_db = min(10.0 * math.log10(power[k] / floor), SNR_CAP_DB)
        detections.append(
            Detection(
                range_m=rng_m,
                radial_velocity=vel,
                azimuth_rad=az,
                elevation_rad=0.0,
                snr_db=snr_db,
            )
        )
    return detections


def detections_to_points(detections: list[Detection]) -> np.ndarray:
    """Spherical-to-Cartesian conversion into the radar frame.

    Returns (N, 5) rows [x, y, z, radial velocity, SNR dB].
    """
    rows = []
    for d in detections:
        ca, sa = math.cos(d.azimuth_rad), math.sin(d.azimuth_rad)
        ce, se = math.cos(d.elevation_rad), math.sin(d.elevation_rad)
        rows.append([d.range_m * sa * ce, d.range_m * ca * ce, d.range_m * se, d.radial_velocity, d.snr_db])
    return np.array(rows, dtype=float).reshape(-1, 5)
