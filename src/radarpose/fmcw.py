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

    def __post_init__(self):
        expected = (self.config.n_chirps, 2, self.config.n_samples)
        if self.samples.shape != expected:
            raise ValueError(f"samples must have shape {expected}, got {self.samples.shape}")


@dataclass
class Detection:
    """One recovered point in polar radar coordinates, in the boresight plane
    (the two RX antennas resolve azimuth only)."""

    range_m: float
    radial_velocity: float
    azimuth_rad: float
    snr_db: float

    def __post_init__(self):
        if self.range_m <= 0:
            raise ValueError("range_m must be > 0")
        if not math.isfinite(self.snr_db):
            raise ValueError("snr_db must be finite")


#: What each reflector column holds, for the non-finite check's message.
_REFLECTOR_COLUMNS = ("x", "y", "z", "radial velocity", "amplitude")


def synthesize_frame(reflectors: np.ndarray, cfg: ChirpConfig, seed: int) -> RawFrame:
    """Simulate the IF samples of one frame from (R, 5) reflector rows.

    Each sample is the coherent sum over reflectors of
    ``A * exp(i(2 pi f0 t + phi0 + chirp * dphi_vel + rx * dphi_az))``
    plus circular Gaussian noise of std ``cfg.noise_std``. With ``w = 2 pi
    f0 / fs``, ``B = ceil(sqrt(N))`` and sample ``n = q B + p``, each term
    is a per-(chirp, rx) weight ``A * exp(i(chirp * dphi_vel + rx *
    dphi_az))`` times a coarse factor ``exp(i w B q)`` times a fine factor
    ``exp(i(w p + phi0))``. One cos and one sin pass give ``exp(i phi0)``,
    ``exp(i w)``, ``exp(i w B)`` and the weights' unit phasors; running
    products (``np.multiply.accumulate``) fill a ``(B, R)`` fine and a
    ``(ceil(N / B), R)`` coarse table. The samples are then ``(weight *
    coarse) @ fine``: the ``(2 C, ceil(N / B), R)`` products of each weight
    row with the coarse table, as one ``(2 C ceil(N / B), R)`` matrix, times
    the fine table, cut to ``N`` samples per (chirp, rx). Samples stay within
    1e-11 * sum(A) of the term-by-term sum and of a long-double evaluation
    of it (seen: at most 3.6e-12 * sum(A)). A non-finite reflector value
    raises, naming its row and column. Bit-identical for identical
    (reflectors, cfg, seed).
    """
    refl = np.asarray(reflectors, dtype=float)
    if refl.ndim != 2 or refl.shape[1] != 5:
        raise ValueError(f"reflectors must be an (R, 5) array, got shape {refl.shape}")
    if not np.isfinite(refl).all():
        row, col = np.argwhere(~np.isfinite(refl))[0]
        raise ValueError(f"reflector row {row} has a non-finite {_REFLECTOR_COLUMNS[col]}: {float(refl[row, col])!r}")
    lam = cfg.wavelength_m
    pos, amp = refl[:, :3], refl[:, 4]
    # vecdot keeps np.linalg.norm's per-vector dot, so ranges match it bitwise
    dist = np.sqrt(np.vecdot(pos, pos))
    if (dist <= 0).any():
        raise ValueError("reflector at zero range")
    if (pos[:, 1] <= 0).any():
        raise ValueError("reflectors must lie in the front half-space (y > 0)")
    if (amp < 0).any():
        raise ValueError("reflector amplitude must be >= 0")
    f0 = beat_frequency(dist, cfg.slope_hz_per_s)
    phi0 = phase_at_range(dist, lam)
    dphi_v = doppler_phase(refl[:, 3], cfg.chirp_time_s, lam)
    dphi_a = azimuth_phase(np.arctan2(pos[:, 0], pos[:, 1]), cfg.rx_spacing_m, lam)

    n, n_refl, n_cols = cfg.n_samples, len(refl), 2 * cfg.n_chirps
    block = math.isqrt(n - 1) + 1  # ceil(sqrt(n)): sample q * block + p
    n_blocks = -(-n // block)
    omega = 2.0 * math.pi * f0 / cfg.sample_rate_hz
    # weight row 2 * chirp + rx
    chirp, rx = np.divmod(np.arange(n_cols), 2)
    unit = _cis(np.vstack([phi0, omega, block * omega, chirp[:, None] * dphi_v + rx[:, None] * dphi_a]))
    fine = _running_products(unit[0], unit[1], block)  # fine[p, r] = exp(i(w p + phi0))
    coarse = _running_products(1.0, unit[2], n_blocks)  # coarse[q, r] = exp(i w B q)
    weight = amp * unit[3:]
    # row by row: a broadcast product would take two ufunc buffers (256 KiB)
    lhs = np.empty((n_cols, n_blocks, n_refl), dtype=complex)
    for col in range(n_cols):
        np.multiply(weight[col], coarse, out=lhs[col])
    # explicit sizes: with no reflectors this is a sum over nothing, exact zeros
    samples = (lhs.reshape(n_cols * n_blocks, n_refl) @ fine.T).reshape(n_cols, n_blocks * block)
    samples = samples[:, :n].reshape(cfg.n_chirps, 2, n)

    if cfg.noise_std > 0:
        rng = np.random.default_rng(seed)
        scale = cfg.noise_std / math.sqrt(2.0)
        samples.real += scale * rng.standard_normal(samples.shape)
        samples.imag += scale * rng.standard_normal(samples.shape)
    return RawFrame(samples=samples, config=cfg)


def _cis(phase: np.ndarray) -> np.ndarray:
    """``exp(1j * phase)`` for a real phase, from one cos and one sin pass."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _running_products(first, step: np.ndarray, count: int) -> np.ndarray:
    """``(count, R)`` table whose row k is ``first * step**k``, one product per row."""
    table = np.empty((count, len(step)), dtype=complex)
    table[0] = first
    table[1:] = step
    return np.multiply.accumulate(table, axis=0, out=table)


def bin_to_range(cfg: ChirpConfig, k):
    """Range [m] represented by FFT bin ``k`` (an int or an array of bins)."""
    return range_from_beat(k * cfg.sample_rate_hz / cfg.n_samples, cfg.slope_hz_per_s)


def detect_points(frame: RawFrame, threshold_db: float = DEFAULT_THRESHOLD_DB) -> list[Detection]:
    """Constant-threshold peak detector over the range spectrum.

    Peaks are local maxima of chirp 0 / RX 0 spectral power exceeding the
    noise floor (median power) by ``threshold_db``. Velocity comes from the
    chirp-0/chirp-1 phase difference at the peak bin, azimuth from the
    RX0/RX1 phase difference.
    Non-finite IF samples are rejected, naming the chirp and the RX.
    """
    if not math.isfinite(threshold_db):
        raise ValueError("threshold_db must be finite")
    cfg = frame.config
    finite = np.isfinite(frame.samples)
    if not finite.all():
        chirp, rx, k = np.argwhere(~finite)[0]
        raise ValueError(f"IF samples of chirp {chirp}, RX {rx} are not finite (first at sample {k})")
    # rows: chirp 0 / RX 0, chirp 1 / RX 0, chirp 0 / RX 1
    s00, s10, s01 = np.fft.fft(frame.samples[[0, 1, 0], [0, 0, 1]])

    power = np.abs(s00) ** 2
    if not np.any(power > 0):
        return []
    floor = max(float(np.median(power)), float(power.max()) * 10 ** (-SNR_CAP_DB / 10.0))
    gate = floor * 10 ** (threshold_db / 10.0)

    lam = cfg.wavelength_m
    inner = power[1:-1]
    peaks = 1 + np.flatnonzero((inner > gate) & (inner > power[:-2]) & (inner >= power[2:]))
    # the phase of s * conj(s00) at every peak, from the products the scalar
    # complex multiply forms (the array multiply may fuse them differently)
    re0, im0 = s00.real[peaks], s00.imag[peaks]
    re1, im1 = s10.real[peaks], s10.imag[peaks]
    dphi_v = np.arctan2(im1 * re0 - re1 * im0, re1 * re0 + im1 * im0)
    re1, im1 = s01.real[peaks], s01.imag[peaks]
    dphi_a = np.arctan2(im1 * re0 - re1 * im0, re1 * re0 + im1 * im0)
    ranges = bin_to_range(cfg, peaks)
    vels = velocity_from_phase(dphi_v, cfg.chirp_time_s, lam)
    sin_az = lam * dphi_a / (2.0 * math.pi * cfg.rx_spacing_m)
    return [
        Detection(
            range_m=rng_m,
            radial_velocity=vel,
            # clip: noise can push the implied sine epsilon past the field edge
            azimuth_rad=math.asin(min(max(sin, -1.0), 1.0)),
            snr_db=min(10.0 * math.log10(ratio), SNR_CAP_DB),
        )
        for rng_m, vel, sin, ratio in zip(
            ranges.tolist(), vels.tolist(), sin_az.tolist(), (power[peaks] / floor).tolist()
        )
    ]


def detections_to_points(detections: list[Detection]) -> np.ndarray:
    """Polar-to-Cartesian conversion into the radar frame's boresight plane.

    Returns (N, 5) rows [x, y, z, radial velocity, SNR dB], z = 0.
    """
    rows = []
    for d in detections:
        ca, sa = math.cos(d.azimuth_rad), math.sin(d.azimuth_rad)
        rows.append([d.range_m * sa, d.range_m * ca, 0.0, d.radial_velocity, d.snr_db])
    return np.array(rows, dtype=float).reshape(-1, 5)
