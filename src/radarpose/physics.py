"""Closed-form FMCW chirp relations.

Pure functions tying range, velocity, and azimuth to the beat frequency
and phase observables of a linear chirp. The four forward relations
(:func:`beat_frequency`, :func:`phase_at_range`, :func:`doppler_phase`,
:func:`azimuth_phase`) take a scalar or an array in their first argument
and apply the same formula elementwise. All quantities are SI
(m, s, Hz, rad). Phases here are unwrapped; wrapping to (-pi, pi] is the
business of whoever measures a phase, not of these formulas.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

#: Speed of light in vacuum [m/s], exact by SI definition.
SPEED_OF_LIGHT = 299_792_458.0

C = SPEED_OF_LIGHT


class OutOfFieldError(ValueError):
    """Phase difference implies an angle outside (-90, 90) degrees."""


class VelocityAmbiguityWarning(UserWarning):
    """Chirp-to-chirp phase exceeded pi; recovered velocity is aliased."""


def round_trip_delay(distance_m: float) -> float:
    """Two-way propagation delay [s] for a reflector at ``distance_m``."""
    if distance_m < 0:
        raise ValueError(f"distance must be >= 0, got {distance_m}")
    return 2.0 * distance_m / C


def beat_frequency(distance_m, slope_hz_per_s: float):
    """IF-signal frequency [Hz] of a reflector at ``distance_m``.

    The mixer output frequency equals the chirp slope times the round-trip
    delay, so it grows linearly with range.
    """
    if np.any(distance_m < 0):
        raise ValueError(f"distance must be >= 0, got {distance_m}")
    if slope_hz_per_s <= 0:
        raise ValueError(f"chirp slope must be > 0, got {slope_hz_per_s}")
    return slope_hz_per_s * 2.0 * distance_m / C


def range_from_beat(beat_hz: float, slope_hz_per_s: float) -> float:
    """Range [m] of a reflector from a measured beat frequency.

    Exact inverse of :func:`beat_frequency`.
    """
    if beat_hz < 0:
        raise ValueError(f"beat frequency must be >= 0, got {beat_hz}")
    if slope_hz_per_s <= 0:
        raise ValueError(f"chirp slope must be > 0, got {slope_hz_per_s}")
    return beat_hz * C / (2.0 * slope_hz_per_s)


def phase_at_range(distance_m, wavelength_m: float):
    """Round-trip carrier phase [rad] at ``distance_m`` (unwrapped)."""
    if np.any(distance_m < 0):
        raise ValueError(f"distance must be >= 0, got {distance_m}")
    if wavelength_m <= 0:
        raise ValueError(f"wavelength must be > 0, got {wavelength_m}")
    return 4.0 * math.pi * distance_m / wavelength_m


def doppler_phase(velocity_mps, chirp_time_s: float, wavelength_m: float):
    """Chirp-to-chirp phase advance [rad] of a reflector receding at ``velocity_mps``.

    Odd in velocity: an approaching reflector (negative range rate) gives a
    negative phase step.
    """
    if chirp_time_s <= 0:
        raise ValueError(f"chirp time must be > 0, got {chirp_time_s}")
    if wavelength_m <= 0:
        raise ValueError(f"wavelength must be > 0, got {wavelength_m}")
    return 4.0 * math.pi * velocity_mps * chirp_time_s / wavelength_m


def velocity_from_phase(dphi_rad: float, chirp_time_s: float, wavelength_m: float) -> float:
    """Radial velocity [m/s] from a chirp-to-chirp phase difference.

    Exact inverse of :func:`doppler_phase` while |dphi| <= pi. Beyond that
    the measurement is aliased; a :class:`VelocityAmbiguityWarning` is
    issued and the (aliased) value is still returned.
    """
    if chirp_time_s <= 0:
        raise ValueError(f"chirp time must be > 0, got {chirp_time_s}")
    if wavelength_m <= 0:
        raise ValueError(f"wavelength must be > 0, got {wavelength_m}")
    if abs(dphi_rad) > math.pi:
        warnings.warn(
            f"|phase step| = {abs(dphi_rad):.4f} rad exceeds pi; velocity is ambiguous",
            VelocityAmbiguityWarning,
            stacklevel=2,
        )
    return wavelength_m * dphi_rad / (4.0 * math.pi * chirp_time_s)


def azimuth_phase(azimuth_rad, rx_spacing_m: float, wavelength_m: float):
    """Inter-antenna phase difference [rad] for a reflector at ``azimuth_rad``.

    The second receive antenna sees a path longer by ``rx_spacing * sin(az)``
    (far-field approximation), which is a one-way extension.
    """
    if rx_spacing_m <= 0:
        raise ValueError(f"antenna spacing must be > 0, got {rx_spacing_m}")
    if wavelength_m <= 0:
        raise ValueError(f"wavelength must be > 0, got {wavelength_m}")
    return 2.0 * math.pi * rx_spacing_m * np.sin(azimuth_rad) / wavelength_m


def angle_from_phase(dphi_rad: float, rx_spacing_m: float, wavelength_m: float) -> float:
    """Azimuth [rad] from an inter-antenna phase difference.

    Exact inverse of :func:`azimuth_phase` for angles inside (-pi/2, pi/2).
    Raises :class:`OutOfFieldError` when the implied sine magnitude exceeds 1.
    """
    if rx_spacing_m <= 0:
        raise ValueError(f"antenna spacing must be > 0, got {rx_spacing_m}")
    if wavelength_m <= 0:
        raise ValueError(f"wavelength must be > 0, got {wavelength_m}")
    sin_az = wavelength_m * dphi_rad / (2.0 * math.pi * rx_spacing_m)
    if abs(sin_az) > 1.0:
        raise OutOfFieldError(
            f"phase difference {dphi_rad:.4f} rad implies |sin(az)| = {abs(sin_az):.4f} > 1"
        )
    return math.asin(sin_az)


@dataclass(frozen=True)
class ChirpConfig:
    """One radar's chirp waveform and front-end parameters.

    Attributes:
        start_freq_hz: carrier frequency at the start of the sweep [Hz]
        slope_hz_per_s: linear sweep rate [Hz/s]
        chirp_time_s: duration of one chirp [s]
        n_samples: IF samples recorded per chirp
        n_chirps: chirps per frame (>= 2 so a phase pair exists)
        rx_spacing_m: distance between the two receive antennas [m]
        noise_std: std of the circular Gaussian receiver noise (linear amplitude)
        sample_rate_hz: IF sampling rate [Hz]
    """

    start_freq_hz: float = 77e9
    slope_hz_per_s: float = 30e12
    chirp_time_s: float = 100e-6
    n_samples: int = 200
    n_chirps: int = 2
    rx_spacing_m: float | None = None  # defaults to half a wavelength
    noise_std: float = 0.0
    sample_rate_hz: float = 2e6

    def __post_init__(self):
        for name in ("start_freq_hz", "slope_hz_per_s", "chirp_time_s", "sample_rate_hz"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        for name, low in (("n_samples", 8), ("n_chirps", 2)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        # `nan > 0` is False, so a NaN noise_std would silently add no noise
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std!r}")
        if self.n_samples / self.sample_rate_hz > self.chirp_time_s * (1 + 1e-12):
            raise ValueError("n_samples / sample_rate_hz must fit within one chirp")
        if self.rx_spacing_m is None:
            object.__setattr__(self, "rx_spacing_m", self.wavelength_m / 2.0)
        if not 0 < self.rx_spacing_m <= self.wavelength_m / 2.0 + 1e-15:
            raise ValueError(
                f"rx_spacing_m must lie in (0, wavelength/2] for unambiguous azimuth, got {self.rx_spacing_m!r}"
            )

    @property
    def wavelength_m(self) -> float:
        """Carrier wavelength [m] at the sweep start frequency."""
        return C / self.start_freq_hz

    @property
    def bandwidth_hz(self) -> float:
        """Swept bandwidth [Hz] = slope * chirp duration."""
        return self.slope_hz_per_s * self.chirp_time_s

    @property
    def range_resolution_m(self) -> float:
        """Range bin width [m] = c / (2 B)."""
        return C / (2.0 * self.bandwidth_hz)

    @property
    def max_unambiguous_range_m(self) -> float:
        """Largest range whose beat frequency stays below the sampling rate."""
        return range_from_beat(self.sample_rate_hz, self.slope_hz_per_s)

    @property
    def max_unambiguous_velocity_mps(self) -> float:
        """|v| bound for which the chirp-pair phase stays within pi."""
        return self.wavelength_m / (4.0 * self.chirp_time_s)
