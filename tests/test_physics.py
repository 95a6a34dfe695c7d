import math

import numpy as np
import pytest

from radarpose import physics
from radarpose.physics import (
    SPEED_OF_LIGHT,
    ChirpConfig,
    OutOfFieldError,
    VelocityAmbiguityWarning,
    angle_from_phase,
    azimuth_phase,
    beat_frequency,
    doppler_phase,
    phase_at_range,
    range_from_beat,
    velocity_from_phase,
)

LAMBDA_77GHZ = SPEED_OF_LIGHT / 77e9


def test_beat_frequency_values():
    assert beat_frequency(0.0, 3e13) == 0.0
    # frozen: 3e13 * 2 * 2.0 / 299792458 = 400.277 kHz
    assert beat_frequency(2.0, 3e13) == pytest.approx(400276.9142377825, rel=1e-12)
    assert beat_frequency(4.0, 3e13) == pytest.approx(2 * beat_frequency(2.0, 3e13), rel=1e-12)


def test_beat_frequency_monotone_in_range():
    d = np.sort(np.random.default_rng(1).uniform(0.01, 50.0, size=64))
    f = [beat_frequency(float(x), 3e13) for x in d]
    assert all(f2 > f1 for f1, f2 in zip(f, f[1:]))


def test_beat_frequency_rejects_bad_inputs():
    with pytest.raises(ValueError):
        beat_frequency(-1.0, 3e13)
    with pytest.raises(ValueError):
        beat_frequency(1.0, 0.0)


def test_range_from_beat_values():
    assert range_from_beat(0.0, 3e13) == 0.0
    assert range_from_beat(400276.9142377825, 3e13) == pytest.approx(2.0, rel=1e-12)
    assert range_from_beat(beat_frequency(3.1, 3e13), 3e13) == pytest.approx(3.1, rel=1e-12)
    with pytest.raises(ValueError):
        range_from_beat(1.0, -1.0)


def test_phase_at_range_values():
    assert phase_at_range(0.0, LAMBDA_77GHZ) == 0.0
    lam = 0.004
    assert phase_at_range(lam / 4.0, lam) == pytest.approx(math.pi, rel=1e-12)
    # frozen: 4*pi*1.0 / (c/77e9)
    assert phase_at_range(1.0, LAMBDA_77GHZ) == pytest.approx(3227.60133380559, rel=1e-12)
    with pytest.raises(ValueError):
        phase_at_range(1.0, 0.0)


def test_doppler_phase_values():
    assert doppler_phase(0.0, 1e-4, LAMBDA_77GHZ) == 0.0
    # frozen: 4*pi*1.0*1e-4 / (c/77e9)
    assert doppler_phase(1.0, 1e-4, LAMBDA_77GHZ) == pytest.approx(0.322760133380559, rel=1e-12)
    for v in (0.3, 1.7, 8.2):
        assert doppler_phase(-v, 1e-4, LAMBDA_77GHZ) == -doppler_phase(v, 1e-4, LAMBDA_77GHZ)


def test_velocity_from_phase_values():
    assert velocity_from_phase(0.0, 1e-4, LAMBDA_77GHZ) == 0.0
    dphi = doppler_phase(0.8, 1e-4, LAMBDA_77GHZ)
    assert velocity_from_phase(dphi, 1e-4, LAMBDA_77GHZ) == pytest.approx(0.8, rel=1e-12)
    assert velocity_from_phase(0.322760133380559, 1e-4, LAMBDA_77GHZ) == pytest.approx(1.0, rel=1e-12)


def test_velocity_from_phase_warns_when_aliased():
    with pytest.warns(VelocityAmbiguityWarning):
        v = velocity_from_phase(3.5, 1e-4, LAMBDA_77GHZ)
    assert math.isfinite(v)


def test_azimuth_phase_values():
    lam = LAMBDA_77GHZ
    assert azimuth_phase(0.0, lam / 2, lam) == 0.0
    assert azimuth_phase(math.radians(30.0), lam / 2, lam) == pytest.approx(math.pi / 2, rel=1e-12)
    # spacing of lambda/2 maps the 90-degree limit to a phase of pi
    assert azimuth_phase(math.pi / 2, lam / 2, lam) == pytest.approx(math.pi, rel=1e-12)


def test_azimuth_phase_monotone():
    lam = LAMBDA_77GHZ
    th = np.linspace(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6, 101)
    ph = [azimuth_phase(float(t), lam / 2, lam) for t in th]
    assert all(p2 > p1 for p1, p2 in zip(ph, ph[1:]))


def test_angle_from_phase_values():
    lam = LAMBDA_77GHZ
    assert angle_from_phase(0.0, lam / 2, lam) == 0.0
    assert angle_from_phase(math.pi / 2, lam / 2, lam) == pytest.approx(math.radians(30.0), rel=1e-12)
    th = math.radians(-20.0)
    assert angle_from_phase(azimuth_phase(th, lam / 2, lam), lam / 2, lam) == pytest.approx(th, rel=1e-12)


def test_angle_from_phase_out_of_field():
    lam = LAMBDA_77GHZ
    with pytest.raises(OutOfFieldError):
        angle_from_phase(1.01 * math.pi, lam / 2, lam)


@pytest.mark.parametrize("seed", [2, 3, 4])
def test_inverse_pairs_random(seed):
    rng = np.random.default_rng(seed)
    lam = LAMBDA_77GHZ
    tc = 1e-4
    for _ in range(200):
        d = float(rng.uniform(0.01, 50.0))
        s = float(rng.uniform(1e12, 1e14))
        assert range_from_beat(beat_frequency(d, s), s) == pytest.approx(d, rel=1e-12)

        v = float(rng.uniform(-0.99, 0.99)) * lam / (4 * tc)
        assert velocity_from_phase(doppler_phase(v, tc, lam), tc, lam) == pytest.approx(v, rel=1e-12, abs=1e-15)

        th = float(rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3))
        assert angle_from_phase(azimuth_phase(th, lam / 2, lam), lam / 2, lam) == pytest.approx(th, rel=1e-12, abs=1e-15)


def test_chirp_config_derived_quantities():
    cfg = ChirpConfig()
    assert cfg.wavelength_m == pytest.approx(LAMBDA_77GHZ, rel=1e-15)
    assert cfg.bandwidth_hz == pytest.approx(30e12 * 100e-6, rel=1e-15)
    assert cfg.range_resolution_m == pytest.approx(SPEED_OF_LIGHT / (2 * 3e9), rel=1e-15)
    assert cfg.range_resolution_m > 0
    assert cfg.rx_spacing_m == pytest.approx(cfg.wavelength_m / 2, rel=1e-15)
    assert cfg.max_unambiguous_range_m == pytest.approx(10.0, rel=1e-3)


def test_chirp_config_validation():
    with pytest.raises(ValueError):
        ChirpConfig(slope_hz_per_s=-1.0)
    with pytest.raises(ValueError):
        ChirpConfig(n_chirps=1)
    with pytest.raises(ValueError):
        ChirpConfig(n_samples=4)
    with pytest.raises(ValueError):
        ChirpConfig(rx_spacing_m=1.0)  # way beyond half a wavelength
    with pytest.raises(ValueError):
        ChirpConfig(n_samples=400)  # does not fit in one chirp at 2 MHz


@pytest.mark.parametrize(
    "field, value",
    [
        ("start_freq_hz", math.nan),
        ("slope_hz_per_s", math.inf),
        ("chirp_time_s", math.nan),
        ("sample_rate_hz", math.nan),
        ("sample_rate_hz", -math.inf),
        ("noise_std", math.nan),
        ("noise_std", math.inf),
        ("n_samples", 200.0),
        ("n_samples", 100.5),
        ("n_chirps", 2.5),
        ("n_chirps", True),
        ("rx_spacing_m", math.nan),
    ],
)
def test_chirp_config_rejects_a_nonfinite_or_fractional_field_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} "):
        ChirpConfig(**{field: value})


def test_chirp_config_takes_a_numpy_integer_sample_count():
    assert ChirpConfig(n_samples=np.int64(128)).n_samples == 128


def test_module_constant_is_si_exact():
    assert physics.SPEED_OF_LIGHT == 299792458.0


def test_forward_relations_take_arrays_elementwise():
    rng = np.random.default_rng(9)
    d, v, th = rng.uniform(0, 8, 40), rng.normal(size=40), rng.uniform(-1.5, 1.5, 40)
    lam = LAMBDA_77GHZ
    cases = (
        (lambda x: beat_frequency(x, 3e13), d),
        (lambda x: phase_at_range(x, lam), d),
        (lambda x: doppler_phase(x, 1e-4, lam), v),
        (lambda x: azimuth_phase(x, lam / 2, lam), th),
    )
    for relation, xs in cases:
        assert relation(xs).tolist() == [relation(x) for x in xs.tolist()]
    # the scalar sine is the one math.sin gives
    assert [azimuth_phase(x, lam / 2, lam) for x in th.tolist()] == [
        2.0 * math.pi * (lam / 2) * math.sin(x) / lam for x in th.tolist()
    ]
    for relation in (lambda x: beat_frequency(x, 3e13), lambda x: phase_at_range(x, lam)):
        with pytest.raises(ValueError, match="distance must be >= 0"):
            relation(np.array([1.0, -0.5, 2.0]))
