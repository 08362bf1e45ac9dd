import numpy as np
import pytest

from aesa_chain import (ArrayGeometry, ClutterBand, JammerSource, PointTarget,
                        RadarParams, RigidBodyTarget, simulate_dwell,
                        simulate_isar_sequence, target_amplitude,
                        transmit_pulse)

from helpers import compress_oracle as _compress
from helpers import dense_dwell_oracle, dense_isar_oracle, traced_peak

SMALL = RadarParams(r_min=1500.0, r_max=2100.0, n_pulses=64)


def compress_oracle(params, channel):
    return _compress(params, channel, transmit_pulse(params))


def test_transmit_pulse_is_linear_fm():
    pulse = transmit_pulse(SMALL)
    assert pulse.size == 125
    np.testing.assert_allclose(np.abs(pulse), 1.0, atol=1e-12)
    # instantaneous frequency sweeps -B/2 .. +B/2 linearly
    freq = np.diff(np.unwrap(np.angle(pulse))) * SMALL.sample_rate / (2 * np.pi)
    slope = np.polyfit(np.arange(freq.size), freq, 1)
    assert slope[0] * SMALL.sample_rate == pytest.approx(
        SMALL.bandwidth / SMALL.pulse_width, rel=1e-6)
    assert freq[0] == pytest.approx(-SMALL.bandwidth / 2, abs=SMALL.sample_rate / 100)
    assert freq[-1] == pytest.approx(SMALL.bandwidth / 2, abs=SMALL.sample_rate / 100)


def test_radar_params_validation():
    with pytest.raises(ValueError):
        RadarParams(sample_rate=40.0e6)  # undersamples the 50 MHz chirp
    with pytest.raises(ValueError):
        RadarParams(r_max=80.0e3)  # beyond the unambiguous range at 2 kHz
    with pytest.raises(ValueError):
        RadarParams(r_min=-1.0)
    with pytest.raises(ValueError):
        RadarParams(n_pulses=1)
    with pytest.raises(ValueError, match="finite"):
        RadarParams(pulse_width=np.inf)
    with pytest.raises(ValueError, match="too many samples"):
        RadarParams(pulse_width=1e300, sample_rate=1e300)


def test_bin_helpers():
    assert SMALL.range_bin_of(SMALL.r_min) == 0
    assert SMALL.range_bin_of(SMALL.r_min + 7 * SMALL.range_bin_m) == 7
    # 3.75 m/s at 2 kHz PRF, 64 pulses: Doppler bin 8
    assert SMALL.doppler_bin_of(3.75) == 8
    assert SMALL.doppler_bin_of(-3.75) == 64 - 8
    assert SMALL.unambiguous_velocity == pytest.approx(15.0)


def test_target_amplitude_formula():
    # definition: amp^2 * g^2 * M * N = snr * noise_power, with g the channel
    # gain of the demonstrator array at the dwell's own wavelength
    amp = target_amplitude(SMALL, 20.0, 2.0, 10.0)
    geom = ArrayGeometry.demonstrator(SMALL.wavelength)
    g = np.abs(np.mean(np.exp(
        1j * 2 * np.pi / SMALL.wavelength
        * geom.element_positions[geom.subarray_index == 0, 0]
        * np.sin(np.radians(10.0)))))
    recovered = amp**2 * g**2 * SMALL.replica_length * SMALL.n_pulses
    assert recovered == pytest.approx(100.0 * 2.0, rel=1e-12)


def test_rd_peak_snr_calibration_end_to_end():
    # independent route: direct correlation + explicit DFT sum
    snr_db = 20.0
    tgt = PointTarget(range_m=SMALL.r_min + 100 * SMALL.range_bin_m,
                      radial_velocity=3.75, azimuth_deg=0.0, snr_db=snr_db)
    raw = simulate_dwell(SMALL, [tgt], noise_power=1.0, seed=0, noise=False)
    comp = compress_oracle(SMALL, raw.values[0])
    k = SMALL.doppler_bin_of(tgt.radial_velocity)
    phasor = np.exp(-2j * np.pi * k * np.arange(SMALL.n_pulses) / SMALL.n_pulses)
    peak = np.dot(comp[100, :], phasor) / np.sqrt(SMALL.n_pulses)
    assert 10 * np.log10(np.abs(peak) ** 2) == pytest.approx(snr_db, abs=1e-6)


def test_target_peak_snr_off_broadside():
    # the channel-gain factor must cancel at any azimuth
    tgt = PointTarget(range_m=SMALL.r_min + 42 * SMALL.range_bin_m,
                      radial_velocity=-7.5, azimuth_deg=18.0, snr_db=13.0)
    raw = simulate_dwell(SMALL, [tgt], noise_power=0.5, seed=0, noise=False)
    comp = compress_oracle(SMALL, raw.values[3])
    k = SMALL.doppler_bin_of(tgt.radial_velocity)
    phasor = np.exp(-2j * np.pi * k * np.arange(SMALL.n_pulses) / SMALL.n_pulses)
    peak = np.dot(comp[42, :], phasor) / np.sqrt(SMALL.n_pulses)
    assert np.abs(peak) ** 2 / 0.5 == pytest.approx(10 ** 1.3, rel=1e-9)


def test_superposition_without_noise():
    a = PointTarget(range_m=1600.0, radial_velocity=2.0, azimuth_deg=3.0, snr_db=10.0)
    b = PointTarget(range_m=1900.0, radial_velocity=-5.0, azimuth_deg=-8.0, snr_db=16.0)
    both = simulate_dwell(SMALL, [a, b], noise=False).values
    split = (simulate_dwell(SMALL, [a], noise=False).values
             + simulate_dwell(SMALL, [b], noise=False).values)
    np.testing.assert_allclose(both, split, atol=1e-14)


def test_jammer_power_and_spatial_rank():
    jam = JammerSource(azimuth_deg=21.4, jnr_db=30.0)
    raw = simulate_dwell(SMALL, [], jam, noise_power=1.0, seed=5, noise=False)
    power = np.mean(np.abs(raw.values) ** 2, axis=(1, 2))
    np.testing.assert_allclose(power, 1000.0, rtol=0.05)
    # spatially rank one: channels are scaled copies
    flat = raw.values.reshape(6, -1)
    corr = np.abs(np.vdot(flat[0], flat[4])) / (
        np.linalg.norm(flat[0]) * np.linalg.norm(flat[4]))
    assert corr == pytest.approx(1.0, abs=1e-12)


def test_jammer_requires_finite_jnr():
    with pytest.raises(ValueError):
        JammerSource(azimuth_deg=0.0, jnr_db=np.inf)
    JammerSource(azimuth_deg=0.0, jnr_db=np.inf, active=False)  # inactive is fine


def test_scene_inputs_must_be_finite():
    nan, inf = float("nan"), float("inf")
    for bad in ({"range_m": nan}, {"radial_velocity": inf}, {"azimuth_deg": nan},
                {"snr_db": -inf}):
        fields = dict(range_m=1600.0, radial_velocity=0.0, azimuth_deg=0.0, snr_db=10.0)
        with pytest.raises(ValueError, match="finite"):
            PointTarget(**{**fields, **bad})
    for mean_power in (nan, inf):
        with pytest.raises(ValueError, match="finite mean_power"):
            ClutterBand(enabled=True, mean_power=mean_power)
    with pytest.raises(ValueError, match="finite"):
        RigidBodyTarget(center_range_m=1700.0, azimuth_deg=nan, rotation_rate=0.02,
                        scatterers=[(0.0, 0.0, 1.0)])
    with pytest.raises(ValueError, match="finite"):
        RigidBodyTarget(center_range_m=1700.0, azimuth_deg=0.0, rotation_rate=0.02,
                        scatterers=[(0.0, nan, 1.0)])
    with pytest.raises(ValueError, match="jammer azimuth"):
        JammerSource(azimuth_deg=nan, jnr_db=30.0)


def test_simulate_dwell_matches_dense_oracle():
    # echoes at both window edges: the last one is cut by the end of the window
    edges = [PointTarget(range_m=SMALL.r_min, radial_velocity=2.0, azimuth_deg=-7.0, snr_db=12.0),
             PointTarget(range_m=SMALL.r_max, radial_velocity=-3.0, azimuth_deg=9.0, snr_db=18.0)]
    jam = JammerSource(azimuth_deg=21.4, jnr_db=30.0)
    cases = [
        {"targets": edges},
        # more clutter bins than range bins: the band is cut to the window
        {"clutter": ClutterBand(enabled=True, n_range_bins=SMALL.n_range_bins + 40,
                                mean_power=50.0)},
        {"targets": edges, "jammer": jam,
         "clutter": ClutterBand(enabled=True, n_range_bins=30, mean_power=80.0)},
    ]
    for case in cases:
        for noise in (True, False):
            for seed in (3, 11):
                got = simulate_dwell(SMALL, seed=seed, noise=noise, **case).values
                want = dense_dwell_oracle(SMALL, seed=seed, noise=noise, **case)
                assert got.tobytes() == want.tobytes(), (case, noise, seed)


def test_simulate_dwell_peak_memory_is_one_cube():
    # the noise is drawn through one channel's buffer, not a real cube of
    # half the complex cube's size
    params = RadarParams(r_min=1500.0, r_max=6000.0, n_pulses=64)
    tgt = PointTarget(range_m=3000.0, radial_velocity=3.0, azimuth_deg=4.0, snr_db=20.0)
    simulate_dwell(params, [tgt], seed=1)
    raw, peak = traced_peak(simulate_dwell, params, [tgt], seed=1)
    assert peak < 1.25 * raw.values.nbytes


def test_clutter_band_statistics():
    clut = ClutterBand(enabled=True, n_range_bins=120, mean_power=50.0)
    raw = simulate_dwell(SMALL, [], None, 1.0, seed=9, clutter=clut, noise=False)
    comp = compress_oracle(SMALL, raw.values[2])
    bins = np.abs(comp[:120, 0]) ** 2
    # zero Doppler: constant over the dwell
    np.testing.assert_allclose(comp[:120, 1:], comp[:120, :1] * np.ones((1, 63)),
                               atol=1e-9 * np.abs(comp[:120, 0]).max())
    # exponential across bins with mean 50: mean and shape within 5 sigma
    assert bins.mean() == pytest.approx(50.0, abs=5 * 50.0 / np.sqrt(120))
    assert bins.std() / bins.mean() == pytest.approx(1.0, abs=0.45)
    # compression sidelobes reach one replica past the band, no further
    assert np.abs(comp[244:, :]).max() == 0.0


def test_noise_power_and_reproducibility():
    raw = simulate_dwell(SMALL, [], noise_power=3.0, seed=4)
    power = np.mean(np.abs(raw.values) ** 2)
    n = raw.values.size
    assert power == pytest.approx(3.0, abs=5 * 3.0 / np.sqrt(n))
    again = simulate_dwell(SMALL, [], noise_power=3.0, seed=4)
    np.testing.assert_array_equal(raw.values, again.values)
    other = simulate_dwell(SMALL, [], noise_power=3.0, seed=6)
    assert np.any(other.values != raw.values)


def test_target_outside_window_rejected():
    bad = PointTarget(range_m=5000.0, radial_velocity=0.0, azimuth_deg=0.0, snr_db=10.0)
    with pytest.raises(ValueError, match="receive window"):
        simulate_dwell(SMALL, [bad])
    with pytest.raises(ValueError, match="sector"):
        PointTarget(range_m=1600.0, radial_velocity=0.0, azimuth_deg=30.0, snr_db=10.0)


def test_isar_echo_phase_tracks_range():
    body = RigidBodyTarget(center_range_m=1800.0, azimuth_deg=0.0,
                           rotation_rate=0.02, translational_velocity=0.3,
                           scatterers=[(0.0, 0.0, 1.0)])
    dwells = simulate_isar_sequence(SMALL, body, 2, seed=0, noise=False)
    profiles = []
    for dw in dwells:
        comp = compress_oracle(SMALL, dw.values[0])
        profiles.append(comp[SMALL.range_bin_of(1800.0), :])
    series = np.concatenate(profiles)
    # executed phase step: -4 pi v / (lambda prf) per pulse, continuous
    # across the dwell boundary
    step = np.angle(series[1:] / series[:-1])
    expected = -4 * np.pi * 0.3 / (SMALL.wavelength * SMALL.prf)
    expected = (expected + np.pi) % (2 * np.pi) - np.pi
    np.testing.assert_allclose(step, expected, atol=1e-6)


def test_simulate_isar_sequence_matches_dense_oracle():
    scatterers = [(0.0, 0.0, 1.0), (4.8, 3.0, 0.8), (-7.2, -2.25, 0.6)]
    bodies = [
        # range walks about two bins within each dwell
        RigidBodyTarget(center_range_m=1800.0, azimuth_deg=-7.0, rotation_rate=0.05,
                        translational_velocity=-150.0, scatterers=scatterers),
        # a scatterer starts at exactly r_min, and one at exactly r_max
        RigidBodyTarget(center_range_m=1510.0, azimuth_deg=3.0, rotation_rate=0.02,
                        scatterers=[(-10.0, 0.0, 1.0), (2.0, 1.5, 0.5)]),
        RigidBodyTarget(center_range_m=2090.0, azimuth_deg=0.0, rotation_rate=-0.02,
                        translational_velocity=-1.0, scatterers=[(10.0, 0.0, 1.0)]),
    ]
    for body in bodies:
        for noise in (True, False):
            for seed in (3, 11):
                got = simulate_isar_sequence(SMALL, body, 3, seed=seed, noise=noise)
                want = dense_isar_oracle(SMALL, body, 3, seed=seed, noise=noise)
                for d, (dwell, cube) in enumerate(zip(got, want)):
                    assert dwell.values.tobytes() == cube.tobytes(), (body, noise, seed, d)


def test_isar_per_dwell_seeding():
    body = RigidBodyTarget(center_range_m=1800.0, azimuth_deg=0.0,
                           rotation_rate=0.01, translational_velocity=0.0,
                           scatterers=[(0.0, 0.0, 1.0)])
    run = simulate_isar_sequence(SMALL, body, 3, seed=10)
    # noise of dwell d comes from key seed + d: starting one seed later
    # replays the same noise one dwell earlier
    shifted = simulate_isar_sequence(SMALL, body, 3, seed=11)
    noise_a = run[1].values - simulate_isar_sequence(
        SMALL, body, 3, seed=10, noise=False)[1].values
    noise_b = shifted[0].values - simulate_isar_sequence(
        SMALL, body, 3, seed=11, noise=False)[0].values
    np.testing.assert_allclose(noise_a, noise_b, atol=1e-9)


def test_isar_large_rotation_warns():
    body = RigidBodyTarget(center_range_m=1800.0, azimuth_deg=0.0,
                           rotation_rate=2.0, translational_velocity=0.0,
                           scatterers=[(0.0, 0.0, 1.0)])
    # 4 dwells of 64 pulses at 2 kHz -> 0.256 rad total rotation
    with pytest.warns(UserWarning, match="rotation"):
        simulate_isar_sequence(SMALL, body, 4, seed=0, noise=False)


def test_isar_body_leaving_window_rejected():
    body = RigidBodyTarget(center_range_m=2090.0, azimuth_deg=0.0,
                           rotation_rate=0.02, translational_velocity=200.0,
                           scatterers=[(0.0, 0.0, 1.0)])
    with pytest.raises(ValueError, match="receive window"):
        simulate_isar_sequence(SMALL, body, 4, seed=0, noise=False)
