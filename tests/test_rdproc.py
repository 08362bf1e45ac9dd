import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from aesa_chain import (ConfigError, PointTarget, RadarParams, doppler_process,
                        range_compress, rd_map, simulate_dwell, transmit_pulse)
from aesa_chain import rdproc
from aesa_chain.rdproc import WINDOWS, CompressedDwell

from helpers import compress_oracle, dft_oracle, unit_window_oracle

SMALL = RadarParams(r_min=1500.0, r_max=2100.0, n_pulses=64)
#: n_fast = 333, which the range transform pads to 336
PADDED = RadarParams(r_min=1500.0, r_max=2000.0, n_pulses=16)
#: receive windows whose n_fast is 250, 292 (pads to 294), 333 (336), 354 (360), 375
R_MAX = (1800.0, 1900.0, 2000.0, 2050.0, 2100.0)


def _noise_dwell(seed=0, noise_power=2.0):
    return simulate_dwell(SMALL, [], noise_power=noise_power, seed=seed)


def test_range_compress_matches_direct_correlation():
    raw = _noise_dwell(seed=1)
    comp = range_compress(raw)
    assert comp.values.shape == (6, SMALL.n_range_bins, 64)
    ref = compress_oracle(SMALL, raw.values[4], transmit_pulse(SMALL))
    np.testing.assert_allclose(comp.values[4], ref, atol=1e-10)
    np.testing.assert_allclose(comp.range_axis,
                               SMALL.r_min + np.arange(SMALL.n_range_bins) * SMALL.range_bin_m)


def test_range_compress_at_padded_length_matches_direct_correlation():
    assert next_fast_len(PADDED.n_fast) != PADDED.n_fast
    # echoes at both ends of the receive window, where a wrapped lag would land
    targets = [PointTarget(range_m=r, radial_velocity=1.0, azimuth_deg=3.0, snr_db=20.0)
               for r in (PADDED.r_min, PADDED.r_max)]
    raw = simulate_dwell(PADDED, targets, seed=2, noise=False)
    comp = range_compress(raw)
    replica = transmit_pulse(PADDED)
    for c in range(raw.values.shape[0]):
        ref = compress_oracle(PADDED, raw.values[c], replica)
        np.testing.assert_allclose(comp.values[c], ref, atol=1e-10)
    peak = np.abs(comp.values[0]).max(axis=1)
    assert peak[0] > 0.5 * peak.max() and peak[-1] > 0.5 * peak.max()


def _channel_bytes(params):
    return params.n_pulses * next_fast_len(params.n_fast) * 16


@pytest.mark.parametrize("per_block", [1, 4, 6])
def test_rd_map_streams_channel_blocks(monkeypatch, per_block):
    for params in (SMALL, PADDED):
        # a budget of 1, 4 or 6 channels splits the 6 channels as 1x6, 4+2 or 6
        monkeypatch.setattr(rdproc, "BLOCK_BYTES", per_block * _channel_bytes(params))
        raw = simulate_dwell(params, [], noise_power=2.0, seed=5)
        for window, oversample in (("hann", 1), ("hamming", 2)):
            rd = rd_map(raw, window=window, oversample=oversample)
            ref = doppler_process(range_compress(raw), window=window, oversample=oversample)
            np.testing.assert_allclose(rd.values, ref.values, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(rd.velocity_axis, ref.velocity_axis)
        for values in (rd.values, range_compress(raw).values):
            assert values.flags.c_contiguous and values.base is None


def test_rd_map_peak_memory_is_one_cube(monkeypatch):
    # one channel per block: neither the compressed cube nor a padded
    # transform of it is ever whole
    params = RadarParams(r_min=1500.0, r_max=6000.0, n_pulses=64)
    monkeypatch.setattr(rdproc, "BLOCK_BYTES", _channel_bytes(params))
    raw = simulate_dwell(params, [], seed=1)
    rd_map(raw)
    tracemalloc.start()
    try:
        nbytes = rd_map(raw).values.nbytes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * nbytes


def test_rd_map_block_budget():
    # the full 9298-sample swath goes one channel at a time
    swath = RadarParams()
    assert swath.n_fast == 9298
    assert rdproc.BLOCK_BYTES < 2 * _channel_bytes(swath)
    # a short six-channel dwell goes in one block
    assert rdproc.BLOCK_BYTES >= 6 * _channel_bytes(SMALL)


def test_range_compress_rejects_wrong_length():
    raw = _noise_dwell()
    raw.values = raw.values[:, :-3, :]
    with pytest.raises(ValueError, match="n_fast"):
        range_compress(raw)


def test_doppler_window_names():
    comp = range_compress(_noise_dwell())
    with pytest.raises(ConfigError, match="blackman"):
        doppler_process(comp, window="blackman")
    with pytest.raises(ConfigError):
        doppler_process(comp, oversample=0)
    for name in ("rectangular", "Hann", "HAMMING"):
        np.testing.assert_array_equal(doppler_process(comp, window=name).values,
                                      doppler_process(comp, window=name.lower()).values)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(WINDOWS)), st.integers(1, 4), st.floats(1e-3, 1e3),
       st.integers(0, 2**32 - 1))
@example("rectangular", 1, 2.0, 3)
@example("hann", 1, 2.0, 3)
@example("hamming", 1, 2.0, 3)
def test_noise_floor_preserved_per_window(window, oversample, noise_power, seed):
    # unit-energy filter + unit-mean-square window keep the per-sample power;
    # zero padding spreads it over oversample times as many Doppler bins
    raw = _noise_dwell(seed=seed, noise_power=noise_power)
    rd = rd_map(raw, window=window, oversample=oversample)
    floor = np.mean(np.abs(rd.values) ** 2)
    assert floor == pytest.approx(noise_power / oversample, rel=0.02)


def test_oversample_scales_noise_floor():
    raw = _noise_dwell(seed=4)
    base = np.mean(np.abs(rd_map(raw, window="hann").values) ** 2)
    over = rd_map(raw, window="hann", oversample=2)
    assert over.values.shape[2] == 128
    assert np.mean(np.abs(over.values) ** 2) == pytest.approx(base / 2, rel=1e-9)


def test_bin_centred_target_reaches_calibrated_peak():
    tgt = PointTarget(range_m=SMALL.r_min + 60 * SMALL.range_bin_m,
                      radial_velocity=3.75, azimuth_deg=0.0, snr_db=17.0)
    raw = simulate_dwell(SMALL, [tgt], noise_power=1.0, seed=0, noise=False)
    rd = rd_map(raw, window="rectangular")
    peak = np.abs(rd.values[0]) ** 2
    r, d = np.unravel_index(np.argmax(peak), peak.shape)
    assert r == 60
    assert rd.velocity_axis[d] == pytest.approx(3.75)
    assert 10 * np.log10(peak[r, d]) == pytest.approx(17.0, abs=1e-9)


def test_velocity_axis_span():
    rd = rd_map(_noise_dwell(), window="hann")
    assert rd.velocity_axis[0] == pytest.approx(-15.0)
    assert np.max(rd.velocity_axis) == pytest.approx(15.0 - 30.0 / 64)
    np.testing.assert_allclose(np.diff(rd.velocity_axis), 30.0 / 64)


def test_doppler_transform_is_unitary():
    comp = range_compress(_noise_dwell(seed=6))
    n = SMALL.n_pulses
    # periodic Hamming rebuilt from its definition, unit mean square
    wref = 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(n) / n)
    wref = wref * np.sqrt(n / np.sum(wref**2))
    target = np.sum(np.abs(comp.values * wref) ** 2, axis=2)
    for oversample in (1, 2):
        rd = doppler_process(comp, window="hamming", oversample=oversample)
        np.testing.assert_allclose(np.sum(np.abs(rd.values) ** 2, axis=2),
                                   target, rtol=1e-9)


def test_doppler_process_matches_dft_oracle():
    rng = np.random.default_rng(0)
    n = 8
    x = rng.normal(size=(2, 3, n)) + 1j * rng.normal(size=(2, 3, n))
    small = RadarParams(r_min=1500.0, r_max=2100.0, n_pulses=n)
    comp = CompressedDwell(values=x, range_axis=small.range_axis()[:3], params=small)
    rd = doppler_process(comp, window="hann")
    wref = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n) / n)
    wref = wref * np.sqrt(n / np.sum(wref**2))
    for c in range(2):
        for r in range(3):
            ref = np.fft.fftshift(dft_oracle(x[c, r] * wref) / np.sqrt(n))
            np.testing.assert_allclose(rd.values[c, r], ref, atol=1e-12)


@st.composite
def dwell_targets(draw, params):
    """Up to three point targets inside the receive window, unaliased."""
    fractions = st.floats(0.0, 1.0)
    return [PointTarget(range_m=params.r_min + draw(fractions) * (params.r_max - params.r_min),
                        radial_velocity=(2 * draw(fractions) - 1) * params.unambiguous_velocity,
                        azimuth_deg=draw(st.floats(-20.0, 20.0)),
                        snr_db=draw(st.floats(0.0, 30.0)))
            for _ in range(draw(st.integers(1, 3)))]


@st.composite
def small_dwells(draw):
    params = RadarParams(r_min=1500.0, r_max=draw(st.sampled_from(R_MAX)),
                         n_pulses=draw(st.sampled_from((8, 9, 16, 25))))
    return params, draw(dwell_targets(params)), draw(dwell_targets(params))


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(small_dwells(), st.sampled_from(sorted(WINDOWS)), st.integers(1, 3),
       st.complex_numbers(max_magnitude=4.0))
def test_rd_map_is_linear_without_noise(dwell, window, oversample, alpha):
    params, first, second = dwell
    a = simulate_dwell(params, first, seed=1, noise=False)
    b = simulate_dwell(params, second, seed=2, noise=False)
    both = simulate_dwell(params, first + second, seed=3, noise=False)
    rd_a, rd_b = (rd_map(raw, window, oversample).values for raw in (a, b))
    scale = np.abs(rd_a).max() + np.abs(rd_b).max()
    mixed = rd_map(replace(a, values=alpha * a.values + b.values), window, oversample)
    np.testing.assert_allclose(mixed.values, alpha * rd_a + rd_b, rtol=0,
                               atol=1e-12 * (1 + abs(alpha)) * scale)
    np.testing.assert_allclose(rd_map(both, window, oversample).values, rd_a + rd_b,
                               rtol=0, atol=1e-12 * scale)


@PROPERTY
@given(st.sampled_from((2, 5, 8, 9, 16, 25)), st.integers(1, 4),
       st.sampled_from(sorted(WINDOWS)), st.integers(0, 2**32 - 1))
def test_doppler_stage_is_unitary_and_shifted(n, oversample, window, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 3, n)) + 1j * rng.normal(size=(2, 3, n))
    params = RadarParams(r_min=1500.0, r_max=2100.0, n_pulses=n)
    comp = CompressedDwell(values=x, range_axis=params.range_axis()[:3], params=params)
    rd = doppler_process(comp, window=window, oversample=oversample)
    xw = x * unit_window_oracle(window, n)
    np.testing.assert_allclose(np.sum(np.abs(rd.values) ** 2, axis=2),
                               np.sum(np.abs(xw) ** 2, axis=2), rtol=1e-12)
    # zero-padded, scaled and shifted as numpy's transform would be, odd lengths too
    nfft = n * oversample
    ref = np.fft.fftshift(np.fft.fft(xw, n=nfft, axis=2), axes=2) / np.sqrt(nfft)
    np.testing.assert_allclose(rd.values, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
