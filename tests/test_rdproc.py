import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.signal import get_window

from aesa_chain import (ConfigError, PointTarget, RadarParams, apply_beamformer,
                        conventional_weights, doppler_process, load_config, range_compress,
                        rd_map, simulate_dwell, transmit_pulse)
from aesa_chain import experiments, rdproc, scene
from aesa_chain.rdproc import WINDOWS, CompressedDwell

from helpers import compress_oracle, dft_oracle, traced_peak, unit_window_oracle

SMALL = RadarParams(r_min=1500.0, r_max=2100.0, n_pulses=64)
#: n_fast = 333, which the range transform pads to 336
PADDED = RadarParams(r_min=1500.0, r_max=2000.0, n_pulses=16)
#: an odd pulse count, so an odd Doppler length at oversample 1
ODD = RadarParams(r_min=1500.0, r_max=1900.0, n_pulses=25)
#: receive windows whose n_fast is 250, 292 (pads to 294), 333 (336), 354 (360), 375
R_MAX = (1800.0, 1900.0, 2000.0, 2050.0, 2100.0)
#: the scipy name of each window in rdproc.WINDOWS
SCIPY_WINDOWS = {"rectangular": "boxcar", "hann": "hann", "hamming": "hamming"}
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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


def test_range_compress_per_channel_into_used_buffers(monkeypatch):
    # the matched-filter kernel runs in place on spectra that held earlier
    # data (here NaN): it zeroes the padding, so stale samples never leak in,
    # whether it takes all channels at once or one channel at a time
    for params in (SMALL, PADDED):
        raw = simulate_dwell(params, [], noise_power=2.0, seed=5)
        want = range_compress(raw)
        match, n_r = rdproc._matched_filter(params), params.n_range_bins
        n_ch, n_fast, n_p = raw.values.shape
        spec = np.full((n_ch, n_p, next_fast_len(n_fast)), np.nan, dtype=complex)
        spec[..., :n_fast] = raw.values.transpose(0, 2, 1)
        rdproc._match_rows(spec, match, n_fast)
        assert spec[..., :n_r].transpose(0, 2, 1).tobytes() == want.values.tobytes()
        rows = np.full((n_p, next_fast_len(n_fast)), np.nan, dtype=complex)
        for c in range(n_ch):
            rows[:, :n_fast] = raw.values[c].T
            rdproc._match_rows(rows, match, n_fast)
            assert rows[:, :n_r].T.tobytes() == want.values[c].tobytes()
    # the t4 run reuses its raw cubes and spectra from dwell to dwell: filled
    # with NaN before each dwell that a thread runs in them, they leave the
    # report as it was
    cfg = load_config(CONFIG_DIR / "t4.yaml")
    cfg = replace(cfg, isar=replace(cfg.isar, n_dwells=6))
    want = experiments.run_experiment(cfg)
    drain = experiments._drain

    def stale_drain(fill, work, buffers, name):
        def stale_work(item, buffer_set):
            for buffer in buffer_set:
                buffer.fill(np.nan)
            work(item, buffer_set)
        drain(fill, stale_work, buffers, name)

    monkeypatch.setattr(experiments, "_drain", stale_drain)
    got = experiments.run_experiment(cfg)
    assert got.metrics == want.metrics
    assert got.grids["isar_image.aesg"].values.tobytes() == \
        want.grids["isar_image.aesg"].values.tobytes()


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


@pytest.mark.parametrize("n_channels", [1, 4, 6])
def test_rd_map_streams_channel_blocks(n_channels):
    for params in (SMALL, PADDED):
        # a dwell of 1, 4 or 6 channels streams each channel through the fused kernel
        raw = simulate_dwell(params, [], noise_power=2.0, seed=5)
        raw = replace(raw, values=raw.values[:n_channels])
        for window, oversample in (("hann", 1), ("hamming", 2)):
            rd = rd_map(raw, window=window, oversample=oversample)
            ref = doppler_process(range_compress(raw), window=window, oversample=oversample)
            assert rd.values.tobytes() == ref.values.tobytes()
            np.testing.assert_array_equal(rd.velocity_axis, ref.velocity_axis)
        # a dwell of no channels gives an empty map, as the stages do
        empty = replace(raw, values=raw.values[:0])
        assert rd_map(empty).values.shape == doppler_process(range_compress(empty)).values.shape
        for values in (rd.values, range_compress(raw).values):
            assert values.flags.c_contiguous and values.base is None


def test_rd_map_peak_memory_is_one_cube():
    # neither the compressed cube nor a padded transform of it is ever whole
    params = RadarParams(r_min=1500.0, r_max=6000.0, n_pulses=64)
    raw = simulate_dwell(params, [], seed=1)
    rd_map(raw)
    tracemalloc.start()
    try:
        nbytes = rd_map(raw).values.nbytes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * nbytes


@pytest.mark.parametrize("workers", [1, 2])
def test_front_end_peak_over_its_spectra_is_fixed_costs(monkeypatch, workers):
    # past the map and each worker's padded spectrum, no worker holds a buffer:
    # its replica multiply, its window multiply and its divide into the map go a
    # row at a time (a broadcast replica multiply staged a buffered-iteration
    # block of 119 KiB per worker on t2); 64 KiB covers the replica, the window
    # and the stages' checks
    monkeypatch.setattr(rdproc, "_workers", lambda n_ch: min(workers, n_ch))
    cfg = load_config(CONFIG_DIR / "t2.yaml")
    raw = simulate_dwell(cfg.radar, cfg.targets, cfg.jammer, cfg.noise_power, cfg.seed,
                         cfg.clutter)
    rd_map(raw)
    rd, peak = traced_peak(rd_map, raw)
    spectrum_nbytes = cfg.radar.n_pulses * next_fast_len(cfg.radar.n_fast) * 16
    assert peak - rd.values.nbytes - workers * spectrum_nbytes <= 2**16


class _SlowFirstChannel(np.ndarray):
    """A cube whose channel 0 takes 50 ms per read, so that the other workers
    write their slots while raw channel 0 is still being copied."""

    def __getitem__(self, key):
        first = key[0] if isinstance(key, tuple) else key
        if self.ndim == 3 and isinstance(first, int) and first == 0:
            time.sleep(0.05)
        return super().__getitem__(key)


@pytest.mark.parametrize("workers", [1, 2, 6])
def test_fused_front_end_matches_stages_for_any_worker_count(monkeypatch, fast_switching,
                                                            workers):
    monkeypatch.setattr(rdproc, "_workers", lambda n_ch: min(workers, n_ch))
    for params in (SMALL, PADDED, ODD):
        target = PointTarget(range_m=params.r_min + 40.0, radial_velocity=2.0,
                             azimuth_deg=4.0, snr_db=20.0)
        raw = simulate_dwell(params, [target], noise_power=2.0, seed=3)
        for window, oversample in (("hann", 1), ("hamming", 2), ("rectangular", 2)):
            want = doppler_process(range_compress(raw), window=window, oversample=oversample)
            for reuse_raw in (True, False):
                cube = raw.values.copy()
                rd = rdproc._rd_stream(replace(raw, values=cube), window, oversample, reuse_raw)
                assert rd.values.tobytes() == want.values.tobytes()
                np.testing.assert_array_equal(rd.velocity_axis, want.velocity_axis)
                np.testing.assert_array_equal(rd.range_axis, want.range_axis)
                assert np.shares_memory(rd.values, cube) == (reuse_raw and oversample == 1)
                if not reuse_raw:
                    assert cube.tobytes() == raw.values.tobytes()
            if workers > 1 and oversample == 1:
                # the other slots are written while raw channel 0 is still read
                cube = raw.values.copy().view(_SlowFirstChannel)
                rd = rdproc._rd_stream(replace(raw, values=cube), window, oversample, True)
                assert np.shares_memory(rd.values, cube)
                assert rd.values.tobytes() == want.values.tobytes()


def test_slots_are_written_while_raw_channel_0_is_copied(monkeypatch, fast_switching):
    # each slot heads its own raw channel, so no worker waits for another's
    # copy: slot 1 is written over raw channel 1 before channel 0 is wholly read
    monkeypatch.setattr(rdproc, "_workers", lambda n_ch: min(2, n_ch))
    reads, writes = [], {}

    class TimedReads(_SlowFirstChannel):
        def __getitem__(self, key):
            item = super().__getitem__(key)
            if self.ndim == 3 and isinstance(key, tuple) and key[0] == 0:
                reads.append(time.monotonic())
            return item

    shift = rdproc._shift_scaled

    def timed_shift(spec, out):
        shift(spec, out)
        writes[out.__array_interface__["data"][0]] = time.monotonic()

    monkeypatch.setattr(rdproc, "_shift_scaled", timed_shift)
    raw = _noise_dwell()
    want = rd_map(raw)
    cube = raw.values.copy().view(TimedReads)
    rd = rdproc._rd_stream(replace(raw, values=cube), "hann", 1, reuse_raw=True)
    assert np.asarray(rd.values).tobytes() == want.values.tobytes()
    slot_1 = np.asarray(rd.values)[1]
    assert np.shares_memory(slot_1, np.asarray(cube)[1])
    assert writes[slot_1.__array_interface__["data"][0]] < max(reads)


class _TransformFailed(Exception):
    pass


@pytest.mark.parametrize("workers, failing_call", [(2, 1), (2, 6), (6, 1), (6, 4)])
def test_fused_front_end_failure_reaches_caller(monkeypatch, fast_switching, workers,
                                                failing_call):
    # the failing_call-th channel inverse transform raises (the empty call of
    # the stages that give the map's axes is not counted); no thread waits on
    # another, so the error reaches the caller once the others run out of channels
    monkeypatch.setattr(rdproc, "_workers", lambda n_ch: min(workers, n_ch))
    raw = _noise_dwell()
    inverse, lock, calls = np.fft.ifft, threading.Lock(), []

    def failing_ifft(a, *args, **kwargs):
        with lock:
            if a.size:
                calls.append(a.size)
            fail = a.size and len(calls) == failing_call
        if fail:
            time.sleep(0.2)
            raise _TransformFailed
        return inverse(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", failing_ifft)
    raised = []

    def call():
        try:
            rdproc._rd_stream(raw, "hann", 1, reuse_raw=True)
        except _TransformFailed as exc:
            raised.append(exc)

    caller = threading.Thread(target=call)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert len(raised) == 1
    assert not [t for t in threading.enumerate() if t.name.startswith("rd_stream")]


class _NoiseFailed(Exception):
    pass


@pytest.mark.parametrize("workers", [1, 2, 6])
def test_fused_front_end_noise_failure_reaches_caller(monkeypatch, fast_switching, workers):
    # the noise draw, the stream's fill on the calling thread, raises once
    # channel 2 is final: the workers finish channels 0-2, take their None and
    # return, and the error reaches the caller once they have
    monkeypatch.setattr(rdproc, "_workers", lambda n_ch: min(workers, n_ch))
    raw, rng = scene._echo_dwell(SMALL, [], None, 2.0, 0, None)
    copied = []

    def fill(done):
        def failing_done(c):
            done(c)
            if c == 2:
                time.sleep(0.2)
                raise _NoiseFailed
        scene._add_noise(rng, raw.values, 2.0, failing_done)

    inverse = np.fft.ifft

    def counting_ifft(a, *args, **kwargs):
        if a.size:
            copied.append(a.size)
        return inverse(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counting_ifft)
    raised = []

    def call():
        try:
            rdproc._rd_stream(raw, "hann", 1, reuse_raw=True, fill=fill)
        except _NoiseFailed as exc:
            raised.append(exc)

    caller = threading.Thread(target=call)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert len(raised) == 1
    assert not [t for t in threading.enumerate() if t.name.startswith("rd_stream")]
    # no channel past the last final one was transformed
    assert len(copied) <= 3


@pytest.mark.parametrize("failing_channel", [None, 2])
def test_beam_stream_sums_each_channel_once_final(fast_switching, failing_channel):
    # the worker adds each channel as the noise draw reports it final, in order,
    # with the bytes of a left-to-right sum; a draw that raises reaches the caller
    # once the channels already final are added, and no thread is left
    raw, rng = scene._echo_dwell(SMALL, [], None, 2.0, 0, None)
    w = conventional_weights(4.0).values
    out = np.full(raw.values.shape[1:], np.nan, dtype=complex)

    def fill(done):
        def reporting_done(c):
            done(c)
            if c == failing_channel:
                time.sleep(0.2)
                raise _NoiseFailed
        scene._add_noise(rng, raw.values, 2.0, reporting_done)

    raised = []

    def call():
        try:
            rdproc._beam_stream(raw.values, w, out, fill)
        except _NoiseFailed as exc:
            raised.append(exc)

    caller = threading.Thread(target=call)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert not [t for t in threading.enumerate() if t.name.startswith("beam_stream")]
    last = 5 if failing_channel is None else failing_channel
    assert len(raised) == (failing_channel is not None)
    want = raw.values[0] * np.conj(w[0])
    for c in range(1, last + 1):
        want = want + raw.values[c] * np.conj(w[c])
    assert out.tobytes() == want.tobytes()


class _WorkFailed(Exception):
    pass


def _put_range(n):
    """A ``fill`` that puts the items ``0..n-1``."""
    def fill(put):
        for i in range(n):
            put(i)
    return fill


def _drain_threads():
    return [t for t in threading.enumerate() if t.name.startswith("drain_test")]


@pytest.mark.parametrize("n_buffers", [1, 2, 3])
def test_drain_runs_each_item_once_in_a_buffer_of_its_own_thread(fast_switching, n_buffers):
    # every item put runs once; each buffer is seen by one thread alone, and each
    # thread sees one buffer alone; no thread is left once the call returns
    lock, seen = threading.Lock(), []

    def work(item, buffer):
        with lock:
            seen.append((item, id(buffer), threading.current_thread().name))

    buffers = [np.empty(4) for _ in range(n_buffers)]
    rdproc._drain(_put_range(40), work, buffers, "drain_test")
    assert sorted(item for item, _, _ in seen) == list(range(40))
    pairs = {(buffer, name) for _, buffer, name in seen}
    assert len(pairs) == len({b for b, _ in pairs}) == len({n for _, n in pairs}) <= n_buffers
    assert all(name.startswith("drain_test") for _, name in pairs)
    assert not _drain_threads()


@pytest.mark.parametrize("n_buffers", [1, 2, 3])
def test_drain_starts_no_item_once_a_work_raises(fast_switching, n_buffers):
    # item 1 raises at once while every other item takes 50 ms: the items
    # already running finish, no thread starts another of the 20, and the error
    # reaches the caller once every thread has stopped
    lock, started = threading.Lock(), []

    def work(item, buffer):
        with lock:
            started.append(item)
        if item == 1:
            raise _WorkFailed
        time.sleep(0.05)

    with pytest.raises(_WorkFailed):
        rdproc._drain(_put_range(20), work, [None] * n_buffers, "drain_test")
    assert 1 in started and len(started) <= n_buffers + 1
    assert not _drain_threads()


def test_drain_raises_the_fill_error_over_a_work_error(fast_switching):
    # the work on item 0 raises while fill still runs; fill then raises too, and
    # its error is the one that reaches the caller, once no thread is left
    class FillFailed(Exception):
        pass

    worked = []

    def fill(put):
        put(0)
        while not worked:
            time.sleep(0.01)
        time.sleep(0.05)
        put(1)
        raise FillFailed

    def work(item, buffer):
        worked.append(item)
        raise _WorkFailed

    with pytest.raises(FillFailed):
        rdproc._drain(fill, work, [None, None], "drain_test")
    assert worked == [0]
    assert not _drain_threads()


def test_fused_front_end_failure_stops_the_other_worker(monkeypatch, fast_switching):
    # with 2 workers, the first channel inverse transform raises while the other
    # worker's takes 50 ms: that worker finishes its channel and starts none of
    # the channels still queued
    monkeypatch.setattr(rdproc, "_workers", lambda n_ch: min(2, n_ch))
    raw = _noise_dwell()
    inverse, lock, calls = np.fft.ifft, threading.Lock(), []

    def failing_ifft(a, *args, **kwargs):
        if not a.size:  # the stages on no channels
            return inverse(a, *args, **kwargs)
        with lock:
            calls.append(a.size)
            first = len(calls) == 1
        if first:
            raise _TransformFailed
        time.sleep(0.05)
        return inverse(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", failing_ifft)
    with pytest.raises(_TransformFailed):
        rdproc._rd_stream(raw, "hann", 1, reuse_raw=True)
    assert len(calls) <= 3 < raw.values.shape[0]
    assert not [t for t in threading.enumerate() if t.name.startswith("rd_stream")]


def test_fused_front_end_keeps_stage_checks():
    with pytest.raises(ConfigError, match="blackman"):
        rd_map(_noise_dwell(), window="blackman")
    with pytest.raises(ConfigError, match="oversample"):
        rd_map(_noise_dwell(), oversample=0)
    raw = _noise_dwell()
    raw.values = raw.values[:, :-3, :]
    with pytest.raises(ValueError, match="n_fast"):
        rd_map(raw)


@pytest.mark.parametrize("n_pulses, oversample", [(128, 1), (25, 2)])
def test_doppler_process_peak_memory(n_pulses, oversample):
    # the input exists before tracing starts, so the traced peak is what the
    # call adds beyond input + output: at most 1.5 MiB of shift copies
    rng = np.random.default_rng(7)
    x = rng.normal(size=(6, 1000, n_pulses)) + 1j * rng.normal(size=(6, 1000, n_pulses))
    params = RadarParams(r_min=1500.0, r_max=2100.0, n_pulses=n_pulses)
    comp = CompressedDwell(values=x, range_axis=np.arange(1000.0), params=params)
    rd, peak = traced_peak(doppler_process, comp, "hann", oversample)
    assert peak <= rd.values.nbytes + 1.5 * 2**20
    # the same bytes as a padded transform scaled after an out-of-place shift
    nfft = n_pulses * oversample
    spec = np.fft.fft(x * rdproc._unit_window("hann", n_pulses), n=nfft)
    assert rd.values.tobytes() == (np.fft.fftshift(spec, axes=-1) / np.sqrt(nfft)).tobytes()


def test_fast_len_matches_scipy():
    bundled = [load_config(CONFIG_DIR / f"t{i}.yaml").radar.n_fast for i in range(1, 5)]
    for n in [*range(1, 20001), *bundled]:
        assert rdproc._fast_len(n) == next_fast_len(n), n


@pytest.mark.parametrize("window", sorted(WINDOWS))
def test_unit_window_matches_scipy(window):
    for n in range(1, 4097):
        w = get_window(SCIPY_WINDOWS[window], n, fftbins=True).astype(float)
        w *= np.sqrt(n / np.sum(w**2))
        assert rdproc._unit_window(window, n).tobytes() == w.tobytes(), n


@pytest.mark.parametrize("n", [24, 25])
@pytest.mark.parametrize("transposed", [False, True])
def test_shift_scaled_matches_fftshift(n, transposed):
    # the fused kernel divides the transposed view of its padded spectrum
    rng = np.random.default_rng(n)
    buf = rng.standard_normal((n, 9)) + 1j * rng.standard_normal((n, 9))
    spec = buf[:, :7].T if transposed else np.ascontiguousarray(buf[:, :7].T)
    out = np.empty((2, 7, n), dtype=complex)
    rdproc._shift_scaled(spec, out[1])
    expected = np.fft.fftshift(spec, axes=-1) / np.sqrt(n)
    assert out[1].tobytes() == expected.tobytes()


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
@given(small_dwells(), st.floats(-45.0, 45.0), st.integers(0, 2**32 - 1))
def test_range_compress_commutes_with_the_beamformer(dwell, steer, seed):
    # both stages are linear, so compressing the beamformed channel, as each
    # t4 dwell does, gives the beamformed compressed dwell but for rounding
    params, targets, _ = dwell
    raw = simulate_dwell(params, targets, noise_power=2.0, seed=seed)
    weights = conventional_weights(steer)
    want = apply_beamformer(range_compress(raw), weights)
    got = range_compress(replace(raw, values=apply_beamformer(raw, weights)[None])).values[0]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


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
