"""Range compression and Doppler processing.

Normalization is chosen so white noise keeps its per-sample power through
both stages: the matched filter has unit energy (peak amplitude gain
``sqrt(replica_length)`` on a full echo) and the slow-time transform is a
unitary DFT with the window rescaled to unit mean-square.  A bin-centred
return therefore integrates to a power gain of ``replica_length * n_pulses``
with the rectangular window, while the noise floor stays at the raw
per-channel noise power for every supported window.

Range compression correlates at ``_fast_len(n_fast)``, the smallest
2-3-5-7-11-smooth length at or above ``n_fast`` (9317 = 7 * 11**3 for the
full swath), not at ``n_fast`` itself, whose prime factors can be large
(9298 = 2 * 4649).  Zero padding only lengthens the circular buffer, so the
kept lags ``0..n_fast - replica_length`` stay free of wrap-around.

One kernel, ``_match_rows``, matched-filters a loaded padded spectrum in
place: ``range_compress`` runs it on all channels at once, ``rd_map`` on one
channel at a time, ``_rd_rows`` on the few range bins of a window, and the t1
and t4 runs on each dwell beamformed into one channel (both steps are linear,
so their order changes only the rounding).
``rd_map`` fuses the two stages: each channel is copied into one padded
``(oversample * n_pulses, nfft)`` spectrum, compressed, windowed and
Doppler-transformed in place, and divided, fftshifted, into its slot of the
cube, on up to ``MAX_WORKERS`` threads of ``_drain`` with the same bytes for
any count.  ``_rd_stream`` with ``reuse_raw``, as every t2-t3 dwell runs it,
writes each channel's slot of the map at the head of that raw channel's own
storage, so a dwell holds one cube, not two, and no slot touches another
channel's samples; ``--emit-raw`` simulates dwell 0 again.

t1 forms no six-channel map.  ``_beam_stream`` sums the conventional beam of
the raw cube, channel by channel as the noise draw finishes each, and
``_rd_stream`` makes the beam's one-channel map, on which t1 detects; the
MUSIC window then takes its six channels from ``_rd_rows``, which reads only
the fast-time samples of the window's range bins (Nickel, IEEE Radar Conf.
1995: a subarrayed array detects on the sum beam and estimates the direction
from the subarray outputs at the detected cell).

The slow-time transform is one helper, ``_slow_time_dft``; ISAR image
formation calls it on the profile history, the t4 window on dwell 0's rows.
"""

import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .scene import RadarParams, RawDatacube, transmit_pulse

#: window names accepted by doppler_process, each with its generalised
#: Hamming coefficient ``a`` in ``a + (1 - a) * cos``
WINDOWS = {
    "rectangular": 1.0,
    "hann": 0.5,
    "hamming": 0.54,
}

#: threads of the fused front end; each holds one padded channel spectrum
#: (19 MB on the full swath), so a dwell holds its cube and two spectra at most
MAX_WORKERS = 2

#: rows per block of ``_shift_scaled``'s copy
SHIFT_ROWS = 64


@dataclass
class CompressedDwell:
    """Range-compressed dwell, shape (n_channels, n_range_bins, n_pulses)."""

    values: np.ndarray
    range_axis: np.ndarray
    params: RadarParams


@dataclass
class RDDatacube:
    """Range-Doppler cube, shape (n_channels, n_range_bins, n_doppler_bins).

    ``velocity_axis`` is the closing speed of each Doppler bin in m/s,
    spanning +/- lambda * prf / 4 after fftshift.  The chain's map may be a
    channel-strided view of the raw cube's storage, each slot C-contiguous.
    """

    values: np.ndarray
    range_axis: np.ndarray
    velocity_axis: np.ndarray
    params: RadarParams


def _matched_filter(params: RadarParams, n_fast: int | None = None) -> np.ndarray:
    """The unit-energy conjugate replica spectrum at ``_fast_len(n_fast)`` (by default
    ``params.n_fast``); the lags ``0..n_fast - replica_length`` of the circular
    correlation are wrap-free."""
    replica = transmit_pulse(params)
    n = _fast_len(params.n_fast if n_fast is None else n_fast)
    return np.conj(np.fft.fft(replica, n=n)) / np.sqrt(replica.size)


def _fast_len(n: int) -> int:
    """The smallest 2-3-5-7-11-smooth integer at or above ``n``, the length
    ``scipy.fft.next_fast_len`` gives for a complex transform."""
    m = max(n, 1)
    while True:
        r = m
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def range_compress(raw: RawDatacube) -> CompressedDwell:
    """Matched-filter each pulse against the transmit replica.

    Only full-overlap correlation lags are kept, so output bin ``m``
    corresponds to range ``r_min + m * c / (2 fs)``.
    """
    (n_ch, n_fast, n_p), params = raw.values.shape, raw.params
    if n_fast != params.n_fast:
        raise ValueError(f"fast-time length {n_fast} does not match params.n_fast={params.n_fast}")
    match = _matched_filter(params)
    spec = np.empty((n_ch, n_p, match.size), dtype=complex)
    spec[..., :n_fast] = raw.values.transpose(0, 2, 1)
    _match_rows(spec, match, n_fast)
    values = np.ascontiguousarray(spec[..., :params.n_range_bins].transpose(0, 2, 1))
    return CompressedDwell(values=values, range_axis=params.range_axis(), params=params)


def _match_rows(spec: np.ndarray, match: np.ndarray, n_fast: int) -> None:
    """Matched-filter in place the rows of a padded ``(..., n_pulses, nfft)``
    spectrum whose first ``n_fast`` columns are loaded: zero the padding,
    transform, multiply by ``match`` and inverse-transform."""
    spec[..., n_fast:] = 0
    np.fft.fft(spec, out=spec)
    for row in np.ndindex(spec.shape[:-1]):
        spec[row] *= match  # a row at a time: no buffered-iteration block
    np.fft.ifft(spec, out=spec)


def _unit_window(window: str, n: int) -> np.ndarray:
    """The named periodic window of length ``n``, scaled to unit mean square so
    the post-transform noise floor equals the input power."""
    try:
        a = WINDOWS[window.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown window {window!r}; choose one of {sorted(WINDOWS)}"
        ) from None
    if n <= 1:
        w = np.ones(n)
    else:
        w = a + (1.0 - a) * np.cos(np.linspace(-np.pi, np.pi, n + 1)[:-1])
    w *= np.sqrt(n / np.sum(w**2))
    return w


def _shift_scaled(spec: np.ndarray, out: np.ndarray) -> None:
    """``out = fftshift(spec) / sqrt(n)`` over the last axis, of length ``n``, of a
    2-D ``spec``, ``SHIFT_ROWS`` rows at a time: the halves are copied swapped (a
    blocked transpose when ``spec`` is a transposed view), then the rows are divided
    in place, in their own order, so a C-contiguous ``out`` takes no ufunc buffer.
    ``out`` must not overlap ``spec``."""
    n = spec.shape[-1]
    h, scale = n // 2, np.sqrt(n)
    for r in range(0, len(spec), SHIFT_ROWS):
        rows, block = spec[r:r + SHIFT_ROWS], out[r:r + SHIFT_ROWS]
        block[:, :h] = rows[:, n - h:]
        block[:, h:] = rows[:, :n - h]
        np.divide(block, scale, out=block)


def _slow_time_dft(x: np.ndarray, window: str, prf: float, oversample: int = 1) -> tuple:
    """Windowed unitary DFT over the last axis of ``x``, zero padded to
    ``oversample`` times its length and fftshifted, taken in place.

    Returns the spectrum and its frequency axis in Hz.
    """
    n = x.shape[-1]
    w = _unit_window(window, n)
    nfft = n * oversample
    spec = np.zeros(x.shape[:-1] + (nfft,), dtype=complex)
    np.multiply(x, w, out=spec[..., :n])
    np.fft.fft(spec, out=spec)
    # Scale and fftshift in place, through copies of at most 1 MiB of rows.
    rows = spec.reshape(-1, nfft)
    step = max(1, 2**20 // (nfft * spec.itemsize))
    for r in range(0, len(rows), step):
        _shift_scaled(rows[r:r + step].copy(), rows[r:r + step])
    return spec, np.fft.fftshift(np.fft.fftfreq(nfft, d=1.0 / prf))


def doppler_process(compressed: CompressedDwell, window: str = "hann",
                    oversample: int = 1) -> RDDatacube:
    """Windowed unitary DFT across slow time, fftshifted in Doppler.

    Parameters
    ----------
    window : str
        One of ``rectangular``, ``hann``, ``hamming``.
    oversample : int
        Zero-padding factor for the Doppler transform (default 1).  The noise
        floor scales as 1/oversample because the transform stays unitary over
        the padded length.
    """
    if oversample < 1:
        raise ConfigError("oversample must be a positive integer")
    params = compressed.params
    if compressed.values.shape[2] != params.n_pulses:
        raise ValueError("slow-time length does not match params.n_pulses")
    spec, freqs = _slow_time_dft(compressed.values, window, params.prf, oversample)
    velocity = freqs * params.wavelength / 2.0
    return RDDatacube(values=spec, range_axis=compressed.range_axis,
                      velocity_axis=velocity, params=params)


def rd_map(raw: RawDatacube, window: str = "hann", oversample: int = 1) -> RDDatacube:
    """Range compression followed by Doppler processing, fused channel by
    channel (see the module docstring) into a fresh cube; ``raw`` is left as
    it was.
    """
    return _rd_stream(raw, window, oversample, reuse_raw=False)


def _workers(n_ch: int) -> int:
    """Threads of the fused front end, or of t4 dwells 1..n-1 with a buffer set each: one per
    usable core, ``MAX_WORKERS`` and one per item at most, and one for none."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cores or 1, MAX_WORKERS, max(n_ch, 1))


def _drain(fill, work, buffers: list, name: str) -> None:
    """The front end's one threading protocol.  ``fill(put)`` runs on the calling
    thread; each of ``buffers`` has a thread of its own, named ``name`` and a number,
    which runs ``work(item, buffer)`` on the items put, in turn.  The caller allocates
    the buffers, as a thread's malloc arena would keep a dwell-sized block it freed.
    Once a ``work`` raises, no thread starts another item.  When ``fill`` has
    returned and every thread has stopped, the error of ``fill`` is raised, if any,
    else that of a ``work``."""
    items, failed = queue.SimpleQueue(), threading.Event()

    def run(buffer) -> None:
        for item in iter(items.get, None):
            if not failed.is_set():
                try:
                    work(item, buffer)
                except BaseException:
                    failed.set()
                    raise

    with ThreadPoolExecutor(len(buffers), thread_name_prefix=name) as pool:
        futures = [pool.submit(run, buffer) for buffer in buffers]
        try:
            fill(items.put)
        finally:
            for _ in buffers:
                items.put(None)
        for future in futures:
            future.result()


def _rd_stream(raw: RawDatacube, window: str, oversample: int,
               reuse_raw: bool, fill=None, spectra=None) -> RDDatacube:
    """``rd_map``; with ``reuse_raw`` the map is written over the storage of
    ``raw.values``, which is then consumed, whenever a slot fits in a raw
    channel: the map is then a channel-strided view whose slot ``c`` heads raw
    channel ``c``.  The bytes are the same either way, and for any thread
    count.  ``fill(done)``, if given, completes ``raw.values``, calling
    ``done(c)`` once channel ``c`` is final, after which it writes that channel
    no more; without it every channel is final.  ``spectra``, made here if not
    given, are the padded ``(oversample * n_pulses, _fast_len(n_fast))`` spectra,
    one per thread."""
    x = raw.values
    n_ch, n_fast, n_p = x.shape
    # the stages on no channels make their checks and give the map's axes
    rd = doppler_process(range_compress(replace(raw, values=x[:0])),
                         window=window, oversample=oversample)
    n_r, n_dop = rd.values.shape[1:]
    if reuse_raw and x.dtype == rd.values.dtype and n_r * n_dop <= n_fast * n_p:
        rd.values = x.reshape(n_ch, n_fast * n_p)[:, :n_r * n_dop].reshape(n_ch, n_r, n_dop)
    else:
        rd.values = np.empty((n_ch, n_r, n_dop), dtype=rd.values.dtype)
    out, match, w = rd.values, _matched_filter(raw.params), _unit_window(window, n_p)
    bufs = spectra or [np.empty((n_dop, match.size), dtype=complex)
                       for _ in range(_workers(n_ch))]

    def transform(c: int, buf: np.ndarray) -> None:
        rows, kept = buf[:n_p], buf[:, :n_r]
        # a blocked transpose, about half the time of one strided copy
        for j in range(0, n_fast, 64):
            rows[:, j:min(j + 64, n_fast)] = x[c, j:j + 64].T
        kept[n_p:] = 0
        _match_rows(rows, match, n_fast)
        for p, wp in enumerate(w):
            rows[p, :n_r] *= wp  # a scalar per row: no buffered-iteration block
        np.fft.fft(kept, axis=0, out=kept)
        _shift_scaled(kept.T, out[c])

    def every_channel(put) -> None:
        for c in range(n_ch):
            put(c)

    _drain(fill or every_channel, transform, bufs, "rd_stream")
    return rd


def _beam_stream(x: np.ndarray, weights: np.ndarray, out: np.ndarray, fill) -> None:
    """``out = sum_c conj(weights[c]) * x[c]``, the beam of a ``(n_channels, n_fast,
    n_pulses)`` cube, on one thread while ``fill(done)`` completes ``x`` in channel
    order, as in ``_rd_stream``; each channel is added in fixed blocks of at most
    256 KiB of rows, through one scratch block."""
    n_ch, n_fast, n_p = x.shape
    w, step = np.conj(weights), max(1, 2**18 // (16 * n_p))

    def add(c: int, scratch: np.ndarray) -> None:
        for j in range(0, n_fast, step):
            rows = out[j:j + step]
            if c == 0:
                np.multiply(x[c, j:j + step], w[c], out=rows)
            else:
                term = np.multiply(x[c, j:j + step], w[c], out=scratch[:len(rows)])
                rows += term

    _drain(fill, add, [np.empty((min(step, n_fast), n_p), dtype=complex)], "beam_stream")


def _rd_rows(raw: RawDatacube, rows: slice, window: str, oversample: int) -> np.ndarray:
    """The ``(n_channels, len(rows), oversample * n_pulses)`` range-Doppler cells of
    the range bins ``rows`` of every channel of ``raw``, from the fast-time samples
    that those bins' lags read alone: ``_match_rows`` at that support's own
    ``_fast_len``, then ``_slow_time_dft``.  They are ``rd_map(raw)``'s rows up to
    the rounding of the shorter range transform."""
    params, (r0, r1, _) = raw.params, rows.indices(raw.params.n_range_bins)
    n_fast = r1 - r0 + params.replica_length - 1
    match = _matched_filter(params, n_fast)
    spec = np.empty((raw.values.shape[0], params.n_pulses, match.size), dtype=complex)
    spec[..., :n_fast] = raw.values[:, r0:r0 + n_fast].transpose(0, 2, 1)
    _match_rows(spec, match, n_fast)
    values, _freqs = _slow_time_dft(spec[..., :r1 - r0].transpose(0, 2, 1), window,
                                    params.prf, oversample)
    return values
