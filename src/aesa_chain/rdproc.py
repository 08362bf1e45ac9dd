"""Range compression and Doppler processing.

Normalization is chosen so white noise keeps its per-sample power through
both stages: the matched filter has unit energy (peak amplitude gain
``sqrt(replica_length)`` on a full echo) and the slow-time transform is a
unitary DFT with the window rescaled to unit mean-square.  A bin-centred
return therefore integrates to a power gain of ``replica_length * n_pulses``
with the rectangular window, while the noise floor stays at the raw
per-channel noise power for every supported window.

Range compression correlates at ``scipy.fft.next_fast_len(n_fast)``, not at
``n_fast`` itself, whose prime factors can be large (the full swath has
9298 = 2 * 4649).  Zero padding only lengthens the circular buffer, so the
kept lags ``0..n_fast - replica_length`` stay free of wrap-around.  ``rd_map``
streams the dwell through both stages in blocks of channels whose padded
fast-time spectrum fits in ``BLOCK_BYTES`` (one channel at a time for the
full swath, the whole cube for short dwells), into one range-Doppler cube,
so the whole compressed cube never exists.  ``rd_map`` writes a several-block
map into a fresh cube.  ``_rd_stream`` with ``reuse_raw`` writes it over the
raw cube's own storage instead, so a dwell whose raw cube is not kept holds
one cube, not two: each channel's range-Doppler slot (``oversample * n_r *
n_pulses`` samples) is no larger than its raw channel (``n_fast * n_pulses``)
whenever ``oversample * n_r <= n_fast``, blocks run in increasing channel
order, and ``range_compress`` copies a block's input before any of that
block's output is written, so no slot overlaps raw data still to be read.

The slow-time transform is one helper, ``_slow_time_dft``; ISAR image
formation calls it on the profile history.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft as sfft
from scipy.signal import get_window

from .errors import ConfigError
from .scene import RadarParams, RawDatacube, transmit_pulse

#: canonical window names accepted by doppler_process
WINDOWS = {
    "rectangular": "boxcar",
    "hann": "hann",
    "hamming": "hamming",
}

#: bytes of padded fast-time spectrum that rd_map transforms in one block.
#: Streaming bounds memory only where a cube is large: a 9298-sample,
#: 128-pulse swath channel (19 MB) goes alone, while a whole 6-channel dwell
#: of 750 samples (9 MB) keeps one batched call per stage
BLOCK_BYTES = 16 * 2**20


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
    spanning +/- lambda * prf / 4 after fftshift.
    """

    values: np.ndarray
    range_axis: np.ndarray
    velocity_axis: np.ndarray
    params: RadarParams


def range_compress(raw: RawDatacube) -> CompressedDwell:
    """Matched-filter each pulse against the transmit replica.

    Only full-overlap correlation lags are kept, so output bin ``m``
    corresponds to range ``r_min + m * c / (2 fs)``.
    """
    params = raw.params
    x = raw.values
    n_ch, n_fast, n_p = x.shape
    if n_fast != params.n_fast:
        raise ValueError(
            f"fast-time length {n_fast} does not match params.n_fast={params.n_fast}"
        )
    replica = transmit_pulse(params)
    m = replica.size
    n_r = n_fast - m + 1
    # circular correlation; lags 0..n_fast-m are wrap-free at any nfft >= n_fast
    nfft = sfft.next_fast_len(n_fast)
    match = np.conj(np.fft.fft(replica, n=nfft)) / np.sqrt(m)
    # the padded spectrum is (n_ch, n_p, nfft), fast time on the contiguous axis
    spec = np.zeros((n_ch, n_p, nfft), dtype=complex)
    spec[..., :n_fast] = x.transpose(0, 2, 1)
    np.fft.fft(spec, out=spec)
    spec *= match
    np.fft.ifft(spec, out=spec)
    out = np.empty((n_ch, n_r, n_p), dtype=complex)
    out[...] = spec[..., :n_r].transpose(0, 2, 1)
    return CompressedDwell(values=out, range_axis=params.range_axis(), params=params)


def _slow_time_dft(x: np.ndarray, window: str, prf: float, oversample: int = 1) -> tuple:
    """Windowed unitary DFT over the last axis of ``x``, zero padded to
    ``oversample`` times its length and fftshifted, taken in place.

    Returns the spectrum and its frequency axis in Hz.
    """
    try:
        name = WINDOWS[window.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown window {window!r}; choose one of {sorted(WINDOWS)}"
        ) from None
    n = x.shape[-1]
    w = get_window(name, n, fftbins=True).astype(float)
    # Unit mean-square so the post-transform noise floor equals the input power.
    w *= np.sqrt(n / np.sum(w**2))
    nfft = n * oversample
    spec = np.zeros(x.shape[:-1] + (nfft,), dtype=complex)
    np.multiply(x, w, out=spec[..., :n])
    np.fft.fft(spec, out=spec)
    # Scale and fftshift in place; only the half that moves right is copied.
    scale = np.sqrt(nfft)
    h = nfft // 2
    head = spec[..., : nfft - h] / scale
    np.divide(spec[..., nfft - h:], scale, out=spec[..., :h])
    spec[..., h:] = head
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
    """Range compression followed by Doppler processing, a block of channels at a time.

    A block holds as many channels as fit their padded fast-time spectrum in
    ``BLOCK_BYTES``, and one channel at least.  Each block's compressed dwell
    lives only until its Doppler transform is copied into the output cube,
    which is a fresh array; ``raw`` is left as it was.
    """
    return _rd_stream(raw, window, oversample, reuse_raw=False)


def _rd_stream(raw: RawDatacube, window: str, oversample: int,
               reuse_raw: bool) -> RDDatacube:
    """``rd_map``; with ``reuse_raw`` a several-block map is written over the
    storage of ``raw.values``, which is then consumed, whenever the map fits in
    it (see the module docstring).  The bytes of the map are the same either way.
    """
    n_ch, _, n_p = raw.values.shape
    channel_bytes = n_p * sfft.next_fast_len(raw.params.n_fast) * np.dtype(complex).itemsize
    step = max(1, BLOCK_BYTES // channel_bytes)

    def block(c: int) -> RDDatacube:
        part = replace(raw, values=raw.values[c:c + step])
        return doppler_process(range_compress(part), window=window, oversample=oversample)

    rd = block(0)
    if step >= n_ch:
        return rd
    shape = (n_ch,) + rd.values.shape[1:]
    size = math.prod(shape)
    store = raw.values
    if reuse_raw and store.dtype == rd.values.dtype and size <= store.size:
        values = store.reshape(-1)[:size].reshape(shape)
    else:
        values = np.empty(shape, dtype=rd.values.dtype)
    values[:step] = rd.values
    rd.values = values
    for c in range(step, n_ch, step):
        values[c:c + step] = block(c).values
    return rd
