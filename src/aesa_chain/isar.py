"""Inverse-synthetic imaging: profile history, alignment, autofocus, imaging.

The imaging chain stacks beamformed range profiles of the tracked window
over a multi-dwell coherent interval, removes translational range walk by
envelope correlation against a running reference (Chen and Andrews, 1980),
removes residual phase error by maximizing image contrast over a phase
polynomial (seeded by the polynomial-phase transform of Peleg and Porat, 1991,
then refined by BFGS on the analytic contrast gradient; Martorella et al.,
2005), and forms the image with the Doppler stage's windowed unitary
slow-time DFT.  Cross-range scaling requires the rotation rate: one Doppler
bin spans ``lambda * delta_f / (2 * omega)`` metres.  Alignment keeps its
reference as a spectrum and correlates the profiles in speculative blocks,
one inverse FFT per block, with the shifts and bytes of one profile at a
time.  ``extract_target_history`` takes the compressed dwells one at a time,
so a lazy stream of them is never whole; the t4 runner has each dwell write
its own rows of the history instead.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .beamform import apply_beamformer
from .detect import _parabolic_offset
from .rdproc import _slow_time_dft

#: slow-time samples below which imaging quality degrades noticeably
MIN_IMAGING_SAMPLES = 64

#: autofocus refinement cap: the optimiser stops after this many contrast evaluations
AUTOFOCUS_MAX_EVALUATIONS = 30

#: autofocus variable scaling: phase at the interval's edge per optimiser unit of c_n
AUTOFOCUS_EDGE_PHASE_RAD = 32.0 * np.pi

#: profiles per correlation block of the alignment: the first size and the cap
ALIGN_BLOCK_ROWS = (4, 256)


@dataclass
class RangeProfileHistory:
    """Stacked complex range profiles, shape (n_slow, n_range_bins)."""

    values: np.ndarray
    prf: float
    range_axis: np.ndarray
    wavelength: float

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError("profile history must be 2-D (slow time, range)")
        if self.prf <= 0.0 or self.wavelength <= 0.0:
            raise ValueError("prf and wavelength must be positive")

    @property
    def n_slow(self) -> int:
        return self.values.shape[0]

    def slow_time(self) -> np.ndarray:
        """Slow-time axis in seconds, centred on the coherent interval."""
        n = self.n_slow
        return (np.arange(n) - (n - 1) / 2.0) / self.prf


def extract_target_history(compressed_dwells, weights, range_span) -> RangeProfileHistory:
    """Beamform a dwell sequence and stack the profiles of a range window.

    Parameters
    ----------
    compressed_dwells : iterable of CompressedDwell
        Contiguous range-compressed dwells of one coherent interval, in
        slow-time order; none is kept once its window's rows are taken.
    weights : BeamformerWeights or ndarray
        Channel weights applied to every dwell.
    range_span : (int, int)
        Half-open bin interval of the tracked window; must lie fully inside
        the compressed maps.

    Returns
    -------
    RangeProfileHistory with ``n_dwells * n_pulses`` slow-time rows.
    """
    lo, hi = int(range_span[0]), int(range_span[1])
    rows = []
    for dw in compressed_dwells:
        if not rows:  # the first dwell sets the extent and the axes
            params, n_bins = dw.params, dw.values.shape[1]
            if not 0 <= lo < hi <= n_bins:
                raise ValueError(
                    f"range span [{lo}, {hi}) not inside the compressed map of {n_bins} bins"
                )
            range_axis = dw.range_axis[lo:hi].copy()
        elif dw.values.shape[1] != n_bins:
            raise ValueError("dwells have inconsistent range extents")
        rows.append(apply_beamformer(dw.values[:, lo:hi], weights).T)
    if not rows:
        raise ValueError("need at least one dwell")
    history = np.concatenate(rows, axis=0)
    if history.shape[0] < MIN_IMAGING_SAMPLES:
        warnings.warn(
            f"only {history.shape[0]} slow-time samples; imaging needs "
            f">= {MIN_IMAGING_SAMPLES} for useful Doppler resolution",
            stacklevel=2,
        )
    return RangeProfileHistory(
        values=history,
        prf=params.prf,
        range_axis=range_axis,
        wavelength=params.wavelength,
    )


def _fractional_peak(corr: np.ndarray) -> float:
    """Fractional argmax of a circular correlation, ties toward zero lag."""
    values = corr.tolist()
    n = len(values)
    best = max(values)
    pick = values.index(best)
    if values.count(best) > 1:
        ties = [i for i, v in enumerate(values) if v == best]
        pick = min(ties, key=lambda i: n - i if i > n // 2 else i)
        warnings.warn("range alignment correlation tie; choosing the smaller shift",
                      stacklevel=3)
    frac = _parabolic_offset(values[pick - 1], best, values[(pick + 1) % n])
    lag = pick if pick <= n // 2 else pick - n
    return lag + frac


def _row_peaks(corr: np.ndarray):
    """``_fractional_peak`` of each row of ``corr``, and the rows it must take itself.

    The arithmetic is ``_fractional_peak``'s: the first maximum, its left
    neighbour wrapping to the last element, and ``_parabolic_offset`` in its
    order with its zero-denominator case and its clip.  Rows with a tie or a
    non-finite value (whose sum is not finite) are flagged; their peaks are
    not used.
    """
    n = corr.shape[1]
    rows, pick = np.arange(len(corr)), corr.argmax(axis=1)
    best, left, right = corr[rows, pick], corr[rows, pick - 1], corr[rows, (pick + 1) % n]
    other = ((corr == best[:, None]).sum(axis=1) > 1) | ~np.isfinite(corr.sum(axis=1))
    with np.errstate(all="ignore"):  # as Python's float arithmetic, which never warns
        denom = left - 2.0 * best + right
        frac = np.divide(0.5 * (left - right), denom, out=np.zeros(len(corr)),
                         where=denom != 0.0)
    np.minimum(np.maximum(frac, -0.5, out=frac), 0.5, out=frac)
    return np.where(pick <= n // 2, pick, pick - n) + frac, other


def range_align(history: RangeProfileHistory):
    """Align profile envelopes against a running reference.

    Each profile's envelope is circularly cross-correlated with the mean of
    the previously aligned envelopes; the per-profile shifts (integer plus
    parabolic fraction) are smoothed by a quadratic in slow time and removed
    with a frequency-domain phase ramp.  The reference is kept as a
    spectrum, each envelope advanced by its rounded shift.

    The profiles are correlated in blocks that guess every rounded shift
    equal to the last one taken: one cumulative sum builds the block's
    references, with the same additions in the same order as one profile at
    a time, and one inverse FFT correlates them.  The block is kept up to and
    including the first profile whose rounded shift differs, the reference
    advances by that profile's own shift, and the next block starts after
    it, so the shifts and the output are those of the profile-by-profile
    loop.  Blocks start at ``ALIGN_BLOCK_ROWS[0]`` profiles, double up to
    ``ALIGN_BLOCK_ROWS[1]`` after a block whose guess held throughout, and
    start over after one where it did not.

    Returns
    -------
    (RangeProfileHistory, ndarray)
        The aligned history and the applied shift profile in bins (the
        estimated displacement of each profile; positive = toward larger
        range bins).
    """
    x = history.values
    n_slow, n_bins = x.shape
    env = np.fft.fft(np.abs(x), axis=1)
    # multiplying a spectrum by exp(advance * s) advances its signal by s bins
    advance = 2j * np.pi * np.fft.fftfreq(n_bins)
    # every rounded shift lies within half a bin of a lag in [-n/2, n/2]
    reach = n_bins // 2 + 1
    ramps = np.exp(advance * np.arange(-reach, reach + 1)[:, None])
    shifts = np.zeros(n_slow)
    ref, guess, size, k = env[0].copy(), 0, ALIGN_BLOCK_ROWS[0], 1
    while k < n_slow:
        stop = min(k + size, n_slow)
        # refs[j] is the sum of the k + j envelopes before profile k + j, had
        # every rounded shift since the last one taken been ``guess``
        refs = np.empty((stop - k, n_bins), dtype=complex)
        refs[0] = ref
        np.multiply(env[k:stop - 1], ramps[reach + guess], out=refs[1:])
        np.cumsum(refs, axis=0, out=refs)
        # corr[j, s] compares envelope k + j advanced by s bins with the mean
        # of the aligned envelopes, so the peak lag is its displacement
        corr = np.fft.ifft(env[k:stop] * np.conj(refs), axis=1).real
        corr /= np.arange(k, stop)[:, None]
        peaks, other = _row_peaks(corr)
        last = stop - 1
        for j in (other | (np.rint(peaks) != guess)).nonzero()[0]:
            if other[j]:  # _fractional_peak warns on a tie; round raises on a NaN
                peaks[j] = _fractional_peak(corr[j])
                if round(peaks[j]) == guess:
                    continue
            last = k + j
            break
        shifts[k:last + 1] = peaks[:last + 1 - k]
        rounded = round(shifts[last])
        size = min(2 * size, ALIGN_BLOCK_ROWS[1]) if rounded == guess else ALIGN_BLOCK_ROWS[0]
        ref = refs[last - k] + env[last] * ramps[reach + rounded]
        guess, k = rounded, last + 1
    del env, ref  # the tail holds the history and two of its size at most
    t = np.arange(n_slow) / history.prf
    coeffs = np.polynomial.polynomial.polyfit(t, shifts, min(2, n_slow - 1))
    smooth = np.polynomial.polynomial.polyval(t, coeffs)
    smooth -= smooth[0]
    ramp = advance[None, :] * smooth[:, None]
    aligned = np.fft.fft(x, axis=1)
    aligned *= np.exp(ramp, out=ramp)
    np.fft.ifft(aligned, axis=1, out=aligned)
    return replace(history, values=aligned, range_axis=history.range_axis.copy()), smooth


def image_contrast(magnitude: np.ndarray) -> float:
    """Contrast of a magnitude grid: std of the intensity over its mean.

    Intensity is the squared magnitude.  A constant grid has zero contrast;
    an identically zero grid is rejected.
    """
    m = np.asarray(magnitude, dtype=float)
    intensity = m * m
    mean = intensity.mean()
    if mean <= 0.0:
        raise ValueError("contrast is undefined for an identically zero image")
    return float(intensity.std() / mean)


@dataclass(frozen=True)
class PhasePolynomial:
    """Slow-time phase error model ``sum_n c_n t^n`` for n = 2..order.

    ``t`` is centred slow time in seconds; constant and linear terms are
    excluded because they do not affect the image magnitude.
    """

    coefficients: tuple  # c_2, c_3, ... in rad/s^n

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           tuple(float(c) for c in self.coefficients))
        if not 1 <= len(self.coefficients) <= 3:
            raise ValueError("polynomial order must lie in [2, 4]")

    @property
    def order(self) -> int:
        return len(self.coefficients) + 1

    def phase(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return sum((c * t**n for n, c in enumerate(self.coefficients, start=2)),
                   np.zeros_like(t))


@dataclass
class AutofocusResult:
    polynomial: PhasePolynomial
    history: RangeProfileHistory
    contrast_before: float
    contrast_after: float
    improved: bool


def _contrast_evaluator(values: np.ndarray, basis: np.ndarray):
    """Contrast C(c) of the unwindowed image of ``values * exp(-j c @ basis)``.

    With y the corrected history and I = |fft(y)|^2 along slow time over R
    range bins, Parseval holds the mean M of I at sum |x|^2 / R, so
    C = sqrt(mean(I^2) / M^2 - 1); with Z = ifft(I fft(y)), dC/dphi(t) =
    2 / (R C M^2) * sum_r Im(y conj(Z)).  All calls share one set of buffers.
    """
    x = np.ascontiguousarray(values.T)  # slow time on the contiguous axis
    mean = float(np.sum(np.abs(x) ** 2)) / len(x)  # its temporaries go before the buffers
    if mean <= 0.0:
        raise ValueError("contrast is undefined for an identically zero image")
    y, spec = np.empty_like(x), np.empty_like(x)
    intensity, spare = np.empty(x.shape), np.empty(x.shape)

    def evaluate(coeffs, gradient=False):
        np.multiply(x, np.exp(-1j * sum(c * b for c, b in zip(coeffs, basis))), out=y)
        np.fft.fft(y, axis=1, out=spec)
        np.multiply(spec.real, spec.real, out=intensity)
        np.multiply(spec.imag, spec.imag, out=spare)
        np.add(intensity, spare, out=intensity)
        excess = np.einsum("ij,ij->", intensity, intensity) / (x.size * mean**2) - 1.0
        # the ratio is exact to a few 1e-15, so a smaller excess is a flat image
        contrast = math.sqrt(excess) if excess > 1e-12 else 0.0
        if not gradient:
            return contrast
        if contrast == 0.0:  # no direction of ascent is defined on a flat image
            return contrast, np.zeros(len(basis))
        np.multiply(spec, intensity, out=spec)
        np.fft.ifft(spec, axis=1, out=spec)
        np.multiply(y.imag, spec.real, out=spare)
        np.multiply(y.real, spec.imag, out=intensity)
        np.subtract(spare, intensity, out=spare)
        d_phase = spare.sum(axis=0) * (2.0 / (len(x) * contrast * mean**2))
        return contrast, (basis * d_phase).sum(axis=1)
    return evaluate


def _ppt_seed(values: np.ndarray, t: np.ndarray, order: int) -> np.ndarray:
    """c_2..c_order of the phase error, estimated by the polynomial-phase transform.

    From m = order down to 2: m - 1 lag products at lag tau turn the t^m term
    into a tone at m! (tau dt)^(m-1) c_m rad/s, found at the peak of the
    slow-time power spectrum summed over range bins (Peleg and Porat, 1991).
    Each term is removed before the next order is estimated.  A power-of-two
    scale first keeps every bit of the estimate and the lag products in range.
    """
    values = values * 2.0 ** -np.frexp(np.abs(values).max())[1]
    n, dt = len(t), t[1] - t[0]
    coeffs = np.zeros(order - 1)
    for m in range(order, 1, -1):
        tau, y = n // (4 * (m - 1)), values
        for _ in range(m - 1):
            y = y[tau:] * np.conj(y[:-tau])
        power = (np.abs(np.fft.fft(y, axis=0)) ** 2).sum(axis=1)
        k, length = int(np.argmax(power)), len(power)
        peak = k + _parabolic_offset(power[k - 1], power[k], power[(k + 1) % length])
        freq = (peak if peak <= length / 2 else peak - length) / (length * dt)
        coeffs[m - 2] = 2.0 * np.pi * freq / (math.factorial(m) * (tau * dt) ** (m - 1))
        values = values * np.exp(-1j * coeffs[m - 2] * t**m)[:, None]
    return coeffs


def _bfgs(fun, x):
    """Minimize ``fun(x) -> (value, gradient)`` by dense BFGS with backtracking.

    The inverse Hessian starts as the identity, is rescaled by s.y / y.y before
    its first update and skips a pair with s.y <= 0.  A step along the unscaled
    gradient has length min(1, 1/|d|), later ones start at 1; a step short of
    Armijo's decrease (1e-4) is retried at the minimum of the quadratic through
    it, clipped to [0.1, 0.5] of it.  Stops at |g|_inf <= 1e-5, a relative
    decrease <= 1e7 * eps, ``AUTOFOCUS_MAX_EVALUATIONS`` evaluations or a
    direction that does not descend.  Returns (x, value), never above the start.
    """
    f, g = fun(x)
    evaluations, h = 1, None
    while np.max(np.abs(g)) > 1e-5:
        d = -g if h is None else -h @ g
        slope = g @ d
        step = min(1.0, 1.0 / np.sqrt(d @ d)) if h is None else 1.0
        while slope < 0.0 and evaluations < AUTOFOCUS_MAX_EVALUATIONS:
            f_new, g_new = fun(x + step * d)
            evaluations += 1
            if f_new <= f + 1e-4 * step * slope:
                break
            # a non-finite value gives the smallest retry
            step *= min(0.5, max(0.1, -slope * step / (2.0 * (f_new - f - slope * step))))
        else:
            break
        s, y = step * d, g_new - g
        x, f_old, f, g = x + s, f, f_new, g_new
        if f_old - f <= 1e7 * np.finfo(float).eps * max(abs(f_old), abs(f), 1.0):
            break
        sy = s @ y
        if sy > 0.0:
            h = np.eye(len(x)) * (sy / (y @ y)) if h is None else h
            v = np.eye(len(x)) - np.outer(s, y) / sy
            h = v @ h @ v.T + np.outer(s, s) / sy
    return x, f


def icba_autofocus(history: RangeProfileHistory, order: int = 3) -> AutofocusResult:
    """Image-contrast-based autofocus over a phase polynomial.

    Coefficients c_2..c_order (centred slow time) maximize the contrast of the
    unwindowed Doppler image: the polynomial-phase transform seeds them from
    the data, then BFGS refines them on the analytic gradient.  The focused
    history carries the correction; when the seed does not beat the unfocused
    contrast the search starts from zero, and when nothing does the result has
    zero coefficients and ``improved=False``.
    """
    if not 2 <= order <= 4:
        raise ValueError("polynomial order must lie in [2, 4]")
    if history.n_slow < MIN_IMAGING_SAMPLES:
        raise ValueError(f"autofocus needs >= {MIN_IMAGING_SAMPLES} slow-time samples, "
                         f"got {history.n_slow}")
    t = history.slow_time()
    powers = np.arange(2, order + 1)
    scale = AUTOFOCUS_EDGE_PHASE_RAD / t[-1] ** powers  # c_n per optimiser unit
    # before the evaluator's buffers exist; its sums over range bins run in one
    # order whatever the history's layout, the F order the chain's history has
    seed = _ppt_seed(np.asfortranarray(history.values), t, order)
    contrast = _contrast_evaluator(history.values, t ** powers[:, None])
    contrast0 = contrast(np.zeros(order - 1))
    start = seed / scale if contrast(seed) > contrast0 else np.zeros(order - 1)

    def negative(u):
        value, grad = contrast(u * scale, gradient=True)
        return -value, -grad * scale

    u, value = _bfgs(negative, start)
    del negative, contrast  # the evaluator's buffers go before the focused history
    poly = PhasePolynomial(coefficients=tuple(u * scale))
    focused = replace(history, values=history.values * np.exp(-1j * poly.phase(t))[:, None],
                      range_axis=history.range_axis.copy())
    return AutofocusResult(polynomial=poly, history=focused, contrast_before=float(contrast0),
                           contrast_after=float(-value), improved=bool(-value > contrast0))


@dataclass
class IsarImage:
    """Magnitude image over (range, Doppler), optionally cross-range scaled."""

    magnitude: np.ndarray           # (n_range, n_doppler)
    range_axis: np.ndarray          # m
    doppler_axis_hz: np.ndarray
    wavelength: float
    cross_range_axis_m: np.ndarray | None = None


def form_image(history: RangeProfileHistory, window: str = "hann") -> IsarImage:
    """The Doppler stage's windowed unitary DFT along slow time; rows are range bins."""
    spec, doppler = _slow_time_dft(history.values.T, window, history.prf)
    return IsarImage(
        magnitude=np.abs(spec),  # (n_range, n_doppler)
        range_axis=history.range_axis.copy(),
        doppler_axis_hz=doppler,
        wavelength=history.wavelength,
    )


def cross_range_scale(image: IsarImage, rotation_rate: float) -> IsarImage:
    """Map the Doppler axis to cross-range with a known rotation rate.

    A scatterer at cross-range x produces Doppler ``2 * omega * x / lambda``,
    so one Doppler bin spans ``lambda * delta_f / (2 * omega)`` metres.
    Overestimating omega compresses the apparent cross-range extent by the
    same factor.
    """
    if rotation_rate <= 0.0:
        raise ValueError("rotation_rate must be positive for cross-range scaling")
    cross = image.doppler_axis_hz * image.wavelength / (2.0 * rotation_rate)
    return replace(image, cross_range_axis_m=cross)
