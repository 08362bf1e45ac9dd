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
reference as a spectrum: one inverse FFT per profile.  The history takes
the compressed dwells one at a time, so a lazy stream of them is never whole.
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


def range_align(history: RangeProfileHistory):
    """Align profile envelopes against a running reference.

    Each profile's envelope is circularly cross-correlated with the mean of
    the previously aligned envelopes; the per-profile shifts (integer plus
    parabolic fraction) are smoothed by a quadratic in slow time and removed
    with a frequency-domain phase ramp.  The reference is kept as a
    spectrum, each envelope advanced by its rounded shift.

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
    ref = env[0].copy()
    for k in range(1, n_slow):
        # corr[s] compares envelope k advanced by s bins with the mean of the
        # k aligned envelopes, so the peak lag is the displacement of profile k.
        corr = np.fft.ifft(env[k] * np.conj(ref)).real / k
        shifts[k] = _fractional_peak(corr)
        ref += env[k] * ramps[reach + round(shifts[k])]
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
    Each term is removed before the next order is estimated.
    """
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
    seed = _ppt_seed(history.values, t, order)  # before the evaluator's buffers exist
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
