"""Inverse-synthetic imaging: profile history, alignment, autofocus, imaging.

The imaging chain stacks beamformed range profiles of the tracked window
over a multi-dwell coherent interval, removes translational range walk by
envelope correlation against a running reference (Chen and Andrews, 1980),
removes residual phase error by maximizing image contrast over a phase
polynomial (a c_2 grid, then L-BFGS-B on the analytic contrast gradient;
Martorella et al., 2005), and forms the image with the Doppler stage's
windowed unitary slow-time DFT.  Cross-range scaling requires the rotation
rate: one Doppler bin spans ``lambda * delta_f / (2 * omega)`` metres.
Alignment keeps its reference as a spectrum: one inverse FFT per profile.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .beamform import apply_beamformer
from .detect import _parabolic_offset
from .rdproc import _slow_time_dft

#: slow-time samples below which imaging quality degrades noticeably
MIN_IMAGING_SAMPLES = 64

#: autofocus refinement cap (L-BFGS-B ``maxfun``; the running iteration completes)
AUTOFOCUS_MAX_EVALUATIONS = 30


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
    compressed_dwells : sequence of CompressedDwell
        Contiguous range-compressed dwells of one coherent interval.
    weights : BeamformerWeights or ndarray
        Channel weights applied to every dwell.
    range_span : (int, int)
        Half-open bin interval of the tracked window; must lie fully inside
        the compressed maps.

    Returns
    -------
    RangeProfileHistory with ``n_dwells * n_pulses`` slow-time rows.
    """
    dwells = list(compressed_dwells)
    if not dwells:
        raise ValueError("need at least one dwell")
    params = dwells[0].params
    n_bins = dwells[0].values.shape[1]
    lo, hi = int(range_span[0]), int(range_span[1])
    if not 0 <= lo < hi <= n_bins:
        raise ValueError(
            f"range span [{lo}, {hi}) not inside the compressed map of {n_bins} bins"
        )
    rows = []
    for dw in dwells:
        if dw.values.shape[1] != n_bins:
            raise ValueError("dwells have inconsistent range extents")
        rows.append(apply_beamformer(dw.values[:, lo:hi], weights).T)
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
        range_axis=dwells[0].range_axis[lo:hi].copy(),
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
    t = np.arange(n_slow) / history.prf
    coeffs = np.polynomial.polynomial.polyfit(t, shifts, min(2, n_slow - 1))
    smooth = np.polynomial.polynomial.polyval(t, coeffs)
    smooth -= smooth[0]
    ramp = np.exp(advance[None, :] * smooth[:, None])
    aligned = np.fft.ifft(np.fft.fft(x, axis=1) * ramp, axis=1)
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


@dataclass(frozen=True)
class AutofocusSearch:
    """Knobs of the contrast-maximization search."""

    grid_points: int = 21
    phase_span_rad: float = 32.0 * np.pi  # max |c_n| * (T/2)^n on the grid

    def __post_init__(self):
        if self.grid_points < 3 or self.grid_points % 2 == 0:
            raise ValueError("grid_points must be an odd integer >= 3")
        if self.phase_span_rad <= 0.0:
            raise ValueError("phase_span_rad must be positive")


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
    y, spec = np.empty_like(x), np.empty_like(x)
    intensity, spare = np.empty(x.shape), np.empty(x.shape)
    mean = float(np.sum(np.abs(x) ** 2)) / len(x)
    if mean <= 0.0:
        raise ValueError("contrast is undefined for an identically zero image")

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


def icba_autofocus(history: RangeProfileHistory, order: int = 3,
                   search: AutofocusSearch | None = None) -> AutofocusResult:
    """Image-contrast-based autofocus over a phase polynomial.

    Coefficients c_2..c_order (centred slow time) maximize the contrast of
    the unwindowed Doppler image: c_2 is swept on a symmetric grid whose ends
    put ``phase_span_rad`` of phase at the edge of the interval, then L-BFGS-B
    refines all of them on the analytic gradient.  The focused history carries
    the correction; when nothing beats the unfocused contrast the result has
    zero coefficients and ``improved=False``.
    """
    if not 2 <= order <= 4:
        raise ValueError("polynomial order must lie in [2, 4]")
    search = search or AutofocusSearch()
    if history.n_slow < MIN_IMAGING_SAMPLES:
        raise ValueError(f"autofocus needs >= {MIN_IMAGING_SAMPLES} slow-time samples, "
                         f"got {history.n_slow}")
    t = history.slow_time()
    powers = np.arange(2, order + 1)
    scale = search.phase_span_rad / t[-1] ** powers  # c_n per grid unit
    contrast = _contrast_evaluator(history.values, t ** powers[:, None])
    best, contrast0 = np.zeros(order - 1), contrast(np.zeros(order - 1))
    grid = np.outer(np.linspace(-1.0, 1.0, search.grid_points), np.eye(order - 1)[0])
    seeds = [contrast(u * scale) for u in grid]
    k = int(np.argmax(seeds))
    best, best_contrast = (grid[k], seeds[k]) if seeds[k] > contrast0 else (best, contrast0)

    def negative(u):
        value, grad = contrast(u * scale, gradient=True)
        return -value, -grad * scale

    result = minimize(negative, best, jac=True, method="L-BFGS-B",
                      options={"maxfun": AUTOFOCUS_MAX_EVALUATIONS})
    if -result.fun > best_contrast:
        best, best_contrast = result.x, -result.fun
    poly = PhasePolynomial(coefficients=tuple(best * scale))
    focused = replace(history, values=history.values * np.exp(-1j * poly.phase(t))[:, None],
                      range_axis=history.range_axis.copy())
    return AutofocusResult(polynomial=poly, history=focused, contrast_before=float(contrast0),
                           contrast_after=float(best_contrast),
                           improved=bool(best_contrast > contrast0))


@dataclass
class IsarImage:
    """Magnitude image over (range, Doppler), optionally cross-range scaled."""

    magnitude: np.ndarray           # (n_range, n_doppler)
    range_axis: np.ndarray          # m
    doppler_axis_hz: np.ndarray
    wavelength: float
    contrast: float
    cross_range_axis_m: np.ndarray | None = None
    rotation_rate: float | None = None


def form_image(history: RangeProfileHistory, window: str = "hann") -> IsarImage:
    """The Doppler stage's windowed unitary DFT along slow time; rows are range bins."""
    spec, doppler = _slow_time_dft(history.values.T, window, history.prf)
    magnitude = np.abs(spec)  # (n_range, n_doppler)
    return IsarImage(
        magnitude=magnitude,
        range_axis=history.range_axis.copy(),
        doppler_axis_hz=doppler,
        wavelength=history.wavelength,
        contrast=image_contrast(magnitude),
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
    return replace(image, cross_range_axis_m=cross, rotation_rate=float(rotation_rate))
