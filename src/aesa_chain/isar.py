"""Inverse-synthetic imaging: profile history, alignment, autofocus, imaging.

The imaging chain stacks beamformed range profiles over a multi-dwell
coherent interval, removes translational range walk by envelope correlation
against a running reference, removes residual phase error by maximizing
image contrast over a low-order phase polynomial (coarse per-coefficient
grids followed by a derivative-free simplex), and forms the image with a
windowed unitary slow-time DFT.  Cross-range scaling requires the rotation
rate: one Doppler bin spans ``lambda * delta_f / (2 * omega)`` metres.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .beamform import apply_beamformer
from .detect import _parabolic_offset
from .rdproc import _window_samples

#: slow-time samples below which imaging quality degrades noticeably
MIN_IMAGING_SAMPLES = 64

#: autofocus simplex stop: contrast tolerance relative to the grid best, iteration cap
SIMPLEX_REL_TOL = 1.0e-3
SIMPLEX_MAX_ITERATIONS = 400


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
        beamformed = apply_beamformer(dw, weights)  # (n_range, n_pulses)
        rows.append(beamformed[lo:hi, :].T)
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
    n = corr.size
    best = corr.max()
    ties = np.flatnonzero(corr == best)
    if ties.size > 1:
        lags = np.where(ties > n // 2, ties - n, ties)
        pick = ties[np.argmin(np.abs(lags))]
        warnings.warn("range alignment correlation tie; choosing the smaller shift",
                      stacklevel=3)
    else:
        pick = ties[0]
    frac = _parabolic_offset(corr[(pick - 1) % n], corr[pick], corr[(pick + 1) % n])
    lag = pick if pick <= n // 2 else pick - n
    return float(lag + frac)


def range_align(history: RangeProfileHistory, fit_order: int = 2):
    """Align profile envelopes against a running reference.

    Each profile's envelope is circularly cross-correlated with the mean of
    the previously aligned envelopes; the per-profile shifts (integer plus
    parabolic fraction) are smoothed by a polynomial of ``fit_order`` in slow
    time and removed with a frequency-domain phase ramp.

    Returns
    -------
    (RangeProfileHistory, ndarray)
        The aligned history and the applied shift profile in bins (the
        estimated displacement of each profile; positive = toward larger
        range bins).
    """
    if fit_order < 0:
        raise ValueError("fit_order must be >= 0")
    x = history.values
    n_slow, n_bins = x.shape
    env = np.abs(x)
    shifts = np.zeros(n_slow)
    ref = env[0].copy()
    ref_count = 1
    for k in range(1, n_slow):
        spec = np.fft.fft(env[k]) * np.conj(np.fft.fft(ref / ref_count))
        corr = np.fft.ifft(spec).real
        # corr[s] compares env[k] advanced by s bins with the reference, so
        # the peak lag is the displacement of profile k.
        shifts[k] = _fractional_peak(corr)
        aligned_env = np.roll(env[k], -int(round(shifts[k])))
        ref += aligned_env
        ref_count += 1
    t = np.arange(n_slow) / history.prf
    order = min(fit_order, n_slow - 1)
    coeffs = np.polynomial.polynomial.polyfit(t, shifts, order)
    smooth = np.polynomial.polynomial.polyval(t, coeffs)
    smooth = smooth - smooth[0]
    freqs = np.fft.fftfreq(n_bins)
    ramp = np.exp(2j * np.pi * freqs[None, :] * smooth[:, None])
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
        out = np.zeros_like(t)
        for n, c in enumerate(self.coefficients, start=2):
            out += c * t**n
        return out


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


def _focused_contrast(values: np.ndarray, t: np.ndarray, coeffs: np.ndarray) -> float:
    phase = PhasePolynomial(coefficients=tuple(coeffs)).phase(t)
    corrected = values * np.exp(-1j * phase)[:, None]
    image = np.abs(np.fft.fft(corrected, axis=0)) / np.sqrt(values.shape[0])
    return image_contrast(image)


def icba_autofocus(history: RangeProfileHistory, order: int = 3,
                   search: AutofocusSearch | None = None) -> AutofocusResult:
    """Image-contrast-based autofocus over a phase polynomial.

    Coefficients c_2..c_order (centred slow time) are estimated by maximizing
    the contrast of the Doppler image: each coefficient is first swept on a
    coarse symmetric grid whose endpoints contribute ``phase_span_rad`` of
    phase at the edge of the interval, then all coefficients are refined
    jointly with a Nelder-Mead simplex.  The focused history is returned with
    the correction applied; when no candidate beats the unfocused contrast
    the result carries zero coefficients and ``improved=False``.
    """
    if not 2 <= order <= 4:
        raise ValueError("polynomial order must lie in [2, 4]")
    search = search or AutofocusSearch()
    x = history.values
    if x.shape[0] < MIN_IMAGING_SAMPLES:
        raise ValueError(
            f"autofocus needs >= {MIN_IMAGING_SAMPLES} slow-time samples, "
            f"got {x.shape[0]}"
        )
    t = history.slow_time()
    half_span = t[-1]  # (T - 1/prf) / 2
    n_coeff = order - 1
    contrast0 = _focused_contrast(x, t, np.zeros(n_coeff))

    best = np.zeros(n_coeff)
    best_contrast = contrast0
    steps = np.empty(n_coeff)
    for j in range(n_coeff):
        power = j + 2
        limit = search.phase_span_rad / half_span**power
        grid = np.linspace(-limit, limit, search.grid_points)
        steps[j] = grid[1] - grid[0]
        for c in grid:
            trial = best.copy()
            trial[j] = c
            value = _focused_contrast(x, t, trial)
            if value > best_contrast:
                best_contrast = value
                best = trial

    simplex = best[None, :] + np.vstack([np.zeros(n_coeff), np.diag(steps)])
    result = minimize(
        lambda c: -_focused_contrast(x, t, c),
        best,
        method="Nelder-Mead",
        options={
            "xatol": float(np.min(steps)) * 1e-3,
            "fatol": SIMPLEX_REL_TOL * max(best_contrast, 1e-12),
            "maxiter": SIMPLEX_MAX_ITERATIONS,
            "initial_simplex": simplex,
        },
    )
    if -result.fun > best_contrast:
        best_contrast = -result.fun
        best = result.x

    improved = best_contrast > contrast0
    if not improved:
        best = np.zeros(n_coeff)
        best_contrast = contrast0
    poly = PhasePolynomial(coefficients=tuple(best))
    focused = history.values * np.exp(-1j * poly.phase(t))[:, None]
    return AutofocusResult(
        polynomial=poly,
        history=replace(history, values=focused, range_axis=history.range_axis.copy()),
        contrast_before=float(contrast0),
        contrast_after=float(best_contrast),
        improved=bool(improved),
    )


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
    """Windowed unitary DFT along slow time; rows are range bins."""
    x = history.values
    n = x.shape[0]
    w = _window_samples(window, n)
    spec = np.fft.fft(x * w[:, None], axis=0) / np.sqrt(n)
    spec = np.fft.fftshift(spec, axes=0)
    magnitude = np.abs(spec).T  # (n_range, n_doppler)
    doppler = np.fft.fftshift(np.fft.fftfreq(n, d=1.0 / history.prf))
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
