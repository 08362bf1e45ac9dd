"""Inverse-synthetic imaging: profile history, alignment, autofocus, imaging.

The imaging chain stacks beamformed range profiles of the tracked window
over a multi-dwell coherent interval, removes translational range walk by
envelope correlation against a running reference (Chen and Andrews, 1980),
removes residual phase error by maximizing image contrast over a phase
polynomial (a c_2 grid, then L-BFGS on the analytic contrast gradient;
Martorella et al., 2005), and forms the image with the Doppler stage's
windowed unitary slow-time DFT.  Cross-range scaling requires the rotation
rate: one Doppler bin spans ``lambda * delta_f / (2 * omega)`` metres.
Alignment keeps its reference as a spectrum: one inverse FFT per profile.
The optimiser is L-BFGS-B (Byrd, Lu, Nocedal and Zhu, 1995) without bounds,
with its Moré–Thuente (1994) line search, on numpy alone.
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

#: autofocus refinement cap: the optimiser stops at the end of the iteration in
#: which its evaluation count passes this (L-BFGS-B's ``nfev > maxfun`` rule)
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


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2 ``dcstep``: the next trial step, and the interval [stx, sty]
    (stx the best step) updated to bracket a step that meets both conditions."""
    def gamma(theta, da, db, flip):
        s = max(abs(theta), abs(da), abs(db))
        return (-s if flip else s) * np.sqrt(max(0.0, (theta / s) ** 2 - (da / s) * (db / s)))

    opposite = np.sign(dp) * np.sign(dx) < 0.0
    theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
    if fp > fx:  # a higher value: the minimum is bracketed
        g = gamma(theta, dx, dp, stp < stx)
        stpc = stx + ((g - dx) + theta) / (((g - dx) + g) + dp) * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) <= abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:  # a lower value, slopes of opposite sign: bracketed
        g = gamma(theta, dx, dp, stp > stx)
        stpc = stp + ((g - dp) + theta) / (((g - dp) + g) + dx) * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):  # a lower value, the slope flattens
        g = gamma(theta, dx, dp, stp > stx)
        r = ((g - dp) + theta) / ((g + (dx - dp)) + g)
        stpc = stp + r * (stx - stp) if r < 0.0 and g != 0.0 else stpmax if stp > stx else stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            stpf = (min if stp > stx else max)(stp + 0.66 * (sty - stp), stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = min(max(stpf, stpmin), stpmax)
    elif brackt:  # a lower value, the slope steepens: cubic toward sty
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        g = gamma(theta, dy, dp, stp > sty)
        stpf = stp + ((g - dp) + theta) / (((g - dp) + g) + dy) * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


def _more_thuente(phi, f0, g0, stp):
    """MINPACK-2 ``dcsrch`` (Moré and Thuente, 1994): ftol 1e-3, gtol 0.9, xtol 0.1.

    ``phi(stp)`` returns the value and slope at step ``stp`` (> 0 here) along
    the line, f0 and g0 those at 0.  Returns the last step evaluated, which
    meets both strong Wolfe conditions or is where the search can make no
    progress; None for an ascent (no evaluation) or 20 evaluations of neither.
    """
    ftol, gtol, xtol, stpmax = 1e-3, 0.9, 0.1, 1e10
    stp, f0, g0 = np.float64(stp), np.float64(f0), np.float64(g0)
    if not g0 < 0.0:
        return None
    gtest, brackt, stage, width, width1 = ftol * g0, False, 1, stpmax, stpmax / 0.5
    stx, fx, gx, sty, fy, gy = 0.0, f0, g0, 0.0, f0, g0
    stmin, stmax = 0.0, stp + 4.0 * stp
    for _ in range(20):
        f, g = map(np.float64, phi(stp))
        with np.errstate(all="ignore"):
            ftest = f0 + stp * gtest
            stage = 2 if stage == 1 and f <= ftest and g >= 0.0 else stage
            if (f <= ftest and abs(g) <= gtol * -g0
                    or brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= xtol * stmax)
                    or stp == stpmax and f <= ftest and g <= gtest
                    or stp == 0.0 and (f > ftest or g >= gtest)):
                return stp
            # in stage 1 a lower but not sufficient value steps on f - stp * gtest
            shift = gtest if stage == 1 and fx >= f > ftest else 0.0
            stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                stx, fx - stx * shift, gx - shift, sty, fy - sty * shift, gy - shift,
                stp, f - stp * shift, g - shift, brackt, stmin, stmax)
            fx, fy, gx, gy = fx + stx * shift, fy + sty * shift, gx + shift, gy + shift
            if brackt:
                if abs(sty - stx) >= 0.66 * width1:
                    stp = stx + 0.5 * (sty - stx)
                width1, width = width, abs(sty - stx)
                stmin, stmax = min(stx, sty), max(stx, sty)
            else:
                stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
            stp = min(max(stp, 0.0), stpmax)
            if brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= xtol * stmax):
                stp = stx
        if not np.isfinite(stp):
            return None
    return None


def _lbfgs(fun, x):
    """Minimize ``fun(x) -> (value, gradient)`` as L-BFGS-B does without bounds.

    Two-loop directions over the last 10 pairs (H_0 scaled by the latest s.y / y.y,
    a pair with s.y <= eps * (-g.s) skipped); first step 1/|d|, then 1.  Stops at
    |g|_inf <= 1e-5, a relative decrease <= 1e7 * eps, or the end of the iteration
    in which the evaluation count passes ``AUTOFOCUS_MAX_EVALUATIONS``.  A failed line
    search restarts from steepest descent, or stops if it was one.  Returns (x, value).
    """
    eps = np.finfo(float).eps
    f, g = fun(x)
    evaluations, pairs, last = 1, [], {"x": x, "f": f, "g": g}

    def phi(stp):  # reuses, uncounted, a point equal to the last one, as L-BFGS-B's driver does
        nonlocal evaluations
        trial = z if stp == 1.0 else stp * d + x
        if not np.array_equal(trial, last["x"]):
            last["x"], (last["f"], last["g"]) = trial, fun(trial)
            evaluations += 1
        return last["f"], last["g"] @ d

    while np.max(np.abs(g)) > 1e-5:
        q, alphas = -g, []
        for s, y, sy in reversed(pairs):
            alphas.append(s @ q / sy)
            q = q - alphas[-1] * y
        q = q * (pairs[-1][2] / (pairs[-1][1] @ pairs[-1][1])) if pairs else q
        for (s, y, sy), alpha in zip(pairs, reversed(alphas)):
            q = q + (alpha - y @ q / sy) * s
        z = x + q
        d = z - x  # the step L-BFGS-B takes: z is the trial point at step 1
        gd0 = g @ d
        first = 1.0 if evaluations > 1 else min(1.0 / np.sqrt(d @ d), 1e10)
        stp = _more_thuente(phi, f, gd0, first)
        if stp is None:
            if not pairs:
                break
            pairs = []
            continue
        fold, gold, (x, f, g) = f, g, (last["x"], last["f"], last["g"])
        if (evaluations > AUTOFOCUS_MAX_EVALUATIONS
                or fold - f <= 1e7 * eps * max(abs(fold), abs(f), 1.0)):
            break
        sy = (g @ d - gd0) * stp
        if sy > eps * (-gd0 * stp):
            pairs = pairs[-9:] + [(stp * d, g - gold, sy)]
    return x, f


def icba_autofocus(history: RangeProfileHistory, order: int = 3, grid_points: int = 21,
                   phase_span_rad: float = 32.0 * np.pi) -> AutofocusResult:
    """Image-contrast-based autofocus over a phase polynomial.

    Coefficients c_2..c_order (centred slow time) maximize the contrast of the
    unwindowed Doppler image: c_2 is swept on a symmetric grid of ``grid_points``
    (odd, >= 3) values whose ends put ``phase_span_rad`` (> 0) of phase at the
    interval's edge, then L-BFGS refines all of them on the analytic gradient.
    The focused history carries the correction; when nothing beats the unfocused
    contrast the result has zero coefficients and ``improved=False``.
    """
    if not 2 <= order <= 4:
        raise ValueError("polynomial order must lie in [2, 4]")
    if grid_points < 3 or grid_points % 2 == 0:
        raise ValueError("grid_points must be an odd integer >= 3")
    if phase_span_rad <= 0.0:
        raise ValueError("phase_span_rad must be positive")
    if history.n_slow < MIN_IMAGING_SAMPLES:
        raise ValueError(f"autofocus needs >= {MIN_IMAGING_SAMPLES} slow-time samples, "
                         f"got {history.n_slow}")
    t = history.slow_time()
    powers = np.arange(2, order + 1)
    scale = phase_span_rad / t[-1] ** powers  # c_n per grid unit
    contrast = _contrast_evaluator(history.values, t ** powers[:, None])
    best, contrast0 = np.zeros(order - 1), contrast(np.zeros(order - 1))
    grid = np.outer(np.linspace(-1.0, 1.0, grid_points), np.eye(order - 1)[0])
    seeds = [contrast(u * scale) for u in grid]
    k = int(np.argmax(seeds))
    best, best_contrast = (grid[k], seeds[k]) if seeds[k] > contrast0 else (best, contrast0)

    def negative(u):
        value, grad = contrast(u * scale, gradient=True)
        return -value, -grad * scale

    u, value = _lbfgs(negative, best)
    if -value > best_contrast:
        best, best_contrast = u, -value
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
