import warnings
import weakref
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aesa_chain import (ConfigError, PhasePolynomial,
                        RadarParams, RangeProfileHistory, RigidBodyTarget,
                        conventional_weights, cross_range_scale,
                        extract_target_history, form_image, icba_autofocus,
                        image_contrast, load_config, range_align, range_compress,
                        simulate_isar_sequence)
from aesa_chain import isar
from aesa_chain.isar import _fractional_peak
from aesa_chain.rdproc import WINDOWS

from helpers import (dft_oracle, lbfgsb_oracle, loop_align_oracle, roll_align_oracle,
                     traced_peak, unit_window_oracle)

SMALL = RadarParams(r_min=1500.0, r_max=2100.0, n_pulses=64)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def make_history(n_slow=2000, prf=1000.0, n_bins=32, f1=40.0, f2=-95.0):
    """Two on-bin scatterers with distinct Doppler, perfectly focused."""
    t = (np.arange(n_slow) - (n_slow - 1) / 2.0) / prf
    vals = np.zeros((n_slow, n_bins), dtype=complex)
    vals[:, 10] = 1.0 * np.exp(2j * np.pi * f1 * t)
    vals[:, 22] = 0.7 * np.exp(2j * np.pi * f2 * t)
    return RangeProfileHistory(values=vals, prf=prf,
                               range_axis=1500.0 + 2.4 * np.arange(n_bins),
                               wavelength=0.03)


def test_history_slow_time_axis():
    hist = RangeProfileHistory(values=np.zeros((4, 8), dtype=complex), prf=2000.0,
                               range_axis=np.arange(8.0), wavelength=0.03)
    np.testing.assert_allclose(hist.slow_time(),
                               np.array([-1.5, -0.5, 0.5, 1.5]) / 2000.0)
    assert hist.slow_time().sum() == pytest.approx(0.0)
    with pytest.raises(ValueError):
        RangeProfileHistory(values=np.zeros(8, dtype=complex), prf=2000.0,
                            range_axis=np.arange(8.0), wavelength=0.03)
    with pytest.raises(ValueError):
        RangeProfileHistory(values=np.zeros((4, 8), dtype=complex), prf=0.0,
                            range_axis=np.arange(8.0), wavelength=0.03)


def test_extract_target_history_matches_manual_stack():
    body = RigidBodyTarget(center_range_m=1800.0, azimuth_deg=0.0,
                           rotation_rate=0.02, translational_velocity=0.0,
                           scatterers=[(0.0, 0.0, 1.0)])
    dwells = [range_compress(d)
              for d in simulate_isar_sequence(SMALL, body, 2, seed=1)]
    w = conventional_weights(0.0)
    hist = extract_target_history(dwells, w, (110, 140))
    assert hist.n_slow == 2 * 64
    np.testing.assert_allclose(hist.range_axis, dwells[0].range_axis[110:140])
    rows = []
    for dw in dwells:
        beam = np.zeros(dw.values.shape[1:], dtype=complex)
        for c in range(6):
            beam += np.conj(w.values[c]) * dw.values[c]
        rows.append(beam[110:140, :].T)
    np.testing.assert_allclose(hist.values, np.concatenate(rows, axis=0),
                               atol=1e-12)


def test_extract_target_history_validation():
    body = RigidBodyTarget(center_range_m=1800.0, azimuth_deg=0.0,
                           rotation_rate=0.02, translational_velocity=0.0,
                           scatterers=[(0.0, 0.0, 1.0)])
    dwells = [range_compress(d)
              for d in simulate_isar_sequence(SMALL, body, 1, seed=1)]
    w = conventional_weights(0.0)
    cut = replace(dwells[0], values=dwells[0].values[:, :-1])
    # each error is raised for a list and for a one-shot generator alike
    for seq in (list, iter):
        with pytest.raises(ValueError, match="range span"):
            extract_target_history(seq(dwells), w, (100, 3000))
        with pytest.raises(ValueError, match="at least one"):
            extract_target_history(seq([]), w, (0, 10))
        with pytest.raises(ValueError, match="inconsistent range extents"):
            extract_target_history(seq(dwells + [cut]), w, (100, 140))
    short = RadarParams(r_min=1500.0, r_max=2100.0, n_pulses=32)
    tiny = [range_compress(d)
            for d in simulate_isar_sequence(short, body, 1, seed=1)]
    with pytest.warns(UserWarning, match="slow-time"):
        extract_target_history(tiny, w, (100, 140))


def test_extract_target_history_takes_a_lazy_stream():
    # a one-shot generator gives the bytes of the list, and dwell k is
    # dropped before dwell k + 2 is pulled, so the stream is never held whole
    body = RigidBodyTarget(center_range_m=1800.0, azimuth_deg=3.0,
                           rotation_rate=0.02, translational_velocity=1.5,
                           scatterers=[(0.0, 0.0, 1.0), (4.0, -3.0, 0.6)])
    raws = simulate_isar_sequence(SMALL, body, 5, seed=2)
    w = conventional_weights(3.0)
    want = extract_target_history([range_compress(r) for r in raws], w, (100, 150))
    refs, dead = [], []

    def stream():
        for k, raw in enumerate(raws):
            # dwells 0..k-2 must be gone when dwell k is asked for
            dead.append(all(ref() is None for ref in refs[:max(k - 1, 0)]))
            dwell = range_compress(raw)
            refs.append(weakref.ref(dwell.values))
            yield dwell
            del dwell

    got = extract_target_history(stream(), w, (100, 150))
    assert got.values.tobytes() == want.values.tobytes()
    assert got.range_axis.tobytes() == want.range_axis.tobytes()
    assert (got.prf, got.wavelength) == (want.prf, want.wavelength)
    assert len(dead) == 5 and all(dead)


def test_fractional_peak_parabolic():
    n = 16
    lags = np.where(np.arange(n) > n // 2, np.arange(n) - n, np.arange(n))
    for true_lag in (3.3, -2.6):
        corr = 1.0 - 0.01 * (lags - true_lag) ** 2
        assert _fractional_peak(corr) == pytest.approx(true_lag, abs=1e-9)
    with pytest.warns(UserWarning, match="tie"):
        assert _fractional_peak(np.ones(8)) == 0.0


def test_range_align_removes_linear_walk():
    n_slow, n_bins = 80, 64
    base = np.exp(-0.5 * ((np.arange(n_bins) - 20.0) / 3.0) ** 2).astype(complex)
    base *= np.exp(0.3j * np.arange(n_bins))
    freqs = np.fft.fftfreq(n_bins)
    shifts = 0.08 * np.arange(n_slow)  # 6.4-bin walk over the interval
    vals = np.fft.ifft(np.fft.fft(base)[None, :]
                       * np.exp(-2j * np.pi * freqs[None, :] * shifts[:, None]),
                       axis=1)
    hist = RangeProfileHistory(values=vals, prf=2000.0,
                               range_axis=np.arange(n_bins, dtype=float),
                               wavelength=0.03)
    aligned, applied = range_align(hist)
    # bulk of the walk removed; the running-mean reference leaves at most a
    # slowly varying fraction-of-a-bin residual
    np.testing.assert_allclose(applied, shifts, atol=0.35)
    before = np.abs(vals - vals[0]).max()
    after = np.abs(aligned.values - aligned.values[0]).max()
    assert after < 0.15 * before


def walk_history(n_slow, n_bins, rate, noise, rng, n_scatterers=1):
    """Noisy profiles of Gaussian scatterers walking at ``rate`` bins per profile."""
    bins = np.arange(n_bins)
    base = np.zeros(n_bins, dtype=complex)
    for _ in range(n_scatterers):
        centre = rng.uniform(0.3, 0.7) * n_bins
        width = rng.uniform(0.8, 3.0)
        amp = rng.normal() + 1j * rng.normal()
        base += amp * np.exp(-0.5 * ((bins - centre) / width) ** 2)
    walk = rate * np.arange(n_slow)
    freqs = np.fft.fftfreq(n_bins)
    vals = np.fft.ifft(np.fft.fft(base)[None, :]
                       * np.exp(-2j * np.pi * freqs[None, :] * walk[:, None]), axis=1)
    vals += noise * (rng.normal(size=vals.shape) + 1j * rng.normal(size=vals.shape))
    return RangeProfileHistory(values=vals, prf=1000.0, range_axis=bins.astype(float),
                               wavelength=0.03)


@st.composite
def walking_histories(draw):
    """Noisy profiles of 1-3 Gaussian scatterers walking at a constant rate; up to
    240 bins of walk, so the rounded shift changes anywhere from never to every
    few profiles."""
    n_slow = draw(st.integers(8, 600))
    n_bins = draw(st.sampled_from((15, 16, 31, 32, 49)))
    rate = draw(st.just(0.0) | st.floats(-0.4, 0.4))  # bins per profile
    noise = draw(st.floats(0.01, 0.3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return walk_history(n_slow, n_bins, rate, noise, rng, draw(st.integers(1, 3)))


def aligned_with_raw_shifts(hist):
    """``range_align(hist)`` and the raw shifts it hands its quadratic fit."""
    fit = np.polynomial.polynomial.polyfit
    with mock.patch.object(np.polynomial.polynomial, "polyfit", wraps=fit) as spy:
        aligned, smooth = range_align(hist)
    return aligned, smooth, spy.call_args.args[1]


def assert_matches_loop_oracle(hist):
    aligned, smooth, raw = aligned_with_raw_shifts(hist)
    want_aligned, want_smooth, want_raw = loop_align_oracle(hist.values, hist.prf)
    assert raw.tobytes() == want_raw.tobytes()
    assert smooth.tobytes() == want_smooth.tobytes()
    assert aligned.values.tobytes() == want_aligned.tobytes()
    return want_aligned, want_smooth, want_raw


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(walking_histories())
# 600 profiles: from a few rounded-shift changes to one every 2.5 profiles
@example(walk_history(600, 49, 0.003, 0.05, np.random.default_rng(7)))
@example(walk_history(600, 49, 0.05, 0.05, np.random.default_rng(7)))
@example(walk_history(600, 49, 0.4, 0.05, np.random.default_rng(7)))
def test_range_align_matches_roll_oracle(hist):
    # the blocks keep the bytes of the profile-by-profile loop, which agrees
    # with the range-domain oracle
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a correlation tie
        loop_aligned, loop_smooth, loop_raw = assert_matches_loop_oracle(hist)
        want_aligned, want_smooth, want_raw = roll_align_oracle(hist.values, hist.prf)
    assert [round(s) for s in loop_raw] == [round(s) for s in want_raw]
    np.testing.assert_allclose(loop_raw, want_raw, rtol=0, atol=1e-9)
    np.testing.assert_allclose(loop_smooth, want_smooth, rtol=0, atol=1e-9)
    np.testing.assert_allclose(loop_aligned, want_aligned, rtol=0,
                               atol=1e-9 * np.abs(hist.values).max())


def test_range_align_tie_warns_at_the_caller():
    # a profile of constant magnitude has a flat envelope correlation: a tie
    rng = np.random.default_rng(3)
    hist = walk_history(64, 16, 0.3, 0.05, rng)
    tied = [9, 10, 30]
    hist.values[tied] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(len(tied), 16)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        range_align(hist)
    ties = [w for w in caught if "correlation tie" in str(w.message)]
    assert len(ties) == len(tied)
    assert all(w.category is UserWarning and w.filename == __file__ for w in ties)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert_matches_loop_oracle(hist)  # which warns once in each
    assert len([w for w in caught if "correlation tie" in str(w.message)]) == 2 * len(tied)


def count_transforms(monkeypatch) -> list:
    """Record the name and leading length of every np.fft.fft / ifft call from now on."""
    calls = []

    def counted(fn):
        def wrapper(a, *args, **kwargs):
            calls.append((fn.__name__, np.shape(a)[0] if np.ndim(a) == 2 else 1))
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    return calls


def test_range_align_transforms_each_profile_once(monkeypatch):
    hist = make_history(n_slow=600)  # on-bin scatterers: every rounded shift is 0
    calls = count_transforms(monkeypatch)
    range_align(hist)
    # one batched envelope transform, inverse transforms whose rows cover each
    # profile after the first once, in blocks doubling from 4 to the cap of
    # 256, and the forward and inverse transforms of the final alignment
    blocks = [4, 8, 16, 32, 64, 128, 256, 91]
    assert sum(blocks) == 599 and isar.ALIGN_BLOCK_ROWS == (4, 256)
    assert calls == [("fft", 600)] + [("ifft", b) for b in blocks] + [("fft", 600), ("ifft", 600)]


def test_image_contrast_single_pixel_oracle():
    grid = np.zeros((10, 10))
    grid[3, 7] = 1.0
    assert image_contrast(grid) == pytest.approx(np.sqrt(99.0))
    assert image_contrast(np.full((5, 5), 2.0)) == 0.0
    with pytest.raises(ValueError):
        image_contrast(np.zeros((5, 5)))


def test_phase_polynomial_contract():
    poly = PhasePolynomial(coefficients=(2.0, -1.0))
    t = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(poly.phase(t), 2.0 * t**2 - 1.0 * t**3)
    assert poly.order == 3
    for bad in ((), (1.0, 1.0, 1.0, 1.0)):
        with pytest.raises(ValueError):
            PhasePolynomial(coefficients=bad)


def test_autofocus_recovers_quadratic_phase():
    clean = make_history()
    t = clean.slow_time()
    corrupted = RangeProfileHistory(values=clean.values * np.exp(1j * 50.0 * t**2)[:, None],
                                    prf=clean.prf, range_axis=clean.range_axis,
                                    wavelength=clean.wavelength)
    result = icba_autofocus(corrupted, order=2)
    assert result.improved
    c2 = result.polynomial.coefficients[0]
    assert c2 == pytest.approx(50.0, rel=0.05)
    assert result.contrast_after > result.contrast_before
    # the returned history carries exactly the estimated correction
    manual = corrupted.values * np.exp(-1j * result.polynomial.phase(t))[:, None]
    np.testing.assert_allclose(result.history.values, manual, atol=1e-12)
    # refocused image regains nearly all of the clean contrast
    assert (image_contrast(form_image(result.history).magnitude)
            > 0.98 * image_contrast(form_image(clean).magnitude))


@st.composite
def phased_histories(draw):
    """Noisy tone histories with a polynomial phase of order 2-4."""
    n_slow = draw(st.integers(64, 300))
    n_bins = draw(st.integers(1, 6))
    order = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(n_slow, n_bins)) + 1j * rng.normal(size=(n_slow, n_bins))
    slow = np.arange(n_slow)[:, None]
    values += draw(st.floats(0.0, 5.0)) * np.exp(2j * np.pi * rng.uniform(size=n_bins) * slow)
    # coefficients as the phase they reach at the edge of the interval, in rad
    edge = draw(st.lists(st.floats(-20.0, 20.0), min_size=order - 1, max_size=order - 1))
    return values, order, np.array(edge)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(phased_histories())
def test_contrast_gradient_matches_central_differences(case):
    values, order, coeffs = case
    n_slow = values.shape[0]
    t = (np.arange(n_slow) - (n_slow - 1) / 2.0) / 1000.0
    basis = (t / t[-1]) ** np.arange(2, order + 1)[:, None]
    contrast = isar._contrast_evaluator(values, basis)
    value, grad = contrast(coeffs, gradient=True)
    assert contrast(coeffs) == value
    phase = np.einsum("n,nt->t", coeffs, basis)
    image = np.abs(np.fft.fft(values * np.exp(-1j * phase)[:, None], axis=0))
    assert value == pytest.approx(image_contrast(image / np.sqrt(n_slow)), rel=1e-12, abs=0)
    step = 1e-5  # rad at the edge
    numeric = np.array([(contrast(coeffs + step * e) - contrast(coeffs - step * e)) / (2 * step)
                        for e in np.eye(order - 1)])
    np.testing.assert_allclose(grad, numeric, rtol=0, atol=1e-8 * max(value, 1.0))


def test_autofocus_leaves_a_flat_image_alone():
    # one pulse per range bin: every phase correction keeps the spectrum flat
    values = np.zeros((128, 4), dtype=complex)
    values[5] = [1.0, 1.0j, -1.0, -1.0j]
    hist = RangeProfileHistory(values=values, prf=1000.0, range_axis=np.arange(4.0),
                               wavelength=0.03)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = icba_autofocus(hist, order=4)
    assert not result.improved
    assert result.polynomial.coefficients == (0.0, 0.0, 0.0)
    assert result.contrast_before == result.contrast_after == 0.0
    np.testing.assert_array_equal(result.history.values, values)
    zero = RangeProfileHistory(values=np.zeros((128, 4), dtype=complex), prf=1000.0,
                               range_axis=np.arange(4.0), wavelength=0.03)
    with pytest.raises(ValueError, match="identically zero"):
        icba_autofocus(zero, order=3)


def test_autofocus_starts_from_zero_when_the_seed_is_worse():
    # two tones whose lag-product auto-terms cancel: the transform peaks on
    # their cross-term, a seed below the contrast of the focused history
    n, prf = 512, 1000.0
    t = (np.arange(n) - (n - 1) / 2.0) / prf
    lag = n // 4
    values = (np.exp(2j * np.pi * 100.0 * t)
              + np.exp(2j * np.pi * (100.0 - 0.5 * prf / lag) * t))[:, None]
    hist = RangeProfileHistory(values=values, prf=prf, range_axis=np.arange(1.0),
                               wavelength=0.03)
    seed = isar._ppt_seed(values, t, 2)
    contrast = isar._contrast_evaluator(values, t[None, :] ** 2)
    assert contrast(seed) < contrast(np.zeros(1))
    result = icba_autofocus(hist, order=2)
    assert not result.improved
    assert result.polynomial.coefficients == (0.0,)
    assert result.contrast_after == result.contrast_before


def test_autofocus_transform_count(monkeypatch):
    clean = make_history(n_slow=4000, prf=2000.0, n_bins=49)
    t = clean.slow_time()
    hist = replace(clean, values=clean.values
                   * np.exp(1j * (50.0 * t**2 + 3.0 * t**3))[:, None])
    calls = count_transforms(monkeypatch)
    result = icba_autofocus(hist, order=3)
    # the unfocused image, one transform per order of the polynomial-phase
    # seed and one for its contrast, then a transform pair per BFGS evaluation
    assert len(calls) <= 50
    assert result.improved
    assert result.polynomial.coefficients[0] == pytest.approx(50.0, rel=0.01)


def test_autofocus_validation():
    hist = make_history()
    with pytest.raises(ValueError):
        icba_autofocus(hist, order=5)
    short = RangeProfileHistory(values=np.ones((32, 8), dtype=complex), prf=1000.0,
                                range_axis=np.arange(8.0), wavelength=0.03)
    with pytest.raises(ValueError, match="slow-time"):
        icba_autofocus(short, order=2)


@pytest.fixture(scope="module")
def t4_history():
    """The profile history of the bundled t4 scenario (seed 5), as the chain forms it."""
    cfg = load_config(CONFIG_DIR / "t4.yaml")
    body = cfg.isar.body
    dwells = simulate_isar_sequence(cfg.radar, body, cfg.isar.n_dwells, cfg.seed,
                                    cfg.noise_power)
    center = cfg.radar.range_bin_of(body.center_range_m)
    hw = cfg.isar.window_halfwidth_bins
    return extract_target_history([range_compress(d) for d in dwells],
                                  conventional_weights(cfg.steering_deg[0]),
                                  (center - hw, center + hw + 1))


@pytest.fixture(scope="module")
def t4_aligned(t4_history):
    """The aligned history of the bundled t4 scenario."""
    return range_align(t4_history)[0]


def test_range_align_matches_loop_oracle_on_t4(t4_history):
    assert_matches_loop_oracle(t4_history)


def test_range_align_peak_is_two_and_a_half_histories(t4_history):
    # the envelope spectrum of the magnitudes (half a history, then two while
    # it is transformed) is dropped before the final stage, which builds the
    # ramp in place and runs the forward transform, the ramp product and the
    # inverse transform in one buffer; the tail once held four histories
    _, peak = traced_peak(range_align, t4_history)
    assert peak <= 2.6 * t4_history.values.nbytes


#: injected phases: c_2, c_3, c_4 in rad/s^n
INJECTED_PHASES = {"none": (0.0,), "50t2": (50.0,), "-120t2+40t3": (-120.0, 40.0),
                   "20t2+30t4": (20.0, 0.0, 30.0), "-200t2": (-200.0,)}


def _injected(history, phase):
    t = history.slow_time()
    return replace(history, values=history.values * np.exp(
        1j * PhasePolynomial(coefficients=INJECTED_PHASES[phase]).phase(t))[:, None])


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("phase", list(INJECTED_PHASES))
def test_autofocus_matches_scipy_lbfgsb(t4_aligned, phase, order, monkeypatch):
    # the in-package BFGS against scipy's L-BFGS-B from the same seed: the same optimum
    injected = _injected(t4_aligned, phase)
    ours = icba_autofocus(injected, order=order)
    monkeypatch.setattr(isar, "_bfgs", lbfgsb_oracle)
    ref = icba_autofocus(injected, order=order)
    if (phase, order) == ("20t2+30t4", 3):
        # order 3 cannot fit the t^4 term, so the two stop on different local
        # optima; 77.90 is what a 21-point c2 grid with L-BFGS-B reached here
        assert ours.contrast_after >= 77.90
        return
    assert ours.contrast_after == pytest.approx(ref.contrast_after, rel=1e-9, abs=0)


#: (injected phase, order) cells whose error the polynomial order can fit
FITTABLE = [(phase, order) for phase, coeffs in INJECTED_PHASES.items()
            for order in (2, 3, 4) if len(coeffs) + 1 <= order]


@pytest.mark.parametrize("phase,order", FITTABLE)
def test_autofocus_focuses_every_fittable_cell(t4_aligned, phase, order):
    # the seed finds the basin of the focused image wherever the order fits the error
    focused = icba_autofocus(t4_aligned, order=order).contrast_after
    result = icba_autofocus(_injected(t4_aligned, phase), order=order)
    assert result.contrast_after >= 0.99 * focused


def test_autofocus_is_independent_of_the_layout(t4_aligned):
    # a C-ordered and an F-ordered copy of one history: the same coefficients, to the bit
    results = [icba_autofocus(replace(t4_aligned, values=layout(t4_aligned.values)), order=3)
               for layout in (np.ascontiguousarray, np.asfortranarray)]
    coeffs = [np.array(r.polynomial.coefficients).tobytes() for r in results]
    assert coeffs[0] == coeffs[1]
    assert results[0].contrast_after == results[1].contrast_after


def test_ppt_seed_is_independent_of_a_power_of_two_scale(t4_aligned):
    # the seed scales the history by a power of two before its lag products,
    # so 2**600 times the history, whose lag products would overflow, gives
    # the same bits at every order, without a warning
    x, t = np.asfortranarray(t4_aligned.values), t4_aligned.slow_time()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for order in (2, 3, 4):
            assert (isar._ppt_seed(x * 2.0**600, t, order).tobytes()
                    == isar._ppt_seed(x, t, order).tobytes())


def test_autofocus_peak_is_the_evaluator_buffers(t4_aligned):
    # the aligned history keeps slow time on its contiguous axis, so the
    # evaluator reads it in place; the corrected history, its spectrum and the
    # two real intensity buffers hold three histories, and the seed's lag
    # products, the mean's temporaries and the focused history each come while
    # those buffers are not alive
    _, peak = traced_peak(icba_autofocus, t4_aligned, order=3)
    assert peak <= 3.5 * t4_aligned.values.nbytes


def test_bfgs_on_an_ill_conditioned_quadratic(monkeypatch):
    rotation, _ = np.linalg.qr(np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 4.0], [5.0, 6.0, 0.0]]))
    hessian = rotation @ np.diag([1.0, 1e2, 1e4]) @ rotation.T
    minimum = np.array([1.0, -2.0, 0.5])

    def quadratic(x):
        calls.append(x)
        r = x - minimum
        return 0.5 * r @ hessian @ r, hessian @ r

    calls = []
    x, value = isar._bfgs(quadratic, np.zeros(3))
    assert len(calls) <= isar.AUTOFOCUS_MAX_EVALUATIONS
    np.testing.assert_allclose(x, minimum, rtol=0, atol=1e-6)
    assert value == quadratic(x)[0] < 1e-12
    start = quadratic(np.zeros(3))[0]
    for cap in (1, 2, 8):
        monkeypatch.setattr(isar, "AUTOFOCUS_MAX_EVALUATIONS", cap)
        calls = []
        x, value = isar._bfgs(quadratic, np.zeros(3))
        assert len(calls) == cap
        assert value == quadratic(x)[0] <= start


def test_form_image_peak_positions():
    # bin spacing 31.25 Hz: both tones sit exactly on a Doppler bin
    hist = make_history(n_slow=64, prf=2000.0, f1=125.0, f2=-312.5)
    image = form_image(hist, window="rectangular")
    assert image.magnitude.shape == (32, 64)
    r, d = np.unravel_index(np.argmax(image.magnitude), image.magnitude.shape)
    assert r == 10
    assert image.doppler_axis_hz[d] == pytest.approx(125.0)  # strongest scatterer
    # unitary transform: a unit on-bin tone integrates to sqrt(n_slow)
    assert image.magnitude[r, d] == pytest.approx(np.sqrt(64.0), rel=1e-9)
    second = np.argmin(np.abs(image.doppler_axis_hz + 312.5))
    assert image.magnitude[22, second] == pytest.approx(0.7 * np.sqrt(64.0), rel=1e-9)
    # the two tone cells carry all the power, so the contrast has a closed form
    power, n_cells = np.array([64.0, 0.49 * 64.0]), image.magnitude.size
    mean = power.sum() / n_cells
    want = np.sqrt(np.sum(power**2) / n_cells - mean**2) / mean
    assert image_contrast(image.magnitude) == pytest.approx(want)
    with pytest.raises(ConfigError):
        form_image(hist, window="kaiser")


def test_form_image_matches_dft_oracle():
    prf, n_range = 1000.0, 4
    for n_slow in (31, 32):
        rng = np.random.default_rng(n_slow)
        vals = rng.normal(size=(n_slow, n_range)) + 1j * rng.normal(size=(n_slow, n_range))
        hist = RangeProfileHistory(values=vals, prf=prf,
                                   range_axis=1500.0 + 2.4 * np.arange(n_range),
                                   wavelength=0.03)
        for window in sorted(WINDOWS):
            image = form_image(hist, window=window)
            w = unit_window_oracle(window, n_slow)
            want = np.empty((n_range, n_slow))
            for r in range(n_range):
                spec = dft_oracle(vals[:, r] * w) / np.sqrt(n_slow)
                # column j holds frequency index j - n_slow // 2
                for j in range(n_slow):
                    want[r, j] = abs(spec[(j - n_slow // 2) % n_slow])
            np.testing.assert_allclose(image.magnitude, want, rtol=0,
                                       atol=1e-10 * want.max())
            np.testing.assert_allclose(image.doppler_axis_hz,
                                       (np.arange(n_slow) - n_slow // 2) * prf / n_slow)
            np.testing.assert_array_equal(image.range_axis, hist.range_axis)
            assert image_contrast(image.magnitude) == pytest.approx(image_contrast(want),
                                                                    rel=1e-9)


def test_cross_range_scale_geometry():
    image = form_image(make_history(n_slow=64, prf=2000.0, f1=125.0, f2=-312.5),
                       window="rectangular")
    assert image.cross_range_axis_m is None
    scaled = cross_range_scale(image, rotation_rate=0.02)
    # one Doppler bin is lambda * delta_f / (2 omega) = 23.4375 m
    np.testing.assert_allclose(np.diff(scaled.cross_range_axis_m), 23.4375)
    col = np.argmin(np.abs(scaled.doppler_axis_hz - 125.0))
    assert scaled.cross_range_axis_m[col] == pytest.approx(125.0 * 0.03 / 0.04)
    # overestimating the rate shrinks the apparent extent proportionally
    tight = cross_range_scale(image, rotation_rate=0.03)
    np.testing.assert_allclose(tight.cross_range_axis_m * 1.5,
                               scaled.cross_range_axis_m)
    with pytest.raises(ValueError):
        cross_range_scale(image, rotation_rate=0.0)
