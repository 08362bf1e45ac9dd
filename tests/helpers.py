"""Independent oracles used by the test suite.

Everything here is written from the definitions with explicit loops, not via
the package's vectorized code paths, so implementation and oracle can
disagree when one of them is wrong.  The optimiser reference is scipy's
L-BFGS-B, against whose optimum the package's own BFGS is checked.
"""

import numpy as np


def element_positions_oracle(wavelength, n_az=12, n_el=4):
    """Centered half-wavelength grid positions, built by explicit loops."""
    pitch = wavelength / 2.0
    pos = []
    for col in range(n_az):
        for row in range(n_el):
            x = (col - (n_az - 1) / 2.0) * pitch
            y = (row - (n_el - 1) / 2.0) * pitch
            pos.append((x, y))
    return np.array(pos)


def steering_oracle(wavelength, positions, az_deg):
    """Per-position phasors from the plane-wave path-length definition, at
    zero elevation."""
    az = np.radians(az_deg)
    k = 2.0 * np.pi / wavelength
    out = []
    for x, _y in positions:
        phase = k * (x * np.sin(az))
        out.append(complex(np.cos(phase), np.sin(phase)))
    return np.array(out)


def subarray_steering_oracle(az_deg, n_az=12, n_el=4, sub_az=2):
    """Channel steering as the plain average of each subarray's elements, at
    zero elevation; each subarray spans ``sub_az`` columns of all rows.  At
    half-wavelength pitch the element phase ``2*pi/lambda * x * sin(az)`` is
    ``pi * n * sin(az)`` for the column offset ``n``, whatever the carrier."""
    n_sub = n_az // sub_az
    acc = np.zeros(n_sub, dtype=complex)
    count = np.zeros(n_sub)
    for col in range(n_az):
        for _row in range(n_el):
            sub = col // sub_az
            phase = np.pi * (col - (n_az - 1) / 2.0) * np.sin(np.radians(az_deg))
            acc[sub] += complex(np.cos(phase), np.sin(phase))
            count[sub] += 1
    return acc / count


def pattern_oracle_db(channel_weights, az_grid_deg):
    """Receive power pattern of channel weights, by direct double summation.

    Channels are the six 2x4 subarrays of the 12x4 grid; each channel output
    is the mean of its element phasors.  Returns dB normalized to the grid
    maximum.
    """
    w = np.asarray(channel_weights)
    power = []
    for az in az_grid_deg:
        v = subarray_steering_oracle(az)
        y = 0.0 + 0.0j
        for c in range(w.size):
            y += np.conj(w[c]) * v[c]
        power.append(abs(y) ** 2)
    power = np.array(power)
    return 10.0 * np.log10(power / power.max())


def gaussian_elimination_solve(a, b):
    """Solve a complex linear system by partial-pivot elimination, in loops."""
    a = np.array(a, dtype=complex)
    b = np.array(b, dtype=complex)
    n = a.shape[0]
    for k in range(n):
        pivot = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[pivot, k]) == 0.0:
            raise ZeroDivisionError("singular system")
        if pivot != k:
            a[[k, pivot]] = a[[pivot, k]]
            b[[k, pivot]] = b[[pivot, k]]
        for i in range(k + 1, n):
            f = a[i, k] / a[k, k]
            a[i, k:] -= f * a[k, k:]
            b[i] -= f * b[k]
    x = np.zeros(n, dtype=complex)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - np.dot(a[i, i + 1:], x[i + 1:])) / a[i, i]
    return x


def dft_oracle(x):
    """O(N^2) forward DFT."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        for m in range(n):
            out[k] += x[m] * np.exp(-2j * np.pi * k * m / n)
    return out


def unit_window_oracle(window, n):
    """Periodic window rebuilt from its definition, unit mean square."""
    a0 = {"rectangular": 1.0, "hann": 0.5, "hamming": 0.54}[window]
    w = a0 - (1.0 - a0) * np.cos(2 * np.pi * np.arange(n) / n)
    return w * np.sqrt(n / np.sum(w**2))


def cfar_oracle(power, pfa, n_train, n_guard):
    """Reference CA-CFAR: per-cell loops over the documented contract.

    Returns the set of (range_bin, doppler_bin) detections: cells whose full
    range training window fits, that exceed alpha times the mean of the
    2*n_train training cells, and that strictly dominate their 3x3
    neighbourhood.
    """
    p = np.asarray(power, dtype=float)
    n_r, n_d = p.shape
    n_cells = 2 * n_train
    alpha = n_cells * (pfa ** (-1.0 / n_cells) - 1.0)
    half = n_train + n_guard
    hits = set()
    for r in range(half, n_r - half):
        for d in range(n_d):
            train = 0.0
            for k in range(r - half, r - n_guard):
                train += p[k, d]
            for k in range(r + n_guard + 1, r + half + 1):
                train += p[k, d]
            if p[r, d] <= alpha * train / n_cells:
                continue
            peak = True
            for dr in (-1, 0, 1):
                for dd in (-1, 0, 1):
                    if dr == 0 and dd == 0:
                        continue
                    rr, cc = r + dr, d + dd
                    if 0 <= rr < n_r and 0 <= cc < n_d and p[rr, cc] >= p[r, d]:
                        peak = False
            if peak:
                hits.add((r, d))
    return hits


def music_spectrum_oracle(cov, az_grid_deg, n_sources):
    """Subspace pseudo-spectrum from an explicit eigendecomposition."""
    vals, vecs = np.linalg.eigh(cov)
    noise = vecs[:, : cov.shape[0] - n_sources]
    out = []
    for az in az_grid_deg:
        v = subarray_steering_oracle(az)
        v = v / np.sqrt(np.sum(np.abs(v) ** 2))
        q = 0.0
        for k in range(noise.shape[1]):
            q += abs(np.vdot(noise[:, k], v)) ** 2
        out.append(1.0 / max(q, np.finfo(float).tiny))
    return np.array(out)


def compress_oracle(params, channel, replica):
    """Unit-energy matched filter via direct valid-lag correlation."""
    replica = replica / np.sqrt(replica.size)
    out = np.empty((params.n_range_bins, channel.shape[1]), dtype=complex)
    for p in range(channel.shape[1]):
        out[:, p] = np.correlate(channel[:, p], replica, mode="valid")
    return out


def _complex_noise(rng, shape, power):
    """Circular complex Gaussian samples built as the array ``(z0 + j z1) * s``."""
    z = rng.standard_normal((2,) + shape)
    return (1j * z[1] + z[0]) * np.sqrt(power / 2.0)


def dense_dwell_oracle(params, targets=(), jammer=None, noise_power=1.0, seed=0,
                       clutter=None, noise=True):
    """``simulate_dwell`` as a dense accumulation over the whole cube.

    Every echo and clutter bin is added at every fast-time sample, zeros
    outside its pulse included, and the noise is built as the complex array
    ``(z0 + j z1) * s`` before it is added.  The envelope, steering,
    calibration and generator are the package's own, in the same order, so
    the result must equal the simulator's byte for byte.
    """
    from aesa_chain.geometry import N_SUBARRAYS, SPEED_OF_LIGHT, subarray_steering
    from aesa_chain.scene import _pulse_envelope, _rng, target_amplitude

    shape = (N_SUBARRAYS, params.n_fast, params.n_pulses)
    t_fast = params.tau_min + np.arange(params.n_fast) / params.sample_rate
    t_slow = np.arange(params.n_pulses) / params.prf

    cube = np.zeros(shape, dtype=complex)
    for tgt in targets:
        env = _pulse_envelope(params, t_fast - 2.0 * tgt.range_m / SPEED_OF_LIGHT)
        doppler = np.exp(1j * 2.0 * np.pi * (2.0 * tgt.radial_velocity / params.wavelength)
                         * t_slow)
        amp = target_amplitude(params, tgt.snr_db, noise_power, tgt.azimuth_deg)
        sv = subarray_steering(tgt.azimuth_deg)
        cube += amp * sv[:, None, None] * env[None, :, None] * doppler[None, None, :]
    rng = _rng(seed)
    if jammer is not None:
        sv = subarray_steering(jammer.azimuth_deg)
        scale = np.sqrt(10.0 ** (jammer.jnr_db / 10.0) * noise_power) / np.abs(sv[0])
        wave = _complex_noise(rng, shape[1:], 1.0)
        cube += scale * sv[:, None, None] * wave[None, :, :]
    if clutter is not None and clutter.enabled:
        amp_scale = np.sqrt(clutter.mean_power * noise_power / params.replica_length)
        for b in range(min(clutter.n_range_bins, params.n_range_bins)):
            az = float(rng.uniform(-22.5, 22.5))
            amp = amp_scale * (rng.normal() + 1j * rng.normal()) * np.sqrt(0.5)
            sv = subarray_steering(az)
            amp /= np.abs(sv[0])
            tau = 2.0 * (params.r_min + b * params.range_bin_m) / SPEED_OF_LIGHT
            env = _pulse_envelope(params, t_fast - tau)
            cube += amp * sv[:, None, None] * env[None, :, None]
    if noise:
        cube += _complex_noise(rng, shape, noise_power)
    return cube


def dense_isar_oracle(params, body, n_dwells, seed=0, noise_power=1.0, noise=True):
    """``simulate_isar_sequence`` as a dense accumulation over each dwell cube.

    Every scatterer is added at every fast-time sample of every pulse, zeros
    outside its pulse included, and dwell ``d`` adds the complex noise array
    drawn from key ``seed + d``.  The envelope, steering and generator are
    the package's own, in the same order, so the result must equal the
    simulator's byte for byte.
    """
    from aesa_chain.geometry import N_SUBARRAYS, SPEED_OF_LIGHT, subarray_steering
    from aesa_chain.scene import _pulse_envelope, _rng

    shape = (N_SUBARRAYS, params.n_fast, params.n_pulses)
    t_fast = params.tau_min + np.arange(params.n_fast) / params.sample_rate
    sv = subarray_steering(body.azimuth_deg)
    cubes = []
    for d in range(n_dwells):
        ranges = body.scatterer_range((d * params.n_pulses + np.arange(params.n_pulses))
                                      / params.prf)
        cube = np.zeros(shape, dtype=complex)
        for (_down, _cross, amp), r in zip(body.scatterers, ranges):
            env = _pulse_envelope(params, t_fast[:, None] - (2.0 * r / SPEED_OF_LIGHT)[None, :])
            phase = np.exp(-1j * 4.0 * np.pi * r / params.wavelength)
            cube += amp * sv[:, None, None] * (env * phase[None, :])[None, :, :]
        if noise:
            cube += _complex_noise(_rng(seed + d), shape, noise_power)
        cubes.append(cube)
    return cubes


def roll_align_oracle(values, prf):
    """Range alignment by envelope correlation against a rolled running mean.

    Each profile's envelope is correlated with the mean of the envelopes
    aligned so far, which are kept in the range domain and aligned with
    ``np.roll`` by their rounded shifts; the shifts are smoothed by a
    quadratic fit.  Returns (aligned values, smoothed shifts, raw shifts).
    """
    from aesa_chain.isar import _fractional_peak

    n_slow, n_bins = values.shape
    env = np.abs(values)
    shifts = np.zeros(n_slow)
    ref = env[0].copy()
    ref_count = 1
    for k in range(1, n_slow):
        spec = np.fft.fft(env[k]) * np.conj(np.fft.fft(ref / ref_count))
        shifts[k] = _fractional_peak(np.fft.ifft(spec).real)
        ref += np.roll(env[k], -int(round(shifts[k])))
        ref_count += 1
    t = np.arange(n_slow) / prf
    coeffs = np.polynomial.polynomial.polyfit(t, shifts, min(2, n_slow - 1))
    smooth = np.polynomial.polynomial.polyval(t, coeffs)
    smooth = smooth - smooth[0]
    freqs = np.fft.fftfreq(n_bins)
    ramp = np.exp(2j * np.pi * freqs[None, :] * smooth[:, None])
    aligned = np.fft.ifft(np.fft.fft(values, axis=1) * ramp, axis=1)
    return aligned, smooth, shifts


def traced_peak(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), peak)``: the result and the tracemalloc peak in
    bytes of the call, with the result still alive."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def subarray_steering_derivative_oracle(az_deg, n_az=12, n_el=4, sub_az=2):
    """Azimuth derivative (per radian) of ``subarray_steering_oracle``: each
    element phasor ``exp(j pi n sin(az))`` contributes
    ``j pi n cos(az) exp(j pi n sin(az))`` to its subarray's average."""
    az = np.radians(az_deg)
    n_sub = n_az // sub_az
    acc = np.zeros(n_sub, dtype=complex)
    count = np.zeros(n_sub)
    for col in range(n_az):
        for _row in range(n_el):
            n = col - (n_az - 1) / 2.0
            phase = np.pi * n * np.sin(az)
            rate = np.pi * n * np.cos(az)
            acc[col // sub_az] += 1j * rate * complex(np.cos(phase), np.sin(phase))
            count[col // sub_az] += 1
    return acc / count


def single_source_crb_std_deg(az_deg, snr_db, n_snapshots):
    """Square root of the deterministic Cramér–Rao bound on the azimuth of one
    source, in degrees (Stoica and Nehorai, IEEE TASSP 1989).

    Snapshots are ``a(az) s(t) + n(t)`` with unit noise power per channel and
    ``mean |s|^2 = 10^(snr_db/10)``; the bound is
    ``1 / (2 K P d^H P_a^perp d)`` with ``d = da/daz`` and ``P_a^perp`` the
    projector off ``a``.
    """
    a = subarray_steering_oracle(az_deg)
    d = subarray_steering_derivative_oracle(az_deg)
    aa = ad = dd = 0.0
    for c in range(a.size):
        aa += abs(a[c]) ** 2
        ad += np.conj(a[c]) * d[c]
        dd += abs(d[c]) ** 2
    projected = dd - abs(ad) ** 2 / aa
    power = 10.0 ** (snr_db / 10.0)
    crb_rad2 = 1.0 / (2.0 * n_snapshots * power * projected)
    return float(np.degrees(np.sqrt(crb_rad2)))


def rmb_sinr_loss_moments(n_snapshots, n_channels):
    """Mean and standard deviation of the SINR loss of the unloaded sample
    matrix inversion beamformer, which is Beta(K - N + 2, N - 1) distributed
    (Reed, Mallett and Brennan, IEEE TAES 1974)."""
    a = n_snapshots - n_channels + 2.0
    b = n_channels - 1.0
    mean = a / (a + b)
    var = a * b / ((a + b) ** 2 * (a + b + 1.0))
    return mean, float(np.sqrt(var))


def swerling1_ca_cfar_pd(alpha, n_cells, snr):
    """Detection probability of a cell-averaging CFAR with threshold factor
    ``alpha`` over ``n_cells`` exponential training cells, for a Swerling-1
    target of mean signal-to-noise ratio ``snr`` (linear):
    ``(1 + alpha / (N (1 + SNR)))^(-N)`` (Finn and Johnson, RCA Review 1968)."""
    return (1.0 + alpha / (n_cells * (1.0 + snr))) ** (-n_cells)


def lbfgsb_oracle(fun, x0):
    """``(x, value)`` of scipy's L-BFGS-B on ``fun(x) -> (value, gradient)``,
    capped as the autofocus refinement caps it: the reference optimum for the
    package's own optimiser."""
    from scipy.optimize import minimize

    from aesa_chain.isar import AUTOFOCUS_MAX_EVALUATIONS

    result = minimize(fun, x0, jac=True, method="L-BFGS-B",
                      options={"maxfun": AUTOFOCUS_MAX_EVALUATIONS})
    return result.x, result.fun
