"""Independent oracles used by the test suite.

Everything here is written from the definitions with explicit loops, not via
the package's vectorized code paths, so implementation and oracle can
disagree when one of them is wrong.
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


def steering_oracle(wavelength, positions, az_deg, el_deg=0.0):
    """Per-position phasors from the plane-wave path-length definition."""
    az = np.radians(az_deg)
    el = np.radians(el_deg)
    k = 2.0 * np.pi / wavelength
    out = []
    for x, y in positions:
        phase = k * (x * np.sin(az) * np.cos(el) + y * np.sin(el))
        out.append(complex(np.cos(phase), np.sin(phase)))
    return np.array(out)


def subarray_steering_oracle(wavelength, az_deg, el_deg=0.0, n_az=12, n_el=4,
                             sub_az=2, sub_el=4):
    """Channel steering as the plain average of each subarray's elements."""
    pitch = wavelength / 2.0
    n_sub = (n_az // sub_az) * (n_el // sub_el)
    acc = np.zeros(n_sub, dtype=complex)
    count = np.zeros(n_sub)
    for col in range(n_az):
        for row in range(n_el):
            x = (col - (n_az - 1) / 2.0) * pitch
            y = (row - (n_el - 1) / 2.0) * pitch
            sub = (col // sub_az) * (n_el // sub_el) + row // sub_el
            az = np.radians(az_deg)
            el = np.radians(el_deg)
            phase = 2.0 * np.pi / wavelength * (
                x * np.sin(az) * np.cos(el) + y * np.sin(el))
            acc[sub] += complex(np.cos(phase), np.sin(phase))
            count[sub] += 1
    return acc / count


def pattern_oracle_db(wavelength, channel_weights, az_grid_deg):
    """Receive power pattern of channel weights, by direct double summation.

    Channels are the six 2x4 subarrays of the 12x4 grid; each channel output
    is the mean of its element phasors.  Returns dB normalized to the grid
    maximum.
    """
    w = np.asarray(channel_weights)
    power = []
    for az in az_grid_deg:
        v = subarray_steering_oracle(wavelength, az)
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


def music_spectrum_oracle(cov, wavelength, az_grid_deg, n_sources):
    """Subspace pseudo-spectrum from an explicit eigendecomposition."""
    vals, vecs = np.linalg.eigh(cov)
    noise = vecs[:, : cov.shape[0] - n_sources]
    out = []
    for az in az_grid_deg:
        v = subarray_steering_oracle(wavelength, az)
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
    from aesa_chain.geometry import SPEED_OF_LIGHT, ArrayGeometry, subarray_steering
    from aesa_chain.scene import _pulse_envelope, _rng, target_amplitude

    geom = ArrayGeometry.demonstrator(params.wavelength)
    shape = (geom.n_subarrays, params.n_fast, params.n_pulses)
    t_fast = params.tau_min + np.arange(params.n_fast) / params.sample_rate
    t_slow = np.arange(params.n_pulses) / params.prf

    cube = np.zeros(shape, dtype=complex)
    for tgt in targets:
        env = _pulse_envelope(params, t_fast - 2.0 * tgt.range_m / SPEED_OF_LIGHT)
        doppler = np.exp(1j * 2.0 * np.pi * (2.0 * tgt.radial_velocity / params.wavelength)
                         * t_slow)
        amp = target_amplitude(params, tgt.snr_db, noise_power, geom, tgt.azimuth_deg)
        sv = subarray_steering(geom, tgt.azimuth_deg)
        cube += amp * sv[:, None, None] * env[None, :, None] * doppler[None, None, :]
    rng = _rng(seed)
    if jammer is not None and jammer.active:
        sv = subarray_steering(geom, jammer.azimuth_deg)
        scale = np.sqrt(10.0 ** (jammer.jnr_db / 10.0) * noise_power) / np.abs(sv[0])
        wave = _complex_noise(rng, shape[1:], 1.0)
        cube += scale * sv[:, None, None] * wave[None, :, :]
    if clutter is not None and clutter.enabled:
        amp_scale = np.sqrt(clutter.mean_power * noise_power / params.replica_length)
        for b in range(min(clutter.n_range_bins, params.n_range_bins)):
            az = float(rng.uniform(-22.5, 22.5))
            amp = amp_scale * (rng.normal() + 1j * rng.normal()) * np.sqrt(0.5)
            sv = subarray_steering(geom, az)
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
    from aesa_chain.geometry import SPEED_OF_LIGHT, ArrayGeometry, subarray_steering
    from aesa_chain.scene import _pulse_envelope, _rng

    geom = ArrayGeometry.demonstrator(params.wavelength)
    shape = (geom.n_subarrays, params.n_fast, params.n_pulses)
    t_fast = params.tau_min + np.arange(params.n_fast) / params.sample_rate
    sv = subarray_steering(geom, body.azimuth_deg)
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
