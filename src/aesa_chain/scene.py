"""Synthetic multichannel dwell generation.

Signal model per receive channel: every point return is a delayed linear-FM
pulse envelope multiplied by a slow-time Doppler phasor and by the channel's
subarray steering entry for the return's azimuth.  Jamming is spatially
rank-1 (the subarray signature of the jammer azimuth) and temporally white;
receiver noise is IID complex Gaussian per channel and sample.  An optional
clutter band adds slow-time-constant returns with exponentially distributed
power over the first range bins of the receive window.

Every echo (point target, clutter bin or rigid-body scatterer) is added by
``_add_echo`` only over the fast-time rows where its envelope is non-zero.
A dense add would contribute exactly zero outside them, so for finite inputs
(the scene dataclasses reject non-finite ones) the cube is bit-identical to
adding every return over the whole cube.  Noise is added in place, in row
blocks of at most 256 KiB through one real buffer, not through a second, real
cube.  ``_echo_dwell`` is the dwell before its noise, so that the t1-t3
front end can take each channel as soon as its noise is final.

Randomness flows through counter-based Philox generators so that a
(scenario, seed) pair is bit-reproducible.  Dwell ``d`` of a coherent
sequence uses key ``seed + d``; a single dwell uses key ``seed``.  A
sequence dwell depends on nothing but ``d`` and its key, so its dwells may be
simulated in any order, or on any thread, with the same bytes.

Sign conventions: a point target's ``radial_velocity`` is the closing speed
(positive toward the radar, giving a positive Doppler shift ``2 v / lambda``).
A rigid body's ``translational_velocity`` is a range rate (positive away from
the radar, so the range profile drifts toward larger range).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .geometry import (N_SUBARRAYS, SECTOR_HALF_WIDTH_DEG, SPEED_OF_LIGHT, _check_angle,
                       subarray_steering)


@dataclass(frozen=True)
class RadarParams:
    """Waveform and dwell parameters.

    The receive window spans ranges ``[r_min, r_max]``; fast-time samples
    start at delay ``2 r_min / c`` and the window is long enough that an echo
    from ``r_max`` is fully captured.
    """

    wavelength: float = 0.03        # m
    bandwidth: float = 50.0e6       # Hz
    pulse_width: float = 2.0e-6     # s
    prf: float = 2000.0             # Hz
    n_pulses: int = 128
    sample_rate: float = 62.5e6     # Hz
    r_min: float = 1500.0           # m
    r_max: float = 23500.0          # m

    def __post_init__(self):
        if not np.all(np.isfinite((self.wavelength, self.bandwidth, self.pulse_width, self.prf,
                                   self.sample_rate, self.r_min, self.r_max))):
            raise ValueError("waveform and receive window parameters must be finite")
        if min(self.wavelength, self.bandwidth, self.pulse_width, self.prf,
               self.sample_rate) <= 0.0:
            raise ValueError("waveform parameters must be positive")
        if self.n_pulses < 2:
            raise ValueError("n_pulses must be >= 2")
        if not 0.0 <= self.r_min < self.r_max:
            raise ValueError("require 0 <= r_min < r_max")
        if self.sample_rate < self.bandwidth:
            raise ValueError("sample_rate must be at least the bandwidth")
        if SPEED_OF_LIGHT / (2.0 * self.prf) < self.r_max:
            raise ValueError(
                "r_max exceeds the unambiguous range c / (2 prf) "
                f"({SPEED_OF_LIGHT / (2.0 * self.prf):.1f} m)"
            )
        # bounds both terms of n_fast, so that each rounds to an integer
        if not np.isfinite(self.sample_rate * (self.pulse_width + 2.0 * self.r_max
                                               / SPEED_OF_LIGHT)):
            raise ValueError("the pulse or the receive window has too many samples")
        if self.replica_length < 2:
            raise ValueError("pulse_width too short for the sample rate")

    @property
    def replica_length(self) -> int:
        """Transmit pulse length in fast-time samples."""
        return int(round(self.pulse_width * self.sample_rate))

    @property
    def n_fast(self) -> int:
        """Fast-time samples per pulse, covering r_min..r_max plus the pulse."""
        swath = int(round(2.0 * (self.r_max - self.r_min) / SPEED_OF_LIGHT
                          * self.sample_rate))
        return swath + self.replica_length

    @property
    def n_range_bins(self) -> int:
        """Range bins after matched filtering (valid correlation lags)."""
        return self.n_fast - self.replica_length + 1

    @property
    def range_bin_m(self) -> float:
        return SPEED_OF_LIGHT / (2.0 * self.sample_rate)

    @property
    def unambiguous_velocity(self) -> float:
        """Largest unaliased radial speed, lambda * prf / 4."""
        return self.wavelength * self.prf / 4.0

    @property
    def tau_min(self) -> float:
        """Delay of the first fast-time sample."""
        return 2.0 * self.r_min / SPEED_OF_LIGHT

    def range_axis(self) -> np.ndarray:
        """Range of each compressed bin in metres."""
        return self.r_min + np.arange(self.n_range_bins) * self.range_bin_m

    def doppler_bin_of(self, radial_velocity: float) -> int:
        """Unshifted DFT bin of a closing speed, modulo n_pulses."""
        fd = 2.0 * radial_velocity / self.wavelength
        return int(round(fd / self.prf * self.n_pulses)) % self.n_pulses

    def range_bin_of(self, range_m: float) -> int:
        """Compressed range bin of a target range."""
        return int(round(2.0 * (range_m - self.r_min) / SPEED_OF_LIGHT
                         * self.sample_rate))


@dataclass(frozen=True)
class PointTarget:
    """A point scatterer with calibrated post-processing SNR.

    ``snr_db`` is defined per channel at the range-Doppler map peak after the
    full matched-filter and rectangular-window Doppler gain, relative to the
    per-channel noise power.
    """

    range_m: float
    radial_velocity: float  # m/s, positive = closing
    azimuth_deg: float
    snr_db: float

    def __post_init__(self):
        if not np.all(np.isfinite((self.range_m, self.radial_velocity,
                                   self.azimuth_deg, self.snr_db))):
            raise ValueError("target range, velocity, azimuth and snr_db must be finite")
        if abs(self.azimuth_deg) > SECTOR_HALF_WIDTH_DEG:
            raise ValueError(f"target azimuth outside the +/-{SECTOR_HALF_WIDTH_DEG} deg sector")


@dataclass(frozen=True)
class JammerSource:
    """Spatially rank-1, temporally white noise jammer.

    ``jnr_db`` is the per-channel jammer-to-noise power ratio.
    """

    azimuth_deg: float
    jnr_db: float

    def __post_init__(self):
        if not np.isfinite(self.jnr_db):
            raise ValueError("jammer requires a finite jnr_db")
        _check_angle("jammer azimuth", self.azimuth_deg)


@dataclass(frozen=True)
class ClutterBand:
    """Zero-Doppler clutter over the first range bins of the window.

    Per-bin clutter power (after compression, per channel) is exponentially
    distributed with mean ``mean_power`` times the noise power.
    """

    enabled: bool = False
    n_range_bins: int = 12
    mean_power: float = 100.0

    def __post_init__(self):
        if self.enabled and (self.n_range_bins < 1 or not 0.0 < self.mean_power < np.inf):
            raise ValueError("enabled clutter needs n_range_bins >= 1 and a finite mean_power > 0")


@dataclass(frozen=True)
class RigidBodyTarget:
    """Rotating rigid body for inverse-synthetic imaging scenes.

    Scatterer ``i`` sits at (down_range, cross_range) offsets from the body
    centre and follows
    ``r_i(t) = center_range + v t + down*cos(omega t) - cross*sin(omega t)``.
    Scatterers are (down_range_m, cross_range_m, amplitude) triples with raw
    (pre-processing) envelope amplitudes.
    """

    center_range_m: float
    azimuth_deg: float
    rotation_rate: float            # rad/s
    scatterers: tuple = field(default_factory=tuple)
    translational_velocity: float = 0.0  # m/s, positive = receding

    def __post_init__(self):
        object.__setattr__(
            self, "scatterers",
            tuple((float(d), float(c), float(a)) for d, c, a in self.scatterers),
        )
        if len(self.scatterers) < 1:
            raise ValueError("rigid body needs at least one scatterer")
        if not (np.all(np.isfinite((self.center_range_m, self.azimuth_deg, self.rotation_rate,
                                    self.translational_velocity)))
                and np.all(np.isfinite(self.scatterers))):
            raise ValueError("rigid body motion, azimuth and scatterers must be finite")
        if abs(self.azimuth_deg) > SECTOR_HALF_WIDTH_DEG:
            raise ValueError(f"body azimuth outside the +/-{SECTOR_HALF_WIDTH_DEG} deg sector")

    def scatterer_range(self, t) -> np.ndarray:
        """(n_scatterers, n_times) instantaneous ranges."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        down, cross, _amp = np.array(self.scatterers).T[:, :, None]
        return (self.center_range_m + self.translational_velocity * t
                + down * np.cos(self.rotation_rate * t) - cross * np.sin(self.rotation_rate * t))


@dataclass
class RawDatacube:
    """One dwell of raw receive data, shape (n_channels, n_fast, n_pulses)."""

    values: np.ndarray
    params: RadarParams

    def __post_init__(self):
        if self.values.ndim != 3:
            raise ValueError("raw datacube must be 3-D (channels, fast, pulses)")


def transmit_pulse(params: RadarParams) -> np.ndarray:
    """Baseband samples of the linear-FM transmit pulse."""
    return _pulse_envelope(params, np.arange(params.replica_length) / params.sample_rate)


def _pulse_envelope(params: RadarParams, t: np.ndarray) -> np.ndarray:
    """Continuous-time LFM envelope evaluated at times t (s after pulse start)."""
    chirp_rate = params.bandwidth / params.pulse_width
    # edge guard: keep delays that are on a sample instant up to rounding
    # from dropping the boundary sample (shifts both edges, width preserved)
    edge = 1e-9 * params.pulse_width
    inside = (t >= -edge) & (t < params.pulse_width - edge)
    out = np.zeros(t.shape, dtype=complex)
    phase = np.pi * chirp_rate * (t[inside] - params.pulse_width / 2.0) ** 2
    out[inside] = np.exp(1j * phase)
    return out


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _add_noise(rng: np.random.Generator, out: np.ndarray, power: float,
               done=lambda c: None) -> None:
    """Add circular complex Gaussian samples of variance ``power`` to ``out``.

    ``out`` is one channel ``(n_fast, n_pulses)`` or a cube
    ``(n_channels, n_fast, n_pulses)``.  The real parts are drawn first, then
    the imaginary parts, so the stream matches one
    ``standard_normal((2,) + out.shape)`` draw.  Each part is drawn channel by
    channel, in row blocks of at most 256 KiB through one real buffer (the
    generator fills in stream order, so the split does not move a sample),
    then scaled and added in place, with the same roundings as adding the
    complex sample ``(z0 + j z1) * scale``.  ``done(c)`` is called once
    channel ``c`` is final, after its imaginary part.
    """
    scale = np.sqrt(power / 2.0)
    channels = out[None] if out.ndim == 2 else out
    step = max(1, 2**18 // (8 * channels.shape[2]))
    z = np.empty((min(step, channels.shape[1]), channels.shape[2]))
    for part, report in ((channels.real, lambda c: None), (channels.imag, done)):
        for c, channel in enumerate(part):
            for rows in np.split(channel, range(step, len(channel), step)):
                block = z[:len(rows)]
                rng.standard_normal(out=block)
                block *= scale
                rows += block
            report(c)


def _add_echo(cube: np.ndarray, gain: np.ndarray, env: np.ndarray,
              slow: np.ndarray | None = None) -> None:
    """Add the echo ``gain[ch] * env[fast, pulse] * slow[pulse]`` to ``cube``.

    The product is taken left to right, one channel at a time, so no
    temporary outgrows a channel; ``env`` is ``(n_fast, 1)`` or
    ``(n_fast, n_pulses)`` and ``slow`` is optional.  Only the rows from the
    first to the last non-zero row of ``env`` are touched.
    """
    rows = np.flatnonzero(env.any(axis=1))
    on = slice(rows[0], rows[-1] + 1)
    for channel, g in zip(cube, gain):
        channel[on] += g * env[on] if slow is None else g * env[on] * slow


def _channel_gain(sv: np.ndarray) -> float:
    """Common modulus of the entries of a subarray steering vector."""
    return float(np.abs(sv[0]))


def target_amplitude(params: RadarParams, snr_db: float, noise_power: float,
                     azimuth_deg: float) -> float:
    """Raw envelope amplitude giving a per-channel RD-peak SNR of snr_db.

    The calibration assumes the unit-energy matched filter and the
    rectangular-window unitary Doppler transform over the dwell, whose
    combined peak power gain is ``replica_length * n_pulses``, and the
    demonstrator array's channel gain at ``azimuth_deg``.
    """
    gain = params.replica_length * params.n_pulses
    g = _channel_gain(subarray_steering(azimuth_deg))
    return float(np.sqrt(10.0 ** (snr_db / 10.0) * noise_power / gain) / g)


def simulate_dwell(params: RadarParams, targets=(), jammer: JammerSource | None = None,
                   noise_power: float = 1.0, seed: int = 0,
                   clutter: ClutterBand | None = None,
                   noise: bool = True) -> RawDatacube:
    """Simulate one coherent dwell of the six-channel demonstrator receiver.

    Parameters
    ----------
    params : RadarParams
    targets : iterable of PointTarget
    jammer : JammerSource, optional
    noise_power : float
        Per-channel noise variance sigma^2; also the power reference for the
        target SNR and jammer JNR calibrations.  Must be positive.
    seed : int
        Key of the counter-based generator; identical inputs give
        bit-identical cubes.
    clutter : ClutterBand, optional
    noise : bool
        When False the noise draw is skipped (the calibration reference is
        unchanged), which makes the output linear in the target list.

    Returns
    -------
    RawDatacube
    """
    raw, rng = _echo_dwell(params, targets, jammer, noise_power, seed, clutter)
    if noise:
        _add_noise(rng, raw.values, noise_power)
    return raw


def _echo_dwell(params, targets, jammer, noise_power, seed, clutter) -> tuple:
    """``(raw, rng)``: the dwell of ``simulate_dwell`` before its receiver
    noise, and its generator positioned at the noise draw."""
    if noise_power <= 0.0:
        raise ValueError("noise_power must be positive")
    t_fast = params.tau_min + np.arange(params.n_fast) / params.sample_rate
    t_slow = np.arange(params.n_pulses) / params.prf

    cube = np.zeros((N_SUBARRAYS, params.n_fast, params.n_pulses), dtype=complex)

    for tgt in targets:
        if not (params.r_min <= tgt.range_m <= params.r_max):
            raise ValueError(
                f"target at {tgt.range_m:.1f} m rejected: outside the receive "
                f"window [{params.r_min:.1f}, {params.r_max:.1f}] m"
            )
        tau = 2.0 * tgt.range_m / SPEED_OF_LIGHT
        env = _pulse_envelope(params, t_fast - tau)
        doppler = np.exp(1j * 2.0 * np.pi * (2.0 * tgt.radial_velocity / params.wavelength) * t_slow)
        amp = target_amplitude(params, tgt.snr_db, noise_power, tgt.azimuth_deg)
        sv = subarray_steering(tgt.azimuth_deg)
        _add_echo(cube, amp * sv, env[:, None], doppler)

    rng = _rng(seed)

    if jammer is not None:
        sv = subarray_steering(jammer.azimuth_deg)
        scale = np.sqrt(10.0 ** (jammer.jnr_db / 10.0) * noise_power) / _channel_gain(sv)
        wave = np.zeros(cube.shape[1:], dtype=complex)
        _add_noise(rng, wave, 1.0)
        # one channel at a time, so no cube-sized temporary is built
        for channel, gain in zip(cube, scale * sv):
            channel += gain * wave

    if clutter is not None and clutter.enabled:
        n_bins = min(clutter.n_range_bins, params.n_range_bins)
        # Per-bin power target after compression: mean_power * noise_power,
        # exponential across bins (complex Gaussian amplitude).
        amp_scale = np.sqrt(clutter.mean_power * noise_power / params.replica_length)
        for b in range(n_bins):
            az = float(rng.uniform(-SECTOR_HALF_WIDTH_DEG, SECTOR_HALF_WIDTH_DEG))
            amp = amp_scale * (rng.normal() + 1j * rng.normal()) * np.sqrt(0.5)
            sv = subarray_steering(az)
            amp /= _channel_gain(sv)
            tau = 2.0 * (params.r_min + b * params.range_bin_m) / SPEED_OF_LIGHT
            env = _pulse_envelope(params, t_fast - tau)
            _add_echo(cube, amp * sv, env[:, None])

    return RawDatacube(values=cube, params=params), rng


def simulate_isar_sequence(params: RadarParams, body: RigidBodyTarget,
                           n_dwells: int, seed: int = 0,
                           noise_power: float = 1.0,
                           noise: bool = True) -> list:
    """Simulate a contiguous sequence of dwells over a rotating rigid body.

    Slow time runs continuously across dwells (dwell d, pulse p is
    ``t = (d * n_pulses + p) / prf``), so range walk and rotational Doppler
    arise from the exact scatterer ranges; the echo phase is
    ``-4 pi r(t) / lambda``.  Dwell d uses generator key ``seed + d``.
    """
    _check_isar_sequence(params, body, n_dwells, noise_power)
    return [_isar_dwell(params, body, d, seed, noise_power, noise) for d in range(n_dwells)]


def _check_isar_sequence(params: RadarParams, body: RigidBodyTarget, n_dwells: int,
                         noise_power: float) -> None:
    """The checks and warnings of a whole sequence, made once by its caller;
    the warnings point at the caller's caller."""
    if noise_power <= 0.0:
        raise ValueError("noise_power must be positive")
    if n_dwells < 1:
        raise ValueError("n_dwells must be >= 1")
    if body.rotation_rate == 0.0:
        warnings.warn("rotation rate is zero: no cross-range diversity", stacklevel=3)
    total_rotation = abs(body.rotation_rate) * n_dwells * params.n_pulses / params.prf
    if total_rotation >= 0.2:
        warnings.warn(
            f"total rotation {total_rotation:.3f} rad exceeds the small-angle "
            "regime; cross-range scaling will be approximate",
            stacklevel=3,
        )


def _isar_dwell(params: RadarParams, body: RigidBodyTarget, d: int, seed: int,
                noise_power: float = 1.0, noise: bool = True,
                out: np.ndarray | None = None) -> RawDatacube:
    """Dwell ``d`` of ``simulate_isar_sequence``, which depends on nothing but
    ``d`` and its key ``seed + d``, in a fresh cube or zeroed into ``out``."""
    t_fast = params.tau_min + np.arange(params.n_fast) / params.sample_rate
    t_slow = (d * params.n_pulses + np.arange(params.n_pulses)) / params.prf
    ranges = body.scatterer_range(t_slow)  # (n_scat, n_pulses)
    if np.any(ranges < params.r_min) or np.any(ranges > params.r_max):
        raise ConfigError("rigid body leaves the receive window during the sequence")
    sv = subarray_steering(body.azimuth_deg)
    if out is None:
        out = np.empty((N_SUBARRAYS, params.n_fast, params.n_pulses), dtype=complex)
    out.fill(0)
    for (_down, _cross, amp), r in zip(body.scatterers, ranges):
        env = _pulse_envelope(params, t_fast[:, None] - 2.0 * r / SPEED_OF_LIGHT)
        phase = np.exp(-1j * 4.0 * np.pi * r / params.wavelength)
        _add_echo(out, amp * sv, env * phase[None, :])
    if noise:
        _add_noise(_rng(seed + d), out, noise_power)
    return RawDatacube(values=out, params=params)
