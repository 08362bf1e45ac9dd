"""Experiment runners for the four chain test modes and report writing.

* t1: surveillance dwell, conventional beamforming, CFAR detection, single-
  source direction finding, comparison against local truth tracks.
* t2: jammer-cancellation comparison; conventional versus adaptive maps per
  steering angle with rejection levels and beamscan curves.
* t3: target masked by the jammer on the conventional map, recovered on the
  adaptive map, two-source direction finding on the unfiltered cube.
* t4: multi-dwell inverse-synthetic imaging with range alignment and
  contrast-based autofocus.

Reports are deterministic: a (configuration, seed) pair reproduces every
emitted byte.  All artifact numbers are recomputable from the emitted
intermediates.
"""

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .beamform import (BeamscanCurve, _scatter, apply_beamformer, beamscan,
                       conventional_weights, covariance_from_snapshots, estimate_covariance,
                       exclusion_mask, mvdr_weights, rejection_db)
from .config import ExperimentConfig, _loudest
from .detect import (_local_maxima, angular_error, cfar_detect, load_tracks, music_spectrum,
                     pick_peaks, select_training_subset, target_angular_span)
from .errors import ConfigError
from .geometry import N_SUBARRAYS, SECTOR_HALF_WIDTH_DEG, ArrayGeometry, geometry_table
from .gridio import Grid, GridAxis, write_csv, write_grid
from .isar import (RangeProfileHistory, cross_range_scale, form_image, icba_autofocus,
                   range_align)
from .rdproc import (RDDatacube, _beam_stream, _drain, _fast_len, _match_rows,
                     _matched_filter, _rd_rows, _rd_stream, _slow_time_dft, _workers)
from .scene import _add_noise, _check_isar_sequence, _echo_dwell, _isar_dwell, simulate_dwell
from .version import __version__

#: field-trial jammer rejection reference per steering angle (deg -> dB),
#: carried in t2 reports as a comparison band for the simulated values
FIELD_REFERENCE_REJECTION_DB = {
    -20.0: 30.9,
    -10.0: 32.4,
    0.0: 31.6,
    10.0: 18.8,
    20.0: 39.5,
}

#: mean of the field-trial reference rejections, dB
FIELD_REFERENCE_AVERAGE_DB = 30.6

#: beamscan grid step, deg
BEAMSCAN_STEP_DEG = 0.5

#: floor of the dB range-Doppler map grids below their joint peak, dB
MAP_FLOOR_DB = -200.0

#: most scatterers reported from a t4 image, and their floor below its peak (dB)
MAX_IMAGE_PEAKS, IMAGE_PEAK_FLOOR_DB = 10, -25.0


@dataclass
class ExperimentReport:
    """Everything run_experiment produced, before serialization."""

    mode: str
    seed: int
    config_sha256: str
    package_version: str
    adaptive: bool
    metrics: dict = field(default_factory=dict)
    grids: dict = field(default_factory=dict)     # name -> Grid
    tables: dict = field(default_factory=dict)    # name -> (header, rows)
    geometry_rows: list | None = None


def _fmt(value) -> str:
    """Deterministic scalar formatting for reports."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _clutter_mask(cfg: ExperimentConfig, shape) -> np.ndarray | None:
    """Cells dominated by the simulated clutter band (full Doppler extent)."""
    if not cfg.clutter.enabled:
        return None
    mask = np.zeros(shape, dtype=bool)
    mask[:cfg.clutter.n_range_bins] = True
    return mask


def _music_grid(cfg: ExperimentConfig) -> np.ndarray:
    step = cfg.processing.music_grid_step_deg
    n = int(round(2.0 * SECTOR_HALF_WIDTH_DEG / step))
    return -SECTOR_HALF_WIDTH_DEG + step * np.arange(n + 1)


def _detection_matches(det, range_bin: int, doppler_bin: int, tol: int = 3) -> bool:
    return abs(det.range_bin - range_bin) <= tol and abs(det.doppler_bin - doppler_bin) <= tol


def _detection_rows(detections):
    header = ("range_bin", "doppler_bin", "range_m", "radial_velocity_mps",
              "peak_power_db", "threshold_db")
    rows = [(d.range_bin, d.doppler_bin, f"{d.range_m:.3f}",
             f"{d.radial_velocity:.6f}", f"{d.peak_power_db:.6f}",
             f"{d.threshold_db:.6f}") for d in detections]
    return header, rows


def _spectrum_rows(spectrum):
    header = ("azimuth_deg", "pseudo_power_db")
    db = spectrum.db()
    rows = [(f"{a:.2f}", f"{v:.6f}") for a, v in zip(spectrum.azimuth_deg, db)]
    return header, rows


def run_experiment(cfg: ExperimentConfig, emit_raw: bool = False) -> ExperimentReport:
    """Run the configured chain test and return its report; ``emit_raw`` then adds the raw
    grids of dwell 0, simulated again for them once the chain has run (see ``_raw_grids``),
    so that a scenario the runner refuses fails before the flag simulates anything."""
    runner = {"t1": _run_t1, "t2": _run_t2, "t3": _run_t3, "t4": _run_t4}[cfg.mode]
    geom = ArrayGeometry.demonstrator(cfg.radar.wavelength)
    report = ExperimentReport(mode=cfg.mode, seed=cfg.seed, config_sha256=cfg.hash(),
                              package_version=__version__, adaptive=cfg.adaptive,
                              geometry_rows=geometry_table(geom))
    runner(cfg, report)
    if emit_raw:
        _raw_grids(report, cfg)
    return report


def _raw_grids(report: ExperimentReport, cfg: ExperimentConfig) -> None:
    """``raw_ch0.aesg`` to ``raw_ch5.aesg``: dwell 0 as the reference simulator gives it, cast
    to the float32 pairs the grids hold, so the chain never keeps a raw cube for them.  A part
    that is not finite as a float32 is a configuration error, named by the largest return."""
    params = cfg.radar
    raw = (_isar_dwell(params, cfg.isar.body, 0, cfg.seed, cfg.noise_power) if cfg.isar else
           simulate_dwell(params, cfg.targets, cfg.jammer, cfg.noise_power, cfg.seed, cfg.clutter))
    with np.errstate(over="ignore"):
        cube = raw.values.astype(np.complex64)
    if not np.isfinite(cube).all():
        raise ConfigError(f"--emit-raw: {_loudest(cfg)[0]}: a raw sample of dwell 0 passes "
                          f"the largest float32, which raw_ch*.aesg holds")
    fast_axis = GridAxis(start=params.tau_min, step=1.0 / params.sample_rate, unit="s")
    slow_axis = GridAxis(start=0.0, step=1.0 / params.prf, unit="s")
    for c, values in enumerate(cube):
        report.grids[f"raw_ch{c}.aesg"] = Grid(values=values, row_axis=fast_axis,
                                               col_axis=slow_axis)


def _axis(values: np.ndarray, unit: str) -> GridAxis:
    """Grid descriptor of a uniform physical axis."""
    return GridAxis(start=float(values[0]), step=float(values[1] - values[0]), unit=unit)


def _joint_db(complex_map: np.ndarray, joint_peak: float) -> np.ndarray:
    """The map's power in dB below ``joint_peak``, floored at ``MAP_FLOOR_DB``: computed in
    place in one float64 map and returned as the float32 the grid file holds."""
    ref = joint_peak**2
    if ref <= 0.0:
        return np.full(complex_map.shape, MAP_FLOOR_DB, dtype=np.float32)
    db = np.abs(complex_map)
    np.square(db, out=db)
    db /= ref
    np.maximum(db, 10.0 ** (MAP_FLOOR_DB / 10.0), out=db)
    np.log10(db, out=db)
    db *= 10.0
    return np.maximum(db, MAP_FLOOR_DB, out=db).astype(np.float32)


def _map_grids(report: ExperimentReport, rd, steer: float, maps: dict) -> None:
    """dB range-Doppler grids of one steering, keyed by beamformer kind.

    The maps share one scale: each is normalized to the joint peak of all.
    """
    row_axis, col_axis = _axis(rd.range_axis, "m"), _axis(rd.velocity_axis, "m/s")
    peak = max(np.max(np.abs(m)) for m in maps.values())
    for kind, m in maps.items():
        report.grids[f"map_{kind}_steer{steer:+.1f}deg.aesg"] = Grid(
            values=_joint_db(m, peak), row_axis=row_axis, col_axis=col_axis)


def _dwell(cfg: ExperimentConfig) -> tuple:
    """Simulate and process the configured dwell into its six-channel map, as t2
    and t3 need it, their covariances training on the whole map; returns (rd,
    clutter mask).  t1 needs no such map (see ``_beam_dwell``).

    The range-Doppler cube is written over the raw cube's storage, so only
    one cube is held (``--emit-raw`` simulates its own copy of the dwell);
    the cube's noise is drawn here while the front end runs.
    """
    raw, rng = _echo_dwell(cfg.radar, cfg.targets, cfg.jammer, cfg.noise_power,
                           cfg.seed, cfg.clutter)
    rd = _rd_stream(raw, cfg.processing.window, cfg.processing.doppler_oversample,
                    reuse_raw=True,
                    fill=lambda done: _add_noise(rng, raw.values, cfg.noise_power, done))
    return rd, _clutter_mask(cfg, rd.values.shape[1:])


def _cfar(cfg: ExperimentConfig, rd, complex_map: np.ndarray) -> list:
    """CFAR detections on the power of a beamformed range-Doppler map."""
    proc = cfg.processing
    return cfar_detect(np.abs(complex_map) ** 2, proc.pfa, proc.cfar_train,
                       proc.cfar_guard, rd.range_axis, rd.velocity_axis)


def _music(cfg: ExperimentConfig, report: ExperimentReport, rd, det, cmask,
           default_sources: int) -> tuple:
    """Subspace direction finding on the cells around a detection.

    Adds ``spectrum.csv`` to the report; returns (covariance, peaks).
    """
    proc = cfg.processing
    n_sources = proc.music_sources or default_sources
    snaps = select_training_subset(rd, det, window=proc.music_window_bins,
                                   guard=proc.music_guard_bins,
                                   clutter_mask=cmask)
    cov = covariance_from_snapshots(snaps, loading_db=proc.loading_db)
    spectrum = music_spectrum(cov, _music_grid(cfg), n_sources)
    report.tables["spectrum.csv"] = _spectrum_rows(spectrum)
    return cov, pick_peaks(spectrum, n_sources)


# ---------------------------------------------------------------------------
# t1: detection and single-source direction finding


def _run_t1(cfg: ExperimentConfig, report: ExperimentReport) -> None:
    """Detect on the conventional beam, then find the direction at the strongest
    detection from six-channel data formed for the MUSIC window's rows alone.

    ``_beam_dwell`` gives the beam's map and its power, and keeps the raw cube;
    ``_window_rd`` takes the window's rows from it, after which the cube is
    dropped, before the snapshots are chosen.  No six-channel map is formed: a
    subarrayed array detects on the sum beam and uses its subarray outputs at the
    detected cell (Nickel, IEEE Radar Conf. 1995).
    """
    # a malformed truth-track file fails before the dwell is simulated
    tracks = load_tracks(cfg.truth_tracks) if cfg.truth_tracks is not None else None
    proc = cfg.processing
    steer = cfg.steering_deg[0]
    rd, power, raw = _beam_dwell(cfg, conventional_weights(steer))
    cmask = _clutter_mask(cfg, power.shape)
    detections = cfar_detect(power, proc.pfa, proc.cfar_train, proc.cfar_guard,
                             rd.range_axis, rd.velocity_axis)
    if cmask is not None:
        detections = [d for d in detections if not cmask[d.range_bin, d.doppler_bin]]

    metrics = report.metrics
    metrics["steer_azimuth_deg"] = float(steer)
    metrics["n_detections"] = len(detections)
    report.tables["detections.csv"] = _detection_rows(detections)

    if detections:
        det = detections[0]
        metrics["detection_range_m"] = det.range_m
        metrics["detection_velocity_mps"] = det.radial_velocity
        window, det, cmask = _window_rd(cfg, raw, rd, det, cmask)
        del raw, rd, power  # the window is all MUSIC reads
        cov, peaks = _music(cfg, report, window, det, cmask, default_sources=1)
        metrics["music_snapshots"] = cov.snapshot_count
        if not peaks.azimuths:  # no local maximum on the MUSIC grid: no bearing
            metrics["music_complete"] = False
            return
        metrics["azimuth_estimate_deg"] = peaks.azimuths[0]
        if tracks is not None:
            in_range = [t for t in tracks
                        if abs(t.range_m - det.range_m) <= proc.assoc_tolerance_m]
            if in_range:
                track = min(in_range, key=lambda t: abs(t.range_m - det.range_m))
                err = angular_error(peaks.azimuths[0], track)
                los = cfg.radar_heading_deg + track.azimuth_deg
                span = target_angular_span(track, los, err)
                metrics["track_name"] = track.name
                metrics["track_azimuth_deg"] = track.azimuth_deg
                metrics["angular_error_deg"] = err
                metrics["projected_size_m"] = span.projected_m
                metrics["angular_span_deg"] = span.span_deg
                metrics["within_target"] = span.within_target
            else:
                metrics["track_name"] = "unassociated"


def _beam_dwell(cfg: ExperimentConfig, weights) -> tuple:
    """t1's front end: ``(rd, power, raw)``, the one-channel range-Doppler map of
    the beam of ``weights``, its power and the raw cube, kept for ``_window_rd``.

    While the calling thread draws the noise, one worker adds each final channel
    into the beam (``_beam_stream``); the fused kernel then writes the beam's map
    over the beam's storage.  The beam and the kernel's padded spectrum are one
    block, and the power map is computed in the spectrum's storage, so that past
    the raw cube the front end holds that block alone.
    """
    params, proc = cfg.radar, cfg.processing
    raw, rng = _echo_dwell(params, cfg.targets, cfg.jammer, cfg.noise_power, cfg.seed,
                           cfg.clutter)
    n_beam, n_dop = params.n_fast * params.n_pulses, proc.doppler_oversample * params.n_pulses
    block = np.empty(n_beam + n_dop * _fast_len(params.n_fast), dtype=complex)
    beam = block[:n_beam].reshape(1, params.n_fast, params.n_pulses)
    spec = block[n_beam:].reshape(n_dop, -1)
    _beam_stream(raw.values, weights.values, beam[0],
                 fill=lambda done: _add_noise(rng, raw.values, cfg.noise_power, done))
    rd = _rd_stream(replace(raw, values=beam), proc.window, proc.doppler_oversample,
                    reuse_raw=True, spectra=[spec])
    power = spec.reshape(-1).view(float)[:rd.values[0].size].reshape(rd.values.shape[1:])
    np.abs(rd.values[0], out=power)
    np.square(power, out=power)
    return rd, power, raw


def _window_rd(cfg: ExperimentConfig, raw, rd, det, cmask) -> tuple:
    """``(window, det, cmask)``: the six-channel range-Doppler rows of the MUSIC
    window about ``det``, clipped to the map (``rdproc._rd_rows``), with the
    detection and the clutter mask shifted to those rows."""
    proc = cfg.processing
    half = int(proc.music_window_bins[0])
    rows = slice(max(det.range_bin - half, 0),
                 min(det.range_bin + half + 1, len(rd.range_axis)))
    window = RDDatacube(values=_rd_rows(raw, rows, proc.window, proc.doppler_oversample),
                        range_axis=rd.range_axis[rows], velocity_axis=rd.velocity_axis,
                        params=rd.params)
    return (window, replace(det, range_bin=det.range_bin - rows.start),
            None if cmask is None else cmask[rows])


# ---------------------------------------------------------------------------
# t2: jammer cancellation


def _run_t2(cfg: ExperimentConfig, report: ExperimentReport) -> None:
    rd, cmask = _dwell(cfg)
    proc = cfg.processing
    metrics = report.metrics
    metrics["steering_deg"] = list(cfg.steering_deg)

    if not cfg.adaptive:
        # Manual jammer flag off: conventional maps only, no rejection study.
        for steer in cfg.steering_deg:
            conv = apply_beamformer(rd, conventional_weights(steer))
            _map_grids(report, rd, steer, {"conventional": conv})
        return

    cov0 = estimate_covariance(rd, exclusion_mask(rd.values.shape[1:], clutter_mask=cmask),
                               proc.loading_db)

    # First pass: detections on the adaptive maps define the guard cells.
    detections = []
    for steer in cfg.steering_deg:
        detections += _cfar(cfg, rd, apply_beamformer(rd, mvdr_weights(cov0, steer)))
    meas_mask = exclusion_mask(rd.values.shape[1:], detections,
                               guard=proc.detection_guard, clutter_mask=cmask)

    # Second pass: final covariance excludes the detection guards.
    cov = estimate_covariance(rd, meas_mask, proc.loading_db)

    rejections = []
    for steer in cfg.steering_deg:
        conv = apply_beamformer(rd, conventional_weights(steer))
        adap = apply_beamformer(rd, mvdr_weights(cov, steer))
        rejections.append(rejection_db(conv, adap, meas_mask))
        _map_grids(report, rd, steer, {"conventional": conv, "mvdr": adap})

    grid = np.arange(-SECTOR_HALF_WIDTH_DEG, SECTOR_HALF_WIDTH_DEG + BEAMSCAN_STEP_DEG / 2,
                     BEAMSCAN_STEP_DEG)
    scatter, _k = _scatter(rd.values)  # one sum of the cube for both scans
    scan_conv = beamscan(rd, grid, scatter=scatter)
    scan_mvdr = beamscan(rd, grid, cov=cov, scatter=scatter)

    metrics["rejection_db"] = rejections
    metrics["average_rejection_db"] = float(np.mean(rejections))
    metrics["reference_average_rejection_db"] = FIELD_REFERENCE_AVERAGE_DB
    metrics["n_guard_detections"] = len(detections)
    metrics["training_snapshots"] = cov.snapshot_count

    report.tables["rejection.csv"] = (
        ("steering_deg", "rejection_db", "field_reference_db"),
        [(f"{s:.1f}", f"{r:.6f}",
          f"{FIELD_REFERENCE_REJECTION_DB.get(float(s), float('nan')):.1f}")
         for s, r in zip(cfg.steering_deg, rejections)],
    )
    report.tables["beamscan.csv"] = _beamscan_rows(scan_conv, scan_mvdr)
    report.tables["detections.csv"] = _detection_rows(detections)


def _beamscan_rows(conv: BeamscanCurve, mvdr: BeamscanCurve):
    header = ("azimuth_deg", "conventional_energy", "mvdr_energy",
              "conventional_db", "mvdr_db")
    ref = conv.energy.max()
    rows = []
    for i, az in enumerate(conv.azimuth_deg):
        rows.append((
            f"{az:.2f}",
            f"{conv.energy[i]:.6e}",
            f"{mvdr.energy[i]:.6e}",
            f"{10.0 * np.log10(conv.energy[i] / ref):.6f}",
            f"{10.0 * np.log10(mvdr.energy[i] / ref):.6f}",
        ))
    return header, rows


# ---------------------------------------------------------------------------
# t3: masked-target recovery and two-source direction finding


def _run_t3(cfg: ExperimentConfig, report: ExperimentReport) -> None:
    rd, cmask = _dwell(cfg)
    proc = cfg.processing
    steer = cfg.steering_deg[0]

    target = cfg.targets[0]
    true_rbin = cfg.radar.range_bin_of(target.range_m)
    true_dbin_unshifted = cfg.radar.doppler_bin_of(target.radial_velocity)
    nfft = cfg.radar.n_pulses * proc.doppler_oversample
    true_dbin = (true_dbin_unshifted * proc.doppler_oversample + nfft // 2) % nfft

    conv = apply_beamformer(rd, conventional_weights(steer))
    conv_dets = _cfar(cfg, rd, conv)
    conv_hit = any(_detection_matches(d, true_rbin, true_dbin) for d in conv_dets)

    cov = estimate_covariance(rd, exclusion_mask(rd.values.shape[1:], clutter_mask=cmask),
                              proc.loading_db)
    adap = apply_beamformer(rd, mvdr_weights(cov, steer))
    adap_dets = _cfar(cfg, rd, adap)
    matching = [d for d in adap_dets if _detection_matches(d, true_rbin, true_dbin)]
    adap_hit = bool(matching)

    metrics = report.metrics
    metrics.update({
        "steer_azimuth_deg": float(steer),
        "target_range_bin": true_rbin,
        "target_doppler_bin": true_dbin,
        "conventional_target_detected": conv_hit,
        "mvdr_target_detected": adap_hit,
        "n_conventional_detections": len(conv_dets),
        "n_mvdr_detections": len(adap_dets),
    })
    report.tables["detections_conventional.csv"] = _detection_rows(conv_dets)
    report.tables["detections_mvdr.csv"] = _detection_rows(adap_dets)

    if adap_hit:
        _cov, peaks = _music(cfg, report, rd, matching[0], cmask, default_sources=2)
        metrics["music_peaks_deg"] = peaks.azimuths
        metrics["music_complete"] = peaks.complete

        if cfg.jammer is not None and peaks.azimuths:
            jammer_az = cfg.jammer.azimuth_deg
            others = list(peaks.azimuths)
            by_jammer = others.pop(min(range(len(others)),
                                       key=lambda i: abs(others[i] - jammer_az)))
            metrics["jammer_estimate_deg"] = by_jammer
            metrics["jammer_error_deg"] = angular_error(by_jammer, jammer_az)
            if others:
                tgt_az = min(others, key=lambda a: abs(a - target.azimuth_deg))
                metrics["target_estimate_deg"] = tgt_az
                metrics["target_error_deg"] = angular_error(tgt_az, target.azimuth_deg)

    _map_grids(report, rd, steer, {"conventional": conv, "mvdr": adap})


# ---------------------------------------------------------------------------
# t4: inverse-synthetic imaging


def _run_t4(cfg: ExperimentConfig, report: ExperimentReport) -> None:
    """Dwell 0 runs here and centres the history's range window on the strongest range bin of
    its beamformed map, with no CFAR (see ``_image_window``); ``_drain`` runs every other
    dwell, which writes its own rows of the history.  The history, at its widest, and per
    thread a raw cube and a padded spectrum, where a dwell is simulated, beamformed and
    compressed, are dropped before the back end; ``--emit-raw`` simulates dwell 0 again."""
    isar_cfg, params, body, n = cfg.isar, cfg.radar, cfg.isar.body, cfg.isar.n_dwells
    _check_isar_sequence(params, body, n, cfg.noise_power)
    n_p, n_fast = params.n_pulses, params.n_fast
    # F order: the window is a contiguous column slice, and the aligned history keeps the
    # order, which the autofocus reads without a copy (C order peaked at 15.3 MiB, not
    # 12.3); allocated before the buffer sets, below them in the heap, for a lower peak RSS
    rows = np.empty((n * n_p, min(2 * isar_cfg.window_halfwidth_bins + 1, params.n_range_bins)),
                    dtype=complex, order="F")
    match, w = _matched_filter(params), conventional_weights(cfg.steering_deg[0]).values.conj()
    sets = [(np.empty((N_SUBARRAYS, n_fast, n_p), dtype=complex),
             np.empty((n_p, match.size), dtype=complex)) for _ in range(_workers(n - 1))]

    def compress(d: int, cube: np.ndarray, spec: np.ndarray) -> None:
        raw = _isar_dwell(params, body, d, cfg.seed, cfg.noise_power, out=cube)
        np.einsum("c,cfp->pf", w, raw.values, out=spec[:, :n_fast])
        _match_rows(spec, match, n_fast)

    def dwell(d: int, buffers: tuple) -> None:
        cube, spec = buffers
        compress(d, cube, spec)
        history.values[d * n_p:(d + 1) * n_p] = spec[:, lo:hi]

    def later_dwells(put) -> None:
        for d in range(1, n):
            put(d)

    cube, spec = sets[0]
    compress(0, cube, spec)
    lo, hi = _image_window(cfg, spec[:, :params.n_range_bins])
    history = RangeProfileHistory(rows[:, :hi - lo], params.prf, params.range_axis()[lo:hi],
                                  params.wavelength)
    history.values[:n_p] = spec[:, lo:hi]
    _drain(later_dwells, dwell, sets, "isar_dwell")
    del sets, cube, spec, rows  # the front end's buffers, before the back end
    aligned, shifts = range_align(history)
    del history  # the back end needs only the aligned history
    focus = icba_autofocus(aligned, isar_cfg.autofocus_order)
    image = form_image(focus.history, window=isar_cfg.image_window)
    omega = isar_cfg.omega_for_scaling_rad_s or body.rotation_rate
    image = cross_range_scale(image, omega)
    peaks = _image_peaks(image)

    report.metrics.update({
        "steer_azimuth_deg": float(cfg.steering_deg[0]),
        "window_range_bins": [lo, hi],
        "slow_time_samples": aligned.n_slow,
        "contrast_before_autofocus": focus.contrast_before,
        "contrast_after_autofocus": focus.contrast_after,
        "autofocus_improved": focus.improved,
        "phase_coefficients": list(focus.polynomial.coefficients),
        "rotation_rate_for_scaling": float(omega),
        "cross_range_bin_m": _axis(image.cross_range_axis_m, "m").step,
        "n_image_peaks": len(peaks),
        "alignment_shift_rms_bins": float(np.sqrt(np.mean(shifts**2))),
    })

    report.tables["scatterers.csv"] = (
        ("range_m", "cross_range_m", "doppler_hz", "relative_db"),
        [(f"{r:.3f}", f"{x:.4f}", f"{f:.4f}", f"{db:.3f}") for r, x, f, db in peaks],
    )
    report.tables["alignment.csv"] = (
        ("slow_index", "shift_bins"),
        [(k, f"{s:.6f}") for k, s in enumerate(shifts)],
    )
    report.grids["isar_image.aesg"] = Grid(values=image.magnitude,
                                           row_axis=_axis(image.range_axis, "m"),
                                           col_axis=_axis(image.cross_range_axis_m, "m"))


def _image_window(cfg: ExperimentConfig, rows: np.ndarray) -> tuple:
    """The t4 history's range span: ``window_halfwidth_bins`` either side of the range bin of
    the largest power on the first dwell's map, the Doppler transform of its beamformed,
    compressed ``(n_pulses, n_range_bins)`` ``rows``, clipped to the swath.  No CFAR runs:
    its window would leave the bins at the swath's edges untested."""
    proc = cfg.processing
    bmap, _freqs = _slow_time_dft(rows.T, proc.window, cfg.radar.prf, proc.doppler_oversample)
    center_bin = int(np.argmax((np.abs(bmap) ** 2).max(axis=1)))
    hw = cfg.isar.window_halfwidth_bins
    return max(center_bin - hw, 0), min(center_bin + hw + 1, rows.shape[1])


def _image_peaks(image) -> list:
    """The strongest local maxima of the image magnitude above a relative floor."""
    m = image.magnitude
    peak = m.max()
    if peak <= 0.0:
        return []
    is_peak = _local_maxima(m, np.greater_equal)
    is_peak &= m > peak * 10.0 ** (IMAGE_PEAK_FLOOR_DB / 20.0)
    order = np.argsort(m[is_peak])[::-1][:MAX_IMAGE_PEAKS]
    return [(float(image.range_axis[r]), float(image.cross_range_axis_m[d]),
             float(image.doppler_axis_hz[d]), float(20.0 * np.log10(m[r, d] / peak)))
            for r, d in np.argwhere(is_peak)[order]]


# ---------------------------------------------------------------------------
# serialization


def write_report(report: ExperimentReport, out_dir,
                 dump_geometry: bool = False) -> list:
    """Serialize a report deterministically; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    for name in sorted(report.tables):
        header, rows = report.tables[name]
        written.append(write_csv(out / name, header, rows))
    for name in sorted(report.grids):
        grid = report.grids[name]
        written.append(write_grid(out / name, grid.values, grid.row_axis,
                                  grid.col_axis))
    if dump_geometry and report.geometry_rows is not None:
        rows = [(f"{x:.6f}", f"{y:.6f}", s) for x, y, s in report.geometry_rows]
        written.append(write_csv(out / "geometry.csv",
                                 ("x_m", "y_m", "subarray_id"), rows))

    lines = [
        "aesa-chain report",
        f"mode = {report.mode}",
        f"seed = {report.seed}",
        f"config_sha256 = {report.config_sha256}",
        f"package_version = {report.package_version}",
        f"adaptive = {_fmt(report.adaptive)}",
    ]
    for key in sorted(report.metrics):
        lines.append(f"{key} = {_fmt(report.metrics[key])}")
    lines.append("artifacts = [" + ", ".join(p.name for p in written) + "]")
    summary = out / "summary.txt"
    summary.write_text("\n".join(lines) + "\n", newline="\n")
    written.append(summary)
    return written
