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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .beamform import (BeamscanCurve, apply_beamformer, beamscan, conventional_weights,
                       covariance_from_snapshots, estimate_covariance, exclusion_mask,
                       mvdr_weights, rejection_db)
from .config import ExperimentConfig
from .detect import (_local_maxima, angular_error, cfar_detect, cfar_window_cells,
                     load_tracks, music_spectrum, pick_peaks, select_training_subset,
                     target_angular_span)
from .geometry import SECTOR_HALF_WIDTH_DEG, ArrayGeometry, geometry_table
from .gridio import Grid, GridAxis, write_csv, write_grid
from .isar import (cross_range_scale, extract_target_history, form_image,
                   icba_autofocus, range_align)
from .rdproc import _rd_stream, _workers, doppler_process, range_compress
from .scene import _check_isar_sequence, _isar_dwell, simulate_dwell
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
    """Run the configured chain test and return its report; only ``emit_raw``
    keeps a raw cube (the first dwell's) past its range-Doppler processing."""
    runner = {"t1": _run_t1, "t2": _run_t2, "t3": _run_t3, "t4": _run_t4}[cfg.mode]
    geom = ArrayGeometry.demonstrator(cfg.radar.wavelength)
    report = ExperimentReport(mode=cfg.mode, seed=cfg.seed, config_sha256=cfg.hash(),
                              package_version=__version__, adaptive=cfg.adaptive,
                              geometry_rows=geometry_table(geom))
    runner(cfg, report, emit_raw)
    return report


def _raw_grids(report: ExperimentReport, raw) -> None:
    params = raw.params
    fast_axis = GridAxis(start=params.tau_min, step=1.0 / params.sample_rate, unit="s")
    slow_axis = GridAxis(start=0.0, step=1.0 / params.prf, unit="s")
    for c in range(raw.values.shape[0]):
        report.grids[f"raw_ch{c}.aesg"] = Grid(
            values=raw.values[c], row_axis=fast_axis, col_axis=slow_axis)


def _axis(values: np.ndarray, unit: str) -> GridAxis:
    """Grid descriptor of a uniform physical axis."""
    return GridAxis(start=float(values[0]), step=float(values[1] - values[0]), unit=unit)


def _joint_db(complex_map: np.ndarray, joint_peak: float) -> np.ndarray:
    power = np.abs(complex_map) ** 2
    ref = joint_peak**2
    if ref <= 0.0:
        return np.full(complex_map.shape, MAP_FLOOR_DB)
    return np.maximum(10.0 * np.log10(np.maximum(power / ref, 10.0 ** (MAP_FLOOR_DB / 10.0))),
                      MAP_FLOOR_DB)


def _map_grids(report: ExperimentReport, rd, steer: float, maps: dict) -> None:
    """dB range-Doppler grids of one steering, keyed by beamformer kind.

    The maps share one scale: each is normalized to the joint peak of all.
    """
    row_axis, col_axis = _axis(rd.range_axis, "m"), _axis(rd.velocity_axis, "m/s")
    peak = max(np.max(np.abs(m)) for m in maps.values())
    for kind, m in maps.items():
        report.grids[f"map_{kind}_steer{steer:+.1f}deg.aesg"] = Grid(
            values=_joint_db(m, peak), row_axis=row_axis, col_axis=col_axis)


def _dwell(cfg: ExperimentConfig, report: ExperimentReport, emit_raw: bool) -> tuple:
    """Simulate and process the configured dwell; returns (rd, clutter mask).

    Unless ``emit_raw`` keeps the raw cube for its grids, the range-Doppler
    cube is written over the raw cube's storage, so only one cube is held.
    """
    raw = simulate_dwell(cfg.radar, cfg.targets, cfg.jammer, cfg.noise_power,
                         cfg.seed, cfg.clutter)
    if emit_raw:
        _raw_grids(report, raw)
    rd = _rd_stream(raw, cfg.processing.window, cfg.processing.doppler_oversample,
                    reuse_raw=not emit_raw)
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


def _run_t1(cfg: ExperimentConfig, report: ExperimentReport, emit_raw: bool) -> None:
    # a malformed truth-track file fails before the dwell is simulated
    tracks = load_tracks(cfg.truth_tracks) if cfg.truth_tracks is not None else None
    rd, cmask = _dwell(cfg, report, emit_raw)
    proc = cfg.processing
    steer = cfg.steering_deg[0]
    detections = _cfar(cfg, rd, apply_beamformer(rd, conventional_weights(steer)))
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
        cov, peaks = _music(cfg, report, rd, det, cmask, default_sources=1)
        metrics["azimuth_estimate_deg"] = peaks.azimuths[0]
        metrics["music_snapshots"] = cov.snapshot_count

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


# ---------------------------------------------------------------------------
# t2: jammer cancellation


def _run_t2(cfg: ExperimentConfig, report: ExperimentReport, emit_raw: bool) -> None:
    rd, cmask = _dwell(cfg, report, emit_raw)
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
    scan_conv = beamscan(rd, grid)
    scan_mvdr = beamscan(rd, grid, cov=cov)

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


def _run_t3(cfg: ExperimentConfig, report: ExperimentReport, emit_raw: bool) -> None:
    rd, cmask = _dwell(cfg, report, emit_raw)
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


def _run_t4(cfg: ExperimentConfig, report: ExperimentReport, emit_raw: bool) -> None:
    proc = cfg.processing
    isar_cfg = cfg.isar
    body = isar_cfg.body
    _check_isar_sequence(cfg.radar, body, isar_cfg.n_dwells, cfg.noise_power)

    def dwell(d: int):
        """Dwell ``d`` compressed; its raw cube dies here unless it is dwell 0
        and ``emit_raw`` keeps it for its grids."""
        raw = _isar_dwell(cfg.radar, body, d, cfg.seed, cfg.noise_power)
        if emit_raw and d == 0:
            _raw_grids(report, raw)
        return range_compress(raw)

    # dwell 0 here, the rest in order on the front end's threads; a failed
    # dwell cancels those not yet started
    compressed = [dwell(0)]
    pool = ThreadPoolExecutor(_workers(isar_cfg.n_dwells - 1), thread_name_prefix="isar_dwell")
    try:
        compressed += pool.map(dwell, range(1, isar_cfg.n_dwells))
    finally:
        pool.shutdown(cancel_futures=True)
    steer = cfg.steering_deg[0]
    weights = conventional_weights(steer)

    rd0 = doppler_process(compressed[0], window=proc.window,
                          oversample=proc.doppler_oversample)
    bmap = apply_beamformer(rd0, weights)
    n_bins = compressed[0].values.shape[1]
    # a CFAR window too large for the short imaging swath, or no detection,
    # falls back to the strongest range bin
    dets = []
    if cfar_window_cells(proc.cfar_train, proc.cfar_guard) <= n_bins:
        dets = _cfar(cfg, rd0, bmap)
    if dets:
        center_bin = dets[0].range_bin
    else:
        center_bin = int(np.argmax((np.abs(bmap) ** 2).max(axis=1)))

    hw = isar_cfg.window_halfwidth_bins
    lo = max(center_bin - hw, 0)
    hi = min(center_bin + hw + 1, n_bins)
    history = extract_target_history(compressed, weights, (lo, hi))
    del compressed  # the back end needs only the history
    aligned, shifts = range_align(history)
    focus = icba_autofocus(aligned, isar_cfg.autofocus_order)
    image = form_image(focus.history, window=isar_cfg.image_window)
    omega = isar_cfg.omega_for_scaling_rad_s or body.rotation_rate
    image = cross_range_scale(image, omega)
    peaks = _image_peaks(image)

    report.metrics.update({
        "steer_azimuth_deg": float(steer),
        "window_range_bins": [lo, hi],
        "slow_time_samples": history.n_slow,
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


def _image_peaks(image) -> list:
    """The strongest local maxima of the image magnitude above a relative floor."""
    m = image.magnitude
    peak = m.max()
    if peak <= 0.0:
        return []
    is_peak = _local_maxima(m, np.greater_equal)
    is_peak &= m > peak * 10.0 ** (IMAGE_PEAK_FLOOR_DB / 20.0)
    coords = np.argwhere(is_peak)
    order = np.argsort(m[is_peak])[::-1][:MAX_IMAGE_PEAKS]
    out = []
    for idx in order:
        r, d = coords[idx]
        out.append((
            float(image.range_axis[r]),
            float(image.cross_range_axis_m[d]),
            float(image.doppler_axis_hz[d]),
            float(20.0 * np.log10(m[r, d] / peak)),
        ))
    return out


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
