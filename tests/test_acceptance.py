"""End-to-end acceptance checks for the demonstrator chain.

One test per criterion; each prints a ``criterion NN PASS/FAIL`` line with
the measured values (visible with ``pytest -v -rA``).  The checks cover
jammer rejection, noise-floor preservation, adaptive null depth, solver
equivalence against an elimination oracle, direction-finding accuracy, the
angular-span geometry of the reference track table, the jammed-detection
chain, imaging with injected phase error, detector calibration, and
bit-level determinism of the report writer.
"""

import copy
import time
from pathlib import Path

import numpy as np
import pytest

from aesa_chain import (PointTarget, RadarParams,
                        RangeProfileHistory, apply_beamformer,
                        cfar_detect, conventional_weights,
                        covariance_from_snapshots, cross_range_scale,
                        estimate_covariance, extract_target_history,
                        form_image, icba_autofocus, load_config, load_tracks,
                        load_tree, music_spectrum, mvdr_distortionless_weights,
                        mvdr_weights, pick_peaks, range_align, range_compress,
                        rd_map, resolve_config, run_experiment,
                        select_training_subset, simulate_dwell,
                        simulate_isar_sequence, subarray_steering,
                        target_angular_span, write_report)
from aesa_chain.detect import Detection

from helpers import gaussian_elimination_solve, pattern_oracle_db

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

JAMMER_AZ = 21.4


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_jammer_rejection():
    t0 = time.monotonic()
    cfg = load_config(CONFIG_DIR / "t2.yaml")
    assert cfg.radar.n_range_bins >= 200
    assert cfg.radar.n_pulses == 128 and cfg.jammer.jnr_db == 50.0
    assert cfg.steering_deg == (-20.0, -10.0, 0.0, 10.0, 20.0)
    report = run_experiment(cfg)
    elapsed = time.monotonic() - t0
    rej = report.metrics["rejection_db"]
    avg = report.metrics["average_rejection_db"]
    deep = sum(r >= 28.0 for r in rej)
    ok = elapsed < 60.0 and avg >= 25.0 and deep >= 4 and len(rej) == 5
    _report(1, ok, f"avg {avg:.1f} dB, "
                   f"per-steer {[round(r, 1) for r in rej]}, "
                   f">=28 dB at {deep}/5, {elapsed:.1f} s")


def test_criterion_02_noise_floor_preserved():
    params = RadarParams()  # full swath: the map holds > 1e6 cells
    rd = rd_map(simulate_dwell(params, [], noise_power=1.0, seed=0))
    n_cells = rd.values.shape[1] * rd.values.shape[2]
    cov = estimate_covariance(rd, np.ones(rd.values.shape[1:], dtype=bool))
    cases = [conventional_weights(0.0), conventional_weights(-15.0),
             mvdr_weights(cov, 0.0), mvdr_weights(cov, 10.0)]
    worst = 0.0
    for w in cases:
        floor_db = 10 * np.log10(np.mean(np.abs(apply_beamformer(rd, w)) ** 2))
        worst = max(worst, abs(floor_db))
    ok = n_cells >= 10**6 and worst <= 0.5
    _report(2, ok, f"worst floor offset {worst:.3f} dB over {n_cells} cells "
                   f"({len(cases)} weight sets)")


def _jammed_covariance(seed=0):
    from aesa_chain import JammerSource

    params = RadarParams(r_max=3000.0)
    raw = simulate_dwell(params, [], JammerSource(azimuth_deg=JAMMER_AZ, jnr_db=50.0),
                         noise_power=1.0, seed=seed)
    rd = rd_map(raw)
    return estimate_covariance(rd, np.ones(rd.values.shape[1:], dtype=bool))


def test_criterion_03_null_depth():
    cov = _jammed_covariance()
    steers = [a for a in np.arange(-22.5, 22.6, 2.5) if abs(a - JAMMER_AZ) >= 8.0]
    steers.append(JAMMER_AZ - 8.0)
    worst = -np.inf
    for az in steers:
        w = mvdr_weights(cov, az)
        # independent dense-grid pattern evaluation around the mainlobe
        grid = np.concatenate([np.arange(az - 3.0, az + 3.001, 0.05), [JAMMER_AZ]])
        pattern = pattern_oracle_db(w.values, grid)
        assert pattern[:-1].max() == 0.0  # normalization sits on the mainlobe
        worst = max(worst, pattern[-1])
    ok = worst <= -35.0
    _report(3, ok, f"shallowest null {worst:.1f} dB over {len(steers)} steerings")


def test_criterion_04_solver_oracle_equivalence():
    cov = _jammed_covariance(seed=1)
    worst = 0.0
    for az in (-20.0, -10.0, 0.0, 10.0, 20.0):
        w0 = mvdr_distortionless_weights(cov, az)
        v = subarray_steering(az)
        g = gaussian_elimination_solve(cov.matrix, v)
        ref = g / (v.conj() @ g)
        worst = max(worst, np.linalg.norm(w0 - ref) / np.linalg.norm(ref))
    from aesa_chain import CovarianceEstimate

    white = CovarianceEstimate(matrix=2.0 * np.eye(6, dtype=complex),
                               snapshot_count=100, diagonal_loading=0.0)
    colin = min(abs(np.vdot(mvdr_weights(white, az).values,
                            conventional_weights(az).values))
                for az in (-20.0, 0.0, 20.0))
    ok = worst <= 1e-9 and (1.0 - colin) <= 1e-10
    _report(4, ok, f"max solve deviation {worst:.2e}, "
                   f"white-noise collinearity defect {1.0 - colin:.2e}")


def test_criterion_05_direction_finding_accuracy():
    t0 = time.monotonic()
    params = RadarParams(r_max=3000.0)
    grid = np.arange(-22.5, 22.5001, 0.05)
    rbin = params.range_bin_of(1740.0)
    dbin = (params.doppler_bin_of(3.75) + params.n_pulses // 2) % params.n_pulses
    rms = {}
    for az in (0.0, 15.0, -15.0):
        errors = []
        for seed in range(100):
            tgt = PointTarget(range_m=1740.0, radial_velocity=3.75,
                              azimuth_deg=az, snr_db=25.0)
            rd = rd_map(simulate_dwell(params, [tgt], noise_power=1.0, seed=seed),
                        window="rectangular")
            det = Detection(range_bin=rbin, doppler_bin=dbin, range_m=1740.0,
                            radial_velocity=3.75, peak_power_db=0.0, threshold_db=0.0)
            snaps = select_training_subset(rd, det, window=(4, 4))
            cov = covariance_from_snapshots(snaps)
            spec = music_spectrum(cov, grid, n_sources=1)
            errors.append(pick_peaks(spec, 1).azimuths[0] - az)
        rms[az] = float(np.sqrt(np.mean(np.square(errors))))
    elapsed = time.monotonic() - t0
    ok = (rms[0.0] < 0.15 and rms[15.0] < 0.3 and rms[-15.0] < 0.3
          and elapsed < 120.0)
    _report(5, ok, f"RMS {rms[0.0]:.3f} deg at broadside, "
                   f"{rms[15.0]:.3f} / {rms[-15.0]:.3f} deg at +/-15, "
                   f"{elapsed:.0f} s for 300 dwells")


#: printed reference rows: name, span (deg), angular error (deg), within flag
REFERENCE_ROWS = [
    ("Eurocargo Genova", 1.0, 0.1, True),
    ("Mega Express", 0.8, 0.1, True),
    ("Mega Express", 0.2, 0.9, False),
    ("Rossetti", 0.03, 0.2, False),
    ("Stelio Montomoli", 0.5, 0.2, True),
    ("Zeus Palace", 0.7, 0.4, True),
    ("Mega Smeralda", 0.7, 0.2, True),
    ("Epaminondas", 0.2, 0.2, True),
]


def test_criterion_06_angular_span_table():
    tracks = load_tracks(CONFIG_DIR / "tracks.csv")[1:]  # skip the live entry
    assert [t.name for t in tracks] == [r[0] for r in REFERENCE_ROWS]
    heading = 252.0  # radar boresight bearing used by the bundled scenarios
    worst = 0.0
    flags_ok = True
    for track, (_, span_ref, err_ref, within_ref) in zip(tracks, REFERENCE_ROWS):
        span = target_angular_span(track, heading + track.azimuth_deg,
                                   angular_error_deg=err_ref)
        worst = max(worst, abs(span.span_deg - span_ref))
        flags_ok &= span.within_target == within_ref
    ok = worst <= 0.1 and flags_ok
    _report(6, ok, f"max span deviation {worst:.3f} deg over 8 rows, "
                   f"flags {'all match' if flags_ok else 'MISMATCH'}")


def test_criterion_07_jammed_detection_chain():
    tree = load_tree(CONFIG_DIR / "t3.yaml")
    conv_miss = mvdr_hit = within = 0
    for seed in range(100):
        t = copy.deepcopy(tree)
        t["seed"] = seed
        cfg = resolve_config(t, base_dir=CONFIG_DIR)
        m = run_experiment(cfg).metrics
        conv_miss += not m["conventional_target_detected"]
        mvdr_hit += bool(m["mvdr_target_detected"])
        if (m.get("target_error_deg", 99.0) <= 0.5
                and m.get("jammer_error_deg", 99.0) <= 0.5):
            within += 1
    ok = conv_miss == 100 and mvdr_hit == 100 and within >= 90
    _report(7, ok, f"conventional missed {conv_miss}/100, "
                   f"adaptive detected {mvdr_hit}/100, "
                   f"both angles within 0.5 deg in {within}/100")


def _nearest_peak(magnitude, row, col, halfwidth=3):
    r0 = max(row - halfwidth, 0)
    c0 = max(col - halfwidth, 0)
    block = magnitude[r0:row + halfwidth + 1, c0:col + halfwidth + 1]
    r, c = np.unravel_index(np.argmax(block), block.shape)
    return r0 + r, c0 + c


def test_criterion_08_imaging_with_injected_phase():
    cfg = load_config(CONFIG_DIR / "t4.yaml")
    body = cfg.isar.body
    dwells = simulate_isar_sequence(cfg.radar, body, cfg.isar.n_dwells,
                                    cfg.seed, cfg.noise_power)
    compressed = [range_compress(d) for d in dwells]
    weights = conventional_weights(cfg.steering_deg[0])
    center = cfg.radar.range_bin_of(body.center_range_m)
    hw = cfg.isar.window_halfwidth_bins
    history = extract_target_history(compressed, weights, (center - hw, center + hw + 1))
    aligned, _ = range_align(history)
    t = aligned.slow_time()
    assert t[-1] - t[0] >= 1.9  # two-second coherent interval
    injected = RangeProfileHistory(
        values=aligned.values * np.exp(1j * 50.0 * t**2)[:, None],
        prf=aligned.prf, range_axis=aligned.range_axis,
        wavelength=aligned.wavelength)
    focus = icba_autofocus(injected, order=cfg.isar.autofocus_order)
    c2 = focus.polynomial.coefficients[0]
    image = cross_range_scale(form_image(focus.history, cfg.isar.image_window),
                              body.rotation_rate)
    cross_bin = image.cross_range_axis_m[1] - image.cross_range_axis_m[0]
    range_bin = image.range_axis[1] - image.range_axis[0]
    peak_ok = True
    cross_ok = True
    cols = []
    for down, cross, _amp in body.scatterers:
        row = int(np.argmin(np.abs(image.range_axis - (body.center_range_m + down))))
        col = int(np.argmin(np.abs(image.cross_range_axis_m - cross)))
        r, c = _nearest_peak(image.magnitude, row, col)
        cols.append(c)
        peak_ok &= abs(r - row) <= 1 and abs(c - col) <= 1
        cross_ok &= abs(image.cross_range_axis_m[c] - cross) <= cross_bin + 1e-9
    # overestimating the rotation rate shrinks the apparent extent
    over = cross_range_scale(form_image(focus.history, cfg.isar.image_window),
                             1.5 * body.rotation_rate)
    extent = np.ptp(image.cross_range_axis_m[cols])
    extent_over = np.ptp(over.cross_range_axis_m[cols])
    shrink = extent / extent_over
    ok = (abs(c2 - 50.0) <= 2.5 and focus.contrast_after > focus.contrast_before
          and peak_ok and cross_ok and abs(shrink - 1.5) <= 0.075)
    _report(8, ok, f"recovered c2 {c2:.2f} rad/s^2, contrast "
                   f"{focus.contrast_before:.1f} -> {focus.contrast_after:.1f}, "
                   f"peaks within 1 bin: {peak_ok}, cross-range within "
                   f"{cross_bin:.3f} m: {cross_ok}, extent ratio {shrink:.3f}")


def test_criterion_09_cfar_calibration():
    rng = np.random.default_rng(0)
    pfa = 1.0e-4
    p = rng.exponential(size=(40000, 256))
    detections = cfar_detect(p, pfa=pfa, n_train=16, n_guard=2)
    evaluated = (40000 - 2 * 18) * 256
    rate = len(detections) / evaluated
    ok = evaluated >= 10**7 and 0.5 * pfa <= rate <= 2.0 * pfa
    _report(9, ok, f"empirical rate {rate:.2e} over {evaluated} cells "
                   f"(design {pfa:.0e})")


def test_criterion_10_determinism(tmp_path):
    detail = []
    ok = True
    for name in ("t1", "t2", "t3", "t4"):
        cfg = load_config(CONFIG_DIR / f"{name}.yaml")
        trees = []
        for i in (0, 1):
            out = tmp_path / f"{name}-{i}"
            write_report(run_experiment(cfg), out)
            trees.append({p.name: p.read_bytes() for p in out.iterdir()})
        same = (sorted(trees[0]) == sorted(trees[1])
                and all(trees[0][k] == trees[1][k] for k in trees[0]))
        ok &= same
        detail.append(f"{name}:{len(trees[0])} files "
                      f"{'identical' if same else 'DIFFER'}")
    _report(10, ok, ", ".join(detail))
