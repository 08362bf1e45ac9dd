"""The t1 path against the six-channel map it no longer forms.

t1 detects on the conventional beam of the raw cube and forms six-channel
range-Doppler data only for the rows of the MUSIC window.  The oracle forms the
whole six-channel map with ``rd_map``, beamforms it and runs the detector and the
snapshot selection on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aesa_chain import (Detection, RadarParams, apply_beamformer, cfar_detect,
                        conventional_weights, experiments, rd_map, rdproc, resolve_config,
                        run_experiment, select_training_subset, simulate_dwell,
                        write_report)

R_MIN = 1500.0
BIN_M = RadarParams().range_bin_m


@st.composite
def t1_scenes(draw):
    """A short t1 dwell of 1-3 targets, the first in the first or the last range
    bins (so that its MUSIC window is clipped at the map's edge) or anywhere,
    with clutter on or off, any slow-time window and oversample 1-2, and a CFAR
    window short enough to test cells next to either edge."""
    n_bins = draw(st.integers(12, 48))
    n_pulses = draw(st.sampled_from([8, 16, 32]))
    radar = RadarParams(r_min=R_MIN, r_max=R_MIN + n_bins * BIN_M, n_pulses=n_pulses)
    n_r = radar.n_range_bins
    v_max = 0.9 * radar.unambiguous_velocity
    targets = []
    for i in range(draw(st.integers(1, 3))):
        edge = draw(st.sampled_from(["first", "last", "any"])) if i == 0 else "any"
        rbin = {"first": draw(st.integers(0, 3)), "last": draw(st.integers(n_r - 4, n_r - 1)),
                "any": draw(st.integers(0, n_r - 1))}[edge]
        targets.append({"range_m": min(radar.range_axis()[rbin], radar.r_max),
                        "radial_velocity_mps": draw(st.floats(-v_max, v_max)),
                        "azimuth_deg": draw(st.floats(-20.0, 20.0)),
                        "snr_db": draw(st.floats(10.0, 35.0))})
    clutter = {"enabled": False}
    if draw(st.booleans()):
        clutter = {"enabled": True, "n_range_bins": draw(st.integers(1, 8)),
                   "mean_power": draw(st.floats(1.0, 300.0))}
    tree = {
        "mode": "t1",
        "seed": draw(st.integers(0, 2**16)),
        "radar": {"n_pulses": n_pulses, "r_min_m": R_MIN, "r_max_m": radar.r_max},
        "targets": targets,
        "clutter": clutter,
        "steering_deg": [draw(st.floats(-20.0, 20.0))],
        "noise_power": draw(st.sampled_from([0.5, 1.0, 3.0])),
        "processing": {
            "window": draw(st.sampled_from(["rectangular", "hann", "hamming"])),
            "doppler_oversample": draw(st.integers(1, 2)),
            "pfa": draw(st.sampled_from([1e-4, 1e-2])),
            "cfar_train": draw(st.integers(1, 4)),
            "cfar_guard": draw(st.integers(0, 1)),
            "music_window_bins": [draw(st.integers(0, 5)), draw(st.integers(0, 5))],
            "music_guard_bins": draw(st.sampled_from([None, [0, 0], [1, 1]])),
        },
    }
    return resolve_config(tree)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(t1_scenes())
def test_sum_beam_matches_six_channel_map(cfg):
    proc, w = cfg.processing, conventional_weights(cfg.steering_deg[0])
    rd, power, raw = experiments._beam_dwell(cfg, w)
    ref_raw = simulate_dwell(cfg.radar, cfg.targets, cfg.jammer, cfg.noise_power, cfg.seed,
                             cfg.clutter)
    assert raw.values.tobytes() == ref_raw.values.tobytes()
    full = rd_map(ref_raw, window=proc.window, oversample=proc.doppler_oversample)

    # the detections on the beam's map are those on the beamformed six-channel map
    cfar = (proc.pfa, proc.cfar_train, proc.cfar_guard, full.range_axis, full.velocity_axis)
    detections = cfar_detect(power, *cfar)
    want = cfar_detect(np.abs(apply_beamformer(full, w)) ** 2, *cfar)
    assert experiments._detection_rows(detections) == experiments._detection_rows(want)

    # the snapshots of the window's rows are those of the six-channel map, clipped
    # at the first and the last range bin too
    n_r, n_dop = power.shape
    cmask = experiments._clutter_mask(cfg, power.shape)
    edges = [Detection(r, d, 0.0, 0.0, 0.0, 0.0)
             for r, d in ((0, 0), (n_r - 1, n_dop - 1), (0, n_dop // 2), (n_r - 1, 1))]
    for det in detections + edges:
        window, shifted, wmask = experiments._window_rd(cfg, raw, rd, det, cmask)
        n_rows = window.values.shape[1]
        assert len(window.range_axis) == n_rows <= 2 * proc.music_window_bins[0] + 1
        select = {"window": proc.music_window_bins, "guard": proc.music_guard_bins}
        got = select_training_subset(window, shifted, clutter_mask=wmask, **select)
        ref = select_training_subset(full, det, clutter_mask=cmask, **select)
        assert got.shape == ref.shape
        peak = np.abs(ref).max(initial=0.0)
        assert np.abs(got - ref).max(initial=0.0) <= 1e-12 * peak


def test_window_rows_are_clipped_at_both_edges():
    # a window about a cell in the first or the last range bins keeps the rows
    # inside the map, and the detection moves with the rows
    cfg = resolve_config({
        "mode": "t1", "seed": 3,
        "radar": {"n_pulses": 16, "r_min_m": R_MIN, "r_max_m": R_MIN + 30.5 * BIN_M},
        "targets": [{"range_m": R_MIN + BIN_M, "azimuth_deg": 4.0, "snr_db": 30.0}],
        "steering_deg": [4.0],
        "processing": {"cfar_train": 1, "cfar_guard": 0},
    })
    rd, power, raw = experiments._beam_dwell(cfg, conventional_weights(4.0))
    n_r, n_dop = power.shape
    for rbin, rows in ((0, (0, 5)), (1, (0, 6)), (n_r - 2, (n_r - 6, n_r)),
                       (n_r - 1, (n_r - 5, n_r))):
        det = Detection(rbin, 3, 0.0, 0.0, 0.0, 0.0)
        window, shifted, _ = experiments._window_rd(cfg, raw, rd, det, None)
        assert window.values.shape == (6, rows[1] - rows[0], n_dop)
        assert shifted.range_bin == rbin - rows[0]
        np.testing.assert_array_equal(window.range_axis, rd.range_axis[rows[0]:rows[1]])


def small_t1_tree(**extra):
    return {"mode": "t1", "seed": 2, "radar": {"n_pulses": 64, "r_max_m": 3000.0},
            "targets": [{"range_m": 1740.0, "radial_velocity_mps": 4.6875,
                         "azimuth_deg": 5.0, "snr_db": 25.0}],
            "clutter": {"enabled": True, "n_range_bins": 20, "mean_power": 60.0},
            "steering_deg": [5.0], **extra}


@pytest.mark.parametrize("oversample", [1, 2])
def test_t1_report_same_at_one_and_two_workers(tmp_path, monkeypatch, fast_switching,
                                                oversample):
    cfg = resolve_config(small_t1_tree(processing={"doppler_oversample": oversample}))
    outs = []
    for workers in (1, 2):
        monkeypatch.setattr(rdproc, "_workers", lambda n_ch, k=workers: min(k, n_ch))
        report = run_experiment(cfg)
        assert "azimuth_estimate_deg" in report.metrics
        outs.append(write_report(report, tmp_path / f"w{workers}"))
    assert [p.read_bytes() for p in outs[0]] == [p.read_bytes() for p in outs[1]]
