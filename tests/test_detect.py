import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aesa_chain import (ConfigError, CovarianceEstimate,
                        EstimationError, GroundTruthTrack, MusicSpectrum,
                        RadarParams, angular_error, ca_cfar_threshold_factor,
                        cfar_detect, covariance_from_snapshots, load_tracks,
                        music_spectrum, pick_peaks, rd_map,
                        select_training_subset, simulate_dwell,
                        subarray_steering, target_angular_span)
from aesa_chain.detect import _local_maxima, _parabolic_offset

from helpers import (cfar_oracle, music_spectrum_oracle, single_source_crb_std_deg,
                     subarray_steering_oracle, swerling1_ca_cfar_pd, traced_peak)

SMALL = RadarParams(r_min=1500.0, r_max=2100.0, n_pulses=64)


def test_threshold_factor_closed_form():
    n = 32
    assert ca_cfar_threshold_factor(1e-4, n) == pytest.approx(n * (1e-4 ** (-1 / n) - 1))
    # more training cells means a tighter threshold at fixed pfa
    assert ca_cfar_threshold_factor(1e-4, 64) < ca_cfar_threshold_factor(1e-4, 16)
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            ca_cfar_threshold_factor(bad, 32)
    with pytest.raises(ValueError):
        ca_cfar_threshold_factor(1e-4, 0)


def test_cfar_matches_loop_oracle():
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        p = rng.exponential(size=(40, 12))
        dets = cfar_detect(p, pfa=0.05, n_train=4, n_guard=1)
        got = {(d.range_bin, d.doppler_bin) for d in dets}
        assert got == cfar_oracle(p, 0.05, 4, 1)
        powers = [d.peak_power_db for d in dets]
        assert powers == sorted(powers, reverse=True)


@st.composite
def cfar_cases(draw):
    """An exponential power map with a CFAR window that fits inside it."""
    n_train = draw(st.integers(1, 12))
    n_guard = draw(st.integers(0, 3))
    n_range = draw(st.integers(2 * (n_train + n_guard) + 1, 120))
    n_doppler = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.exponential(size=(n_range, n_doppler)), n_train, n_guard


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cfar_cases(), st.floats(1e-6, 0.5), st.integers(-60, 60))
@example((np.random.default_rng(3).exponential(size=(60, 8)), 6, 1), 0.01, 10)
def test_cfar_scale_invariance(case, pfa, k):
    """Scaling the map by 2^k, which is exact in floating point, keeps every
    decision and shifts both dB levels by 10 log10(2^k)."""
    p, n_train, n_guard = case
    a = cfar_detect(p, pfa, n_train, n_guard)
    b = cfar_detect(p * 2.0**k, pfa, n_train, n_guard)
    assert [(d.range_bin, d.doppler_bin) for d in a] == \
           [(d.range_bin, d.doppler_bin) for d in b]
    shift = 10.0 * np.log10(2.0**k)
    for da, db in zip(a, b):
        assert abs(db.peak_power_db - da.peak_power_db - shift) <= 1e-9
        assert abs(db.threshold_db - da.threshold_db - shift) <= 1e-9


def test_cfar_zero_training_window():
    # a noise-free map: one lit cell among zeros has a zero threshold
    p = np.zeros((40, 4))
    p[20, 1] = 2.0
    dets = cfar_detect(p, pfa=1e-3, n_train=4, n_guard=1)
    assert [(d.range_bin, d.doppler_bin) for d in dets] == [(20, 1)]
    assert dets[0].threshold_db == -np.inf
    assert dets[0].peak_power_db == pytest.approx(10.0 * np.log10(2.0))


def test_cfar_edge_rows_not_evaluated():
    p = np.ones((100, 4))
    p[2, 1] = 1e6
    assert cfar_detect(p, pfa=1e-4) == []  # inside the half-window margin
    p = np.ones((100, 4))
    p[50, 1] = 1e6
    dets = cfar_detect(p, pfa=1e-4)
    assert [(d.range_bin, d.doppler_bin) for d in dets] == [(50, 1)]


def test_cfar_requires_strict_local_maximum():
    p = np.ones((100, 4))
    p[50, 1] = p[50, 2] = 1e6  # tied neighbours mask each other
    assert cfar_detect(p, pfa=1e-4) == []


def test_local_maxima_plateau_and_border():
    plateau = np.array([[1.0, 7.0, 7.0, 2.0]])
    assert not _local_maxima(plateau, np.greater).any()
    assert _local_maxima(plateau, np.greater_equal).tolist() == [[False, True, True, False]]
    # cells beyond the border are -inf, so a negative corner still counts
    corner = np.array([[-3.0, -5.0], [-5.0, -6.0]])
    for compare in (np.greater, np.greater_equal):
        assert _local_maxima(corner, compare).tolist() == [[True, False], [False, False]]


def test_cfar_annotation_and_validation():
    p = np.ones((100, 4))
    p[50, 1] = 1e6
    det = cfar_detect(p, pfa=1e-4, range_axis=np.arange(100.0) * 10,
                      velocity_axis=np.arange(4.0))[0]
    assert det.range_m == 500.0 and det.radial_velocity == 1.0
    assert det.peak_power_db == pytest.approx(60.0)
    assert np.isnan(cfar_detect(p, pfa=1e-4)[0].range_m)
    with pytest.raises(ValueError):
        cfar_detect(np.ones((4, 4, 4)), pfa=1e-4)
    with pytest.raises(ValueError):
        cfar_detect(np.full((100, 4), np.nan), pfa=1e-4)
    with pytest.raises(ValueError):
        cfar_detect(-p, pfa=1e-4)
    with pytest.raises(ConfigError):
        cfar_detect(p, pfa=1e-4, n_train=0)
    with pytest.raises(ConfigError, match="exceeds"):
        cfar_detect(np.ones((20, 4)), pfa=1e-4, n_train=16, n_guard=2)


def test_cfar_false_alarm_rate_smoke():
    rng = np.random.default_rng(7)
    p = rng.exponential(size=(5000, 32))
    dets = cfar_detect(p, pfa=1e-3, n_train=16, n_guard=2)
    evaluated = (5000 - 2 * 18) * 32
    rate = len(dets) / evaluated
    assert 0.7e-3 < rate < 1.4e-3


def test_cfar_pd_matches_swerling1_closed_form():
    # Swerling-1 targets in unit exponential noise: a target cell's power is
    # (1 + SNR) times a unit exponential.  Each target's 8 neighbours are set
    # to zero so that it is a strict local maximum; with n_guard >= 1 they lie
    # outside its training cells.  Targets sit every 40 range bins in every
    # third Doppler column of 2 maps of 4000 x 64 cells: 2 x 99 x 21 = 4158
    # trials per SNR.  The measured Pd lies within 4 binomial standard errors
    # of (1 + alpha / (N (1 + SNR)))^(-N).
    seed, n_maps = 20260415, 2
    pfa, n_train, n_guard = 1e-4, 16, 2
    rng = np.random.default_rng(seed)
    rows, cols = (a.ravel() for a in np.meshgrid(np.arange(40, 3961, 40), np.arange(1, 64, 3),
                                                 indexing="ij"))
    trials = n_maps * rows.size
    assert trials == 4158
    alpha = ca_cfar_threshold_factor(pfa, 2 * n_train)
    for snr_db in (10.0, 15.0, 20.0):
        snr = 10.0 ** (snr_db / 10.0)
        hits = 0
        for _ in range(n_maps):
            p = rng.exponential(size=(4000, 64))
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    p[rows + dr, cols + dc] = 0.0
            p[rows, cols] = (1.0 + snr) * rng.exponential(size=rows.size)
            found = {(d.range_bin, d.doppler_bin) for d in cfar_detect(p, pfa, n_train, n_guard)}
            hits += sum((r, c) in found for r, c in zip(rows.tolist(), cols.tolist()))
        pd, want = hits / trials, swerling1_ca_cfar_pd(alpha, 2 * n_train, snr)
        assert abs(pd - want) <= 4.0 * np.sqrt(want * (1.0 - want) / trials), (snr_db, pd, want)


def test_cfar_detect_peak_memory_on_full_swath_map():
    # the 9174x128 map of the full swath: the training sums are slices of one
    # cumulative sum and the threshold is scaled in place, so the temporaries
    # stay near two maps and the padded copy (gathered slices took over five)
    p = np.random.default_rng(0).exponential(size=(9174, 128))
    cfar_detect(p, pfa=1e-3)
    _dets, peak = traced_peak(cfar_detect, p, pfa=1e-3)
    assert peak < 3.5 * p.nbytes


def _detection(rbin, dbin):
    from aesa_chain import Detection

    return Detection(range_bin=rbin, doppler_bin=dbin, range_m=0.0,
                     radial_velocity=0.0, peak_power_db=0.0, threshold_db=0.0)


def test_select_training_subset_counts():
    rd = rd_map(simulate_dwell(SMALL, [], noise_power=1.0, seed=0))
    det = _detection(100, 30)
    assert select_training_subset(rd, det, window=(10, 10)).shape == (6, 441)
    assert select_training_subset(rd, det, window=(10, 10), guard=(3, 3)).shape[1] == 392
    clutter = np.zeros((SMALL.n_range_bins, 64), dtype=bool)
    clutter[95:106, :] = True
    snaps = select_training_subset(rd, det, window=(10, 10), guard=(3, 3),
                                   clutter_mask=clutter)
    assert snaps.shape[1] == 392 - (11 * 21 - 7 * 7)
    edge = select_training_subset(rd, _detection(5, 2), window=(10, 10))
    assert edge.shape[1] == 16 * 13
    assert select_training_subset(rd, det, window=(1, 1)).shape[1] == 9
    # the estimate's floor is 2 N_ch = 12 snapshots: a 3x5 window minus a 1x3
    # guard keeps 12, and masking one more cell as clutter leaves 11
    kept = select_training_subset(rd, det, window=(1, 2), guard=(0, 1))
    assert covariance_from_snapshots(kept).snapshot_count == 12
    one_more = np.zeros_like(clutter)
    one_more[99, 28] = True
    short = select_training_subset(rd, det, window=(1, 2), guard=(0, 1), clutter_mask=one_more)
    with pytest.raises(EstimationError, match=r"11 snapshots .* \(need >= 12\)"):
        covariance_from_snapshots(short)
    with pytest.raises(ValueError):
        select_training_subset(rd, det, window=(-1, 2))
    with pytest.raises(ValueError, match="clutter mask shape"):
        select_training_subset(rd, det, clutter_mask=clutter[:-1])


def two_source_covariance(az1=-5.0, az2=8.0, p=100.0, noise=1.0):
    v1 = subarray_steering(az1)
    v2 = subarray_steering(az2)
    r = p * np.outer(v1, v1.conj()) + p * np.outer(v2, v2.conj()) + noise * np.eye(6)
    return CovarianceEstimate(matrix=r, snapshot_count=10**6, diagonal_loading=0.0)


def test_music_matches_subspace_oracle():
    cov = two_source_covariance()
    grid = np.arange(-20.0, 20.0, 0.25)
    spec = music_spectrum(cov, grid, n_sources=2)
    ref = music_spectrum_oracle(cov.matrix, grid, 2)
    # compared as q = 1/P: both sources lie on the grid, where q is rounding
    # (about 1e-31), and elsewhere q >= 2e-3, so atol binds at the sources only
    np.testing.assert_allclose(1.0 / spec.values, 1.0 / ref, rtol=1e-6, atol=1e-15)
    assert sorted(grid[np.argsort(spec.values)[-2:]]) == [-5.0, 8.0]


def test_music_recovers_two_sources():
    cov = two_source_covariance(az1=-5.0, az2=8.0)
    grid = np.arange(-22.5, 22.5001, 0.05)
    spec = music_spectrum(cov, grid, n_sources=2)
    found = sorted(pick_peaks(spec, 2).azimuths)
    assert found[0] == pytest.approx(-5.0, abs=0.02)
    assert found[1] == pytest.approx(8.0, abs=0.02)


def test_music_rmse_near_deterministic_crb():
    # one source, K = 64 snapshots of constant-modulus signal with random
    # phase in unit-power noise; the refined MUSIC peak's RMSE stays within
    # 1.25x the square root of the deterministic CRB.  The grid spans +/-5 deg
    # about the source; one outlier of that size alone would break the bound.
    seed, trials, n_snap = 20260413, 300, 64
    rng = np.random.default_rng(seed)
    for snr_db in (0.0, 10.0):
        for az in (0.0, 15.0, -15.0):
            grid = az + np.arange(-5.0, 5.0001, 0.05)
            a = subarray_steering_oracle(az)
            amp = np.sqrt(10.0 ** (snr_db / 10.0))
            errors = []
            for _ in range(trials):
                s = amp * np.exp(2j * np.pi * rng.random(n_snap))
                noise = (rng.standard_normal((6, n_snap))
                         + 1j * rng.standard_normal((6, n_snap))) * np.sqrt(0.5)
                cov = covariance_from_snapshots(np.outer(a, s) + noise)
                spec = music_spectrum(cov, grid, n_sources=1)
                errors.append(pick_peaks(spec, 1).azimuths[0] - az)
            rmse = float(np.sqrt(np.mean(np.square(errors))))
            bound = single_source_crb_std_deg(az, snr_db, n_snap)
            assert rmse <= 1.25 * bound, (snr_db, az, rmse, bound)


def test_music_source_count_validation():
    cov = two_source_covariance()
    for bad in (0, 6):
        with pytest.raises(ValueError):
            music_spectrum(cov, np.arange(-5.0, 5.0), n_sources=bad)


def test_pick_peaks_parabolic_refinement_is_exact():
    grid = np.arange(-2.0, 2.01, 0.5)
    true_az = 0.37
    spec = MusicSpectrum(azimuth_deg=grid, values=5.0 - (grid - true_az) ** 2)
    assert pick_peaks(spec, 1).azimuths[0] == pytest.approx(true_az, abs=1e-12)


def _clipped_vertex(y_left, y_mid, y_right):
    """The vertex rule in its numpy form: np.clip of the parabola's offset."""
    denom = y_left - 2.0 * y_mid + y_right
    if denom == 0.0:
        return 0.0
    return float(np.clip(0.5 * (y_left - y_right) / denom, -0.5, 0.5))


EDGE_TRIPLES = [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1.0, 1.0, 0.0), (0.0, 1.0, 1.0),
                (5.0, 1.0, 0.0), (0.0, 1.0, 5.0), (1.0, 2.0, 1.0), (-1.0, -2.0, -1.0),
                (1.0, 1.0, 1.0), (3.0, 0.0, 0.0), (0.25, 0.5, 0.75)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3)
       | st.sampled_from(EDGE_TRIPLES).map(list))
def test_parabolic_offset_matches_the_clip_form(triple):
    want = struct.pack("<d", _clipped_vertex(*triple))
    assert struct.pack("<d", _parabolic_offset(*triple)) == want
    assert struct.pack("<d", _parabolic_offset(*np.array(triple))) == want


def test_pick_peaks_tie_break_and_completeness():
    grid = np.arange(-3.0, 3.5, 0.5)
    values = np.ones(grid.size)
    values[np.searchsorted(grid, -1.0)] = 5.0
    values[np.searchsorted(grid, 1.5)] = 5.0
    spec = MusicSpectrum(azimuth_deg=grid, values=values)
    peaks = pick_peaks(spec, 2)
    assert peaks.azimuths[0] == pytest.approx(-1.0)  # tie goes to smaller |az|
    assert peaks.complete
    ramp = MusicSpectrum(azimuth_deg=grid, values=np.arange(grid.size, dtype=float))
    empty = pick_peaks(ramp, 1)
    assert empty.azimuths == [] and not empty.complete
    with pytest.raises(ValueError):
        pick_peaks(spec, 0)
    with pytest.raises(ValueError):
        pick_peaks(MusicSpectrum(np.array([0.0, 1.0]), np.array([1.0, 2.0])), 1)


def test_angular_error_wrapping():
    assert angular_error(5.3, 5.0) == pytest.approx(0.3)
    assert angular_error(-179.0, 179.0) == pytest.approx(2.0)
    assert angular_error(350.0, -10.0) == 0.0
    track = GroundTruthTrack("t0", "ship", 5000.0, 5.0, 90.0, 100.0, 10.0)
    assert angular_error(5.4, track) == pytest.approx(0.4)


def test_target_angular_span_hand_cases():
    track = GroundTruthTrack("t0", "ship", 5000.0, 0.0, 90.0, 100.0, 10.0)
    span = target_angular_span(track, radar_los_azimuth_deg=0.0)
    assert span.projected_m == pytest.approx(100.0)
    assert span.span_deg == pytest.approx(np.degrees(2 * np.arctan(0.01)), abs=1e-9)
    assert span.within_target is None
    # heading parallel to the line of sight: beam floors the projection
    parallel = GroundTruthTrack("t0", "ship", 5000.0, 0.0, 40.0, 100.0, 10.0)
    floored = target_angular_span(parallel, radar_los_azimuth_deg=40.0)
    assert floored.projected_m == pytest.approx(10.0)
    wide = target_angular_span(track, 0.0, angular_error_deg=1.19)
    assert wide.within_target is True
    assert target_angular_span(track, 0.0, angular_error_deg=1.21).within_target is False


def test_load_tracks_roundtrip(tmp_path):
    path = tmp_path / "tracks.csv"
    path.write_text(
        "timestamp,name,range_m,azimuth_deg,heading_deg,length_m,beam_m\n"
        "2025-07-08T09:12:00Z,Alpha,5000.0,5.0,36.0,93.0,16.0\n"
        "2025-07-08T09:15:00Z,Beta,8000.0,-3.0,120.0,171.0,28.0\n")
    tracks = load_tracks(path)
    assert [t.name for t in tracks] == ["Alpha", "Beta"]
    assert tracks[0].timestamp == "2025-07-08T09:12:00Z"
    assert tracks[1].range_m == 8000.0


def test_load_tracks_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp,name,range_m,azimuth_deg,heading_deg,length_m\n"
                    "t0,Alpha,1.0,0.0,0.0,10.0\n")
    with pytest.raises(ConfigError, match="beam_m"):
        load_tracks(path)


def test_load_tracks_rejects_non_utf8(tmp_path):
    path = tmp_path / "tracks.csv"
    path.write_bytes(b"timestamp,name,range_m,azimuth_deg,heading_deg,length_m,beam_m\n"
                     b"t0,Caf\xe9,5000.0,5.0,36.0,93.0,16.0\n")
    with pytest.raises(ConfigError, match=f"track file {re.escape(str(path))} is not UTF-8"):
        load_tracks(path)


def test_track_geometry_validation():
    with pytest.raises(ValueError):
        GroundTruthTrack("t0", "ship", 5000.0, 0.0, 90.0, 10.0, 20.0)
