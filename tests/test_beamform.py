from collections import Counter, namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aesa_chain import (ArrayGeometry, BeamformerWeights, CovarianceEstimate,
                        EstimationError, JammerSource, NumericalError,
                        RadarParams, RDDatacube, TrainingRegion,
                        apply_beamformer, beampattern, beamscan,
                        conventional_weights,
                        covariance_from_snapshots, estimate_covariance,
                        exclusion_mask, music_spectrum,
                        mvdr_distortionless_weights, mvdr_weights, rd_map,
                        rejection_db, simulate_dwell, subarray_steering)

from helpers import gaussian_elimination_solve

GEOM = ArrayGeometry.demonstrator()
SMALL = RadarParams(r_min=1500.0, r_max=2100.0, n_pulses=64)

Cell = namedtuple("Cell", "range_bin doppler_bin")


def jammer_covariance(jnr=1.0e5, az=21.4, noise=1.0):
    v = subarray_steering(GEOM, az)
    r = noise * np.eye(6) + jnr * np.outer(v, v.conj())
    return CovarianceEstimate(matrix=r, snapshot_count=10**6, diagonal_loading=0.0)


def test_mvdr_matches_elimination_oracle():
    cov = jammer_covariance()
    v = subarray_steering(GEOM, -4.0)
    g = gaussian_elimination_solve(cov.matrix, v)
    ref = g / (v.conj() @ g)
    w0 = mvdr_distortionless_weights(cov, GEOM, -4.0)
    np.testing.assert_allclose(w0, ref, rtol=1e-9)


def test_mvdr_distortionless_constraint():
    w0 = mvdr_distortionless_weights(jammer_covariance(), GEOM, 7.5)
    v = subarray_steering(GEOM, 7.5)
    assert v.conj() @ w0 == pytest.approx(1.0, abs=1e-12)


def test_white_noise_collapses_to_conventional():
    cov = CovarianceEstimate(matrix=3.0 * np.eye(6), snapshot_count=100,
                             diagonal_loading=0.0)
    for az in (0.0, -15.0, 21.4):
        w_ad = mvdr_weights(cov, GEOM, az).values
        w_cv = conventional_weights(GEOM, az).values
        assert abs(np.vdot(w_ad, w_cv)) == pytest.approx(1.0, abs=1e-10)


def test_mvdr_null_depth_at_jammer():
    w = mvdr_weights(jammer_covariance(), GEOM, 0.0)
    pattern = beampattern(GEOM, w.values, np.array([0.0, 21.4]))
    assert pattern[1] - pattern[0] < -40.0


@st.composite
def interference_snapshots(draw):
    """(6, K) snapshots: unit white noise plus 0-5 random interferers."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(12, 60))
    rank = draw(st.integers(0, 5))
    power = 10.0 ** (draw(st.floats(0.0, 40.0)) / 10.0)

    def cn(*shape):
        return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2)

    return cn(6, k) + np.sqrt(power) * cn(6, rank) @ cn(rank, k)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(interference_snapshots(), st.floats(0.0, 20.0),
       st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=4))
def test_mvdr_properties_over_generated_covariances(x, loading_db, azimuths):
    """Both the loaded estimate and one built from its matrix are distortionless,
    match a direct solve, and scan to the energy of the applied weights."""
    loaded = covariance_from_snapshots(x, loading_db=loading_db)
    direct = CovarianceEstimate(matrix=loaded.matrix, snapshot_count=x.shape[1],
                                diagonal_loading=loaded.diagonal_loading)
    rd = RDDatacube(values=x[:, :, None], range_axis=np.arange(x.shape[1]),
                    velocity_axis=np.zeros(1), params=SMALL)
    for cov in (loaded, direct):
        scan = beamscan(rd, GEOM, azimuths, cov=cov)
        for az, energy in zip(azimuths, scan.energy):
            v = subarray_steering(GEOM, az)
            w0 = mvdr_distortionless_weights(cov, GEOM, az)
            assert v.conj() @ w0 == pytest.approx(1.0, abs=1e-10)
            g = np.linalg.solve(cov.matrix, v)
            ref = g / (v.conj() @ g)
            assert np.linalg.norm(w0 - ref) <= 1e-10 * np.linalg.norm(ref)
            w = mvdr_weights(cov, GEOM, az)
            assert energy == pytest.approx(np.sum(np.abs(apply_beamformer(rd, w)) ** 2),
                                           rel=1e-9)


def test_one_eigendecomposition_per_covariance(monkeypatch):
    """91 MVDR solves and one MUSIC spectrum share one factorisation."""
    calls = Counter()
    for name in ("eigh", "eigvalsh", "cond", "svd", "solve"):
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    rng = np.random.default_rng(6)
    x = (rng.normal(size=(6, 200)) + 1j * rng.normal(size=(6, 200))) / np.sqrt(2)
    x += 100.0 * np.outer(subarray_steering(GEOM, 21.4), rng.normal(size=200))
    grid = np.arange(-22.5, 22.51, 0.5)
    assert grid.size == 91
    cov = covariance_from_snapshots(x)
    for az in grid:
        mvdr_weights(cov, GEOM, az)
    music_spectrum(cov, GEOM, grid, 1)
    assert calls == {"eigh": 1}
    # built directly from a matrix, an estimate factors once, on first use
    direct = CovarianceEstimate(matrix=cov.matrix, snapshot_count=200,
                                diagonal_loading=cov.diagonal_loading)
    assert calls == {"eigh": 1}
    for az in grid:
        mvdr_weights(direct, GEOM, az)
    music_spectrum(direct, GEOM, grid, 1)
    assert calls == {"eigh": 2}


def test_weights_are_unit_norm():
    w = BeamformerWeights(values=np.array([3.0, 4.0, 0, 0, 0, 0]))
    assert np.linalg.norm(w.values) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        BeamformerWeights(values=np.zeros(6))


def test_loading_references_min_eigenvalue():
    rng = np.random.default_rng(2)
    x = (rng.normal(size=(6, 500)) + 1j * rng.normal(size=(6, 500))) / np.sqrt(2)
    cov = covariance_from_snapshots(x, loading_db=10.0)
    raw = x @ x.conj().T / 500
    raw = 0.5 * (raw + raw.conj().T)
    lam_min = np.linalg.eigvalsh(raw)[0]
    assert cov.diagonal_loading == pytest.approx(10.0 * lam_min, rel=1e-12)
    np.testing.assert_allclose(cov.matrix, raw + cov.diagonal_loading * np.eye(6),
                               atol=1e-12)


def test_snapshot_count_guard():
    # the floor is 2 N_ch = 12 snapshots (Reed, Mallett and Brennan)
    x = np.random.default_rng(4).normal(size=(6, 12)) + 0j
    assert covariance_from_snapshots(x).snapshot_count == 12
    with pytest.raises(EstimationError, match="11 snapshots"):
        covariance_from_snapshots(x[:, :11])
    with pytest.raises(EstimationError, match=r"3 snapshots .* \(need >= 4\)"):
        covariance_from_snapshots(np.ones((2, 3)) + 0j)
    with pytest.raises(ValueError):
        covariance_from_snapshots(np.ones(6) + 0j)
    x[2, 5] = np.nan
    with pytest.raises(ValueError, match="finite"):
        covariance_from_snapshots(x)


def test_condition_number_refusal():
    bad = CovarianceEstimate(matrix=np.diag([1.0e13, 1, 1, 1, 1, 1]),
                             snapshot_count=100, diagonal_loading=0.0)
    with pytest.raises(NumericalError, match="condition"):
        mvdr_weights(bad, GEOM, 0.0)
    indef = CovarianceEstimate(matrix=-np.eye(6), snapshot_count=100,
                               diagonal_loading=0.0)
    with pytest.raises(NumericalError, match="positive definite"):
        mvdr_weights(indef, GEOM, 0.0)
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(6, 6)) + 0j)
    for lam in ([0.0, 1, 2, 3, 4, 5],     # singular, positive semidefinite
                [-1.0, 1, 2, 3, 4, 5]):   # indefinite
        cov = CovarianceEstimate(matrix=np.diag(lam) if lam[0] == 0.0
                                 else q @ np.diag(lam) @ q.conj().T,
                                 snapshot_count=100, diagonal_loading=0.0)
        with pytest.raises(NumericalError, match="positive definite"):
            mvdr_weights(cov, GEOM, 0.0)


def test_covariance_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        CovarianceEstimate(matrix=np.array([[1.0, 1j], [1j, 1.0]]),
                           snapshot_count=5, diagonal_loading=0.0)
    with pytest.raises(ValueError, match="square"):
        CovarianceEstimate(matrix=np.ones((2, 3)), snapshot_count=5,
                           diagonal_loading=0.0)
    for bad in (np.nan, np.inf):
        m = np.eye(6, dtype=complex)
        m[2, 3] = m[3, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            CovarianceEstimate(matrix=m, snapshot_count=100, diagonal_loading=0.0)


def test_training_region_mask_and_counts():
    region = TrainingRegion(range_span=(2, 5), doppler_span=(1, 4),
                            exclusion=((3, 4), (2, 3)))
    mask = region.mask((10, 8))
    assert mask.sum() == 8
    assert not mask[3, 2]
    rd = rd_map(simulate_dwell(SMALL, [], noise_power=1.0, seed=0))
    assert region.snapshots(rd).shape == (6, 8)
    clutter = np.zeros((SMALL.n_range_bins, 64), dtype=bool)
    clutter[2, :] = True
    assert region.snapshots(rd, clutter).shape == (6, 5)
    # the estimate counts the region's cells, and refuses fewer than 2 N_ch
    wide = TrainingRegion(range_span=(2, 6), doppler_span=(1, 5), exclusion=((3, 4), (2, 3)))
    assert estimate_covariance(rd, wide).snapshot_count == 15
    with pytest.raises(EstimationError, match="11 snapshots"):
        estimate_covariance(rd, wide, clutter_mask=clutter)
    with pytest.raises(EstimationError, match="8 snapshots"):
        estimate_covariance(rd, region)
    with pytest.raises(EstimationError, match="empty"):
        estimate_covariance(rd, TrainingRegion((2, 3), (1, 2), ((2, 3), (1, 2))))
    with pytest.raises(ValueError):
        TrainingRegion(range_span=(5, 5), doppler_span=(0, 4))


def test_apply_beamformer_contract():
    rng = np.random.default_rng(1)
    cube = rng.normal(size=(6, 4, 3)) + 1j * rng.normal(size=(6, 4, 3))
    w = conventional_weights(GEOM, 10.0)
    out = apply_beamformer(cube, w)
    ref = np.zeros((4, 3), dtype=complex)
    for c in range(6):
        ref += np.conj(w.values[c]) * cube[c]
    np.testing.assert_allclose(out, ref, atol=1e-12)
    with pytest.raises(ValueError, match="cube"):
        apply_beamformer(cube[:4], w)


def test_beamscan_equals_direct_application():
    raw = simulate_dwell(SMALL, [], JammerSource(azimuth_deg=21.4, jnr_db=30.0),
                         noise_power=1.0, seed=2)
    rd = rd_map(raw)
    grid = np.arange(-20.0, 21.0, 5.0)
    cov = estimate_covariance(rd, TrainingRegion((0, SMALL.n_range_bins), (0, 64)))
    for scan_cov in (None, cov):
        curve = beamscan(rd, GEOM, grid, cov=scan_cov)
        for i, az in enumerate(grid):
            w = (conventional_weights(GEOM, az) if scan_cov is None
                 else mvdr_weights(cov, GEOM, az))
            ref = np.sum(np.abs(apply_beamformer(rd, w)) ** 2)
            assert curve.energy[i] == pytest.approx(ref, rel=1e-9), (scan_cov is None, az)


def test_beamscan_localizes_jammer():
    raw = simulate_dwell(SMALL, [], JammerSource(azimuth_deg=21.4, jnr_db=40.0),
                         noise_power=1.0, seed=3)
    rd = rd_map(raw)
    grid = np.arange(-22.5, 22.51, 0.5)
    conv = beamscan(rd, GEOM, grid)
    assert grid[np.argmax(conv.energy)] == pytest.approx(21.5, abs=0.51)
    cov = estimate_covariance(rd, TrainingRegion((0, SMALL.n_range_bins), (0, 64)))
    mvdr = beamscan(rd, GEOM, grid, cov=cov)
    # distortionless at the jammer: the adaptive scan peaks there too
    assert grid[np.argmax(mvdr.energy)] == pytest.approx(21.5, abs=0.51)
    # steered elsewhere it nulls the jammer that conventional sidelobes leak
    off = np.abs(grid - 21.4) >= 5.0
    gain_db = 10 * np.log10(np.mean(conv.energy[off]) / np.mean(mvdr.energy[off]))
    assert gain_db > 20.0


def test_rejection_db_on_constructed_maps():
    conv = np.full((4, 4), 2.0, dtype=complex)
    adap = np.ones((4, 4), dtype=complex)
    assert rejection_db(conv, adap) == pytest.approx(10 * np.log10(4.0))
    half = np.zeros((4, 4), dtype=bool)
    half[:2] = True
    assert rejection_db(conv, adap, half) == pytest.approx(10 * np.log10(4.0))
    with pytest.raises(ValueError, match="shape"):
        rejection_db(conv, adap[:2])
    with pytest.raises(ValueError, match="empty"):
        rejection_db(conv, adap, np.zeros((4, 4), dtype=bool))
    with pytest.raises(ValueError, match="zero"):
        rejection_db(conv, np.zeros((4, 4)))


def test_exclusion_mask_geometry():
    mask = exclusion_mask((10, 8), [Cell(5, 2)], guard=1)
    assert (~mask).sum() == 9
    assert not mask[4:7, 1:4].any()
    edge = exclusion_mask((10, 8), [Cell(0, 0)], guard=2)
    assert (~edge).sum() == 9
    clutter = np.zeros((10, 8), dtype=bool)
    clutter[9, :] = True
    both = exclusion_mask((10, 8), [Cell(5, 2)], guard=1, clutter_mask=clutter)
    assert (~both).sum() == 17
