import numpy as np
import pytest

from aesa_chain import ArrayGeometry, beampattern, element_steering, subarray_steering
from aesa_chain.geometry import (N_EL, SECTOR_HALF_WIDTH_DEG, geometry_table,
                                 subarray_steering_matrix)

from helpers import (element_positions_oracle, pattern_oracle_db,
                     steering_oracle, subarray_steering_oracle)

GEOM = ArrayGeometry.demonstrator()


def test_element_count_and_pitch():
    assert GEOM.n_elements == 48
    assert GEOM.n_subarrays == 6
    assert GEOM.element_pitch == pytest.approx(0.015)
    assert ArrayGeometry.demonstrator(0.025).element_pitch == pytest.approx(0.0125)


def test_element_positions_match_oracle():
    np.testing.assert_allclose(GEOM.element_positions,
                               element_positions_oracle(GEOM.wavelength),
                               atol=1e-15)
    # centred layout
    np.testing.assert_allclose(GEOM.element_positions.mean(axis=0), 0.0, atol=1e-15)


def test_subarray_partition():
    # six 2x4 blocks along azimuth, eight members each
    counts = np.bincount(GEOM.subarray_index)
    assert counts.tolist() == [8] * 6
    centers = GEOM.subarray_phase_centers
    # phase centres on the x axis at one-wavelength pitch
    np.testing.assert_allclose(centers[:, 1], 0.0, atol=1e-15)
    np.testing.assert_allclose(np.diff(centers[:, 0]), GEOM.wavelength, atol=1e-15)


def test_element_steering_matches_oracle():
    for az in (0.0, 20.0, -35.0, 5.0):
        got = element_steering(az)
        want = steering_oracle(GEOM.wavelength, GEOM.element_positions, az)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_broadside_steering_is_all_ones():
    np.testing.assert_allclose(element_steering(0.0), np.ones(48), atol=1e-15)
    np.testing.assert_allclose(subarray_steering(0.0), np.ones(6), atol=1e-15)


def test_element_phase_step_at_30_degrees():
    # adjacent azimuth elements at half-wavelength pitch: phase step pi/2
    v = element_steering(30.0)
    col0 = v[0]          # elements ordered column-major along azimuth
    col1 = v[N_EL]
    step = np.angle(col1 / col0)
    assert step == pytest.approx(np.pi / 2.0, abs=1e-12)


def test_subarray_steering_matches_oracle_and_phase_step():
    for az in (-15.0, 7.5, 21.4):
        got = subarray_steering(az)
        want = subarray_steering_oracle(az)
        np.testing.assert_allclose(got, want, atol=1e-12)
        # adjacent channels one wavelength apart: step 2*pi*sin(az)
        step = np.angle(got[1] / got[0])
        expected = (2.0 * np.pi * np.sin(np.radians(az)) + np.pi) % (2 * np.pi) - np.pi
        assert step == pytest.approx(expected, abs=1e-12)


def test_subarray_steering_matrix_consistent():
    # the 0.05 deg sector grid of the MUSIC scans and the bundled steers and jammer
    sector = np.arange(-SECTOR_HALF_WIDTH_DEG, SECTOR_HALF_WIDTH_DEG + 1e-4, 0.05)
    grid = np.concatenate([sector, [-20.0, -10.0, -5.0, 0.0, 5.0, 10.0, 20.0, 21.4]])
    m = subarray_steering_matrix(grid)
    assert m.shape == (6, 909)
    for j, az in enumerate(grid):
        assert m[:, j].tobytes() == subarray_steering(az).tobytes(), az
        np.testing.assert_allclose(m[:, j], subarray_steering_oracle(az), rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        subarray_steering_matrix(np.array([]))
    with pytest.raises(ValueError):
        subarray_steering_matrix(np.array([95.0]))


def test_steering_rejects_endfire():
    with pytest.raises(ValueError):
        element_steering(90.0)
    for az in (-95.0, np.nan):
        with pytest.raises(ValueError, match="azimuth"):
            subarray_steering(az)


def test_beampattern_matches_brute_force():
    w = subarray_steering(10.0) / np.sqrt(6.0)
    grid = np.arange(-60.0, 60.0, 0.25)
    got = beampattern(w, grid)
    want = pattern_oracle_db(w, grid)
    np.testing.assert_allclose(got, want, atol=1e-9)
    assert got.max() == pytest.approx(0.0, abs=1e-12)


def test_broadside_first_sidelobe_level():
    # six uniform channels at one-wavelength pitch: first sidelobe -13.06 dB
    w = np.ones(6) / np.sqrt(6.0)
    grid = np.arange(-30.0, 30.0001, 0.01)
    db = beampattern(w, grid)
    interior = (np.abs(grid) > 8.0) & (np.abs(grid) < 20.0)
    assert db[interior].max() == pytest.approx(-13.06, abs=0.05)


def test_grating_lobe_levels():
    # one-wavelength channel pitch folds a steered beam at sin(az0) - 1; the
    # two-element azimuth subpattern keeps the fold 3 dB-close to the main
    # beam only for steerings near 30 degrees.
    grid = np.arange(-60.0, 60.0001, 0.01)
    for steer, expect_db, tol in [(10.0, -10.18, 0.2), (20.0, -4.29, 0.2),
                                  (25.0, -2.04, 0.2), (30.0, 0.0, 0.02),
                                  (35.0, 1.94, 0.2)]:
        w = subarray_steering(steer) / np.sqrt(6.0)
        db = beampattern(w, grid)
        target = np.degrees(np.arcsin(np.sin(np.radians(steer)) - 1.0))
        lobe = db[np.abs(grid - target) < 3.0].max()
        main = db[np.abs(grid - steer) < 3.0].max()
        assert lobe - main == pytest.approx(expect_db, abs=tol)
        if steer >= 25.0:
            assert abs(lobe - main) <= 3.0
        else:
            assert lobe - main < -3.0


def test_geometry_table_rows():
    rows = geometry_table(GEOM)
    assert len(rows) == 48
    xs = sorted({r[0] for r in rows})
    assert len(xs) == 12
    ids = sorted({r[2] for r in rows})
    assert ids == [0, 1, 2, 3, 4, 5]


def test_geometry_validation():
    for bad in (-1.0, 0.0, np.nan):
        with pytest.raises(ValueError):
            ArrayGeometry(wavelength=bad)
