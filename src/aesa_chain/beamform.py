"""Conventional and minimum-variance adaptive beamforming on the RD cube.

A snapshot is the 6-channel vector of one range-Doppler cell.  The sample
covariance over a training region is factored once; the diagonal loading is
referenced to the smallest eigenvalue of that one eigendecomposition.
Adaptive weights ``w0 = R^-1 v / (v^H R^-1 v)`` come from the same factors
and are rescaled to unit norm so the white-noise floor at the beamformer
output equals the per-channel floor, which keeps conventional and adaptive
maps directly comparable.  ``beamscan(rd, geom, grid, cov=None)`` scans
conventional weights, or MVDR weights when given a covariance.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EstimationError, NumericalError
from .geometry import ArrayGeometry, subarray_steering
from .rdproc import RDDatacube

#: diagonal loading above the estimated noise floor, dB
DEFAULT_LOADING_DB = 10.0

#: covariance condition number beyond which the solve is refused
MAX_CONDITION = 1.0e12


@dataclass(frozen=True)
class TrainingRegion:
    """Index block of RD cells used for covariance estimation.

    Spans are half-open bin ranges.  ``exclusion`` is an optional guard block
    (same format) removed from the region, typically centred on a detection.
    """

    range_span: tuple
    doppler_span: tuple
    exclusion: tuple | None = None  # ((r_lo, r_hi), (d_lo, d_hi))

    def __post_init__(self):
        r0, r1 = self.range_span
        d0, d1 = self.doppler_span
        if r0 >= r1 or d0 >= d1:
            raise ValueError("training region spans must be non-empty")

    def mask(self, shape) -> np.ndarray:
        """Boolean (n_range, n_doppler) mask of included cells."""
        m = np.zeros(shape, dtype=bool)
        _set_box(m, self.range_span, self.doppler_span, True)
        if self.exclusion is not None:
            _set_box(m, *self.exclusion, False)
        return m

    def snapshots(self, rd: RDDatacube, clutter_mask: np.ndarray | None = None) -> np.ndarray:
        """(n_channels, K) snapshots of the region's cells, minus the cells
        ``clutter_mask`` marks (True = exclude)."""
        m = self.mask(rd.values.shape[1:])
        if clutter_mask is not None:
            if clutter_mask.shape != m.shape:
                raise ValueError("clutter mask shape does not match the RD map")
            m &= ~clutter_mask
        return rd.values[:, m]


def _set_box(mask: np.ndarray, row_span, col_span, value: bool) -> None:
    """Set a half-open block of a 2-D mask, with both spans clipped to it."""
    r0, r1 = np.clip(row_span, 0, mask.shape[0])
    c0, c1 = np.clip(col_span, 0, mask.shape[1])
    mask[r0:r1, c0:c1] = value


def _box_around(row: int, col: int, half_widths) -> tuple:
    """(row_span, col_span) of the block of given half-widths about a cell."""
    hr, hc = int(half_widths[0]), int(half_widths[1])
    return (row - hr, row + hr + 1), (col - hc, col + hc + 1)


@dataclass
class CovarianceEstimate:
    """Loaded sample covariance of the channel snapshots."""

    matrix: np.ndarray
    snapshot_count: int
    diagonal_loading: float  # linear power added to the diagonal

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("covariance must be a square matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("covariance matrix must be finite")
        herm = np.max(np.abs(m - m.conj().T))
        scale = max(np.max(np.abs(m)), 1.0)
        if herm > 1e-9 * scale:
            raise ValueError("covariance matrix is not Hermitian")
        self.matrix = m

    @cached_property
    def eig(self) -> tuple:
        """(ascending eigenvalues, eigenvectors) of ``matrix``, the one
        factorisation MVDR and MUSIC share; computed on first use."""
        return np.linalg.eigh(self.matrix)


@dataclass
class BeamformerWeights:
    """Unit-norm channel weights."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise ValueError("weight vector must be nonzero")
        self.values = v / norm


def covariance_from_snapshots(snapshots: np.ndarray,
                              loading_db: float = DEFAULT_LOADING_DB) -> CovarianceEstimate:
    """Loaded sample covariance from a (n_channels, K) snapshot block.

    The unloaded sample covariance is factored once, and the loading
    ``lambda_min * 10^(loading_db/10)`` is added to every eigenvalue (lambda_min
    is the thermal floor when interference is low rank).  Fewer than twice
    the channel count of snapshots (Reed, Mallett and Brennan) raise
    ``EstimationError``; this is the chain's one snapshot floor.
    """
    x = np.asarray(snapshots, dtype=complex)
    if x.ndim != 2 or not np.all(np.isfinite(x)):
        raise ValueError("snapshots must be a finite 2-D (channels, K) array")
    n_ch, k = x.shape
    if k < 2 * n_ch:
        raise EstimationError(
            f"{k} snapshots are too few for covariance estimation (need >= {2 * n_ch})"
        )
    r = x @ x.conj().T / k
    r = 0.5 * (r + r.conj().T)
    lam, vecs = np.linalg.eigh(r)
    delta = max(float(lam[0]), 0.0) * 10.0 ** (loading_db / 10.0)
    cov = CovarianceEstimate(matrix=r + delta * np.eye(n_ch), snapshot_count=k,
                             diagonal_loading=delta)
    cov.eig = (lam + delta, vecs)
    return cov


def estimate_covariance(rd: RDDatacube, region: TrainingRegion,
                        loading_db: float = DEFAULT_LOADING_DB,
                        clutter_mask: np.ndarray | None = None) -> CovarianceEstimate:
    """Sample covariance over a training region of the RD cube.

    ``clutter_mask`` marks cells to exclude (True = clutter) in addition to
    the region's own exclusion block.
    """
    snaps = region.snapshots(rd, clutter_mask)
    if snaps.size == 0:
        raise EstimationError("training region is empty after exclusions")
    return covariance_from_snapshots(snaps, loading_db=loading_db)


def conventional_weights(geom: ArrayGeometry, azimuth_deg: float) -> BeamformerWeights:
    """Phase-conjugate (matched) weights, unit norm."""
    return BeamformerWeights(values=subarray_steering(geom, azimuth_deg))


def mvdr_distortionless_weights(cov: CovarianceEstimate, geom: ArrayGeometry,
                                azimuth_deg: float) -> np.ndarray:
    """Unnormalized minimum-variance weights with w0^H v = 1, from
    ``R^-1 v = E diag(1/lambda) E^H v``; for a Hermitian positive-definite
    matrix ``lambda_max / lambda_min`` is its 2-norm condition number."""
    lam, vecs = cov.eig
    v = subarray_steering(geom, azimuth_deg)
    if lam.size != v.size:
        raise ValueError("covariance size does not match the channel count")
    if lam[0] <= 0.0:
        raise NumericalError("covariance is not positive definite")
    cond = lam[-1] / lam[0]
    if cond > MAX_CONDITION:
        raise NumericalError(
            f"covariance condition number {cond:.3e} exceeds {MAX_CONDITION:.1e}; "
            "increase diagonal loading or the training region"
        )
    g = vecs @ ((vecs.conj().T @ v) / lam)
    return g / (v.conj() @ g)


def mvdr_weights(cov: CovarianceEstimate, geom: ArrayGeometry,
                 azimuth_deg: float) -> BeamformerWeights:
    """Unit-norm minimum-variance distortionless weights."""
    return BeamformerWeights(values=mvdr_distortionless_weights(cov, geom, azimuth_deg))


def apply_beamformer(rd, weights) -> np.ndarray:
    """Collapse the channel axis with ``w^H x`` per cell.

    Accepts an RDDatacube, a CompressedDwell, or any (n_channels, A, B)
    ndarray; returns the complex (A, B) beamformed map.
    """
    cube = np.asarray(getattr(rd, "values", rd))
    w = np.asarray(getattr(weights, "values", weights), dtype=complex)
    if cube.ndim != 3 or cube.shape[0] != w.size:
        raise ValueError(
            f"expected a ({w.size}, A, B) cube, got shape {cube.shape}"
        )
    return np.einsum("c,crd->rd", w.conj(), cube)


@dataclass
class BeamscanCurve:
    """Output energy versus steering azimuth."""

    azimuth_deg: np.ndarray
    energy: np.ndarray          # linear total output energy per angle


def beamscan(rd: RDDatacube, geom: ArrayGeometry, azimuth_grid_deg,
             cov: CovarianceEstimate | None = None) -> BeamscanCurve:
    """Total beamformed map energy as a function of steering azimuth.

    Conventional weights when ``cov`` is None, MVDR weights from ``cov``
    otherwise.  The energy at angle a equals ``sum_cells |w_a^H x|^2``,
    evaluated through the cell scatter matrix S as ``diag(W^H S W)`` so the
    scan cost is independent of the map size.
    """
    grid = np.asarray(azimuth_grid_deg, dtype=float)
    w = np.stack([(conventional_weights(geom, az) if cov is None
                   else mvdr_weights(cov, geom, az)).values for az in grid], axis=1)
    x = rd.values.reshape(rd.values.shape[0], -1)
    energy = np.einsum("ca,ca->a", w.conj(), (x @ x.conj().T) @ w).real
    return BeamscanCurve(azimuth_deg=grid, energy=energy)


def rejection_db(conventional_map: np.ndarray, adaptive_map: np.ndarray,
                 region_mask: np.ndarray | None = None) -> float:
    """Interference rejection: mean-power ratio of the two maps in dB.

    ``region_mask`` selects the measurement cells (True = include); default is
    the full map.  Both maps must share a shape and the region must be
    non-empty.
    """
    a = np.asarray(conventional_map)
    b = np.asarray(adaptive_map)
    if a.shape != b.shape:
        raise ValueError("maps must share a shape")
    if region_mask is None:
        region_mask = np.ones(a.shape, dtype=bool)
    if region_mask.shape != a.shape:
        raise ValueError("region mask shape does not match the maps")
    if not region_mask.any():
        raise ValueError("rejection measurement region is empty")
    p_conv = np.mean(np.abs(a[region_mask]) ** 2)
    p_mvdr = np.mean(np.abs(b[region_mask]) ** 2)
    if p_conv <= 0.0 or p_mvdr <= 0.0:
        raise ValueError("rejection is undefined for an identically zero map")
    return float(10.0 * np.log10(p_conv / p_mvdr))


def exclusion_mask(shape, detections=(), guard: int = 3,
                   clutter_mask: np.ndarray | None = None) -> np.ndarray:
    """Measurement-region mask: full map minus detection guards and clutter.

    ``detections`` is an iterable of objects with ``range_bin`` and
    ``doppler_bin`` attributes; a (2*guard+1)^2 block around each is removed.
    """
    m = np.ones(shape, dtype=bool)
    for det in detections:
        _set_box(m, *_box_around(det.range_bin, det.doppler_bin, (guard, guard)), False)
    if clutter_mask is not None:
        m &= ~clutter_mask
    return m
