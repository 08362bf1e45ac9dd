"""Cell-averaging CFAR detection, subspace direction finding and truth checks.

CFAR runs along the range dimension per Doppler bin with the exact
cell-averaging threshold factor ``alpha = N (pfa^(-1/N) - 1)`` for ``N``
training cells, which holds the false-alarm rate for exponentially
distributed cell power regardless of the absolute level.  Direction finding
uses the subspace pseudo-spectrum ``P(az) = 1 / ||E_n^H v(az)||^2`` on a
fine azimuth grid with three-point parabolic peak refinement.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .beamform import CovarianceEstimate, _box_around, _set_box
from .errors import ConfigError
from .geometry import subarray_steering_matrix
from .rdproc import RDDatacube

#: Doppler columns per block of ``cfar_detect``; fixed, though any width gives the
#: same detections
CFAR_COLUMNS = 16


@dataclass
class Detection:
    """One CFAR exceedance that is also a local maximum."""

    range_bin: int
    doppler_bin: int
    range_m: float
    radial_velocity: float
    peak_power_db: float
    threshold_db: float


def ca_cfar_threshold_factor(pfa: float, n_cells: int) -> float:
    """Exact cell-averaging threshold multiplier for a given false-alarm rate."""
    if not 0.0 < pfa < 1.0:
        raise ValueError("pfa must lie in (0, 1)")
    if n_cells < 1:
        raise ValueError("n_cells must be >= 1")
    return n_cells * (pfa ** (-1.0 / n_cells) - 1.0)


def cfar_window_cells(n_train: int, n_guard: int) -> int:
    """Range cells spanned by a CFAR window: the cell under test, its guard
    cells and its training cells on both sides."""
    return 2 * (n_train + n_guard) + 1


def cfar_detect(power_map: np.ndarray, pfa: float, n_train: int = 16,
                n_guard: int = 2, range_axis: np.ndarray | None = None,
                velocity_axis: np.ndarray | None = None) -> list:
    """Cell-averaging CFAR along range, one pass per Doppler bin.

    Parameters
    ----------
    power_map : ndarray
        Real non-negative (n_range, n_doppler) power map.
    pfa : float
        Design false-alarm probability per evaluated cell.
    n_train, n_guard : int
        Training and guard cells per side along range.
    range_axis, velocity_axis : ndarray, optional
        Physical axes used to annotate detections (NaN when omitted).

    Returns
    -------
    list of Detection
        Cells exceeding the adaptive threshold that are also strict local
        maxima of their 3x3 neighbourhood, strongest first, cells of equal
        power in row-major order.  Cells whose training window does not fit
        inside the map are not evaluated.  A cell whose training cells all
        have zero power (a noise-free map) has a zero threshold, reported as
        ``threshold_db = -inf``.

    The map is taken in fixed blocks of ``CFAR_COLUMNS`` Doppler columns.  A
    column's training sums are contiguous slices of one cumulative sum over its
    range cells, and only the cells above their threshold take the 8-neighbour
    test, which reads the map about them, one column past the block's edges
    included, so the blocks give the bytes of one pass over the map, while the
    temporaries (the cumulative sum, the threshold and one side's difference) are
    about three blocks of floats.
    """
    p = np.asarray(power_map, dtype=float)
    if p.ndim != 2:
        raise ValueError("power map must be 2-D")
    if p.size and not (p.min() >= 0.0 and np.isfinite(p.max())):
        raise ValueError("power map must be finite and non-negative")
    if n_train < 1 or n_guard < 0:
        raise ConfigError("need n_train >= 1 and n_guard >= 0")
    n_r, n_d = p.shape
    half = n_train + n_guard
    cells = cfar_window_cells(n_train, n_guard)
    if cells > n_r:
        raise ConfigError(f"CFAR window of {cells} range cells exceeds the map ({n_r})")
    n_cells = 2 * n_train
    alpha = ca_cfar_threshold_factor(pfa, n_cells)

    # evaluated rows half..n_r-half-1; threshold = alpha * (lead + lag) / n_cells
    detections = []
    for c0 in range(0, n_d, CFAR_COLUMNS):
        block = p[:, c0:c0 + CFAR_COLUMNS]
        threshold = _training_sum(block, n_train, n_guard)
        threshold /= n_cells
        threshold *= alpha
        rows, cols = np.nonzero(block[half:n_r - half] > threshold)
        peak = _beats_neighbours(p, rows + half, cols + c0)
        for row, col in zip(rows[peak], cols[peak]):
            r, d = half + int(row), c0 + int(col)
            level = threshold[row, col]
            detections.append(Detection(
                range_bin=r,
                doppler_bin=d,
                range_m=float(range_axis[r]) if range_axis is not None else float("nan"),
                radial_velocity=(float(velocity_axis[d]) if velocity_axis is not None
                                 else float("nan")),
                peak_power_db=float(10.0 * np.log10(p[r, d])),
                threshold_db=float(10.0 * np.log10(level)) if level > 0.0 else -np.inf,
            ))
    # the blocks' hits in row-major order, then strongest first: the sort is
    # stable, so cells of equal power keep that order
    detections.sort(key=lambda det: (det.range_bin, det.doppler_bin))
    detections.sort(key=lambda det: det.peak_power_db, reverse=True)
    return detections


def _training_sum(p: np.ndarray, n_train: int, n_guard: int) -> np.ndarray:
    """Leading plus lagging training-cell power of every evaluated range cell.

    Row ``k`` belongs to cell ``half + k`` with ``half = n_train + n_guard``.
    Each side is a difference of two contiguous slices of one cumulative sum,
    and the lagging side is added in place, so the only arrays held at once
    are the cumulative sum, the result and one side's difference.
    """
    n_r, n_d = p.shape
    half = n_train + n_guard
    n_eval = n_r - 2 * half
    s = np.empty((n_r + 1, n_d))
    s[0] = 0.0
    np.cumsum(p, axis=0, out=s[1:])
    total = s[n_train:n_train + n_eval] - s[:n_eval]
    lag = half + n_guard + 1
    total += s[2 * half + 1:] - s[lag:lag + n_eval]
    return total


def _beats_neighbours(p: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Which of the cells ``(rows, cols)`` of a 2-D map, none in its first or last
    row, are strictly greater than all 8 neighbours: ``_local_maxima(p,
    np.greater)`` at those cells, where a column outside the map compares as
    ``-inf``."""
    value, n_c = p[rows, cols], p.shape[1]
    peak = np.ones(len(rows), dtype=bool)
    for dc in (-1, 0, 1):
        c = cols + dc
        inside = (c >= 0) & (c < n_c)
        for dr in (-1, 0, 1):
            if (dr, dc) != (0, 0):
                peak[inside] &= value[inside] > p[rows[inside] + dr, c[inside]]
    return peak


def _local_maxima(values: np.ndarray, compare) -> np.ndarray:
    """Cells of a 2-D map that ``compare`` true against all 8 neighbours.

    ``compare`` is ``np.greater`` for strict maxima (a plateau of equal
    cells yields none) or ``np.greater_equal`` (every plateau cell counts).
    Cells outside the map compare as ``-inf``.
    """
    padded = np.pad(values, 1, mode="constant", constant_values=-np.inf)
    n_r, n_c = values.shape
    is_peak = np.ones(values.shape, dtype=bool)
    for dr in (0, 1, 2):
        for dc in (0, 1, 2):
            if (dr, dc) != (1, 1):
                is_peak &= compare(values, padded[dr:dr + n_r, dc:dc + n_c])
    return is_peak


def select_training_subset(rd: RDDatacube, detection: Detection,
                           window: tuple = (10, 10),
                           guard: tuple | None = None,
                           clutter_mask: np.ndarray | None = None) -> np.ndarray:
    """Channel snapshots from a window around a detection.

    ``window`` and ``guard`` are (range, doppler) half-widths; the guard block
    (when given) and clutter-masked cells are removed.  The window is clipped
    at the map edges.  Returns a (n_channels, K) array; too few snapshots
    for an estimate are refused by ``covariance_from_snapshots``.
    """
    if int(window[0]) < 0 or int(window[1]) < 0:
        raise ValueError("window half-widths must be non-negative")
    cell = (detection.range_bin, detection.doppler_bin)
    mask = np.zeros(rd.values.shape[1:], dtype=bool)
    _set_box(mask, *_box_around(*cell, window), True)
    if guard is not None:
        _set_box(mask, *_box_around(*cell, guard), False)
    if clutter_mask is not None:
        if clutter_mask.shape != mask.shape:
            raise ValueError("clutter mask shape does not match the RD map")
        mask &= ~clutter_mask
    return rd.values[:, mask]


@dataclass
class MusicSpectrum:
    """Subspace pseudo-spectrum over an azimuth grid."""

    azimuth_deg: np.ndarray
    values: np.ndarray

    def db(self) -> np.ndarray:
        return 10.0 * np.log10(self.values / self.values.max())


def music_spectrum(cov: CovarianceEstimate, azimuth_grid_deg,
                   n_sources: int) -> MusicSpectrum:
    """Noise-subspace pseudo-spectrum ``1 / ||E_n^H v(az)||^2``.

    ``n_sources`` must leave at least one noise dimension.  Steering vectors
    are normalized to unit norm so the spectrum shape is free of the element
    subpattern envelope.  The noise subspace comes from the covariance's one
    eigendecomposition.
    """
    _vals, vecs = cov.eig
    n_ch = vecs.shape[0]
    if not 1 <= n_sources <= n_ch - 1:
        raise ValueError(f"n_sources must lie in [1, {n_ch - 1}]")
    noise_sub = vecs[:, : n_ch - n_sources]
    v = subarray_steering_matrix(azimuth_grid_deg)
    v = v / np.linalg.norm(v, axis=0, keepdims=True)
    q = np.sum(np.abs(noise_sub.conj().T @ v) ** 2, axis=0)
    spectrum = 1.0 / np.maximum(q, np.finfo(float).tiny)
    return MusicSpectrum(azimuth_deg=np.asarray(azimuth_grid_deg, dtype=float),
                         values=spectrum)


@dataclass
class PeakSet:
    """Refined spectrum peak azimuths in degrees, strongest first;
    ``complete`` is False when fewer local maxima exist than were requested."""

    azimuths: list
    requested: int

    @property
    def complete(self) -> bool:
        return len(self.azimuths) >= self.requested


def _parabolic_offset(y_left: float, y_mid: float, y_right: float) -> float:
    """Vertex of the parabola through three unit-spaced samples, in [-0.5, 0.5]."""
    denom = y_left - 2.0 * y_mid + y_right
    if denom == 0.0:
        return 0.0
    return float(min(max(0.5 * (y_left - y_right) / denom, -0.5), 0.5))


def pick_peaks(spectrum: MusicSpectrum, k: int) -> PeakSet:
    """The k largest local maxima with parabolic sub-grid refinement.

    Value ties between candidate peaks are broken toward smaller absolute
    azimuth.  Grid endpoints are not eligible.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    az = spectrum.azimuth_deg
    p = spectrum.values
    if az.size < 3:
        raise ValueError("spectrum grid too short for peak picking")
    idx = np.arange(1, az.size - 1)
    is_max = (p[idx] > p[idx - 1]) & (p[idx] >= p[idx + 1])
    candidates = idx[is_max]
    # Strongest first; ties toward smaller |azimuth|.
    order = sorted(candidates, key=lambda i: (-p[i], abs(az[i])))
    azimuths = []
    for i in order[:k]:
        offset = _parabolic_offset(p[i - 1], p[i], p[i + 1])
        azimuths.append(float(az[i] + offset * (az[i + 1] - az[i])))
    return PeakSet(azimuths=azimuths, requested=int(k))


@dataclass(frozen=True)
class GroundTruthTrack:
    """One reference track sample from the local truth file."""

    timestamp: str
    name: str
    range_m: float
    azimuth_deg: float
    heading_deg: float
    length_m: float
    beam_m: float

    def __post_init__(self):
        if not self.length_m >= self.beam_m > 0.0:
            raise ValueError("track requires length_m >= beam_m > 0")


TRACK_COLUMNS = ("timestamp", "name", "range_m", "azimuth_deg",
                 "heading_deg", "length_m", "beam_m")


def load_tracks(path) -> list:
    """Read ground-truth tracks from UTF-8 CSV with the canonical column set; a
    malformed row raises ConfigError naming the file, the line and the column."""
    path = Path(path)
    tracks = []
    with path.open(newline="", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"track file {path} is not UTF-8 text: {exc}") from None
        reader = csv.DictReader(lines)
        missing = set(TRACK_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ConfigError(f"track file {path} is missing columns: {sorted(missing)}")
        for row in reader:
            where = f"track file {path}, line {reader.line_num}"
            values = {}
            for col in TRACK_COLUMNS[2:]:
                try:
                    values[col] = float(row[col])
                except (TypeError, ValueError):  # TypeError: the row is short
                    values[col] = np.nan
                if not np.isfinite(values[col]):
                    raise ConfigError(f"{where}, column {col}: not a finite number: {row[col]!r}")
            try:
                tracks.append(GroundTruthTrack(timestamp=row["timestamp"], name=row["name"],
                                               **values))
            except ValueError as exc:
                raise ConfigError(f"{where}, columns length_m and beam_m: {exc}") from None
    return tracks


def angular_error(estimate_deg: float, truth) -> float:
    """Absolute azimuth difference wrapped to [0, 180] degrees.

    ``truth`` may be a GroundTruthTrack or a plain azimuth in degrees.
    """
    truth_az = getattr(truth, "azimuth_deg", truth)
    diff = abs(float(estimate_deg) - float(truth_az)) % 360.0
    return float(min(diff, 360.0 - diff))


@dataclass(frozen=True)
class AngularSpan:
    """Angular extent of a track target as seen from the radar."""

    projected_m: float
    span_deg: float
    within_target: bool | None


#: slack added to the span test, matching the 0.1 deg print granularity of
#: reported angular errors
SPAN_TOLERANCE_DEG = 0.05


def target_angular_span(track: GroundTruthTrack, radar_los_azimuth_deg: float,
                        angular_error_deg: float | None = None) -> AngularSpan:
    """Projected size and subtended angle of a track target.

    The hull projection across the line of sight is
    ``max(length * |sin(heading - los)|, beam)`` (the beam floors the
    projection for near-parallel headings); the subtended span is
    ``2 * atan(projected / (2 * range))``.  When an angular error is supplied,
    ``within_target`` reports whether it falls inside the span (with a small
    print-granularity slack).
    """
    rel = np.deg2rad(track.heading_deg - radar_los_azimuth_deg)
    projected = max(track.length_m * abs(np.sin(rel)), track.beam_m)
    span = np.rad2deg(2.0 * np.arctan(projected / (2.0 * track.range_m)))
    within = None
    if angular_error_deg is not None:
        within = bool(angular_error_deg <= span + SPAN_TOLERANCE_DEG)
    return AngularSpan(projected_m=float(projected), span_deg=float(span),
                       within_target=within)
