"""Receive-array geometry, steering vectors and beam patterns.

The demonstrator antenna is a 12 x 4 rectangular grid of radiating elements
at half-wavelength pitch.  The grid is partitioned into six 2 x 4 subarrays
that tile the azimuth axis, and each subarray is summed into one receive
channel, so the digital degrees of freedom exist along azimuth only.  The
subarray phase centers form a uniform line array with pitch
``subarray_az * element_pitch`` (one wavelength for the default geometry),
which is why steered beams exhibit grating lobes at
``sin(theta_g) = sin(theta_0) +/- 1``.

Conventions
-----------
* x runs along azimuth, y along elevation, both in metres in the array plane.
* Azimuth is positive toward +x, elevation positive toward +y.
* Angles are degrees at every public interface; radians are internal only.
* Steering vectors are plain complex ndarrays (one entry per element or per
  subarray channel), with the element entry
  ``exp(j * 2*pi/lambda * (x*sin(az)*cos(el) + y*sin(el)))``.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s


@dataclass(frozen=True)
class ArrayGeometry:
    """Element layout and subarray partition of the receive array.

    Parameters
    ----------
    wavelength : float
        Carrier wavelength in metres.
    element_pitch : float
        Element spacing in metres, identical along both axes.
    n_az, n_el : int
        Element counts along azimuth and elevation.
    subarray_az, subarray_el : int
        Elements per subarray along each axis; must tile the grid.
    """

    wavelength: float
    element_pitch: float
    n_az: int = 12
    n_el: int = 4
    subarray_az: int = 2
    subarray_el: int = 4

    def __post_init__(self):
        if self.wavelength <= 0.0:
            raise ValueError("wavelength must be positive")
        if self.element_pitch <= 0.0:
            raise ValueError("element_pitch must be positive")
        if min(self.n_az, self.n_el, self.subarray_az, self.subarray_el) < 1:
            raise ValueError("grid and subarray dimensions must be >= 1")
        if self.n_az % self.subarray_az or self.n_el % self.subarray_el:
            raise ValueError(
                f"subarray shape {self.subarray_az}x{self.subarray_el} does not "
                f"tile the {self.n_az}x{self.n_el} element grid"
            )

    @classmethod
    def demonstrator(cls, wavelength: float = 0.03) -> "ArrayGeometry":
        """Default 48-element, six-channel geometry at half-wavelength pitch."""
        return cls(wavelength=wavelength, element_pitch=wavelength / 2.0)

    @property
    def n_elements(self) -> int:
        return self.n_az * self.n_el

    @property
    def n_subarrays(self) -> int:
        return (self.n_az // self.subarray_az) * (self.n_el // self.subarray_el)

    @property
    def elements_per_subarray(self) -> int:
        return self.subarray_az * self.subarray_el

    @cached_property
    def element_positions(self) -> np.ndarray:
        """(n_elements, 2) array of (x, y) positions centred on the origin."""
        ix = np.arange(self.n_az) - (self.n_az - 1) / 2.0
        iy = np.arange(self.n_el) - (self.n_el - 1) / 2.0
        gx, gy = np.meshgrid(ix, iy, indexing="ij")
        pos = np.column_stack([gx.ravel(), gy.ravel()]) * self.element_pitch
        pos.flags.writeable = False
        return pos

    @cached_property
    def subarray_index(self) -> np.ndarray:
        """Subarray id of each element, ordered along azimuth then elevation."""
        ix, iy = np.meshgrid(
            np.arange(self.n_az), np.arange(self.n_el), indexing="ij"
        )
        n_el_blocks = self.n_el // self.subarray_el
        idx = (ix // self.subarray_az) * n_el_blocks + iy // self.subarray_el
        idx = idx.ravel()
        idx.flags.writeable = False
        return idx

    @cached_property
    def subarray_phase_centers(self) -> np.ndarray:
        """(n_subarrays, 2) mean element position of each subarray."""
        centers = np.zeros((self.n_subarrays, 2))
        for s in range(self.n_subarrays):
            centers[s] = self.element_positions[self.subarray_index == s].mean(axis=0)
        centers.flags.writeable = False
        return centers

    @cached_property
    def _aggregation(self) -> np.ndarray:
        """(n_subarrays, n_elements) matrix averaging elements into channels."""
        agg = np.zeros((self.n_subarrays, self.n_elements))
        agg[self.subarray_index, np.arange(self.n_elements)] = 1.0
        agg /= self.elements_per_subarray
        agg.flags.writeable = False
        return agg


def _check_angle(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value) or abs(value) >= 90.0:
        raise ValueError(f"{name} must satisfy |angle| < 90 deg, got {value}")
    return np.deg2rad(value)


def _element_phases(geom: ArrayGeometry, az_rad: np.ndarray, el_rad: float) -> np.ndarray:
    """(n_elements, n_angles) phase matrix for a vector of azimuths."""
    k = 2.0 * np.pi / geom.wavelength
    x = geom.element_positions[:, 0]
    y = geom.element_positions[:, 1]
    az_rad = np.atleast_1d(az_rad)
    return k * (
        x[:, None] * np.sin(az_rad)[None, :] * np.cos(el_rad)
        + y[:, None] * np.sin(el_rad)
    )


def element_steering(geom: ArrayGeometry, azimuth_deg: float, elevation_deg: float = 0.0) -> np.ndarray:
    """Element-level steering vector, one unit-modulus entry per element."""
    az = _check_angle("azimuth", azimuth_deg)
    el = _check_angle("elevation", elevation_deg)
    return np.exp(1j * _element_phases(geom, az, el))[:, 0]


def subarray_steering(geom: ArrayGeometry, azimuth_deg: float, elevation_deg: float = 0.0) -> np.ndarray:
    """Channel-level steering vector: per-subarray mean of element entries.

    Entries are the element steering entries of each subarray averaged with a
    1/elements_per_subarray factor, so the broadside vector is all ones.
    """
    return subarray_steering_matrix(geom, [azimuth_deg], elevation_deg)[:, 0]


def subarray_steering_matrix(geom: ArrayGeometry, azimuth_grid_deg, elevation_deg: float = 0.0) -> np.ndarray:
    """(n_subarrays, n_angles) steering matrix over an azimuth grid."""
    grid = np.asarray(azimuth_grid_deg, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("azimuth grid must be a non-empty 1-D sequence")
    bad = grid[~(np.abs(grid) < 90.0)]  # NaN included
    if bad.size:
        raise ValueError(f"azimuth must satisfy |angle| < 90 deg, got {bad[0]}")
    el = _check_angle("elevation", elevation_deg)
    elem = np.exp(1j * _element_phases(geom, np.deg2rad(grid), el))
    return geom._aggregation @ elem


def beampattern(geom: ArrayGeometry, weights, azimuth_grid_deg, elevation_deg: float = 0.0) -> np.ndarray:
    """Normalized receive power pattern of a channel weight vector.

    Parameters
    ----------
    weights : ndarray or object with a ``values`` attribute
        Complex channel weights, length ``geom.n_subarrays``.
    azimuth_grid_deg : array_like
        Azimuth sample grid in degrees.

    Returns
    -------
    ndarray
        ``|w^H v(az)|^2`` in dB, normalized so the maximum is 0 dB.
    """
    w = np.asarray(getattr(weights, "values", weights), dtype=complex)
    if w.shape != (geom.n_subarrays,):
        raise ValueError(
            f"weights must have shape ({geom.n_subarrays},), got {w.shape}"
        )
    v = subarray_steering_matrix(geom, azimuth_grid_deg, elevation_deg)
    power = np.abs(w.conj() @ v) ** 2
    peak = power.max()
    if peak <= 0.0:
        raise ValueError("weight vector produces an identically zero pattern")
    floor = np.finfo(float).tiny
    return 10.0 * np.log10(np.maximum(power / peak, floor))


def geometry_table(geom: ArrayGeometry) -> list:
    """Rows of (x_m, y_m, subarray_id) for the geometry dump."""
    pos = geom.element_positions
    sub = geom.subarray_index
    return [(float(pos[i, 0]), float(pos[i, 1]), int(sub[i])) for i in range(geom.n_elements)]
