"""Receive-array geometry, steering vectors and beam patterns.

The demonstrator antenna is one fixed array: a 12 x 4 rectangular grid of
radiating elements at half-wavelength pitch, partitioned into six 2 x 4
subarrays that tile the azimuth axis.  Each subarray is summed into one
receive channel, so the digital degrees of freedom exist along azimuth only,
and every steering vector is taken at zero elevation.  The subarray phase
centers form a uniform line array of one-wavelength pitch, which is why
steered beams exhibit grating lobes at ``sin(theta_g) = sin(theta_0) +/- 1``.

Conventions
-----------
* x runs along azimuth, y along elevation, both in metres in the array plane.
* Azimuth is positive toward +x.
* Angles are degrees at every public interface; radians are internal only.
* Steering vectors are plain complex ndarrays (one entry per element or per
  subarray channel), with the element entry ``exp(j * pi * n * sin(az))`` for
  the element's column offset ``n`` from the array centre.  At half-wavelength
  pitch that is the path phase ``2*pi/lambda * x * sin(az)`` at any carrier,
  so steering depends on azimuth alone.
* The four rows of a column share its phase, so steering starts from the 12
  column phasors; a channel entry is the mean of its subarray's two column
  phasors (the subarray model of Van Trees, *Optimum Array Processing*, 2002).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s

#: element columns (azimuth) and rows (elevation) of the grid
N_AZ, N_EL = 12, 4

#: element columns per subarray; a subarray spans all N_EL rows
SUBARRAY_AZ = 2

N_ELEMENTS = N_AZ * N_EL
N_SUBARRAYS = N_AZ // SUBARRAY_AZ

#: element pitch along both axes, in wavelengths
PITCH_WAVELENGTHS = 0.5

#: half-width of the azimuth sector that targets, steering and scans cover, deg
SECTOR_HALF_WIDTH_DEG = 22.5

#: azimuth offset of each element column from the array centre, in pitches
_COLUMN_OFFSETS = np.arange(N_AZ) - (N_AZ - 1) / 2.0
_COLUMN_OFFSETS.flags.writeable = False


@dataclass(frozen=True)
class ArrayGeometry:
    """Physical element positions of the demonstrator array at one carrier
    wavelength (metres); steering does not need them."""

    wavelength: float

    def __post_init__(self):
        if not self.wavelength > 0.0:
            raise ValueError("wavelength must be positive")

    @classmethod
    def demonstrator(cls, wavelength: float = 0.03) -> "ArrayGeometry":
        """The 48-element, six-channel array at ``wavelength``."""
        return cls(wavelength=wavelength)

    @property
    def element_pitch(self) -> float:
        return self.wavelength * PITCH_WAVELENGTHS

    @property
    def n_elements(self) -> int:
        return N_ELEMENTS

    @property
    def n_subarrays(self) -> int:
        return N_SUBARRAYS

    @cached_property
    def element_positions(self) -> np.ndarray:
        """(n_elements, 2) array of (x, y) positions centred on the origin,
        column by column along azimuth."""
        pos = np.column_stack([np.repeat(_COLUMN_OFFSETS, N_EL),
                               np.tile(np.arange(N_EL) - (N_EL - 1) / 2.0, N_AZ)])
        pos *= self.element_pitch
        pos.flags.writeable = False
        return pos

    @property
    def subarray_index(self) -> np.ndarray:
        """Subarray id of each element, in ``element_positions`` order."""
        return np.repeat(np.arange(N_SUBARRAYS), SUBARRAY_AZ * N_EL)

    @cached_property
    def subarray_phase_centers(self) -> np.ndarray:
        """(n_subarrays, 2) mean element position of each subarray."""
        x = _COLUMN_OFFSETS.reshape(N_SUBARRAYS, SUBARRAY_AZ).sum(axis=1) / SUBARRAY_AZ
        centers = np.column_stack([x, np.zeros(N_SUBARRAYS)]) * self.element_pitch
        centers.flags.writeable = False
        return centers


def _check_angle(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value) or abs(value) >= 90.0:
        raise ValueError(f"{name} must satisfy |angle| < 90 deg, got {value}")
    return np.deg2rad(value)


def _column_phasors(azimuth_grid_deg) -> np.ndarray:
    """(N_AZ, n_angles) phasors of the element columns over an azimuth grid;
    the N_EL rows of a column share its phase at zero elevation."""
    grid = np.asarray(azimuth_grid_deg, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("azimuth grid must be a non-empty 1-D sequence")
    bad = grid[~(np.abs(grid) < 90.0)]  # NaN included
    if bad.size:
        raise ValueError(f"azimuth must satisfy |angle| < 90 deg, got {bad[0]}")
    phase = 2.0 * np.pi * PITCH_WAVELENGTHS * _COLUMN_OFFSETS[:, None]
    return np.exp(1j * (phase * np.sin(np.deg2rad(grid))))


def element_steering(azimuth_deg: float) -> np.ndarray:
    """Element-level steering vector, one unit-modulus entry per element."""
    return np.repeat(_column_phasors([azimuth_deg])[:, 0], N_EL)


def subarray_steering(azimuth_deg: float) -> np.ndarray:
    """Channel-level steering vector: each subarray's mean element entry, so
    the broadside vector is all ones."""
    return subarray_steering_matrix([azimuth_deg])[:, 0]


def subarray_steering_matrix(azimuth_grid_deg) -> np.ndarray:
    """(n_subarrays, n_angles) steering matrix over an azimuth grid; column j is
    byte-equal to ``subarray_steering(azimuth_grid_deg[j])``."""
    pairs = _column_phasors(azimuth_grid_deg).reshape(N_SUBARRAYS, SUBARRAY_AZ, -1)
    return (pairs[:, 0] + pairs[:, 1]) / SUBARRAY_AZ


def beampattern(weights, azimuth_grid_deg) -> np.ndarray:
    """Normalized receive power pattern of a channel weight vector.

    Parameters
    ----------
    weights : ndarray or object with a ``values`` attribute
        Complex channel weights, length ``N_SUBARRAYS``.
    azimuth_grid_deg : array_like
        Azimuth sample grid in degrees.

    Returns
    -------
    ndarray
        ``|w^H v(az)|^2`` in dB, normalized so the maximum is 0 dB.
    """
    w = np.asarray(getattr(weights, "values", weights), dtype=complex)
    if w.shape != (N_SUBARRAYS,):
        raise ValueError(f"weights must have shape ({N_SUBARRAYS},), got {w.shape}")
    v = subarray_steering_matrix(azimuth_grid_deg)
    power = np.abs((w.conj()[:, None] * v).sum(axis=0)) ** 2
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
