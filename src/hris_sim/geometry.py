"""Array layouts, wave vectors, and far-field array response vectors.

The base station is a uniform linear array along the x axis; the hybrid RIS
is a planar array in the x-z plane with broadside along +y.
"""

import math
from dataclasses import dataclass, field

import numpy as np

C0 = 299792458.0  # speed of light in vacuum, m/s (exact by SI definition)
MIN_DISTANCE_M = 1e-15  # link endpoints closer than this coincide
HALF_WAVE = 0.5  # element spacing of both arrays, in wavelengths


@dataclass
class Radio:
    """Carrier frequency and its wavelength c0/f."""

    carrier_hz: float
    wavelength: float = field(init=False)

    def __post_init__(self):
        if self.carrier_hz <= 0:
            raise ValueError("carrier frequency must be positive")
        self.wavelength = C0 / self.carrier_hz


def check_axis(n: int, spacing: float) -> None:
    """Raise unless ``n`` elements ``spacing`` apart about a centre have
    finite offsets: the outer two lie farthest out, (n - 1) / 2 spacings."""
    try:
        half = float(n - 1) / 2.0
    except OverflowError:  # an n - 1 too large for a float is not finite
        half = math.inf
    if not math.isfinite(half * float(spacing)):
        raise ValueError("element offsets must be finite")


@dataclass(eq=False)
class ArrayGeometry:
    """Planar nx-by-nz array in the x-z plane, ``spacing`` apart on both axes.

    ``element_offsets`` holds per-element positions relative to ``center``,
    shape (nx*nz, 3), row-major with x fastest and symmetric about ``center``.
    """

    center: np.ndarray
    nx: int
    nz: int
    spacing: float
    element_offsets: np.ndarray = field(init=False)

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if self.center.shape != (3,):
            raise ValueError("center must be a 3-vector")
        if self.nx < 1 or self.nz < 1:
            raise ValueError("need at least one element per axis")
        check_axis(max(self.nx, self.nz), self.spacing)
        ix = np.arange(self.nx) - (self.nx - 1) / 2.0
        iz = np.arange(self.nz) - (self.nz - 1) / 2.0
        xx, zz = np.meshgrid(ix, iz)  # raveling gives x varying fastest
        self.element_offsets = np.zeros((self.n_elements, 3))
        self.element_offsets[:, 0] = xx.ravel() * self.spacing
        self.element_offsets[:, 2] = zz.ravel() * self.spacing

    @property
    def n_elements(self) -> int:
        return self.nx * self.nz


def ula(center, n_elements: int, spacing: float) -> ArrayGeometry:
    """Uniform linear array along x, centered on ``center``: one planar row."""
    return ArrayGeometry(center, n_elements, 1, spacing)


planar = ArrayGeometry  # planar(center, nx, nz, spacing) builds the grid


def wave_vector(p, q, wavelength: float) -> np.ndarray:
    """Wave vector (rad/m) at ``q`` for a plane wave arriving from ``p``.

    Points from ``q`` toward the source: (2*pi/wavelength) * (p-q)/||q-p||.
    A point ``p`` of shape (3,) gives (3,); a stack (k, 3) gives (k, 3).
    """
    diff = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
    dist = np.sqrt(np.vecdot(diff, diff))
    if np.any(dist < MIN_DISTANCE_M):
        raise ValueError("degenerate link: endpoints coincide")
    return (2.0 * np.pi / wavelength) * diff / dist[..., None]


def array_response(arr: ArrayGeometry, p, radio: Radio) -> np.ndarray:
    """Unit-modulus response of ``arr`` toward location ``p``.

    Entry n is exp(j * <k, offset_n>) with k the wave vector from ``p``
    toward the array center. ``p`` is assumed outside the array aperture.
    A point of shape (3,) gives (n,); a stack (k, 3) gives one row per point.
    """
    k = wave_vector(p, arr.center, radio.wavelength)
    phase = 1j * (k @ arr.element_offsets.T)
    return np.exp(phase, out=phase)  # in place: no second stack of entries
