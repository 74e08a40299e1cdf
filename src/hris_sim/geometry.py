"""Array layouts, wave vectors, and far-field array response vectors.

The base station is a uniform linear array along the x axis; the hybrid RIS
is a planar array in the x-z plane with broadside along +y.
"""

from dataclasses import dataclass, field

import numpy as np

C0 = 299792458.0  # speed of light in vacuum, m/s (exact by SI definition)


@dataclass
class Radio:
    """Carrier frequency and its wavelength c0/f."""

    carrier_hz: float
    wavelength: float = field(init=False)

    def __post_init__(self):
        if self.carrier_hz <= 0:
            raise ValueError("carrier frequency must be positive")
        self.wavelength = C0 / self.carrier_hz


@dataclass(eq=False)
class ArrayGeometry:
    """Element layout of one antenna array.

    ``element_offsets`` holds per-element positions relative to ``center``,
    shape (n, 3); the mean offset must be the zero vector.
    """

    center: np.ndarray
    element_offsets: np.ndarray
    nx: int = 1
    nz: int = 1
    spacing: float = 0.0

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.element_offsets = np.asarray(self.element_offsets, dtype=float)
        if self.center.shape != (3,) or self.element_offsets.ndim != 2 \
                or self.element_offsets.shape[1] != 3:
            raise ValueError("center must be a 3-vector and offsets (n, 3)")
        if np.abs(self.element_offsets.mean(axis=0)).max() > 1e-12:
            raise ValueError("element offsets must be symmetric about the center")
        if self.n_elements != self.nx * self.nz:
            raise ValueError("array requires nx*nz elements")

    @property
    def n_elements(self) -> int:
        return self.element_offsets.shape[0]


def ula(center, n_elements: int, spacing: float) -> ArrayGeometry:
    """Uniform linear array of ``n_elements`` along x, centered on ``center``."""
    if n_elements < 1:
        raise ValueError("need at least one element")
    idx = np.arange(n_elements) - (n_elements - 1) / 2.0
    offsets = np.zeros((n_elements, 3))
    offsets[:, 0] = idx * spacing
    return ArrayGeometry(center, offsets, nx=n_elements, nz=1, spacing=spacing)


def planar(center, nx: int, nz: int, spacing: float) -> ArrayGeometry:
    """Planar nx-by-nz array in the x-z plane, row-major with x fastest."""
    if nx < 1 or nz < 1:
        raise ValueError("need at least one element per axis")
    ix = np.arange(nx) - (nx - 1) / 2.0
    iz = np.arange(nz) - (nz - 1) / 2.0
    xx, zz = np.meshgrid(ix, iz)  # raveling gives x varying fastest
    offsets = np.zeros((nx * nz, 3))
    offsets[:, 0] = xx.ravel() * spacing
    offsets[:, 2] = zz.ravel() * spacing
    return ArrayGeometry(center, offsets, nx=nx, nz=nz, spacing=spacing)


def wave_vector(p, q, wavelength: float) -> np.ndarray:
    """Wave vector (rad/m) at ``q`` for a plane wave arriving from ``p``.

    Points from ``q`` toward the source: (2*pi/wavelength) * (p-q)/||q-p||.
    A point ``p`` of shape (3,) gives (3,); a stack (k, 3) gives (k, 3).
    """
    diff = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
    dist = np.sqrt(np.vecdot(diff, diff))
    if np.any(dist < 1e-15):
        raise ValueError("degenerate link: endpoints coincide")
    return (2.0 * np.pi / wavelength) * diff / dist[..., None]


def array_response(arr: ArrayGeometry, p, radio: Radio) -> np.ndarray:
    """Unit-modulus response of ``arr`` toward location ``p``.

    Entry n is exp(j * <k, offset_n>) with k the wave vector from ``p``
    toward the array center. ``p`` is assumed outside the array aperture.
    A point of shape (3,) gives (n,); a stack (k, 3) gives one row per point.
    """
    k = wave_vector(p, arr.center, radio.wavelength)
    return np.exp(1j * (k @ arr.element_offsets.T))
