"""HRIS state and self-configuration: phase vectors, quantization, the probing
codebook, power sensing, peak combining, and closed-form reflection synthesis.

Conventions. A configuration is the complex vector ``phases`` (length N). For
an absorption config ``phi`` the combined detector signal is ``phi^H x`` with
``x`` the incident vector at the elements, so the config that maximizes the
sensed power of a source with response ``a`` is ``exp(j*angle(a))``. For a
reflection config ``theta`` the reflected end-to-end term is ``theta^H h_hat``
with ``h_hat = conj(h_sum) * a_r(bs)``, maximized by ``exp(j*angle(h_hat))``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSet
from .geometry import ArrayGeometry, Radio, array_response
from .scenario import MAX_Q_BITS

REFLECTION = "reflection"
ABSORPTION = "absorption"

# far-field range used to turn a steering direction into a source point
_FAR_FIELD_M = 1e3


def check_q_bits(q_bits: int) -> None:
    """Reject a bit depth outside [1, MAX_Q_BITS]: past it, grid indices no
    longer round-trip through the float64 phases, and 2^63 overflows."""
    if not 1 <= q_bits <= MAX_Q_BITS:
        raise ValueError(f"q_bits {q_bits} must be in [1, MAX_Q_BITS={MAX_Q_BITS}]")


@dataclass(eq=False)
class HrisConfig:
    """One phase configuration of the surface (reflection or absorption branch).

    ``==`` is identity: compare the ``phases`` arrays to compare values.
    """

    phases: np.ndarray
    branch: str = REFLECTION
    # bit depth and phase-grid indices, set only by from_indices
    quantized: int | None = field(default=None, init=False)
    indices: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.phases = np.asarray(self.phases, dtype=complex)
        if self.branch not in (REFLECTION, ABSORPTION):
            raise ValueError(f"unknown branch {self.branch!r}")
        if (np.abs(self.phases) > 1.0 + 1e-9).any():
            raise ValueError("per-element modulus must not exceed 1")

    @classmethod
    def from_indices(cls, indices, q_bits: int, branch: str = REFLECTION):
        """Quantized configuration with phase 2*pi*m / 2^q_bits at index m."""
        check_q_bits(q_bits)
        indices = np.asarray(indices)
        if indices.min() < 0 or indices.max() >= 2 ** q_bits:
            raise ValueError("need indices in [0, 2^q_bits)")
        config = cls(np.exp(1j * indices * (2.0 * np.pi / 2 ** q_bits)), branch)
        config.quantized, config.indices = q_bits, indices
        return config

    @property
    def n_elements(self) -> int:
        return self.phases.shape[0]


def idle_config(n_elements: int, branch: str = REFLECTION) -> HrisConfig:
    """All-zero-phase configuration (every phase shifter off)."""
    return HrisConfig(np.ones(n_elements, dtype=complex), branch)


def quantize(config: HrisConfig, q_bits: int) -> HrisConfig:
    """Snap each phase to the nearest grid angle and force unit modulus; a
    tie keeps the smaller angle, which at the wrap-around is 0."""
    check_q_bits(q_bits)  # before the cast to int, which 2^63 levels overflow
    n_levels = 2 ** q_bits
    x = (np.angle(config.phases) % (2.0 * np.pi)) / (2.0 * np.pi / n_levels)
    idx = np.ceil(x - 0.5).astype(int)
    idx[x == n_levels - 0.5] = 0
    return HrisConfig.from_indices(idx % n_levels, q_bits, config.branch)


@dataclass(eq=False)
class Codebook:
    """Probing codewords (quantized steering configs) over a direction grid:
    row i of ``phases`` steers toward row i of ``directions``. ``==`` is
    identity."""

    phases: np.ndarray  # (L, N) absorption phases
    directions: np.ndarray  # (L, 2) azimuth, elevation in radians

    def __len__(self) -> int:
        return self.phases.shape[0]


def direction_unit_vector(azimuth: float, elevation: float) -> np.ndarray:
    """Unit vector for a direction in front of the surface (broadside +y)."""
    return np.array([
        math.sin(azimuth) * math.cos(elevation),
        math.cos(azimuth) * math.cos(elevation),
        math.sin(elevation),
    ])


def steering_config(geom: ArrayGeometry, radio: Radio, azimuth: float,
                    elevation: float, q_bits: int) -> HrisConfig:
    """Quantized absorption config steering toward (azimuth, elevation)."""
    p = geom.center + _FAR_FIELD_M * direction_unit_vector(azimuth, elevation)
    return quantize(HrisConfig(array_response(geom, p, radio), ABSORPTION), q_bits)


def _grid_shape(l_codewords: int) -> tuple:
    # widest az-major factorization with n_el <= sqrt(L/2)
    n_el = 1
    for d in range(1, int(math.isqrt(l_codewords)) + 1):
        if l_codewords % d == 0 and 2 * d * d <= l_codewords:
            n_el = d
    return l_codewords // n_el, n_el


def build_codebook(geom: ArrayGeometry, radio: Radio, l_codewords: int,
                   q_bits: int) -> Codebook:
    """Quantized steering codebook over a uniform front-half-space grid.

    The n_az-by-n_el grid is the array's own nx-by-nz shape when that
    matches ``l_codewords``, else the widest az-major factorization of
    ``l_codewords``. Azimuths are the n_az bin midpoints of (-pi/2, pi/2) and
    elevations the n_el midpoints of (-pi/4, pi/4).
    """
    if l_codewords < 1:
        raise ValueError("need at least one codeword")
    if geom.nx * geom.nz == l_codewords:
        n_az, n_el = geom.nx, geom.nz
    else:
        n_az, n_el = _grid_shape(l_codewords)
    azimuths = -np.pi / 2 + (np.arange(n_az) + 0.5) * np.pi / n_az
    elevations = -np.pi / 4 + (np.arange(n_el) + 0.5) * (np.pi / 2) / n_el
    directions = np.array([(az, el) for el in elevations for az in azimuths])
    phases = np.stack([steering_config(geom, radio, az, el, q_bits).phases
                       for az, el in directions])
    return Codebook(phases, directions)


def _sensed_powers(phases: np.ndarray, incident: np.ndarray, eta: float,
                   noise_var: float):
    # phi^H x per row: np.vecdot gives np.vdot's bits, a matrix product does
    # not; float_power is libm pow like a scalar ** 2, while ** 2 on an array
    # is x*x, one bit off for about one value in a thousand
    return (1.0 - eta) * np.float_power(np.abs(np.vecdot(phases, incident)),
                                        2) + noise_var


def sensed_power(config_abs: HrisConfig, incident: np.ndarray, eta: float,
                 noise_var: float) -> float:
    """Power at the detector/harvester: (1-eta)*|phi^H x|^2 + noise_var."""
    if config_abs.branch != ABSORPTION:
        raise ValueError("sensing requires an absorption-branch configuration")
    return float(_sensed_powers(config_abs.phases, incident, eta, noise_var))


@dataclass(eq=False)
class PowerProfile:
    """Per-codeword sensed powers of one sweep and the detected peak set."""

    powers: np.ndarray
    threshold: float
    peak_indices: np.ndarray = field(init=False)

    def __post_init__(self):
        self.powers = np.asarray(self.powers, dtype=float)
        self.peak_indices = np.flatnonzero(self.powers > self.threshold)

    @property
    def detected(self) -> bool:
        """False flags a sweep with no source above the threshold."""
        return self.peak_indices.size > 0


def probe(codebook: Codebook, incident: np.ndarray, eta: float,
          noise_var: float, tau: float | None = None,
          weighting: str = "soft"):
    """Beam-sweep the codebook against ``incident`` and combine the peaks.

    Measures the sensed power for every codeword, thresholds at ``tau``
    (default: twice the sweep median), and returns the power profile plus the
    combined absorption configuration sum(delta_i * c_i) over the peak set,
    with delta_i = 1 (hard) or the measured power (soft). The combination is
    re-projected to unit modulus per element. An empty peak set yields the
    all-ones idle configuration, flagged via ``profile.detected``.
    """
    if weighting not in ("hard", "soft"):
        raise ValueError(f"unknown weighting {weighting!r}")
    powers = _sensed_powers(codebook.phases, incident, eta, noise_var)
    if tau is None:
        tau = 2.0 * float(np.median(powers))
    elif not tau >= noise_var:
        raise ValueError("threshold below the noise floor")
    profile = PowerProfile(powers, float(tau))
    peaks = profile.peak_indices
    if not profile.detected:
        return profile, idle_config(codebook.phases.shape[1], ABSORPTION)
    weights = np.ones(peaks.size) if weighting == "hard" else powers[peaks]
    # the rows are added in peak order, as a running sum would add them
    combined = (weights[:, None] * codebook.phases[peaks]).sum(axis=0)
    return profile, HrisConfig(np.exp(1j * np.angle(combined)), ABSORPTION)


def compose_reflection(phi_b: HrisConfig, phi_u: HrisConfig,
                       q_bits: int | None = None) -> HrisConfig:
    """Reflection config conj(phi_u) * phi_b (element-wise), then quantized."""
    if phi_b.n_elements != phi_u.n_elements:
        raise ValueError("configuration lengths differ")
    cfg = HrisConfig(np.conj(phi_u.phases) * phi_b.phases, REFLECTION)
    return quantize(cfg, q_bits) if q_bits is not None else cfg


def oracle_config(channels: ChannelSet, mode: str) -> HrisConfig:
    """Perfect-CSI reflection config exp(j*angle(conj(h_sum) * a_r(bs))).

    ``mode`` picks the UE aggregation: "equal" normalizes every UE channel to
    unit gain before summing, "weighted" sums the raw channels.
    """
    h = channels.h
    if mode == "equal":
        h = h / np.linalg.norm(h, axis=1, keepdims=True)
    elif mode != "weighted":
        raise ValueError(f"unknown aggregation mode {mode!r}")
    h_hat = np.conj(h.sum(axis=0)) * channels.a_r_bs
    return HrisConfig(np.exp(1j * np.angle(h_hat)), REFLECTION)


def incident_from_bs(channels: ChannelSet, p_watts: float) -> np.ndarray:
    """Element-level signal when the BS sends a pilot beamformed at the HRIS."""
    v = channels.G.conj().T @ channels.a_r_bs  # direction of the BS precoder
    w_r = np.sqrt(p_watts) * v / np.linalg.norm(v)
    return channels.G @ w_r


def incident_from_ues(channels: ChannelSet, p_watts: float) -> np.ndarray:
    """Element-level signal when all UEs send the pilot simultaneously."""
    return np.sqrt(p_watts) * channels.h.sum(axis=0)
