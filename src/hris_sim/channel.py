"""Propagation links: distance-power-law gains, stochastic cylinder blockage,
and realization of the BS-HRIS / HRIS-UE / BS-UE channel set."""

from dataclasses import dataclass

import numpy as np

from .geometry import Radio, array_response, planar, ula
from .scenario import Scenario


@dataclass
class PathlossModel:
    """Power-law gain gamma0 * (d0 / d)^chi with LoS/NLoS exponents."""

    gamma0: float = 1.0
    d0: float = 1.0
    chi_los: float = 2.0
    chi_nlos: float = 4.0

    def __post_init__(self):
        if self.gamma0 <= 0 or self.d0 <= 0:
            raise ValueError("gamma0 and d0 must be positive")
        if not 0 <= self.chi_los <= self.chi_nlos:
            raise ValueError("need 0 <= chi_los <= chi_nlos")


@dataclass
class BlockageField:
    """Poisson field of cylindrical blockers (density per m^2, height, diameter)."""

    density: float = 0.3
    blocker_height: float = 1.8
    blocker_diameter: float = 0.6
    mode: str = "analytic"

    def __post_init__(self):
        if self.density < 0:
            raise ValueError("density must be >= 0")
        if self.blocker_height <= 0 or self.blocker_diameter <= 0:
            raise ValueError("blocker dimensions must be positive")
        if self.mode not in ("analytic", "sampled"):
            raise ValueError(f"unknown blockage mode {self.mode!r}")


@dataclass(eq=False)
class ChannelSet:
    """One realization of all links for a drop.

    G is the rank-1 BS->HRIS matrix (N x M); ``h`` stacks the HRIS-UE vectors
    (K x N); ``h_d`` the direct BS-UE vectors (K x M). ``a_r_bs`` is the HRIS
    response toward the BS (the steering part of G), kept for configuration
    synthesis.
    """

    G: np.ndarray
    h: np.ndarray
    h_d: np.ndarray
    los_bs_hris: bool
    los_hris_ue: np.ndarray
    los_bs_ue: np.ndarray
    ue_positions: np.ndarray
    a_r_bs: np.ndarray


def pathloss(p, q, model: PathlossModel, exponent):
    """Linear gain gamma0 * (d0 / ||p-q||)^exponent; errors on zero distance.

    Points (3,) give a float; a stack of points (k, 3) with one exponent per
    link gives (k,).
    """
    diff = np.asarray(p, float) - np.asarray(q, float)
    dist = np.sqrt(np.vecdot(diff, diff))  # the bits of np.linalg.norm per row
    if np.any(dist < 1e-15):
        raise ValueError("zero distance between link endpoints")
    gain = model.gamma0 * np.float_power(model.d0 / dist, exponent)
    return float(gain) if gain.ndim == 0 else gain


def los_probability(tx, rx, field: BlockageField):
    """Closed-form LoS probability of the tx-rx link under the blocker field.

    A blocker occludes the link where the link height falls below the blocker
    height, so the blocking region is a rectangle of width ``blocker_diameter``
    over that portion of the ground-plane track; the LoS probability is the
    void probability of the Poisson field on that rectangle. Points (3,) give
    a float; a stack of points (k, 3) gives (k,).
    """
    tx = np.asarray(tx, float)
    rx = np.asarray(rx, float)
    ground = tx[..., :2] - rx[..., :2]
    d2d = np.sqrt(np.vecdot(ground, ground))
    # fraction of the ground track where the link is below blocker height
    hi = np.maximum(tx[..., 2], rx[..., 2])
    lo = np.minimum(tx[..., 2], rx[..., 2])
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(hi == lo, (hi < field.blocker_height) * 1.0,
                        np.clip((field.blocker_height - lo) / (hi - lo), 0.0, 1.0))
    mean_blockers = field.density * field.blocker_diameter * d2d * frac
    prob = np.minimum(1.0, np.exp(-mean_blockers))
    return float(prob) if prob.ndim == 0 else prob


def simulate_blockage(tx, rx, field: BlockageField, rng, trials: int = 1) -> np.ndarray:
    """Drop blockers explicitly and report LoS (True) per trial.

    Monte-Carlo counterpart of :func:`los_probability`: blocker centers are
    dropped on the ground-track rectangle and the link is blocked if any of
    them lands where the link height is below the blocker height.
    """
    tx = np.asarray(tx, float)
    rx = np.asarray(rx, float)
    d2d = float(np.linalg.norm(tx[:2] - rx[:2]))
    if d2d == 0.0 or field.density == 0.0:
        return np.ones(trials, dtype=bool)
    mean_count = field.density * field.blocker_diameter * d2d
    counts = rng.poisson(mean_count, size=trials)
    total = int(counts.sum())
    if total == 0:
        return np.ones(trials, dtype=bool)
    # position along the track, measured from rx; height interpolates linearly
    t = rng.uniform(0.0, 1.0, size=total)
    heights = rx[2] + t * (tx[2] - rx[2])
    blocking = heights < field.blocker_height
    trial_ids = np.repeat(np.arange(trials), counts)
    blocked = np.bincount(trial_ids[blocking], minlength=trials) > 0
    return ~blocked


def _draw_los(tx, points, field: BlockageField, rng) -> np.ndarray:
    """LoS flag of the link from ``tx`` to each of ``points`` (k, 3)."""
    if field.mode == "sampled":
        return np.array([simulate_blockage(tx, p, field, rng, trials=1)[0]
                         for p in points])
    return rng.uniform(size=len(points)) < los_probability(tx, points, field)


def realize_channels(scenario: Scenario, rng) -> ChannelSet:
    """Draw one network snapshot: UE positions, per-link LoS states, channels.

    Each link independently resolves LoS vs NLoS (affecting only the pathloss
    exponent); steering vectors are the pure LoS array responses. G is the
    scaled outer product a_R(b) a_BS(r)^H, hence rank one.
    """
    radio = Radio(scenario.fc_hz)
    half_wave = radio.wavelength / 2.0
    bs = ula(scenario.bs_position, scenario.m_bs_antennas, half_wave)
    hris = planar(scenario.hris_position, scenario.nx, scenario.nz, half_wave)
    model = PathlossModel(scenario.gamma0, scenario.d0_m,
                          scenario.chi_los, scenario.chi_nlos)
    field = BlockageField(scenario.blocker_density_per_m2,
                          scenario.blocker_height_m,
                          scenario.blocker_diameter_m,
                          scenario.blockage_mode)

    k = scenario.k_users
    ue = np.full((k, 3), scenario.ue_height_m, dtype=float)
    ue[:, 0] = rng.uniform(scenario.area_min[0], scenario.area_max[0], size=k)
    ue[:, 1] = rng.uniform(scenario.area_min[1], scenario.area_max[1], size=k)

    b = np.asarray(scenario.bs_position, float)
    r = np.asarray(scenario.hris_position, float)

    los_bs_ue = _draw_los(b, ue, field, rng)
    los_hris_ue = _draw_los(r, ue, field, rng)
    los_bs_hris = scenario.bs_hris_always_los \
        or bool(_draw_los(b, r[None], field, rng)[0])

    def chi(los):
        return np.where(los, model.chi_los, model.chi_nlos)

    a_r_bs = array_response(hris, b, radio)
    a_bs_hris = array_response(bs, r, radio)
    gain_g = pathloss(b, r, model, chi(los_bs_hris))
    G = np.sqrt(gain_g) * np.outer(a_r_bs, a_bs_hris.conj())

    h = np.sqrt(pathloss(ue, r, model, chi(los_hris_ue)))[:, None] \
        * array_response(hris, ue, radio)
    h_d = np.sqrt(pathloss(b, ue, model, chi(los_bs_ue)))[:, None] \
        * array_response(bs, ue, radio)

    return ChannelSet(G=G, h=h, h_d=h_d, los_bs_hris=los_bs_hris,
                      los_hris_ue=los_hris_ue, los_bs_ue=los_bs_ue,
                      ue_positions=ue, a_r_bs=a_r_bs)
