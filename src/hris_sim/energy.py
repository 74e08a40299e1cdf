"""RF-to-DC harvesting, PIN-diode consumption, and per-frame power accounting."""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import HALF_WAVE
from .hris import HrisConfig, check_q_bits


@dataclass
class HarvesterModel:
    """Saturating rectifier law f(x) = (a*x + b)/(x + c) - b/c.

    f(0) = 0 by construction; the output saturates below a - b/c. Requires
    a*c >= b so the law is non-decreasing.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("c must be positive")
        if not self.a * self.c >= self.b:
            raise ValueError("harvest law must be non-decreasing (a*c >= b)")

    @property
    def saturation(self) -> float:
        return self.a - self.b / self.c


@dataclass
class ConsumptionModel:
    """Per-diode and controller power draw."""

    p_on: float  # Watts per active PIN diode
    q_bits: int  # diodes per meta-atom
    controller_run: float
    controller_idle: float

    def __post_init__(self):
        if not all(p >= 0 for p in (self.p_on, self.controller_run,
                                    self.controller_idle)):
            raise ValueError("powers must be >= 0")
        check_q_bits(self.q_bits)


def harvest(model: HarvesterModel, p_in: float) -> float:
    """Harvested power for input RF power ``p_in`` (Watts)."""
    if not p_in >= 0:
        raise ValueError("input power must be >= 0")
    return (model.a * p_in + model.b) / (p_in + model.c) - model.b / model.c


def atom_consumption(m: int, model: ConsumptionModel) -> float:
    """Power drawn by one meta-atom holding phase-grid index ``m``.

    Index m maps to the PIN-diode activation pattern given by its binary
    representation; the draw is p_on per active diode, its popcount.
    """
    if not 0 <= m < 2 ** model.q_bits:
        raise ValueError(f"index {m} outside [0, 2^{model.q_bits})")
    return model.p_on * int(np.bitwise_count(m))


def diode_count(config: HrisConfig) -> int:
    """Active PIN diodes of a quantized configuration: the popcount of its
    phase indices."""
    if config.indices is None:
        raise ValueError("configuration is not quantized")
    return int(np.bitwise_count(config.indices).sum())


def config_consumption(config: HrisConfig, model: ConsumptionModel) -> float:
    """Total diode power of a quantized configuration (controller excluded)."""
    if config.quantized not in (None, model.q_bits):
        raise ValueError("configuration bit depth does not match the model")
    return model.p_on * diode_count(config)


def idle_harvest_fraction(nx: int, nz: int) -> float:
    """Harvest efficiency fraction of the idle (all-off) beam.

    With beamwidths 1/(nx*delta) and 1/(nz*delta) at half-wave spacing
    delta, the idle beam covers the fraction Bx*By/pi^2 of uniformly
    distributed sources.
    """
    bx, bz = 1.0 / (nx * HALF_WAVE), 1.0 / (nz * HALF_WAVE)
    return bx * bz / np.pi ** 2


def slot_harvest(model: HarvesterModel, n_dl: int, n_ul: int,
                 p_abs_bs: float, p_abs_ue: float) -> float:
    """Slot-weighted harvest n_dl*f(p_abs_bs) + n_ul*f(p_abs_ue) of one frame
    at full traffic (W)."""
    return n_dl * harvest(model, p_abs_bs) + n_ul * harvest(model, p_abs_ue)


class FramePower(NamedTuple):
    """Harvested and consumed power at one operating point (W; scalars, or
    arrays over drops)."""

    harvested: float
    diodes: float  # drawn by the active PIN diodes
    consumed: float  # controller plus diodes

    @property
    def net(self):
        return self.harvested - self.consumed


def frame_power(slot_harvest_w, n_diodes, traffic: float, p_on_w: float,
                controller_w: float) -> FramePower:
    """Power balance of a held configuration: the slot-weighted harvest
    scaled by the traffic factor, against the controller and diode draw.

    Works element-wise on per-drop arrays. Idle mode is the point with
    traffic nu*zeta, no active diodes and the idle controller draw.
    """
    diodes = p_on_w * n_diodes
    return FramePower(traffic * slot_harvest_w, diodes, controller_w + diodes)
