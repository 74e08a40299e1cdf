"""Experiment configuration: one dataclass holding every tunable parameter.

Config files are strict JSON records: every field must be present, unknown
keys are rejected, and save/load round-trips are exact. Values are stored in
the human-friendly units used in the file (dBm, mAh, mW, GHz); SI conversions
are exposed as properties.
"""

import dataclasses
import json
import logging
import numbers
import sys
import typing
from importlib import resources
from pathlib import Path

from .battery import mah_to_joules, states_for_capacity

log = logging.getLogger(__name__)


class ScenarioError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


def _tuple(value):
    return tuple(value) if isinstance(value, (list, tuple)) else value


# list-valued fields: the type of their entries and their length when fixed
_SEQUENCES = {
    "bs_position": (float, 3), "hris_position": (float, 3),
    "area_min": (float, 2), "area_max": (float, 2), "schemes": (str, None),
    "k_sweep": (int, None), "n_sweep": (int, None), "q_sweep": (int, None),
    "p_on_sweep_mw": (float, None), "capacity_sweep_mah": (float, None),
    "zeta_sweep": (float, None)}
_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               bool: "true or false", type(None): "null"}


def _is_kind(kind, value) -> bool:
    """Type rule of a field: integers are numbers, booleans are not, numbers finite."""
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is int:
        return isinstance(value, numbers.Integral)
    if kind is float:
        return isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


@dataclasses.dataclass
class Scenario:
    # transmit power and noise
    p_dbm: float = 20.0
    noise_dbm: float = -80.0
    fc_ghz: float = 28.0
    eta: float = 0.8  # fraction of impinging power reflected; 1-eta absorbed

    # arrays
    m_bs_antennas: int = 4
    nx: int = 8
    nz: int = 4

    # placement (meters); UEs drawn uniformly over [area_min, area_max] x-y box
    bs_position: tuple = (-25.0, 25.0, 6.0)
    hris_position: tuple = (0.0, 0.0, 6.0)
    area_min: tuple = (-25.0, 0.0)
    area_max: tuple = (25.0, 50.0)
    ue_height_m: float = 1.5

    # pathloss and blockage
    gamma0: float = 1.0
    d0_m: float = 1.0
    chi_los: float = 2.0
    chi_nlos: float = 4.0
    blocker_density_per_m2: float = 0.3
    blocker_height_m: float = 1.8
    blocker_diameter_m: float = 0.6
    blockage_mode: str = "analytic"  # or "sampled"
    bs_hris_always_los: bool = True  # both ends elevated above blockers

    # probing codebook
    codebook_size: int = 32
    q_bits: int = 2
    probe_threshold_w: float | None = None  # None -> 2x median of the sweep
    combining: str = "soft"  # peak combining: "soft" (power-weighted) or "hard"

    # frame layout and traffic
    n_dl_slots: int = 8
    n_ul_slots: int = 3
    traffic: float = 0.5  # duty factor applied to harvesting opportunities

    # hardware power
    p_on_mw: float = 0.1
    controller_run_mw: float = 4.9
    controller_idle_mw: float = 1.8
    # harvester in/out fit constants; defaults give f(0)=0, ~5 mW saturation
    # and ~35% conversion efficiency at 1 mW input
    harvester_a_w: float = 0.01
    harvester_b_w: float = 6.642857142857143e-05
    harvester_c_w: float = 0.013285714285714286

    # battery
    capacity_mah: float = 400.0
    delta_mah: float = 20.0
    guard_fraction: float = 0.1
    battery_voltage: float = 3.7
    mc_step_s: float = 604800.0  # net-energy aggregation window per chain step
    battery_trace_periods: int = 1000000
    soc_trace_periods: int = 2000

    # experiment control
    k_users: int = 75
    n_drops: int = 100
    seed: int = 1
    schemes: tuple = ("idle", "oracle-equal-gain", "oracle-weighted",
                      "probe-q1", "probe-q2")
    k_sweep: tuple = (10, 25, 50, 75)
    n_sweep: tuple = (16, 32, 64)
    q_sweep: tuple = (1, 2)
    p_on_sweep_mw: tuple = (0.1, 0.3, 0.5, 1.0)
    capacity_sweep_mah: tuple = (100.0, 200.0, 300.0, 400.0,
                                 500.0, 600.0, 700.0, 800.0)
    zeta_sweep: tuple = (0.2, 0.5, 0.8)

    def __post_init__(self):
        for name in _SEQUENCES:
            setattr(self, name, _tuple(getattr(self, name)))
        self._check_types()
        # an integer in a float field would print as one in the CSVs, so
        # equal scenarios would write different bytes
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if _SEQUENCES.get(f.name, (None,))[0] is float:
                setattr(self, f.name, tuple(map(float, value)))
            elif f.type in (float, float | None) and value is not None:
                setattr(self, f.name, float(value))
        self._validate()

    def _check_types(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kinds = typing.get_args(f.type) or (f.type,)  # float | None
            if f.name in _SEQUENCES:
                kind, length = _SEQUENCES[f.name]
                if not isinstance(value, tuple) \
                        or length not in (None, len(value)):
                    size = f" of {length} entries" if length else ""
                    raise ScenarioError(f"{f.name} must be a list{size}, "
                                        f"got {value!r}")
                for entry in value:
                    if not _is_kind(kind, entry):
                        raise ScenarioError(f"{f.name} entry {entry!r} must be "
                                            f"{_KIND_NAMES[kind]}")
            elif not any(_is_kind(kind, value) for kind in kinds):
                expected = " or ".join(_KIND_NAMES[kind] for kind in kinds)
                raise ScenarioError(f"{f.name} must be {expected}, got {value!r}")

    def _validate(self):
        def require(cond, msg):
            if not cond:
                raise ScenarioError(msg)

        require(self.fc_ghz > 0, "fc_ghz must be positive")
        require(self.m_bs_antennas >= 1, "m_bs_antennas must be >= 1")
        require(self.nx >= 1 and self.nz >= 1, "nx and nz must be >= 1")
        require(0.0 <= self.eta <= 1.0, "eta must lie in [0, 1]")
        require(0.0 <= self.traffic <= 1.0, "traffic must lie in [0, 1]")
        require(0.0 <= self.guard_fraction < 1.0,
                "guard_fraction must lie in [0, 1)")
        require(self.gamma0 > 0 and self.d0_m > 0,
                "gamma0 and d0_m must be positive")
        require(0 <= self.chi_los <= self.chi_nlos,
                "need 0 <= chi_los <= chi_nlos")
        require(self.blocker_density_per_m2 >= 0, "blocker density must be >= 0")
        require(self.blocker_height_m > 0 and self.blocker_diameter_m > 0,
                "blocker dimensions must be positive")
        require(self.blockage_mode in ("analytic", "sampled"),
                f"unknown blockage_mode {self.blockage_mode!r}")
        require(self.codebook_size >= 1, "codebook_size must be >= 1")
        require(self.q_bits >= 1, "q_bits must be >= 1")
        require(self.combining in ("soft", "hard"),
                f"unknown combining {self.combining!r}")
        require(self.n_dl_slots >= 0 and self.n_ul_slots >= 0,
                "slot counts must be >= 0")
        require(self.p_on_mw >= 0, "p_on_mw must be >= 0")
        require(self.controller_run_mw >= 0 and self.controller_idle_mw >= 0,
                "controller powers must be >= 0")
        require(self.harvester_c_w > 0, "harvester_c_w must be positive")
        require(self.harvester_a_w * self.harvester_c_w >= self.harvester_b_w,
                "harvester law must be non-decreasing (a*c >= b)")
        require(self.capacity_mah > 0 and self.delta_mah > 0,
                "capacity_mah and delta_mah must be positive")
        require(self.battery_voltage > 0, "battery_voltage must be positive")
        require(self.mc_step_s > 0, "mc_step_s must be positive")
        require(self.battery_trace_periods >= 1 and self.soc_trace_periods >= 1,
                "trace lengths must be >= 1")
        require(self.k_users >= 1, "k_users must be >= 1")
        require(self.n_drops >= 1, "n_drops must be >= 1")
        require(self.seed >= 0, "seed must be a non-negative integer")
        require(self.probe_threshold_w is None or self.probe_threshold_w >= 0,
                "probe_threshold_w must be >= 0 or null")
        # every sweep entry follows the rule of its scalar field
        for name, ok, rule in (
                ("k_sweep", lambda k: k >= 1, ">= 1"),
                ("n_sweep", lambda n: n >= self.nx and n % self.nx == 0,
                 f"a positive multiple of nx={self.nx}"),
                ("q_sweep", lambda q: q >= 1, ">= 1"),
                ("p_on_sweep_mw", lambda p: p >= 0, ">= 0"),
                ("capacity_sweep_mah", lambda c: c > 0, "positive"),
                ("zeta_sweep", lambda z: 0.0 <= z <= 1.0, "in [0, 1]")):
            for value in getattr(self, name):
                require(ok(value), f"{name} entry {value} must be {rule}")
        # a chain needs two states, counted as the battery experiment counts
        # them: round(C/delta) + 1 in Joules, so C = delta/2 gives one
        delta_j = mah_to_joules(self.delta_mah, self.battery_voltage)
        for name, values in (("capacity_mah", (self.capacity_mah,)),
                             ("capacity_sweep_mah", self.capacity_sweep_mah)):
            for value in values:
                n = states_for_capacity(
                    mah_to_joules(value, self.battery_voltage), delta_j)
                require(n >= 2, f"{name} {value} gives {n} battery state at "
                        f"delta_mah={self.delta_mah}; need at least 2")

    # --- derived SI quantities -------------------------------------------
    @property
    def p_watts(self) -> float:
        return 10.0 ** (self.p_dbm / 10.0) / 1000.0

    @property
    def noise_watts(self) -> float:
        return 10.0 ** (self.noise_dbm / 10.0) / 1000.0

    @property
    def fc_hz(self) -> float:
        return self.fc_ghz * 1e9

    @property
    def n_hris_elements(self) -> int:
        return self.nx * self.nz

    @property
    def p_on_watts(self) -> float:
        return self.p_on_mw * 1e-3

    @property
    def controller_run_w(self) -> float:
        return self.controller_run_mw * 1e-3

    @property
    def controller_idle_w(self) -> float:
        return self.controller_idle_mw * 1e-3

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        return {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}


_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(Scenario))
_RETIRED = ("n_ce_slots", "period_s")  # in older files; read by nothing


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from a complete mapping; strict on keys but retired ones."""
    retired = [name for name in _RETIRED if name in data]
    if retired:
        log.warning("ignoring retired scenario field(s) %s", ", ".join(retired))
        data = {k: v for k, v in data.items() if k not in _RETIRED}
    unknown = sorted(set(data) - set(_FIELD_NAMES))
    if unknown:
        raise ScenarioError(f"unknown field {unknown[0]!r} in scenario config")
    missing = sorted(set(_FIELD_NAMES) - set(data))
    if missing:
        raise ScenarioError(f"missing required field {missing[0]!r} in scenario config")
    return Scenario(**data)


def load_scenario(path) -> Scenario:
    """Load a scenario from a JSON file; errors carry file/field context."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: scenario file must hold a JSON object")
    try:
        return scenario_from_dict(data)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def save_scenario(scenario: Scenario, path) -> Path:
    """Write a scenario as sorted, indented JSON (load/save round-trip exact)."""
    path = Path(path)
    path.write_text(json.dumps(scenario.to_dict(), indent=2, sort_keys=True) + "\n")
    return path


def default_scenario_path() -> Path:
    """Path of the packaged default configuration file."""
    return Path(resources.files("hris_sim").joinpath("data/table1.json"))
