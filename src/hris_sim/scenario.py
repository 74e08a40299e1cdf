"""Experiment configuration: one dataclass holding every tunable parameter.

Config files are strict JSON records: every field must be present, unknown
keys are rejected, and save/load round-trips are exact. Values are stored in
the human-friendly units used in the file (dBm, mAh, mW, GHz); SI conversions
are exposed as properties.
"""

import dataclasses
import json
import logging
import math
import numbers
import re
import sys
import typing
from importlib import resources
from pathlib import Path

from .battery import mah_to_joules
from .geometry import C0, HALF_WAVE, MIN_DISTANCE_M, check_axis

log = logging.getLogger(__name__)

MAX_BATTERY_STATES = 2000  # one S x S float64 chain matrix is then 32 MB
MAX_Q_BITS = 32  # 2^q phase levels: indices round-trip to ~51 bits, 2^63 overflows
FIXED_SCHEMES = ("idle", "oracle-equal-gain", "oracle-weighted")


class ScenarioError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


def computed_error(what: str, fields, values=None) -> ScenarioError:
    """The configuration error for a value a run computed. ``what`` names
    the value and where; with ``values`` the value is not finite, without
    them ``what`` states the fault. ``fields`` are what it follows from."""
    fault = what if values is None else f"the {what} is not finite ({values})"
    *head, last = fields
    return ScenarioError(f"{fault}: it follows from {', '.join(head)} and {last}")


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


def _dbm_to_watts(dbm: float) -> float:
    try:
        return 10.0 ** (dbm / 10.0) / 1000.0
    except OverflowError:
        return math.inf


def probe_scheme_bits(scheme: str) -> int | None:
    """B of a ``probe-q<B>`` scheme name with B below 10**9; None otherwise."""
    m = re.fullmatch(r"probe-q0*(\d{1,9})", scheme)
    return int(m.group(1)) if m else None


# range rules: a test of one value and the words that state it
_POSITIVE = (lambda v: v > 0, "positive")
_NON_NEGATIVE = (lambda v: v >= 0, ">= 0")
_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
_FRACTION = (lambda v: 0 <= v <= 1, "in [0, 1]")
_POWER_DBM = (lambda v: 0 < _dbm_to_watts(v) < math.inf, "a finite, positive power")
_CARRIER_GHZ = (lambda v: v > 0 and 0 < C0 / (v * 1e9) < math.inf,
                "a positive carrier in Hz whose wavelength is finite and nonzero")
_Q_BITS = (lambda v: 1 <= v <= MAX_Q_BITS, f"in [1, {MAX_Q_BITS}]")
_SCHEME = (lambda v: v in FIXED_SCHEMES or _Q_BITS[0](probe_scheme_bits(v) or 0),
           f"{', '.join(map(repr, FIXED_SCHEMES))} or 'probe-q<B>' with B {_Q_BITS[1]}")


def _one_of(*choices):
    return (lambda v: v in choices, " or ".join(map(repr, choices)))


def _rule(default, rule=None, of=None):
    """A field's default and range rule; a sweep takes those of field ``of``."""
    return dataclasses.field(default=default, metadata={"rule": rule, "of": of})


@dataclasses.dataclass
class Scenario:
    # transmit power and noise
    p_dbm: float = _rule(20.0, _POWER_DBM)
    noise_dbm: float = _rule(-80.0, _POWER_DBM)
    fc_ghz: float = _rule(28.0, _CARRIER_GHZ)
    eta: float = _rule(0.8, _FRACTION)  # share reflected; 1-eta absorbed

    # arrays
    m_bs_antennas: int = _rule(4, _AT_LEAST_1)
    nx: int = _rule(8, _AT_LEAST_1)
    nz: int = _rule(4, _AT_LEAST_1)

    # placement (meters); UEs drawn uniformly over [area_min, area_max] x-y box
    bs_position: tuple[float, float, float] = (-25.0, 25.0, 6.0)
    hris_position: tuple[float, float, float] = (0.0, 0.0, 6.0)
    area_min: tuple[float, float] = (-25.0, 0.0)
    area_max: tuple[float, float] = (25.0, 50.0)
    ue_height_m: float = 1.5

    # pathloss and blockage
    gamma0: float = _rule(1.0, _POSITIVE)
    d0_m: float = _rule(1.0, _POSITIVE)
    chi_los: float = _rule(2.0, _NON_NEGATIVE)
    chi_nlos: float = _rule(4.0, _NON_NEGATIVE)
    blocker_density_per_m2: float = _rule(0.3, _NON_NEGATIVE)
    blocker_height_m: float = _rule(1.8, _POSITIVE)
    blocker_diameter_m: float = _rule(0.6, _POSITIVE)
    blockage_mode: str = _rule("analytic", _one_of("analytic", "sampled"))
    bs_hris_always_los: bool = True  # both ends elevated above blockers

    # probing codebook
    codebook_size: int = _rule(32, _AT_LEAST_1)
    q_bits: int = _rule(2, _Q_BITS)
    probe_threshold_w: float | None = None  # None -> 2x median of the sweep
    combining: str = _rule("soft", _one_of("soft", "hard"))  # soft: power-weighted

    # frame layout and traffic
    n_dl_slots: int = _rule(8, _NON_NEGATIVE)
    n_ul_slots: int = _rule(3, _NON_NEGATIVE)
    traffic: float = _rule(0.5, _FRACTION)  # duty factor on harvesting

    # hardware power
    p_on_mw: float = _rule(0.1, _NON_NEGATIVE)
    controller_run_mw: float = _rule(4.9, _NON_NEGATIVE)
    controller_idle_mw: float = _rule(1.8, _NON_NEGATIVE)
    # harvester in/out fit constants; defaults give f(0)=0, ~5 mW saturation
    # and ~35% conversion efficiency at 1 mW input
    harvester_a_w: float = 0.01
    harvester_b_w: float = 6.642857142857143e-05
    harvester_c_w: float = _rule(0.013285714285714286, _POSITIVE)

    # battery
    capacity_mah: float = _rule(400.0, _POSITIVE)
    delta_mah: float = _rule(20.0, _POSITIVE)
    guard_fraction: float = _rule(0.1, (lambda v: 0 <= v < 1, "in [0, 1)"))
    battery_voltage: float = _rule(3.7, _POSITIVE)
    mc_step_s: float = _rule(604800.0, _POSITIVE)  # net-energy window per step
    battery_trace_periods: int = _rule(1000000, _AT_LEAST_1)
    soc_trace_periods: int = _rule(2000, _AT_LEAST_1)

    # experiment control
    k_users: int = _rule(75, _AT_LEAST_1)
    n_drops: int = _rule(100, _AT_LEAST_1)
    seed: int = _rule(1, _NON_NEGATIVE)
    schemes: tuple[str, ...] = _rule((*FIXED_SCHEMES, "probe-q1", "probe-q2"),
                                     _SCHEME)
    k_sweep: tuple = _rule((10, 25, 50, 75), of="k_users")
    n_sweep: tuple[int, ...] = _rule((16, 32, 64), _AT_LEAST_1)
    q_sweep: tuple = _rule((1, 2), of="q_bits")
    p_on_sweep_mw: tuple = _rule((0.1, 0.3, 0.5, 1.0), of="p_on_mw")
    capacity_sweep_mah: tuple = _rule((100.0, 200.0, 300.0, 400.0, 500.0,
                                       600.0, 700.0, 800.0), of="capacity_mah")
    zeta_sweep: tuple = _rule((0.2, 0.5, 0.8), of="traffic")

    def __post_init__(self):
        for name, spec in _RULES.items():
            setattr(self, name, _checked(name, *spec, getattr(self, name)))
        self._validate()

    def _validate(self):
        """Rules that tie fields together; each message names every field."""
        def require(cond, msg):
            if not cond:
                raise ScenarioError(msg)

        require(self.chi_los <= self.chi_nlos, "need chi_los <= chi_nlos")
        require(self.harvester_a_w * self.harvester_c_w >= self.harvester_b_w,
                "need harvester_a_w * harvester_c_w >= harvester_b_w")
        require(all(lo <= hi for lo, hi in zip(self.area_min, self.area_max)),
                "need area_min <= area_max on both axes")
        require(math.dist(self.bs_position, self.hris_position)
                >= MIN_DISTANCE_M, "bs_position and hris_position coincide")
        require(self.probe_threshold_w is None
                or self.probe_threshold_w >= self.noise_watts,
                "probe_threshold_w must be null or >= the power of noise_dbm")
        require(all(n % self.nx == 0 for n in self.n_sweep),
                f"n_sweep {self.n_sweep} entries must be multiples of nx={self.nx}")
        # the run's longest array axis, at the spacing runner and channel use
        longest = max(self.nx, self.nz, self.m_bs_antennas,
                      *(n // self.nx for n in self.n_sweep))
        try:
            check_axis(longest, C0 / self.fc_hz * HALF_WAVE)
        except ValueError as exc:
            raise computed_error(
                f"a {longest}-element half-wave array axis fails ({exc})",
                ("fc_ghz", "nx", "nz", "n_sweep", "m_bs_antennas")) from exc
        # S = round(C/delta) + 1 in Joules, bounded before C/delta is rounded
        delta_j = mah_to_joules(self.delta_mah, self.battery_voltage)
        for name, c in (("capacity_mah", self.capacity_mah), *(
                ("capacity_sweep_mah", c) for c in self.capacity_sweep_mah)):
            ratio = mah_to_joules(c, self.battery_voltage) / delta_j \
                if delta_j > 0 else math.inf
            require(0.5 < ratio < MAX_BATTERY_STATES - 0.5,
                    f"{name} {c} gives no battery state count S in [2, "
                    f"{MAX_BATTERY_STATES}] at delta_mah and battery_voltage")

    # --- derived SI quantities -------------------------------------------
    @property
    def p_watts(self) -> float:
        return _dbm_to_watts(self.p_dbm)

    @property
    def noise_watts(self) -> float:
        return _dbm_to_watts(self.noise_dbm)

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


def _checked(label, kinds, length, rule, value):
    """``value``, or each entry of a list of ``length``, if of one of ``kinds``
    and within ``rule``; numbers are stored as int or float, as CSV bytes and
    JSON depend on it."""
    if length is not None:
        if not isinstance(value, (list, tuple)) or length not in (..., len(value)):
            size = "" if length is ... else f" of {length} entries"
            raise ScenarioError(f"{label} must be a list{size}, got {value!r}")
        return tuple(_checked(f"{label} entry", kinds, None, rule, v) for v in value)
    kind = next((k for k in kinds if _is_kind(k, value)), None)
    if kind is None:
        expected = " or ".join(_KIND_NAMES[k] for k in kinds)
        raise ScenarioError(f"{label} {value!r} must be {expected}")
    if kind in (int, float):
        value = kind(value)
    if rule and value is not None and not rule[0](value):
        raise ScenarioError(f"{label} {value!r} must be {rule[1]}")
    return value


def _rule_table() -> dict:
    """name -> (kinds, list length: None for a scalar or ... for any, rule)."""
    fields = {f.name: f for f in dataclasses.fields(Scenario)}
    table = {}
    for f in fields.values():
        own = fields.get(f.metadata.get("of"), f)  # a sweep's scalar
        kinds = typing.get_args(own.type) or (own.type,)  # float | None
        length = None if own is f else ...
        if typing.get_origin(f.type) is tuple:  # tuple[float, float]
            kinds, length = kinds[:1], ... if ... in kinds else len(kinds)
        table[f.name] = (kinds, length, own.metadata.get("rule"))
    return table


_RULES = _rule_table()
_RETIRED = ("n_ce_slots", "period_s")  # in older files; read by nothing


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from a complete mapping; strict on keys but retired ones."""
    retired = [name for name in _RETIRED if name in data]
    if retired:
        log.warning("ignoring retired scenario field(s) %s", ", ".join(retired))
        data = {k: v for k, v in data.items() if k not in _RETIRED}
    unknown = sorted(set(data) - set(_RULES))
    if unknown:
        raise ScenarioError(f"unknown field {unknown[0]!r} in scenario config")
    missing = sorted(set(_RULES) - set(data))
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
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno} column "
                            f"{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past the digit limit
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
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
