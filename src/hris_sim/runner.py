"""Experiment orchestration: seeded Monte-Carlo drops, scheme comparison,
harvest/consumption sweeps, battery sizing, and CSV emission.

Every drop derives its generator from (master seed, experiment tag, sweep
coordinates, drop index), so results are independent of scheduling order and
identical across worker counts.
"""

import csv
import logging
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import battery as bat
from .channel import realize_channels
from .comm import effective_channels, evaluate, rzf_precoder
from .energy import (HarvesterModel, diode_count, frame_power,
                     idle_harvest_fraction, slot_harvest)
from .geometry import Radio, planar
from .hris import (Codebook, build_codebook, compose_reflection, idle_config,
                   incident_from_bs, incident_from_ues, oracle_config, probe,
                   quantize, sensed_power)
from .scenario import Scenario, ScenarioError

log = logging.getLogger(__name__)

# experiment tags folded into per-drop seeds
_EXP_SUMRATE, _EXP_ENERGY, _EXP_BATTERY = 1, 2, 3

_PROBE_SCHEME = re.compile(r"^probe-q(\d+)$")
_FIXED_SCHEMES = ("idle", "oracle-equal-gain", "oracle-weighted")


def probe_scheme_bits(scheme: str) -> int | None:
    m = _PROBE_SCHEME.match(scheme)
    return int(m.group(1)) if m else None


def validate_schemes(schemes) -> None:
    for scheme in schemes:
        if scheme not in _FIXED_SCHEMES and probe_scheme_bits(scheme) is None:
            raise ScenarioError(
                f"invalid scheme name {scheme!r}; expected one of "
                f"{', '.join(_FIXED_SCHEMES)} or probe-q<bits>")


def validate_run(scenario: Scenario, experiment: str, workers: int) -> None:
    """Checks across the scenario and the run options, made before any drop
    runs; raises ScenarioError naming the field."""
    validate_schemes(scenario.schemes)
    if workers < 1:
        raise ScenarioError(f"--workers must be >= 1, got {workers}")
    if experiment in ("energy", "battery") and scenario.n_drops < 2:
        raise ScenarioError(
            f"the {experiment} experiment needs n_drops >= 2 for the "
            f"drop-to-drop spread of the net power, got {scenario.n_drops}")


@dataclass
class RunReport:
    """Row-oriented results of one experiment, one list per CSV section."""

    sumrate_drops: list = field(default_factory=list)
    sumrate_summary: list = field(default_factory=list)
    direct_fraction: list = field(default_factory=list)
    energy_drops: list = field(default_factory=list)
    energy_summary: list = field(default_factory=list)
    battery_ploc: list = field(default_factory=list)
    battery_soc: list = field(default_factory=list)


_SECTION_COLUMNS = {
    "sumrate_drops": ("scheme", "k_users", "seed", "drop", "sum_rate_bps_hz"),
    "sumrate_summary": ("scheme", "k_users", "seed", "n_drops",
                        "mean_sum_rate_bps_hz", "ci95_halfwidth"),
    "direct_fraction": ("scheme", "k_users", "seed", "drop", "ue",
                        "direct_power_fraction"),
    "energy_drops": ("scheme", "n_elements", "q_bits", "seed", "drop",
                     "harvested_w", "consumed_w", "consumed_diodes_w"),
    "energy_summary": ("scheme", "n_elements", "q_bits", "seed", "n_drops",
                       "mean_harvested_w", "mean_consumed_w"),
    "battery_ploc": ("scheme", "n_elements", "q_bits", "seed", "p_on_mw",
                     "capacity_mah", "delta_mah", "n_states", "mu_step_j",
                     "sigma_step_j", "ploc_theory", "ploc_empirical",
                     "ploc_stderr", "chain_status", "n_periods"),
    "battery_soc": ("scheme", "n_elements", "q_bits", "seed", "zeta",
                    "capacity_mah", "period", "soc_mah"),
}


def _rng(scenario: Scenario, *tags) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([scenario.seed, *tags]))


def _reflection_for_scheme(scenario: Scenario, channels, scheme: str, codebooks):
    """Reflection configuration a scheme would apply for this snapshot."""
    if scheme == "idle":
        return idle_config(channels.G.shape[0])
    if scheme == "oracle-equal-gain":
        return oracle_config(channels, "equal")
    if scheme == "oracle-weighted":
        return oracle_config(channels, "weighted")
    q = probe_scheme_bits(scheme)
    _, phi_b = probe(codebooks[q], incident_from_bs(channels, scenario.p_watts),
                     scenario.eta, scenario.noise_watts,
                     scenario.probe_threshold_w, scenario.combining)
    _, phi_u = probe(codebooks[q], incident_from_ues(channels, scenario.p_watts),
                     scenario.eta, scenario.noise_watts,
                     scenario.probe_threshold_w, scenario.combining)
    return compose_reflection(phi_b, phi_u, q)


def _codebook(scenario: Scenario, q_bits: int) -> Codebook:
    """Probing codebook of the scenario's surface at one bit depth."""
    radio = Radio(scenario.fc_hz)
    geom = planar(scenario.hris_position, scenario.nx, scenario.nz,
                  radio.wavelength / 2.0)
    return build_codebook(geom, radio, scenario.codebook_size, q_bits)


def _probe_codebooks(scenario: Scenario):
    """One codebook per quantization level appearing in the scheme list."""
    depths = sorted({q for q in map(probe_scheme_bits, scenario.schemes)
                     if q is not None})
    return {q: _codebook(scenario, q) for q in depths}


def _sumrate_drop(args):
    scenario, codebooks, k_users, drop = args
    sc = replace(scenario, k_users=k_users)
    rng = _rng(sc, _EXP_SUMRATE, k_users, drop)
    channels = realize_channels(sc, rng)
    rows, fracs = [], []
    for scheme in sc.schemes:
        theta = _reflection_for_scheme(sc, channels, scheme, codebooks)
        h_eff = effective_channels(channels, theta, sc.eta)
        precoder = rzf_precoder(h_eff, sc.p_watts, sc.noise_watts)
        budget = evaluate(channels, theta, precoder, sc.eta, sc.noise_watts)
        rows.append({"scheme": scheme, "k_users": k_users, "seed": sc.seed,
                     "drop": drop, "sum_rate_bps_hz": budget.sum_rate})
        for ue, frac in enumerate(budget.direct_power_fraction):
            fracs.append({"scheme": scheme, "k_users": k_users, "seed": sc.seed,
                          "drop": drop, "ue": ue,
                          "direct_power_fraction": float(frac)})
    return k_users, drop, rows, fracs


def _map_tasks(fn, tasks, workers: int):
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * workers))))


def _summaries(rows, group_keys, value_keys):
    """Group ``rows`` by ``group_keys`` in one pass; yields, in key order, the
    group keys with the drop count and one array per value column."""
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in group_keys), []).append(row)
    for key in sorted(groups):
        members = groups[key]
        yield (dict(zip(group_keys, key)) | {"n_drops": len(members)},
               [np.array([row[v] for row in members]) for v in value_keys])


def run_sumrate_experiment(scenario: Scenario, workers: int = 1) -> RunReport:
    """Average sum-rate per scheme over the K sweep, with per-drop provenance."""
    validate_run(scenario, "sumrate", workers)
    codebooks = _probe_codebooks(scenario)
    tasks = [(scenario, codebooks, k, d) for k in scenario.k_sweep
             for d in range(scenario.n_drops)]
    log.info("sum-rate experiment: %d drops x %d K values",
             scenario.n_drops, len(scenario.k_sweep))
    results = sorted(_map_tasks(_sumrate_drop, tasks, workers),
                     key=lambda r: (r[0], r[1]))
    report = RunReport()
    for _, _, rows, fracs in results:
        report.sumrate_drops.extend(rows)
        report.direct_fraction.extend(fracs)
    for group, (rates,) in _summaries(report.sumrate_drops,
                                      ("scheme", "k_users", "seed"),
                                      ("sum_rate_bps_hz",)):
        report.sumrate_summary.append(group | {
            "mean_sum_rate_bps_hz": float(rates.mean()),
            "ci95_halfwidth": float(1.96 * rates.std(ddof=1) / np.sqrt(rates.size))
            if rates.size > 1 else 0.0})
    return report


# --- energy and battery ---------------------------------------------------

def _energy_drop(args):
    """One probing+harvesting snapshot of the scenario's surface.

    Returns the slot-weighted harvest (W, before the traffic factor) and the
    total active-diode count of the held reflection + absorption configs,
    so traffic and per-diode power variations rescale without re-simulation.
    """
    sc, codebook, drop = args
    rng = _rng(sc, _EXP_ENERGY, sc.n_hris_elements, sc.q_bits, drop)
    channels = realize_channels(sc, rng)
    v_b = incident_from_bs(channels, sc.p_watts)
    v_u = incident_from_ues(channels, sc.p_watts)
    _, phi_b = probe(codebook, v_b, sc.eta, sc.noise_watts,
                     sc.probe_threshold_w, sc.combining)
    _, phi_u = probe(codebook, v_u, sc.eta, sc.noise_watts,
                     sc.probe_threshold_w, sc.combining)
    theta = compose_reflection(phi_b, phi_u, sc.q_bits)
    phi_b_q = quantize(phi_b, sc.q_bits)
    phi_u_q = quantize(phi_u, sc.q_bits)
    harvester = HarvesterModel(sc.harvester_a_w, sc.harvester_b_w,
                               sc.harvester_c_w)
    p_b = sensed_power(phi_b_q, v_b, sc.eta, sc.noise_watts)
    p_u = sensed_power(phi_u_q, v_u, sc.eta, sc.noise_watts)
    return (slot_harvest(harvester, sc.n_dl_slots, sc.n_ul_slots, p_b, p_u),
            diode_count(theta) + diode_count(phi_b_q))


@dataclass(eq=False)
class BatteryStats:
    """Per-drop harvest base and diode counts at one hardware configuration."""

    harvest_base_w: np.ndarray  # slot-weighted harvest per drop, traffic=1
    diode_count: np.ndarray

    def net_power(self, traffic: float, p_on_w: float, controller_w: float):
        return frame_power(self.harvest_base_w, self.diode_count, traffic,
                           p_on_w, controller_w).net


def battery_drop_stats(scenario: Scenario, workers: int = 1) -> BatteryStats:
    """Per-drop statistics of the scenario's surface (nx*nz elements at
    q_bits), probed with a codebook of one codeword per element."""
    sc = replace(scenario, codebook_size=scenario.n_hris_elements)
    codebook = _codebook(sc, sc.q_bits)
    tasks = [(sc, codebook, d) for d in range(sc.n_drops)]
    harvest_base, diodes = zip(*_map_tasks(_energy_drop, tasks, workers))
    return BatteryStats(harvest_base_w=np.array(harvest_base),
                        diode_count=np.array(diodes))


def run_energy_experiment(scenario: Scenario, workers: int = 1) -> RunReport:
    """Harvested/consumed power over the N and Q sweeps, plus the battery
    analysis of :func:`run_battery_experiment`."""
    validate_run(scenario, "energy", workers)
    report = RunReport()
    for n_elements in scenario.n_sweep:
        for q_bits in scenario.q_sweep:
            stats = battery_drop_stats(
                replace(scenario, nz=n_elements // scenario.nx, q_bits=q_bits),
                workers)
            power = frame_power(stats.harvest_base_w, stats.diode_count,
                                scenario.traffic, scenario.p_on_watts,
                                scenario.controller_run_w)
            for drop, (harvested, consumed, diodes) in enumerate(zip(
                    power.harvested.tolist(), power.consumed.tolist(),
                    power.diodes.tolist())):
                report.energy_drops.append({
                    "scheme": f"probe-q{q_bits}", "n_elements": n_elements,
                    "q_bits": q_bits, "seed": scenario.seed, "drop": drop,
                    "harvested_w": harvested, "consumed_w": consumed,
                    "consumed_diodes_w": diodes})
    for group, (harvested, consumed) in _summaries(
            report.energy_drops, ("scheme", "n_elements", "q_bits", "seed"),
            ("harvested_w", "consumed_w")):
        report.energy_summary.append(group | {
            "mean_harvested_w": float(harvested.mean()),
            "mean_consumed_w": float(consumed.mean())})
    battery_report = run_battery_experiment(scenario, workers=workers)
    report.battery_ploc = battery_report.battery_ploc
    report.battery_soc = battery_report.battery_soc
    return report


def step_dist(mean_power_w: float, std_power_w: float, step_s: float,
              delta_j: float) -> bat.NetEnergyDist:
    """Gaussian per-step net-energy distribution from net-power statistics.

    One Monte-Carlo drop is held for the whole aggregation window, so both
    the mean and the spread scale linearly with the step length. The spread
    is floored at a tiny fraction of the step size to keep the distribution
    well defined when the drop-to-drop variation vanishes.
    """
    sigma = max(std_power_w * step_s, 1e-9 * delta_j)
    return bat.NetEnergyDist.gaussian(mean_power_w * step_s, sigma)


def _theory_ploc(dist, n_states, delta_j, gamma, n_periods):
    """Theoretical p_LoC, its standard error and the chain status."""
    chain = bat.build_chain(dist, n_states, delta_j, gamma)
    ploc, status = bat.resolve_loss_of_charge(chain, dist)
    stderr = bat.ploc_standard_error(chain, n_periods) if status == "ok" else 0.0
    return ploc, stderr, status


def run_battery_experiment(scenario: Scenario, workers: int = 1,
                           stats: BatteryStats | None = None) -> RunReport:
    """Loss-of-charge probability over the capacity and per-diode-power grids
    (theoretical chain vs simulated trace) and example SoC trajectories."""
    validate_run(scenario, "battery", workers)
    if stats is None:
        stats = battery_drop_stats(scenario, workers)
    report = RunReport()
    scheme = f"probe-q{scenario.q_bits}"
    delta_j = bat.mah_to_joules(scenario.delta_mah, scenario.battery_voltage)
    step_s = scenario.mc_step_s
    n_periods = scenario.battery_trace_periods
    nu = idle_harvest_fraction(scenario.nx, scenario.nz)
    provenance = {"scheme": scheme, "n_elements": scenario.n_hris_elements,
                  "q_bits": scenario.q_bits, "seed": scenario.seed}

    for i_p, p_on_mw in enumerate(scenario.p_on_sweep_mw):
        net = stats.net_power(scenario.traffic, p_on_mw * 1e-3,
                              scenario.controller_run_w)
        dist = step_dist(net.mean(), net.std(ddof=1), step_s, delta_j)
        for i_c, cap_mah in enumerate(scenario.capacity_sweep_mah):
            cap_j = bat.mah_to_joules(cap_mah, scenario.battery_voltage)
            n_states = bat.states_for_capacity(cap_j, delta_j)
            ploc_t, stderr, status = _theory_ploc(
                dist, n_states, delta_j, scenario.guard_fraction, n_periods)
            rng = _rng(scenario, _EXP_BATTERY, i_p, i_c)
            ploc_e, _ = bat.simulate_trace(
                dist, cap_j, delta_j, scenario.guard_fraction, n_periods, rng,
                burn_in=n_periods // 100)
            report.battery_ploc.append(provenance | {
                "p_on_mw": p_on_mw, "capacity_mah": cap_mah,
                "delta_mah": scenario.delta_mah, "n_states": n_states,
                "mu_step_j": float(dist.mean), "sigma_step_j": float(dist.std),
                "ploc_theory": ploc_t, "ploc_empirical": ploc_e,
                "ploc_stderr": stderr, "chain_status": status,
                "n_periods": n_periods})

    # example state-of-charge trajectories across traffic intensities,
    # with the idle-mode fallback active below the guard threshold
    harvest_mean = stats.harvest_base_w.mean()
    harvest_std = stats.harvest_base_w.std(ddof=1)
    diodes_mean = stats.diode_count.mean()
    cap_j = bat.mah_to_joules(scenario.capacity_mah, scenario.battery_voltage)
    for i_z, zeta in enumerate(scenario.zeta_sweep):
        active_w = frame_power(harvest_mean, diodes_mean, zeta,
                               scenario.p_on_watts, scenario.controller_run_w).net
        idle_w = frame_power(harvest_mean, 0, nu * zeta, scenario.p_on_watts,
                             scenario.controller_idle_w).net
        active = step_dist(active_w, zeta * harvest_std, step_s, delta_j)
        idle = step_dist(idle_w, nu * zeta * harvest_std, step_s, delta_j)
        rng = _rng(scenario, _EXP_BATTERY, 1000 + i_z)
        _, soc = bat.simulate_trace(active, cap_j, delta_j,
                                    scenario.guard_fraction,
                                    scenario.soc_trace_periods, rng,
                                    idle_source=idle, initial_soc=0.5 * cap_j)
        for period, soc_j in enumerate(soc):
            report.battery_soc.append(provenance | {
                "zeta": zeta, "capacity_mah": scenario.capacity_mah,
                "period": period,
                "soc_mah": bat.joules_to_mah(float(soc_j),
                                             scenario.battery_voltage)})
    return report


# --- CSV emission -----------------------------------------------------------

def _format_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def emit_csv(report: RunReport, out_dir) -> list:
    """Write every populated report section as <section>.csv; returns paths.

    Output is byte-deterministic for a fixed report: fixed column order,
    shortest-round-trip float formatting, and "\\n" newlines.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for section, columns in _SECTION_COLUMNS.items():
        rows = getattr(report, section)
        if not rows:
            continue
        path = out_dir / f"{section}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_format_cell(row[c]) for c in columns])
        written.append(path)
    return written
