"""Experiment orchestration: seeded Monte-Carlo drops, scheme comparison,
harvest/consumption sweeps, battery sizing, and CSV emission.

Every drop derives its generator from (master seed, experiment tag, sweep
coordinates, drop index), so results are independent of scheduling order and
identical across worker counts.
"""

import csv
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
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
from .scenario import Scenario, ScenarioError, probe_scheme_bits

log = logging.getLogger(__name__)

# experiment tags folded into per-drop seeds
_EXP_SUMRATE, _EXP_ENERGY, _EXP_BATTERY = 1, 2, 3

_section = partial(np.empty, 0)  # a report section with no rows


def validate_run(scenario: Scenario, experiment: str, workers: int) -> None:
    """Checks of the run options that a Scenario cannot make itself, made
    before any drop runs; raises ScenarioError naming the option or field."""
    if workers < 1:
        raise ScenarioError(f"--workers must be >= 1, got {workers}")
    if experiment in ("energy", "battery") and scenario.n_drops < 2:
        raise ScenarioError(
            f"the {experiment} experiment needs n_drops >= 2 for the "
            f"drop-to-drop spread of the net power, got {scenario.n_drops}")


@dataclass(eq=False)
class RunReport:
    """Results of one experiment, one structured array per CSV section.

    A section's fields are its CSV columns, in order: ``len(section)`` is its
    row count, ``section["col"]`` a column and ``row["col"]`` a cell. The
    sections an experiment does not produce stay empty."""

    sumrate_drops: np.ndarray = field(default_factory=_section)
    sumrate_summary: np.ndarray = field(default_factory=_section)
    direct_fraction: np.ndarray = field(default_factory=_section)
    energy_drops: np.ndarray = field(default_factory=_section)
    energy_summary: np.ndarray = field(default_factory=_section)
    battery_ploc: np.ndarray = field(default_factory=_section)
    battery_soc: np.ndarray = field(default_factory=_section)


def _table(**columns) -> np.ndarray:
    """Structured array with one field per keyword, in order; scalar columns
    are broadcast over the rows."""
    columns = {name: np.asarray(col) for name, col in columns.items()}
    table = np.empty(np.broadcast_shapes(*(c.shape for c in columns.values())),
                     [(name, col.dtype) for name, col in columns.items()])
    for name, col in columns.items():
        table[name] = col
    return table


def _summary(drops: np.ndarray, keys, **stats) -> np.ndarray:
    """One row per distinct ``keys`` of ``drops``, in sorted order: the keys,
    the row count and per ``name=(column, fn)`` the ``fn`` of the group's own
    contiguous 1-D array of that column."""
    groups, inverse = np.unique(drops[list(keys)], return_inverse=True)
    members = [inverse == g for g in range(len(groups))]
    return _table(**{key: groups[key] for key in keys},
                  n_drops=[m.sum() for m in members],
                  **{name: [fn(drops[col][m]) for m in members]
                     for name, (col, fn) in stats.items()})


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
    _, (phi_b, phi_u) = _probe_links(scenario, channels, codebooks[q])
    return compose_reflection(phi_b, phi_u, q)


def _probe_links(sc: Scenario, channels, codebook: Codebook):
    """The pilot signals at the surface from the BS and from the UEs, and the
    absorption config the probing sweep combines for each."""
    incident = (incident_from_bs(channels, sc.p_watts),
                incident_from_ues(channels, sc.p_watts))
    return incident, [probe(codebook, v, sc.eta, sc.noise_watts,
                            sc.probe_threshold_w, sc.combining)[1]
                      for v in incident]


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
    sc, codebooks, drop = args
    rng = _rng(sc, _EXP_SUMRATE, sc.k_users, drop)
    channels = realize_channels(sc, rng)
    rates, fracs = [], []
    for scheme in sc.schemes:
        theta = _reflection_for_scheme(sc, channels, scheme, codebooks)
        h_eff = effective_channels(channels, theta, sc.eta)
        w = rzf_precoder(h_eff, sc.p_watts, sc.noise_watts)
        budget = evaluate(h_eff, channels.h_d, w, sc.noise_watts)
        rates.append(budget.sum_rate)
        fracs.append(budget.direct_power_fraction)
    return sc.k_users, drop, np.array(rates), np.reshape(fracs, (-1, sc.k_users))


def _map_tasks(fn, tasks, workers: int):
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * workers))))


def run_sumrate_experiment(scenario: Scenario, workers: int = 1) -> RunReport:
    """Average sum-rate per scheme over the K sweep, with per-drop provenance."""
    validate_run(scenario, "sumrate", workers)
    codebooks = _probe_codebooks(scenario)
    # one scenario per K, not per drop: each one is validated on creation
    per_k = [replace(scenario, k_users=k) for k in scenario.k_sweep]
    tasks = [(sc, codebooks, d) for sc in per_k for d in range(scenario.n_drops)]
    log.info("sum-rate experiment: %d drops x %d K values",
             scenario.n_drops, len(scenario.k_sweep))
    results = sorted(_map_tasks(_sumrate_drop, tasks, workers),
                     key=lambda r: (r[0], r[1]))
    if not (results and scenario.schemes):  # an empty sweep gives no rows
        return RunReport()
    k_users, drop, rates, fracs = zip(*results)
    n_schemes = len(scenario.schemes)
    drops = _table(scheme=np.tile(scenario.schemes, len(results)),
                   k_users=np.repeat(k_users, n_schemes), seed=scenario.seed,
                   drop=np.repeat(drop, n_schemes),
                   sum_rate_bps_hz=np.concatenate(rates))
    # one row per user of each drops row, in user order
    n_ues = drops["k_users"]
    direct = _table(**{c: np.repeat(drops[c], n_ues) for c in
                       ("scheme", "k_users", "seed", "drop")},
                    ue=np.concatenate([np.arange(k) for k in n_ues]),
                    direct_power_fraction=np.concatenate(fracs, axis=None))
    return RunReport(
        sumrate_drops=drops, direct_fraction=direct,
        sumrate_summary=_summary(
            drops, ("scheme", "k_users", "seed"),
            mean_sum_rate_bps_hz=("sum_rate_bps_hz", np.mean),
            # normal-approximation 95% interval over the drops
            ci95_halfwidth=("sum_rate_bps_hz", lambda r: 1.96 * r.std(ddof=1)
                            / np.sqrt(r.size) if r.size > 1 else 0.0)))


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
    (v_b, v_u), (phi_b, phi_u) = _probe_links(sc, channels, codebook)
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
    points = [(n, q) for n in scenario.n_sweep for q in scenario.q_sweep]
    stats = [battery_drop_stats(replace(scenario, nz=n // scenario.nx,
                                        q_bits=q), workers)
             for n, q in points]
    power = frame_power(np.ravel([s.harvest_base_w for s in stats]),
                        np.ravel([s.diode_count for s in stats]),
                        scenario.traffic, scenario.p_on_watts,
                        scenario.controller_run_w)
    n_col, q_col = np.repeat(np.reshape(points, (-1, 2)), scenario.n_drops,
                             axis=0).T
    drops = _table(
        scheme=[f"probe-q{q}" for q in q_col], n_elements=n_col, q_bits=q_col,
        seed=scenario.seed, drop=np.arange(len(n_col)) % scenario.n_drops,
        harvested_w=power.harvested, consumed_w=power.consumed,
        consumed_diodes_w=power.diodes)
    # the scenario's own surface, when swept, has its drops computed already
    own = dict(zip(points, stats)).get((scenario.n_hris_elements,
                                        scenario.q_bits))
    report = run_battery_experiment(scenario, workers, stats=own)
    report.energy_drops = drops
    report.energy_summary = _summary(
        drops, ("scheme", "n_elements", "q_bits", "seed"),
        mean_harvested_w=("harvested_w", np.mean),
        mean_consumed_w=("consumed_w", np.mean))
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


def run_battery_experiment(scenario: Scenario, workers: int = 1,
                           stats: BatteryStats | None = None) -> RunReport:
    """Loss-of-charge probability over the capacity and per-diode-power grids
    (theoretical chain vs simulated trace) and example SoC trajectories."""
    validate_run(scenario, "battery", workers)
    if stats is None:
        stats = battery_drop_stats(scenario, workers)
    delta_j = bat.mah_to_joules(scenario.delta_mah, scenario.battery_voltage)
    step_s = scenario.mc_step_s
    n_periods = scenario.battery_trace_periods
    nu = idle_harvest_fraction(scenario.nx, scenario.nz)
    provenance = {"scheme": f"probe-q{scenario.q_bits}",
                  "n_elements": scenario.n_hris_elements,
                  "q_bits": scenario.q_bits, "seed": scenario.seed}

    # theory and trace per (p_on, capacity) grid point, p_on-major
    caps_j = [bat.mah_to_joules(c, scenario.battery_voltage)
              for c in scenario.capacity_sweep_mah]
    n_states = [bat.states_for_capacity(c, delta_j) for c in caps_j]
    dists, cells = [], []
    for i_p, p_on_mw in enumerate(scenario.p_on_sweep_mw):
        net = frame_power(stats.harvest_base_w, stats.diode_count,
                          scenario.traffic, p_on_mw * 1e-3,
                          scenario.controller_run_w).net
        dist = step_dist(net.mean(), net.std(ddof=1), step_s, delta_j)
        dists.append(dist)
        for i_c, (cap_j, n) in enumerate(zip(caps_j, n_states)):
            chain = bat.build_chain(dist, n, delta_j, scenario.guard_fraction)
            ploc_t, status = bat.resolve_loss_of_charge(chain)
            stderr = (bat.ploc_standard_error(chain, n_periods)
                      if status == "ok" else 0.0)
            rng = _rng(scenario, _EXP_BATTERY, i_p, i_c)
            ploc_e = bat.trace_loss_of_charge(
                dist, cap_j, delta_j, scenario.guard_fraction, n_periods, rng,
                burn_in=n_periods // 100)
            cells.append((ploc_t, ploc_e, stderr, status))
    ploc_t, ploc_e, stderr, status = zip(*cells) if cells else ((),) * 4
    ploc = _table(
        **provenance, p_on_mw=np.repeat(scenario.p_on_sweep_mw, len(caps_j)),
        capacity_mah=np.tile(scenario.capacity_sweep_mah, len(dists)),
        delta_mah=scenario.delta_mah, n_states=np.tile(n_states, len(dists)),
        mu_step_j=np.repeat([d.mean for d in dists], len(caps_j)),
        sigma_step_j=np.repeat([d.std for d in dists], len(caps_j)),
        ploc_theory=ploc_t, ploc_empirical=ploc_e, ploc_stderr=stderr,
        chain_status=status, n_periods=n_periods)

    # example state-of-charge trajectories across traffic intensities,
    # with the idle-mode fallback active below the guard threshold
    harvest_mean = stats.harvest_base_w.mean()
    harvest_std = stats.harvest_base_w.std(ddof=1)
    diodes_mean = stats.diode_count.mean()
    cap_j = bat.mah_to_joules(scenario.capacity_mah, scenario.battery_voltage)
    n_soc = scenario.soc_trace_periods
    socs = []
    for i_z, zeta in enumerate(scenario.zeta_sweep):
        active_w = frame_power(harvest_mean, diodes_mean, zeta,
                               scenario.p_on_watts, scenario.controller_run_w).net
        idle_w = frame_power(harvest_mean, 0, nu * zeta, scenario.p_on_watts,
                             scenario.controller_idle_w).net
        active = step_dist(active_w, zeta * harvest_std, step_s, delta_j)
        idle = step_dist(idle_w, nu * zeta * harvest_std, step_s, delta_j)
        rng = _rng(scenario, _EXP_BATTERY, 1000 + i_z)
        _, soc = bat.simulate_trace(active, cap_j, delta_j,
                                    scenario.guard_fraction, n_soc, rng,
                                    idle_source=idle, initial_soc=0.5 * cap_j)
        socs.append(soc)
    soc = _table(
        **provenance, zeta=np.repeat(scenario.zeta_sweep, n_soc),
        capacity_mah=scenario.capacity_mah,
        period=np.tile(np.arange(n_soc), len(socs)),
        soc_mah=bat.joules_to_mah(np.ravel(socs), scenario.battery_voltage))
    return RunReport(battery_ploc=ploc, battery_soc=soc)


# --- CSV emission -----------------------------------------------------------

def emit_csv(report: RunReport, out_dir) -> list:
    """Write every populated report section as <section>.csv; returns paths.

    Output is byte-deterministic for a fixed report: the section's column
    order, shortest-round-trip float formatting, and "\\n" newlines.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for section, table in vars(report).items():
        if not len(table):
            continue
        path = out_dir / f"{section}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(table.dtype.names)
            writer.writerows(zip(*(table[c].tolist() for c in table.dtype.names)))
        written.append(path)
    return written
