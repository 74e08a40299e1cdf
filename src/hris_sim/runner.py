"""Experiment orchestration: seeded Monte-Carlo drops, scheme comparison,
harvest/consumption sweeps, battery sizing, and CSV emission.

Every drop derives its generator from (master seed, experiment tag, sweep
coordinates, drop index), so results are independent of scheduling order and
identical across worker counts. Both experiments realize their drops in
blocks, the unit the workers map, and run one probing phase per drop, whose
fixed BS-HRIS side is probed once per codebook and LoS state in a process.
"""

import csv
import logging
from concurrent import futures
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import battery as bat
from .channel import realize_channels
from .comm import effective_channels, evaluate, rzf_precoder
from .energy import (HarvesterModel, diode_count, frame_power,
                     idle_harvest_fraction, slot_harvest)
from .geometry import HALF_WAVE, Radio, planar
from .hris import (HrisConfig, build_codebook, compose_reflection,
                   idle_config, incident_from_bs, incident_from_ues,
                   oracle_config, probe, quantize, sensed_power)
from .scenario import Scenario, ScenarioError, computed_error, probe_scheme_bits

log = logging.getLogger(__name__)

# experiment tags folded into per-drop seeds
_EXP_SUMRATE, _EXP_ENERGY, _EXP_BATTERY = 1, 2, 3

# complex entries of the stacked channels of one block of drops
_BLOCK_ENTRIES = 2 ** 17

# rows of a report section written to CSV at a time
_CHUNK_ROWS = 4096

# the fields behind a drop's link budget, named when it goes non-finite
_LINK_BUDGET = ("p_dbm noise_dbm fc_ghz gamma0 d0_m chi_los chi_nlos bs_position "
                "hris_position area_min area_max ue_height_m").split()

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


# quoted, so that numpy.random loads at a run's first draw, not at import
def _rng(scenario: Scenario, *tags) -> "np.random.Generator":
    return np.random.default_rng(np.random.SeedSequence([scenario.seed, *tags]))


def _reflection_for_scheme(scenario: Scenario, channels, scheme: str, codebooks):
    """Reflection configuration a scheme would apply for this snapshot;
    ``codebooks`` is the probing per bit depth of :func:`_probe_codebooks`."""
    if scheme == "idle":
        return idle_config(scenario.n_hris_elements)
    if scheme == "oracle-equal-gain":
        return oracle_config(channels, "equal")
    if scheme == "oracle-weighted":
        return oracle_config(channels, "weighted")
    return _probe_phase(scenario, codebooks[probe_scheme_bits(scheme)],
                        channels)[-1]


class _BsProbe(NamedTuple):
    """The BS side of the probe in one LoS state of the BS-HRIS link, which
    depends only on that link's factors: the combined absorption config, and
    the power its quantized config senses and that config's active diodes."""

    phi: HrisConfig
    power: float
    diodes: int


def _probing(sc: Scenario, q_bits: int):
    """A probing of the scenario's surface at ``q_bits``: its codebook, the
    bit depth, and the BS side of the probe per LoS state, filled on first
    use."""
    radio = Radio(sc.fc_hz)
    geom = planar(sc.hris_position, sc.nx, sc.nz, radio.wavelength * HALF_WAVE)
    return build_codebook(geom, radio, sc.codebook_size, q_bits), q_bits, {}


def _probe_phase(sc: Scenario, probing, channels):
    """One drop's probing phase: the BS side of the probe, the UE pilot at
    the elements, the absorption config its sweep combines, and the
    reflection config the two compose.

    The BS side is computed from the first drop in the LoS state of this
    drop's BS-HRIS link, then reused, as that link is the same in every drop.
    """
    codebook, q_bits, bs_sides = probing
    sweep = (sc.eta, sc.noise_watts, sc.probe_threshold_w, sc.combining)
    bs = bs_sides.get(channels.los_bs_hris)
    if bs is None:
        v_b = incident_from_bs(channels, sc.p_watts)
        phi = probe(codebook, v_b, *sweep)[1]
        phi_q = quantize(phi, q_bits)
        bs = bs_sides[channels.los_bs_hris] = _BsProbe(
            phi, sensed_power(phi_q, v_b, sc.eta, sc.noise_watts),
            diode_count(phi_q))
    v_u = incident_from_ues(channels, sc.p_watts)
    phi_u = probe(codebook, v_u, *sweep)[1]
    return bs, v_u, phi_u, compose_reflection(bs.phi, phi_u, q_bits)


def _probe_codebooks(scenario: Scenario):
    """One probing per quantization level appearing in the scheme list."""
    depths = sorted({q for q in map(probe_scheme_bits, scenario.schemes)
                     if q is not None})
    return {q: _probing(scenario, q) for q in depths}


def _blocks(sc: Scenario):
    """Drop ranges of ``sc.n_drops`` whose stacked channels (K rows of the
    larger of the surface and the BS array per drop) hold at most
    ``_BLOCK_ENTRIES`` complex entries, or one drop."""
    per_drop = sc.k_users * max(sc.n_hris_elements, sc.m_bs_antennas)
    size = max(1, _BLOCK_ENTRIES // per_drop)
    return [range(d, min(d + size, sc.n_drops)) for d in range(0, sc.n_drops, size)]


def _block(task):
    """Realize one block of a point's drops and apply the drop function to
    each drop's channels."""
    drop_fn, sc, context, tags, drops = task
    # no floating-point warnings: a computed_error names a drop gone non-finite
    with np.errstate(all="ignore"):
        block = realize_channels(sc, [_rng(sc, *tags, d) for d in drops])
        return [drop_fn(sc, context, channels) for channels in block]


def _map_drops(drop_fn, points, workers: int):
    """``drop_fn(scenario, context, channels)`` of every drop of each
    ``(scenario, context, rng tags)`` point, in point and drop order. The
    blocks are mapped in this process, or in a pool of ``workers`` processes
    but never more than there are blocks."""
    tasks = [(drop_fn, sc, context, tags, drops)
             for sc, context, tags in points for drops in _blocks(sc)]
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [r for t in tasks for r in _block(t)]
    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return [r for rs in pool.map(_block, tasks) for r in rs]


def _sumrate_drop(sc: Scenario, codebooks, channels):
    """One drop's sum rate and direct fractions per listed scheme, from one
    evaluation per distinct scheme; a singular RZF Gram matrix or a sum rate
    that is not finite raises a computed_error."""
    budgets = {}
    for scheme in dict.fromkeys(sc.schemes):
        theta = _reflection_for_scheme(sc, channels, scheme, codebooks)
        h_eff = effective_channels(channels, theta, sc.eta)
        try:
            w = rzf_precoder(h_eff, sc.p_watts, sc.noise_watts)
        except np.linalg.LinAlgError:  # K < M: rank K, and mu rounded away
            raise computed_error(
                f"the RZF Gram matrix of {scheme} at k_users {sc.k_users} is "
                "singular", (*_LINK_BUDGET, "k_sweep", "m_bs_antennas")) from None
        budget = evaluate(h_eff, channels.h_d, w, sc.noise_watts)
        if not np.isfinite(budget.sum_rate):
            raise computed_error(f"sum rate of {scheme} at k_users "
                                 f"{sc.k_users}", _LINK_BUDGET, budget.sum_rate)
        budgets[scheme] = budget
    return ([budgets[s].sum_rate for s in sc.schemes], np.concatenate(
        [budgets[s].direct_power_fraction for s in sc.schemes]))


def _per_ue(drops: np.ndarray, fractions) -> np.ndarray:
    """The direct_fraction section: one row per user of each ``drops`` row,
    in user order, with that row's scheme, k_users, seed and drop, the user
    index and its entry of the concatenated ``fractions``. The section is
    allocated once and filled one ``drops`` row at a time, so no column is
    ever held twice in full."""
    keys = ("scheme", "k_users", "seed", "drop")
    direct = np.empty(drops["k_users"].sum(), [
        *((k, drops.dtype[k]) for k in keys), ("ue", int),
        ("direct_power_fraction", float)])
    np.concatenate(fractions, out=direct["direct_power_fraction"])
    for row, rows in zip(drops[list(keys)].tolist(),
                         np.split(direct, np.cumsum(drops["k_users"])[:-1])):
        for key, value in zip(keys, row):
            rows[key] = value
        rows["ue"] = np.arange(len(rows))
    return direct


def run_sumrate_experiment(scenario: Scenario, workers: int = 1) -> RunReport:
    """Average sum-rate per scheme over the K sweep, with per-drop provenance."""
    validate_run(scenario, "sumrate", workers)
    codebooks = _probe_codebooks(scenario)
    # one scenario per distinct K, not per drop: each one is validated on
    # creation. A K swept r times draws the same seeds each time, so each of
    # its drops gives r consecutive rows.
    ks = sorted(set(scenario.k_sweep))
    points = [(replace(scenario, k_users=k), codebooks, (_EXP_SUMRATE, k))
              for k in ks]
    log.info("sum-rate experiment: %d drops x %d distinct K x %d distinct "
             "schemes", scenario.n_drops, len(ks), len(set(scenario.schemes)))
    if not (ks and scenario.schemes):  # an empty sweep gives no rows
        return RunReport()
    results = _map_drops(_sumrate_drop, points, workers)
    at = np.repeat(np.arange(len(results)), np.repeat(
        [scenario.k_sweep.count(k) for k in ks], scenario.n_drops))
    rates, fracs = zip(*(results[i] for i in at))
    k_at, drop = np.divmod(np.repeat(at, len(scenario.schemes)),
                           scenario.n_drops)
    drops = _table(scheme=np.tile(scenario.schemes, at.size),
                   k_users=np.array(ks)[k_at], seed=scenario.seed, drop=drop,
                   sum_rate_bps_hz=np.concatenate(rates))
    # the summary counts each realized drop of a scheme once, however often
    # its K or the scheme repeats
    first = np.unique(drops[["scheme", "k_users", "drop"]], return_index=True)[1]
    return RunReport(
        sumrate_drops=drops, direct_fraction=_per_ue(drops, fracs),
        sumrate_summary=_summary(
            drops[np.sort(first)], ("scheme", "k_users", "seed"),
            mean_sum_rate_bps_hz=("sum_rate_bps_hz", np.mean),
            # normal-approximation 95% interval over the drops
            ci95_halfwidth=("sum_rate_bps_hz", lambda r: 1.96 * r.std(ddof=1)
                            / np.sqrt(r.size) if r.size > 1 else 0.0)))


# --- energy and battery ---------------------------------------------------

def _energy_drop(sc: Scenario, context, channels):
    """Probing+harvesting snapshot of the scenario's surface in one drop:
    the slot-weighted harvest (W, before the traffic factor) and the total
    active-diode count of the held reflection + absorption configs, so
    traffic and per-diode power variations rescale without re-simulation.
    A sensed power that is not finite raises a computed_error.
    """
    probing, harvester = context
    bs, v_u, phi_u, theta = _probe_phase(sc, probing, channels)
    p_u = sensed_power(quantize(phi_u, sc.q_bits), v_u, sc.eta, sc.noise_watts)
    if not np.isfinite([bs.power, p_u]).all():
        raise computed_error(
            f"sensed power of the {sc.n_hris_elements}-element {sc.q_bits}-bit "
            "surface", _LINK_BUDGET, f"BS {bs.power} W, UEs {p_u} W")
    return (slot_harvest(harvester, sc.n_dl_slots, sc.n_ul_slots, bs.power,
                         p_u), diode_count(theta) + bs.diodes)


@dataclass(eq=False)
class BatteryStats:
    """Per-drop harvest base and diode counts at one hardware configuration."""

    harvest_base_w: np.ndarray  # slot-weighted harvest per drop, traffic=1
    diode_count: np.ndarray


def _surface_stats(scenario: Scenario, surfaces, workers: int) -> dict:
    """Per-drop statistics of each distinct ``(n_elements, q_bits)`` surface
    of the scenario's width, one codeword per element, in one drop map."""
    harvester = HarvesterModel(scenario.harvester_a_w, scenario.harvester_b_w,
                               scenario.harvester_c_w)
    scs = {(n, q): replace(scenario, nz=n // scenario.nx, q_bits=q,
                           codebook_size=n) for n, q in dict.fromkeys(surfaces)}
    rows = _map_drops(_energy_drop, [
        (sc, (_probing(sc, q), harvester), (_EXP_ENERGY, n, q))
        for (n, q), sc in scs.items()], workers)
    harvest, diodes = (np.reshape(col, (len(scs), -1)) for col in zip(*rows))
    return dict(zip(scs, map(BatteryStats, harvest, diodes)))


def battery_drop_stats(scenario: Scenario, workers: int = 1) -> BatteryStats:
    """Per-drop statistics of the scenario's surface (nx*nz elements at
    q_bits), probed with a codebook of one codeword per element."""
    own = (scenario.n_hris_elements, scenario.q_bits)
    return _surface_stats(scenario, [own], workers)[own]


def run_energy_experiment(scenario: Scenario, workers: int = 1) -> RunReport:
    """Harvested/consumed power over the N and Q sweeps, plus the battery
    analysis of :func:`run_battery_experiment`, its drops mapped with them."""
    validate_run(scenario, "energy", workers)
    points = [(n, q) for n in scenario.n_sweep for q in scenario.q_sweep]
    own = (scenario.n_hris_elements, scenario.q_bits)
    stats = _surface_stats(scenario, [*points, own], workers)
    power = frame_power(np.ravel([stats[p].harvest_base_w for p in points]),
                        np.ravel([stats[p].diode_count for p in points]),
                        scenario.traffic, scenario.p_on_watts,
                        scenario.controller_run_w)
    n_col, q_col = np.repeat(np.reshape(points, (-1, 2)), scenario.n_drops,
                             axis=0).T
    drops = _table(
        scheme=[f"probe-q{q}" for q in q_col], n_elements=n_col, q_bits=q_col,
        seed=scenario.seed, drop=np.arange(len(n_col)) % scenario.n_drops,
        harvested_w=power.harvested, consumed_w=power.consumed,
        consumed_diodes_w=power.diodes)
    report = run_battery_experiment(scenario, workers, stats=stats[own])
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
    well defined when the drop-to-drop variation vanishes. A mean or spread
    that is not finite raises a computed_error.
    """
    mean = mean_power_w * step_s
    sigma = max(std_power_w * step_s, 1e-9 * delta_j)
    if not np.isfinite([mean, sigma]).all():
        raise computed_error("net energy per step", (
            "mc_step_s harvester_a_w harvester_b_w harvester_c_w p_on_mw "
            "p_on_sweep_mw controller_run_mw controller_idle_mw").split(),
            f"mean {mean} J, spread {sigma} J")
    return bat.NetEnergyDist.gaussian(mean, sigma)


def run_battery_experiment(scenario: Scenario, workers: int = 1,
                           stats: BatteryStats | None = None) -> RunReport:
    """Loss-of-charge probability over the capacity and per-diode-power grids
    (theoretical chain vs simulated trace) and example SoC trajectories."""
    if stats is None:  # given stats were made, and checked, by their caller
        validate_run(scenario, "battery", workers)
        stats = battery_drop_stats(scenario, workers)
    delta_j = bat.mah_to_joules(scenario.delta_mah, scenario.battery_voltage)
    step_s = scenario.mc_step_s
    n_periods = scenario.battery_trace_periods
    nu = idle_harvest_fraction(scenario.nx, scenario.nz)
    provenance = {"scheme": f"probe-q{scenario.q_bits}",
                  "n_elements": scenario.n_hris_elements,
                  "q_bits": scenario.q_bits, "seed": scenario.seed}

    # every per-step distribution before any trace runs: p_LoC's per p_on,
    # and the active and idle ones of the SoC trajectories per traffic
    # intensity; step_dist names the fields behind one that is not finite
    harvest = stats.harvest_base_w
    with np.errstate(over="ignore", invalid="ignore"):
        nets = [frame_power(harvest, stats.diode_count, scenario.traffic,
                            p_on_mw * 1e-3, scenario.controller_run_w).net
                for p_on_mw in scenario.p_on_sweep_mw]
        dists = [step_dist(net.mean(), net.std(ddof=1), step_s, delta_j)
                 for net in nets]
        harvest_mean, harvest_std = harvest.mean(), harvest.std(ddof=1)
        diodes_mean = stats.diode_count.mean()
        soc_dists = [(
            step_dist(frame_power(harvest_mean, diodes_mean, zeta,
                                  scenario.p_on_watts,
                                  scenario.controller_run_w).net,
                      zeta * harvest_std, step_s, delta_j),
            step_dist(frame_power(harvest_mean, 0, nu * zeta,
                                  scenario.p_on_watts,
                                  scenario.controller_idle_w).net,
                      nu * zeta * harvest_std, step_s, delta_j))
            for zeta in scenario.zeta_sweep]

    # theory and trace per (p_on, capacity) grid point, p_on-major
    caps_j = [bat.mah_to_joules(c, scenario.battery_voltage)
              for c in scenario.capacity_sweep_mah]
    n_states = [bat.states_for_capacity(c, delta_j) for c in caps_j]
    cells = []
    for i_p, dist in enumerate(dists):
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
    cap_j = bat.mah_to_joules(scenario.capacity_mah, scenario.battery_voltage)
    n_soc = scenario.soc_trace_periods
    socs = []
    for i_z, (active, idle) in enumerate(soc_dists):
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
    order, shortest-round-trip float formatting, and "\\n" newlines. Each
    section is converted and written ``_CHUNK_ROWS`` rows at a time.
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
            for start in range(0, len(table), _CHUNK_ROWS):
                writer.writerows(table[start:start + _CHUNK_ROWS].tolist())
        written.append(path)
    return written
