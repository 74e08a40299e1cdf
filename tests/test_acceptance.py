"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line with the measured quantities.

Criteria 1-3 exercise the communication stack (closed-form optimality and the
scheme-ordering trends), 4-9 the energy/battery stack, and 10 end-to-end
determinism. The ordering trends run where the surface is load-bearing: the
quantization chain at a two-user operating point of the default scenario, and
the oracle comparison on the packaged noise-limited coverage scenario (street
level base station, elevated surface, dense blockers), where the margins are
stable across seeds.
"""

import filecmp
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hris_sim import battery as bat
from hris_sim.channel import realize_channels
from hris_sim.comm import effective_channels, evaluate, rzf_precoder
from hris_sim.energy import (ConsumptionModel, atom_consumption,
                             idle_harvest_fraction)
from hris_sim.hris import oracle_config
from hris_sim.runner import (_EXP_SUMRATE, _probe_codebooks,
                             _reflection_for_scheme, _rng, battery_drop_stats,
                             run_battery_experiment, run_energy_experiment)
from hris_sim.scenario import Scenario, load_scenario

COVERAGE = Path(__file__).resolve().parents[1] / "src/hris_sim/data/coverage.json"


def _passed(line: str):
    print(f"\n[PASS] {line}")


def _scheme_means(scenario, k_users, schemes, n_drops):
    codebooks = _probe_codebooks(scenario)
    sc = replace(scenario, k_users=k_users)
    sums = {s: [] for s in schemes}
    for drop in range(n_drops):
        rng = _rng(sc, _EXP_SUMRATE, k_users, drop)
        channels = realize_channels(sc, rng)
        for scheme in schemes:
            theta = _reflection_for_scheme(sc, channels, scheme, codebooks)
            h_eff = effective_channels(channels, theta, sc.eta)
            precoder = rzf_precoder(h_eff, sc.p_watts, sc.noise_watts)
            budget = evaluate(h_eff, channels.h_d, precoder, sc.noise_watts)
            sums[scheme].append(budget.sum_rate)
    return {s: float(np.mean(v)) for s, v in sums.items()}


def test_criterion_1_closed_form_reflected_gain_optimality():
    sc = Scenario(k_users=4)
    n_random = 10 ** 4
    wins, min_margin = 0, np.inf
    rng_cfg = np.random.default_rng(2024)
    for drop in range(100):
        channels = realize_channels(sc, _rng(sc, _EXP_SUMRATE, 4, drop))
        h_hat = np.conj(channels.h.sum(axis=0)) * channels.a_r_bs
        best = np.abs(np.vdot(oracle_config(channels, "weighted").phases, h_hat))
        random_configs = np.exp(1j * rng_cfg.uniform(0, 2 * np.pi,
                                                     (n_random, h_hat.size)))
        gains = np.abs(np.conj(random_configs) @ h_hat)
        if best >= gains.max():
            wins += 1
        min_margin = min(min_margin, float(best - gains.max()))
    assert wins == 100
    _passed(f"criterion 1: closed-form config beat {n_random} random configs "
            f"on {wins}/100 drops (worst margin {min_margin:.3e})")


def test_criterion_2_quantization_ordering_and_gap():
    schemes = ("oracle-weighted", "probe-q2", "probe-q1")
    means = _scheme_means(Scenario(), k_users=2, schemes=schemes, n_drops=150)
    w, q2, q1 = (means[s] for s in schemes)
    gap_q2 = (w - q2) / w
    gap_q1 = (w - q1) / w
    assert w >= q2 >= q1
    assert gap_q2 <= 0.15
    _passed("criterion 2: mean sum-rate ordering oracle-weighted "
            f"({w:.3f}) >= probe-q2 ({q2:.3f}) >= probe-q1 ({q1:.3f}); "
            f"gaps vs oracle: q2 {100 * gap_q2:.2f}%, q1 {100 * gap_q1:.2f}% "
            "(q2 within the 15% bound)")


def test_criterion_3_oracle_ordering_across_k():
    scenario = load_scenario(COVERAGE)
    lines = []
    for k in (10, 25, 50, 75):
        means = _scheme_means(scenario, k,
                              ("oracle-weighted", "oracle-equal-gain"), 100)
        w, e = means["oracle-weighted"], means["oracle-equal-gain"]
        assert w >= e, f"ordering violated at K={k}: {w:.4f} < {e:.4f}"
        lines.append(f"K={k}: {w:.3f} >= {e:.3f}")
    _passed("criterion 3: gain-weighted oracle >= equal-gain oracle at every "
            "K (" + "; ".join(lines) + ")")


def test_criterion_4_pin_diode_consumption_model():
    checked = 0
    for q in range(1, 9):
        model = ConsumptionModel(1e-4, q, 4.9e-3, 1.8e-3)
        for m in range(2 ** q):
            assert atom_consumption(m, model) == pytest.approx(
                1e-4 * bin(m).count("1"))
            checked += 1
    all_three = ConsumptionModel(1e-4, 2, 4.9e-3, 1.8e-3)
    from hris_sim.energy import config_consumption
    from hris_sim.hris import HrisConfig
    cfg = HrisConfig.from_indices(np.full(32, 3), 2, "reflection")
    total = config_consumption(cfg, all_three)
    assert total == pytest.approx(6.4e-3)
    _passed(f"criterion 4: diode draw equals p_on * popcount for all "
            f"{checked} indices with Q <= 8; 32-element Q=2 all-index-3 "
            f"config draws {total * 1e3:.1f} mW")


def test_criterion_5_battery_state_arithmetic():
    s = bat.states_for_capacity(400.0, 20.0)
    assert s == 21
    s_joules = bat.states_for_capacity(bat.mah_to_joules(400.0),
                                       bat.mah_to_joules(20.0))
    assert s_joules == 21
    _passed("criterion 5: capacity 400 mAh at 20 mAh steps yields exactly "
            "21 states")


def test_criterion_6_chain_correctness_and_two_method_agreement():
    worst_row, worst_res, worst_gap = 0.0, 0.0, 0.0
    grid = [(s, mu, sigma) for s in (2, 5, 21, 41)
            for mu, sigma in ((0.0, 1.2), (0.8, 0.7), (-0.6, 1.5))]
    for s, mu, sigma in grid:
        chain = bat.build_chain(bat.NetEnergyDist.gaussian(mu, sigma), s, 1.0, 0.1)
        worst_row = max(worst_row, float(np.abs(chain.psi.sum(axis=1) - 1).max()))
        pi = bat.stationary(chain)
        worst_res = max(worst_res, float(np.abs(chain.psi.T @ pi - pi).max()))
        pi_power = bat.stationary_power_iteration(chain)
        worst_gap = max(worst_gap, float(np.abs(pi - pi_power).max()))
    assert worst_row <= 1e-12
    assert worst_res < 1e-10
    assert worst_gap < 1e-8
    _passed(f"criterion 6: over {len(grid)} chains, worst row-sum error "
            f"{worst_row:.2e} <= 1e-12, stationary residual {worst_res:.2e} "
            f"< 1e-10, two-method gap {worst_gap:.2e} < 1e-8")


@pytest.fixture(scope="module")
def battery_scenario():
    # reduced drop count for the net-power statistics; the chain/trace grid
    # itself still runs one-million-period traces
    sc = Scenario(k_users=8, n_drops=30, battery_trace_periods=10 ** 6,
                  capacity_sweep_mah=(100.0, 200.0, 300.0, 400.0))
    stats = battery_drop_stats(sc)
    return sc, stats


def test_criterion_7_theory_versus_trace(battery_scenario):
    sc, stats = battery_scenario
    # place one grid point at the measured break-even diode power so at least
    # one chain mixes between the saturated regimes
    balance = (sc.traffic * stats.harvest_base_w.mean()
               - sc.controller_run_w) / stats.diode_count.mean()
    p_on_grid = (0.1, round(balance * 1e3, 4), 0.5)
    scenario = replace(sc, p_on_sweep_mw=p_on_grid)
    report = run_battery_experiment(scenario, stats=stats)
    assert len(report.battery_ploc) >= 5
    checked = 0
    for row in report.battery_ploc:
        tol = max(3 * row["ploc_stderr"], 1e-9)
        assert abs(row["ploc_empirical"] - row["ploc_theory"]) <= tol, row
        checked += 1
    # capacity growth reduces p_LoC in the sustainable-harvest regime; under
    # net discharge the guard band grows with the battery and the effect can
    # invert in the far tail, so the check is scoped to positive drift
    monotone_sets = 0
    for p_on in p_on_grid:
        rows = [r for r in report.battery_ploc if r["p_on_mw"] == p_on]
        rows.sort(key=lambda r: r["capacity_mah"])
        if rows[0]["mu_step_j"] > 0.5 * rows[0]["sigma_step_j"]:
            plocs = [r["ploc_theory"] for r in rows]
            assert all(a >= b - 1e-12 for a, b in zip(plocs, plocs[1:])), rows
            monotone_sets += 1
    assert monotone_sets >= 1
    _passed(f"criterion 7: empirical p_LoC within 3 standard errors of the "
            f"chain value on {checked} (capacity, p_on) grid points "
            f"(million-period traces); p_LoC non-increasing in capacity for "
            f"{monotone_sets} charging-drift sweep(s)")


def test_criterion_8_harvest_monotonicity(battery_scenario):
    sc, _ = battery_scenario
    scenario = replace(sc, n_drops=100, n_sweep=(16, 32, 64), q_sweep=(1, 2),
                       p_on_sweep_mw=(0.1,), capacity_sweep_mah=(400.0,),
                       battery_trace_periods=1000, soc_trace_periods=100)
    report = run_energy_experiment(scenario)
    harvested = {(r["n_elements"], r["q_bits"]): r["mean_harvested_w"]
                 for r in report.energy_summary}
    q2_sweep = [harvested[(n, 2)] for n in (16, 32, 64)]
    assert q2_sweep[0] < q2_sweep[1] < q2_sweep[2]
    assert harvested[(32, 1)] < harvested[(32, 2)]
    _passed("criterion 8: mean harvested power strictly increasing over "
            f"N=16/32/64 at Q=2 ({', '.join(f'{h * 1e3:.2f} mW' for h in q2_sweep)}) "
            f"and over Q=1/2 at N=32 ({harvested[(32, 1)] * 1e3:.2f} -> "
            f"{harvested[(32, 2)] * 1e3:.2f} mW)")


def test_criterion_9_idle_beam_fraction():
    nu = idle_harvest_fraction(8, 4)
    assert abs(nu - 0.125 / np.pi ** 2) < 1e-12
    _passed(f"criterion 9: idle harvest fraction for the 8x4 half-wavelength "
            f"surface equals 0.125/pi^2 ({nu:.6e}) to 1e-12")


def test_criterion_10_deterministic_outputs(tmp_path):
    from hris_sim.cli import main as cli_main
    from hris_sim.scenario import save_scenario
    sc = Scenario(n_drops=4, k_users=6, k_sweep=(4, 6),
                  schemes=("idle", "oracle-weighted", "probe-q2"))
    cfg = tmp_path / "sc.json"
    save_scenario(sc, cfg)
    outs = []
    for name, extra in (("a", []), ("b", []), ("c", ["--workers", "2"])):
        out = tmp_path / name
        rc = cli_main(["run", "--config", str(cfg), "--experiment", "sumrate",
                       "--out", str(out)] + extra)
        assert rc == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names
    for other in outs[1:]:
        assert sorted(p.name for p in other.iterdir()) == names
        match, mismatch, errors = filecmp.cmpfiles(outs[0], other, names,
                                                   shallow=False)
        assert not mismatch and not errors
    _passed(f"criterion 10: fixed seed gives byte-identical output files "
            f"({', '.join(names)}) across reruns and worker counts")
