import logging
import tracemalloc
from concurrent import futures
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hris_sim import runner
from hris_sim.channel import realize_channels
from hris_sim.cli import main as cli_main
from hris_sim.comm import effective_channels, evaluate, rzf_precoder
from hris_sim.energy import HarvesterModel, diode_count, slot_harvest
from hris_sim.geometry import Radio, planar
from hris_sim.hris import (build_codebook, compose_reflection,
                           incident_from_bs, incident_from_ues, probe, quantize,
                           sensed_power)
from hris_sim.runner import (_EXP_ENERGY, _EXP_SUMRATE, RunReport, _per_ue,
                             _probe_codebooks, _reflection_for_scheme, _rng,
                             _summary, _table, battery_drop_stats, emit_csv,
                             run_battery_experiment, run_energy_experiment,
                             run_sumrate_experiment)
from hris_sim.scenario import (Scenario, ScenarioError, default_scenario_path,
                               load_scenario)

SMALL = Scenario(n_drops=5, k_users=8, k_sweep=(4, 8), n_sweep=(16, 32),
                 q_sweep=(1, 2), p_on_sweep_mw=(0.1, 0.5),
                 capacity_sweep_mah=(100.0, 200.0),
                 battery_trace_periods=5000, soc_trace_periods=100,
                 schemes=("idle", "oracle-weighted", "probe-q2"))


def test_sumrate_report_shape_and_provenance():
    report = run_sumrate_experiment(SMALL)
    assert len(report.sumrate_drops) == len(SMALL.k_sweep) * SMALL.n_drops * 3
    for row in report.sumrate_drops:
        assert set(row.dtype.names) == {"scheme", "k_users", "seed", "drop",
                                       "sum_rate_bps_hz"}
        assert row["seed"] == SMALL.seed
    ks = {r["k_users"] for r in report.sumrate_summary}
    assert ks == set(SMALL.k_sweep)
    # per-UE direct fractions carry full provenance too
    assert len(report.direct_fraction) == sum(k for k in SMALL.k_sweep) * SMALL.n_drops * 3
    fracs = np.split(report.direct_fraction["direct_power_fraction"],
                     np.cumsum(report.sumrate_drops["k_users"])[:-1])
    _assert_bitwise_equal(report.direct_fraction,
                          _repeated_per_ue(report.sumrate_drops, fracs))


def test_schemes_share_channel_drops():
    report = run_sumrate_experiment(SMALL)
    # identical UE draws per (k, drop) across schemes means eta=0 baselines
    # depend only on the drop; idle vs probe rows must differ (reflection on)
    by_key = {}
    for row in report.sumrate_drops:
        by_key.setdefault((row["k_users"], row["drop"]), {})[row["scheme"]] = \
            row["sum_rate_bps_hz"]
    for rates in by_key.values():
        assert len(rates) == 3


@pytest.mark.parametrize("name, once, twice", [
    ("k_sweep", (4,), (4, 4)), ("schemes", ("idle",), ("idle", "idle"))])
def test_a_repeated_k_or_scheme_leaves_the_summary_as_it_is(
        name, once, twice, monkeypatch, caplog):
    # a repeated entry is evaluated once per drop and its rows copied: the
    # drops section keeps a row per repeat, but the summary counts each
    # realized drop once
    calls = []

    def counted(*args):
        calls.append(args)
        return rzf_precoder(*args)

    monkeypatch.setattr(runner, "rzf_precoder", counted)
    sc = replace(SMALL, n_drops=4, k_sweep=(4,), schemes=("idle", "probe-q1"))

    def run(entries):  # the report, its RZF solves and its log lines
        calls.clear()
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="hris_sim.runner"):
            report = run_sumrate_experiment(replace(sc, **{name: entries}))
        return report, len(calls), caplog.messages

    single, single_calls, single_log = run(once)
    repeated, repeated_calls, repeated_log = run(twice)
    assert repeated_calls == single_calls
    assert repeated_log == single_log
    assert "4 drops x 1 distinct K" in single_log[0]
    assert len(repeated.sumrate_drops) == 2 * len(single.sumrate_drops)
    rates = single.sumrate_drops["sum_rate_bps_hz"]
    assert np.array_equal(
        repeated.sumrate_drops["sum_rate_bps_hz"].view(np.int64),
        np.repeat(rates.reshape(sc.n_drops, -1), 2, axis=0).ravel().view(
            np.int64))
    _assert_bitwise_equal(repeated.sumrate_summary, single.sumrate_summary)


def test_energy_report_monotone_in_n_and_q():
    report = run_energy_experiment(SMALL)
    for q in (1, 2):
        means = [r["mean_harvested_w"] for r in report.energy_summary
                 if r["q_bits"] == q]
        assert len(means) == 2
        assert means[1] > means[0]
    consumed = {(r["n_elements"], r["q_bits"]): r["mean_consumed_w"]
                for r in report.energy_summary}
    assert consumed[(32, 2)] > consumed[(32, 1)]
    assert consumed[(16, 2)] > consumed[(16, 1)]
    assert len(report.battery_ploc)  # battery sections piggyback on the energy run


def test_energy_run_reuses_the_drops_of_its_own_surface(monkeypatch):
    import hris_sim.runner as runner
    drops = []

    def counted(sc, rngs):  # one call realizes a block, one generator a drop
        drops.append(len(rngs))
        return realize_channels(sc, rngs)

    realize_channels = runner.realize_channels
    monkeypatch.setattr(runner, "realize_channels", counted)
    # SMALL's own 8x4 surface at q_bits=2 is a point of its N/Q sweep; at
    # q_sweep=(1,) it is off the sweep; N=32 swept twice is realized once
    for sc in (SMALL, replace(SMALL, q_sweep=(1,)),
               replace(SMALL, n_sweep=(32, 16, 32))):
        drops.clear()
        energy = run_energy_experiment(sc)
        surfaces = {(n, q) for n in sc.n_sweep for q in sc.q_sweep}
        surfaces.add((sc.n_hris_elements, sc.q_bits))
        assert sum(drops) == len(surfaces) * sc.n_drops
        battery = run_battery_experiment(sc)
        for section in ("battery_ploc", "battery_soc"):
            assert np.array_equal(getattr(energy, section),
                                  getattr(battery, section))


def ref_energy_drop(sc, codebook, drop):
    """One drop's slot-weighted harvest and diode count, probing both links
    on their own: the per-drop code that the blocked statistics replaced."""
    rng = _rng(sc, _EXP_ENERGY, sc.n_hris_elements, sc.q_bits, drop)
    channels = realize_channels(sc, [rng])[0]
    v_b = incident_from_bs(channels, sc.p_watts)
    v_u = incident_from_ues(channels, sc.p_watts)
    phi_b, phi_u = [probe(codebook, v, sc.eta, sc.noise_watts,
                          sc.probe_threshold_w, sc.combining)[1]
                    for v in (v_b, v_u)]
    theta = compose_reflection(phi_b, phi_u, sc.q_bits)
    phi_b_q = quantize(phi_b, sc.q_bits)
    phi_u_q = quantize(phi_u, sc.q_bits)
    harvester = HarvesterModel(sc.harvester_a_w, sc.harvester_b_w,
                               sc.harvester_c_w)
    p_b = sensed_power(phi_b_q, v_b, sc.eta, sc.noise_watts)
    p_u = sensed_power(phi_u_q, v_u, sc.eta, sc.noise_watts)
    return (slot_harvest(harvester, sc.n_dl_slots, sc.n_ul_slots, p_b, p_u),
            diode_count(theta) + diode_count(phi_b_q))


@settings(deadline=None, max_examples=25)
@given(case=st.sampled_from(("drawn BS-HRIS LoS", "sampled blockage")),
       n_drops=st.integers(2, 9), k=st.integers(1, 40), nz=st.integers(1, 4),
       q_bits=st.integers(1, 3), block_entries=st.integers(1, 4000),
       combining=st.sampled_from(("soft", "hard")), seed=st.integers(0, 2 ** 32 - 1))
def test_blocked_energy_stats_equal_the_per_drop_reference(
        case, n_drops, k, nz, q_bits, block_entries, combining, seed):
    # a BS below the blockers, so both LoS states of its link to the surface
    # occur; blocks of a few entries give one drop each, 4,000 several
    sc = Scenario(n_drops=n_drops, k_users=k, nz=nz, q_bits=q_bits,
                  combining=combining, seed=seed,
                  bs_position=(-25.0, 25.0, 1.0),
                  bs_hris_always_los=case == "sampled blockage",
                  blockage_mode="sampled" if case == "sampled blockage"
                  else "analytic")
    with mock.patch.object(runner, "_BLOCK_ENTRIES", block_entries):
        stats = battery_drop_stats(sc)
    sc = replace(sc, codebook_size=sc.n_hris_elements)
    radio = Radio(sc.fc_hz)
    codebook = build_codebook(planar(sc.hris_position, sc.nx, sc.nz,
                                     radio.wavelength / 2.0),
                              radio, sc.codebook_size, sc.q_bits)
    harvest, diodes = zip(*(ref_energy_drop(sc, codebook, d)
                            for d in range(n_drops)))
    assert np.array_equal(stats.harvest_base_w.view(np.int64),
                          np.array(harvest).view(np.int64))
    assert np.array_equal(stats.diode_count, diodes)


def ref_sumrate_drop(sc, drop):
    """One drop's sum rates and direct fractions per scheme, each probe
    scheme on fresh codebooks, so both links are probed in every drop."""
    channels = realize_channels(sc, [_rng(sc, _EXP_SUMRATE, sc.k_users, drop)])[0]
    codebooks = _probe_codebooks(sc)
    rates, fracs = [], []
    for scheme in sc.schemes:
        theta = _reflection_for_scheme(sc, channels, scheme, codebooks)
        h_eff = effective_channels(channels, theta, sc.eta)
        w = rzf_precoder(h_eff, sc.p_watts, sc.noise_watts)
        budget = evaluate(h_eff, channels.h_d, w, sc.noise_watts)
        rates.append(budget.sum_rate)
        fracs.append(budget.direct_power_fraction)
    return rates, fracs


@settings(deadline=None, max_examples=25)
@given(blockage=st.sampled_from(("analytic", "sampled")),
       n_drops=st.integers(2, 9), k_sweep=st.lists(st.integers(1, 12),
                                                    min_size=1, max_size=3),
       depths=st.sets(st.integers(1, 3), min_size=1, max_size=2),
       noise_dbm=st.sampled_from((-80.0, -20.0)),
       block_entries=st.integers(1, 4000), seed=st.integers(0, 2 ** 32 - 1))
def test_blocked_sumrate_equals_the_per_drop_reference(
        blockage, n_drops, k_sweep, depths, noise_dbm, block_entries, seed):
    # a BS below the blockers, so both LoS states of its link to the surface
    # occur. At -80 dBm the two states' BS sides compose the same quantized
    # reflection; at -20 dBm the NLoS sweep is noise-limited and most do not.
    # A repeated K gives the same drops again, row by row.
    sc = Scenario(n_drops=n_drops, k_sweep=tuple(k_sweep), seed=seed,
                  schemes=("idle", *(f"probe-q{q}" for q in sorted(depths))),
                  noise_dbm=noise_dbm, bs_position=(-25.0, 25.0, 1.0),
                  bs_hris_always_los=False, blockage_mode=blockage)
    with mock.patch.object(runner, "_BLOCK_ENTRIES", block_entries):
        report = run_sumrate_experiment(sc)
    rows = sorted(((k, d, ref_sumrate_drop(replace(sc, k_users=k), d))
                   for k in k_sweep for d in range(n_drops)),
                  key=lambda row: row[:2])
    rates = np.concatenate([rate for _, _, (rate, _) in rows])
    fracs = np.concatenate([np.ravel(frac) for _, _, (_, frac) in rows])
    assert np.array_equal(
        np.array(report.sumrate_drops["sum_rate_bps_hz"]).view(np.int64),
        rates.view(np.int64))
    assert np.array_equal(
        np.array(report.direct_fraction["direct_power_fraction"]).view(np.int64),
        fracs.view(np.int64))


def test_bs_side_probed_once_per_los_state_and_drops_realized_in_blocks(
        monkeypatch):
    probes, blocks = [], []

    def counted_probe(codebook, incident, *args):
        probes.append(1)
        return probe(codebook, incident, *args)

    def counted_realize(sc, rngs):
        blocks.append(len(rngs))
        return realize_channels(sc, rngs)

    monkeypatch.setattr(runner, "probe", counted_probe)
    monkeypatch.setattr(runner, "realize_channels", counted_realize)
    monkeypatch.setattr(runner, "_BLOCK_ENTRIES", 2 * 8 * 32)  # 2 drops
    # a BS below the blockers draws both LoS states of its link to the
    # surface over these 5 drops; above them, the drawn link is always LoS
    for always, height, states in ((True, 6.0, 1), (False, 1.0, 2),
                                   (False, 6.0, 1)):
        probes.clear(), blocks.clear()
        sc = replace(SMALL, bs_hris_always_los=always,
                     bs_position=(-25.0, 25.0, height))
        battery_drop_stats(sc)
        assert blocks == [2, 2, 1]
        assert len(probes) == SMALL.n_drops + states


def test_a_los_state_never_drawn_is_never_probed():
    # the BS-HRIS link is drawn, but both ends sit above the blockers, so it
    # is always LoS. Its NLoS gain underflows to 0, and a probe of that G
    # would divide 0 by 0 (an error under this suite's warning filter). The
    # link's draw comes last in a drop, so the other draws match always-LoS.
    drawn = battery_drop_stats(replace(SMALL, bs_hris_always_los=False,
                                       chi_nlos=400.0))
    fixed = battery_drop_stats(replace(SMALL, chi_nlos=400.0))
    assert np.array_equal(drawn.harvest_base_w, fixed.harvest_base_w)
    assert np.array_equal(drawn.diode_count, fixed.diode_count)


def test_worker_count_maps_blocks_without_changing_the_stats(monkeypatch):
    monkeypatch.setattr(runner, "_BLOCK_ENTRIES", 2 * 8 * 32)  # 3 blocks
    one, two = battery_drop_stats(SMALL), battery_drop_stats(SMALL, workers=2)
    assert np.array_equal(one.harvest_base_w, two.harvest_base_w)
    assert np.array_equal(one.diode_count, two.diode_count)


def test_worker_processes_never_outnumber_the_blocks(tmp_path, monkeypatch):
    built = []

    class Pool:  # records its size and maps in this process
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(runner, "_BLOCK_ENTRIES", 2 * 8 * 32)  # 3 blocks
    assert _cli_run(tmp_path, "battery", "--workers", str(10 ** 6)) == 0
    assert built == [3]
    # an energy run maps its 16- and 32-element 1-bit points and its own
    # 32-element 2-bit surface, of 2, 3 and 3 blocks, in one pool
    built.clear()
    assert _cli_run(tmp_path, "energy", "--workers", str(10 ** 6),
                    scenario=replace(SMALL, q_sweep=(1,))) == 0
    assert built == [8]


def test_blocked_drop_stats_stay_within_their_memory_budget():
    # table1's largest surface: 100 drops of 75 UEs on 64 elements. Blocks
    # of 2^17 entries (27 drops) peak near 3.4 MB traced, of 2^18 near
    # 6.5 MB, and the whole point stacked near 11.9 MB.
    table1 = load_scenario(default_scenario_path())
    sc = replace(table1, nz=64 // table1.nx, q_bits=2)
    tracemalloc.start()
    try:
        battery_drop_stats(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20, peak


def test_sumrate_report_is_built_and_written_within_its_memory_budget(
        tmp_path, monkeypatch):
    # coverage.json at 50 drops: a 4.4 MB report, 4.3 MB of it the
    # 43,200-row direct_fraction section. Building the report from the drop
    # map's results peaks 1.07x the report above what the map left held with
    # the section filled one drops row at a time, and 1.98x with its
    # drops-level columns repeated in full first. Emission, traced with the
    # report already held, peaks at 0.17x the section converted 4,096 rows
    # at a time and 1.26x converted at once.
    sc = replace(load_scenario(default_scenario_path().with_name(
        "coverage.json")), n_drops=50)
    map_drops, after_map = runner._map_drops, []

    def map_then_reset(*args):
        results = map_drops(*args)
        after_map.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return results

    monkeypatch.setattr(runner, "_map_drops", map_then_reset)
    tracemalloc.start()
    try:
        report = run_sumrate_experiment(sc)
        built = tracemalloc.get_traced_memory()[1] - after_map[0]
    finally:
        tracemalloc.stop()
    held = sum(section.nbytes for section in vars(report).values())
    assert built < 1.5 * held, (built, held)
    tracemalloc.start()
    try:
        emit_csv(report, tmp_path)
        emitted = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert emitted < report.direct_fraction.nbytes / 4, emitted


@pytest.mark.parametrize("run", [run_sumrate_experiment, run_energy_experiment,
                                 run_battery_experiment],
                         ids=["sumrate", "energy", "battery"])
def test_sections_are_arrays_with_one_row_per_csv_line(tmp_path, run):
    report = run(SMALL)
    emit_csv(report, tmp_path)
    assert list(vars(report)) == [f.name for f in fields(RunReport)]
    for name, section in vars(report).items():
        assert isinstance(section, np.ndarray) and section.ndim == 1, name
        path = tmp_path / f"{name}.csv"
        if not len(section):
            assert not path.exists(), name
            continue
        header, *lines = path.read_text().splitlines()
        assert header.split(",") == list(section.dtype.names)
        assert len(section) == len(lines), name


@pytest.mark.parametrize("run, sweep", [
    (run_sumrate_experiment, "k_sweep"), (run_sumrate_experiment, "schemes"),
    (run_energy_experiment, "n_sweep"), (run_battery_experiment, "zeta_sweep"),
    (run_battery_experiment, "capacity_sweep_mah")])
def test_an_empty_sweep_gives_empty_sections(tmp_path, run, sweep):
    report = run(replace(SMALL, **{sweep: ()}))
    written = {p.stem for p in emit_csv(report, tmp_path)}
    assert written == {name for name, section in vars(report).items()
                       if len(section)}
    assert written.isdisjoint({
        "k_sweep": {"sumrate_drops", "sumrate_summary", "direct_fraction"},
        "schemes": {"sumrate_drops", "sumrate_summary", "direct_fraction"},
        "n_sweep": {"energy_drops", "energy_summary"},
        "zeta_sweep": {"battery_soc"},
        "capacity_sweep_mah": {"battery_ploc"}}[sweep])


def test_battery_report_contents():
    report = run_battery_experiment(SMALL)
    assert len(report.battery_ploc) == 4
    for row in report.battery_ploc:
        assert 0.0 <= row["ploc_theory"] <= 1.0
        assert 0.0 <= row["ploc_empirical"] <= 1.0
        assert row["chain_status"] in ("ok", "saturated-charge",
                                       "saturated-discharge")
    zetas = {row["zeta"] for row in report.battery_soc}
    assert zetas == set(SMALL.zeta_sweep)


def test_soc_traces_discharge_at_low_traffic_and_charge_at_high():
    # at the default hardware point the harvest covers consumption at
    # traffic 0.8 but not at 0.2; traces start at half charge
    report = run_battery_experiment(SMALL)
    final = {}
    for row in report.battery_soc:
        final[row["zeta"]] = row["soc_mah"]  # last row per zeta wins
    half = SMALL.capacity_mah / 2
    assert final[0.2] < half
    assert final[0.8] > half


def test_emit_csv_deterministic(tmp_path):
    report = run_sumrate_experiment(SMALL)
    out_a = emit_csv(report, tmp_path / "a")
    out_b = emit_csv(report, tmp_path / "b")
    for pa, pb in zip(out_a, out_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_equal_scenarios_write_equal_bytes(tmp_path):
    # integers in float fields compare equal to the floats they stand for
    ints = replace(SMALL, p_on_sweep_mw=(0, 1), capacity_sweep_mah=(100, 200),
                   zeta_sweep=(1,), capacity_mah=400)
    floats = replace(SMALL, p_on_sweep_mw=(0.0, 1.0),
                     capacity_sweep_mah=(100.0, 200.0), zeta_sweep=(1.0,),
                     capacity_mah=400.0)
    assert ints == floats
    out_i = emit_csv(run_battery_experiment(ints), tmp_path / "i")
    out_f = emit_csv(run_battery_experiment(floats), tmp_path / "f")
    assert [p.name for p in out_i] == [p.name for p in out_f]
    for pi, pf in zip(out_i, out_f):
        assert pi.read_bytes() == pf.read_bytes()


def test_rerun_identical_and_worker_count_invariant(tmp_path):
    r1 = run_sumrate_experiment(SMALL)
    r2 = run_sumrate_experiment(SMALL)
    r3 = run_sumrate_experiment(SMALL, workers=2)
    assert np.array_equal(r1.sumrate_drops, r2.sumrate_drops)
    assert np.array_equal(r1.sumrate_drops, r3.sumrate_drops)


def test_cli_run_and_config_error(tmp_path):
    cfg = tmp_path / "sc.json"
    from hris_sim.scenario import save_scenario
    save_scenario(SMALL, cfg)
    rc = cli_main(["run", "--config", str(cfg), "--experiment", "sumrate",
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "sumrate_drops.csv").exists()
    assert (tmp_path / "out" / "scenario.json").exists()
    rc = cli_main(["run", "--config", str(tmp_path / "nope.json"),
                   "--experiment", "sumrate", "--out", str(tmp_path / "o2")])
    assert rc == 2


def _cli_run(tmp_path, experiment, *extra, scenario=SMALL):
    from hris_sim.scenario import save_scenario
    cfg = tmp_path / "sc.json"
    save_scenario(scenario, cfg)
    return cli_main(["run", "--config", str(cfg), "--experiment", experiment,
                     "--out", str(tmp_path / "out"), *extra])


def test_cli_battery_single_drop_is_a_config_error(tmp_path, capsys):
    assert _cli_run(tmp_path, "battery", "--drops", "1") == 2
    assert "n_drops" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_battery_ue_drawn_on_the_surface_is_a_config_error(tmp_path, capsys):
    x, y, z = SMALL.hris_position
    on_surface = replace(SMALL, area_min=(x, y), area_max=(x, y), ue_height_m=z)
    assert _cli_run(tmp_path, "battery", scenario=on_surface) == 2
    err = capsys.readouterr().err
    assert "a drawn UE lies on the array at hris_position" in err
    assert not (tmp_path / "out").exists()


def test_cli_energy_single_drop_fails_before_any_drop(tmp_path, capsys,
                                                      monkeypatch):
    import hris_sim.runner as runner

    def no_drop(*args):
        raise AssertionError("a drop ran before validation")

    monkeypatch.setattr(runner, "realize_channels", no_drop)
    assert _cli_run(tmp_path, "energy", "--drops", "1") == 2
    assert "n_drops" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["energy", "battery"])
def test_energy_and_battery_runs_validate_once(tmp_path, capsys, monkeypatch,
                                               experiment):
    calls = []

    def counted(*args):
        calls.append(args)
        return validate_run(*args)

    def no_drop(*args):
        raise AssertionError("a drop ran before validation")

    validate_run = runner.validate_run
    monkeypatch.setattr(runner, "validate_run", counted)
    assert _cli_run(tmp_path, experiment) == 0
    assert len(calls) == 1
    monkeypatch.setattr(runner, "realize_channels", no_drop)
    assert _cli_run(tmp_path, experiment, "--drops", "1") == 2
    assert len(calls) == 2
    assert "n_drops" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_rejects_workers_below_one(tmp_path, capsys, workers):
    assert _cli_run(tmp_path, "sumrate", "--workers", workers) == 2
    assert "--workers" in capsys.readouterr().err


def test_cli_rejects_an_unknown_log_level(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HRIS_SIM_LOG", "bogus")
    assert cli_main(["init-config", "--out", str(tmp_path / "d.json")]) == 2
    assert "HRIS_SIM_LOG" in capsys.readouterr().err
    assert not (tmp_path / "d.json").exists()


def test_cli_run_into_a_file_fails_before_any_drop(tmp_path, capsys,
                                                   monkeypatch):
    def no_drop(*args):
        raise AssertionError("a drop ran before the --out check")

    monkeypatch.setattr(runner, "realize_channels", no_drop)
    (tmp_path / "out").write_text("keep")
    assert _cli_run(tmp_path, "sumrate") == 2
    assert "--out" in capsys.readouterr().err
    assert (tmp_path / "out").read_text() == "keep"


def test_cli_init_config_into_a_missing_directory(tmp_path, capsys):
    path = tmp_path / "missing" / "d.json"
    assert cli_main(["init-config", "--out", str(path)]) == 2
    assert "--out" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def test_library_runs_share_the_cli_validation():
    with pytest.raises(ScenarioError, match="n_drops"):
        run_battery_experiment(replace(SMALL, n_drops=1))
    with pytest.raises(ScenarioError, match="--workers"):
        run_sumrate_experiment(SMALL, workers=0)


def test_cli_seed_and_drop_overrides(tmp_path):
    cfg = tmp_path / "sc.json"
    from hris_sim.scenario import save_scenario
    save_scenario(SMALL, cfg)
    out = tmp_path / "out"
    rc = cli_main(["run", "--config", str(cfg), "--experiment", "sumrate",
                   "--out", str(out), "--seed", "9", "--drops", "2"])
    assert rc == 0
    lines = (out / "sumrate_drops.csv").read_text().splitlines()
    assert len(lines) == 1 + len(SMALL.k_sweep) * 2 * 3
    assert all(line.split(",")[2] == "9" for line in lines[1:])


def test_cli_init_config_roundtrip(tmp_path):
    path = tmp_path / "default.json"
    assert cli_main(["init-config", "--out", str(path)]) == 0
    from hris_sim.scenario import load_scenario
    assert load_scenario(path) == Scenario()


# --- the row-dict reports the sections replaced, kept as the reference -----

def _dict_format_cell(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _dict_summaries(rows, group_keys, value_keys):
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in group_keys), []).append(row)
    for key in sorted(groups):
        members = groups[key]
        yield (dict(zip(group_keys, key)) | {"n_drops": len(members)},
               [np.array([row[v] for row in members]) for v in value_keys])


_DROP_ROWS = st.lists(st.tuples(
    st.sampled_from(["probe-q2", "idle", "probe-q10", "oracle-weighted"]),
    st.sampled_from([6, 4, 75]), st.integers(0, 2**40),
    st.floats(-1e12, 1e12),
    st.floats(-1e3, 1e3)), max_size=40)


def _drop_table(rows):
    columns = ("scheme", "k_users", "seed", "rate", "power")
    table = _table(**{c: [r[i] for r in rows] for i, c in enumerate(columns)})
    return table, [dict(zip(columns, r)) for r in rows]


@settings(max_examples=60, deadline=None)
@given(_DROP_ROWS)
def test_summary_equals_the_row_dict_grouping(rows):
    table, dicts = _drop_table(rows)
    summary = _summary(table, ("scheme", "k_users"),
                       mean_rate=("rate", np.mean),
                       spread=("power", lambda v: v.std()))
    expected = [group | {"mean_rate": float(rate.mean()),
                         "spread": float(power.std())}
                for group, (rate, power) in _dict_summaries(
                    dicts, ("scheme", "k_users"), ("rate", "power"))]
    assert len(summary) == len(expected)
    for row, want in zip(summary, expected):
        assert list(row.dtype.names) == list(want)
        got = row.tolist()
        assert got[:3] == tuple(want.values())[:3]
        # the same values reduced in the same order give the same floats
        assert np.array_equal(got[3:], list(want.values())[3:],
                              equal_nan=True)


# chunk sizes that cross many row boundaries, and the real one
_CHUNK_SIZES = st.one_of(st.integers(1, 7), st.just(runner._CHUNK_ROWS))

# one row past a 4,096-row chunk, cut down for the examples below
_PAST_A_CHUNK = [("idle", 4, i, i / 7, -i / 3)
                 for i in range(runner._CHUNK_ROWS + 1)]


@settings(max_examples=60, deadline=None)
@given(_DROP_ROWS, _CHUNK_SIZES)
# an empty table, exactly one chunk, and one row past one chunk
@example([], 3)
@example(_PAST_A_CHUNK[:3], 3)
@example(_PAST_A_CHUNK[:4], 3)
@example(_PAST_A_CHUNK[:-1], runner._CHUNK_ROWS)
@example(_PAST_A_CHUNK, runner._CHUNK_ROWS)
def test_emitted_bytes_equal_the_per_cell_formatter(tmp_path_factory, rows,
                                                    chunk):
    table, dicts = _drop_table(rows)
    out = tmp_path_factory.mktemp("csv")
    with mock.patch.object(runner, "_CHUNK_ROWS", chunk):
        written = emit_csv(RunReport(sumrate_drops=table), out)
    expected = "".join(",".join(_dict_format_cell(row[c]) for c in row) + "\n"
                       for row in dicts)
    if not rows:
        assert written == []
        return
    header = "scheme,k_users,seed,rate,power\n"
    assert [p.name for p in written] == ["sumrate_drops.csv"]
    assert written[0].read_text() == header + expected


def _repeated_per_ue(drops, fracs):
    # the reference builder of the direct_fraction section: each drops-level
    # column repeated in full, then copied into the table
    n_ues = drops["k_users"]
    return _table(**{c: np.repeat(drops[c], n_ues) for c in
                     ("scheme", "k_users", "seed", "drop")},
                  ue=np.concatenate([np.arange(k) for k in n_ues]),
                  direct_power_fraction=np.concatenate(fracs))


def _assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype
    for name in want.dtype.names:
        a, b = got[name], want[name]
        if a.dtype.kind == "f":
            a, b = a.view(np.int64), b.view(np.int64)
        assert np.array_equal(a, b), name


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["idle", "probe-q2", "oracle-equal-gain"]),
    st.integers(1, 2100), st.integers(0, 2 ** 40), st.integers(0, 99)),
    min_size=1, max_size=6), st.integers(0, 2 ** 32 - 1))
def test_per_ue_fill_equals_the_repeated_columns(rows, seed):
    # rows of 1 to 2,100 users, so sections of up to 12,600 rows
    rng = np.random.default_rng(seed)
    drops = _table(scheme=[r[0] for r in rows], k_users=[r[1] for r in rows],
                   seed=[r[2] for r in rows], drop=[r[3] for r in rows],
                   sum_rate_bps_hz=rng.standard_normal(len(rows)))
    fracs = [rng.random(k) for k in drops["k_users"]]
    _assert_bitwise_equal(_per_ue(drops, fracs), _repeated_per_ue(drops, fracs))
