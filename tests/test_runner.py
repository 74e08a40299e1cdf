from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hris_sim.cli import main as cli_main
from hris_sim.runner import (RunReport, _summary, _table, emit_csv,
                             run_battery_experiment, run_energy_experiment,
                             run_sumrate_experiment)
from hris_sim.scenario import Scenario, ScenarioError

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
    calls = []

    def counted(*args):
        calls.append(1)
        return realize_channels(*args)

    realize_channels = runner.realize_channels
    monkeypatch.setattr(runner, "realize_channels", counted)
    energy = run_energy_experiment(SMALL)
    # SMALL's own 8x4 surface at q_bits=2 is a point of its N/Q sweep
    assert len(calls) == len(SMALL.n_sweep) * len(SMALL.q_sweep) * SMALL.n_drops
    battery = run_battery_experiment(SMALL)
    for section in ("battery_ploc", "battery_soc"):
        assert np.array_equal(getattr(energy, section),
                              getattr(battery, section))


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


def _cli_run(tmp_path, experiment, *extra):
    from hris_sim.scenario import save_scenario
    cfg = tmp_path / "sc.json"
    save_scenario(SMALL, cfg)
    return cli_main(["run", "--config", str(cfg), "--experiment", experiment,
                     "--out", str(tmp_path / "out"), *extra])


def test_cli_battery_single_drop_is_a_config_error(tmp_path, capsys):
    assert _cli_run(tmp_path, "battery", "--drops", "1") == 2
    assert "n_drops" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_energy_single_drop_fails_before_any_drop(tmp_path, capsys,
                                                      monkeypatch):
    import hris_sim.runner as runner

    def no_drop(*args):
        raise AssertionError("a drop ran before validation")

    monkeypatch.setattr(runner, "realize_channels", no_drop)
    assert _cli_run(tmp_path, "energy", "--drops", "1") == 2
    assert "n_drops" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_rejects_workers_below_one(tmp_path, capsys, workers):
    assert _cli_run(tmp_path, "sumrate", "--workers", workers) == 2
    assert "--workers" in capsys.readouterr().err


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


@settings(max_examples=60, deadline=None)
@given(_DROP_ROWS)
def test_emitted_bytes_equal_the_per_cell_formatter(tmp_path_factory, rows):
    table, dicts = _drop_table(rows)
    out = tmp_path_factory.mktemp("csv")
    written = emit_csv(RunReport(sumrate_drops=table), out)
    expected = "".join(",".join(_dict_format_cell(row[c]) for c in row) + "\n"
                       for row in dicts)
    if not rows:
        assert written == []
        return
    header = "scheme,k_users,seed,rate,power\n"
    assert [p.name for p in written] == ["sumrate_drops.csv"]
    assert written[0].read_text() == header + expected
