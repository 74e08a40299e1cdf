import dataclasses
import json
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hris_sim.cli import main as cli_main
from hris_sim.scenario import (Scenario, ScenarioError, default_scenario_path,
                               load_scenario, probe_scheme_bits, save_scenario,
                               scenario_from_dict)

_SMALL = Scenario(n_drops=2, k_users=4, k_sweep=(4,), n_sweep=(16,),
                  q_sweep=(1,), p_on_sweep_mw=(0.1,),
                  capacity_sweep_mah=(100.0,), zeta_sweep=(0.5,),
                  battery_trace_periods=100, soc_trace_periods=10)


def test_default_file_reproduces_reference_parameters():
    sc = load_scenario(default_scenario_path())
    assert sc.p_dbm == 20.0
    assert sc.m_bs_antennas == 4
    assert (sc.nx, sc.nz) == (8, 4)
    assert sc.fc_ghz == 28.0
    assert sc.bs_position == (-25.0, 25.0, 6.0)
    assert sc.hris_position == (0.0, 0.0, 6.0)
    assert (sc.area_max[0] - sc.area_min[0],
            sc.area_max[1] - sc.area_min[1]) == (50.0, 50.0)
    assert sc.traffic == 0.5
    assert sc.blocker_density_per_m2 == 0.3
    assert sc.blocker_height_m == 1.8
    assert sc.blocker_diameter_m == 0.6
    assert (sc.n_dl_slots, sc.n_ul_slots) == (8, 3)
    assert sc.codebook_size == 32
    assert sc.q_bits == 2
    assert sc.eta == 0.8
    assert sc.p_on_mw == 0.1
    assert (sc.chi_los, sc.chi_nlos) == (2.0, 4.0)
    assert sc.noise_dbm == -80.0
    assert (sc.d0_m, sc.gamma0) == (1.0, 1.0)
    assert sc.capacity_mah == 400.0
    assert sc.delta_mah == 20.0
    assert sc.guard_fraction == 0.1
    assert sc.controller_run_mw == 4.9
    assert sc.controller_idle_mw == 1.8


def test_defaults_match_packaged_file():
    assert load_scenario(default_scenario_path()) == Scenario()


def test_unit_conversions():
    sc = Scenario()
    assert abs(sc.p_watts - 0.1) < 1e-12
    assert abs(sc.noise_watts - 1e-11) < 1e-24
    assert sc.fc_hz == 28e9
    assert sc.n_hris_elements == 32


def test_roundtrip_stable(tmp_path):
    sc = Scenario(seed=17, k_users=12)
    path = save_scenario(sc, tmp_path / "sc.json")
    again = load_scenario(path)
    assert again == sc
    path2 = save_scenario(again, tmp_path / "sc2.json")
    assert path.read_bytes() == path2.read_bytes()


def test_unknown_key_named(tmp_path):
    data = Scenario().to_dict()
    data["mystery_knob"] = 3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError, match="mystery_knob"):
        load_scenario(path)


def test_missing_field_named(tmp_path):
    data = Scenario().to_dict()
    del data["nx"]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError, match="nx"):
        load_scenario(path)


def test_parse_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"p_dbm": 20.0,\n  "oops"\n}')
    with pytest.raises(ScenarioError, match="line"):
        load_scenario(path)


# json.loads raises a plain ValueError past 4,300 digits: exit 1 with a traceback
def test_integer_past_the_digit_limit_is_a_config_error(tmp_path, capsys):
    text = default_scenario_path().read_text()
    data = json.loads(text)
    path = tmp_path / "long.json"
    path.write_text(text.replace(f'"seed": {data["seed"]}', '"seed": ' + "7" * 5001))
    rc = cli_main(["run", "--config", str(path), "--experiment", "energy",
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "5001 digits" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_validation_errors():
    with pytest.raises(ScenarioError):
        Scenario(eta=1.5)
    with pytest.raises(ScenarioError):
        Scenario(guard_fraction=1.0)
    with pytest.raises(ScenarioError):
        Scenario(chi_los=4.0, chi_nlos=2.0)
    with pytest.raises(ScenarioError):
        Scenario(n_sweep=(30,))  # not divisible by nx
    with pytest.raises(ScenarioError):
        Scenario(blockage_mode="psychic")
    with pytest.raises(ScenarioError):
        scenario_from_dict({})


# each bad entry exited 1 with a traceback partway through the run, or ran to
# the end, before the sweeps were checked entry by entry
@pytest.mark.parametrize("name, bad", [
    ("k_sweep", [0]), ("n_sweep", [0]), ("q_sweep", [0]),
    ("capacity_sweep_mah", [-100.0]), ("p_on_sweep_mw", [-1.0]),
    ("zeta_sweep", [2.0])])
def test_bad_sweep_entry_is_a_config_error(tmp_path, capsys, name, bad):
    data = _SMALL.to_dict()
    data[name] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    rc = cli_main(["run", "--config", str(path), "--experiment", "energy",
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# each case exited 1 with a traceback: a one-state battery from build_chain
# after the whole drop sweep (10 mAh is half a step and rounds to even, to one
# state), the others in the range checks, at the first drop or at chain assembly
@pytest.mark.parametrize("name, bad", [
    ("capacity_sweep_mah", [5.0]), ("capacity_sweep_mah", [100.0, 10.0]),
    ("capacity_mah", 10.0), ("capacity_mah", 1e308),
    ("capacity_sweep_mah", [1e308]), ("capacity_sweep_mah", [1e6]),
    ("delta_mah", 1e-300), ("battery_voltage", 1e308),
    ("probe_threshold_w", 0.0), ("probe_threshold_w", 1e-300),
    ("area_min", [30.0, 0.0]), ("area_max", [25.0, -1.0]),
    ("hris_position", [-25.0, 25.0, 6.0]),
    ("p_dbm", 1e308), ("p_dbm", -1e308), ("noise_dbm", 1e6),
    ("noise_dbm", -1e308),
    # an infinite carrier in Hz gave a zero wavelength: ZeroDivisionError;
    # an infinite wavelength ran sumrate to NaN sum rates with exit 0; at
    # 2e-309 GHz the half-wave spacing overflows the 8-element surface rows
    ("fc_ghz", 1e308), ("fc_ghz", 1e-309), ("fc_ghz", 2e-309),
    # probe-q0, probe-q64 and probe-q1000000 exited 1 with a ValueError or
    # OverflowError traceback; 33 bits ran, and is the first past MAX_Q_BITS
    *(pytest.param("schemes", ["idle", s], id=f"schemes-{s}") for s in
      ("probe-q0", "probe-q33", "probe-q64", "probe-q1000000")),
    ("q_bits", 33), pytest.param("q_sweep", [1, 33], id="q_sweep-33")])
def test_unrunnable_scenario_is_a_config_error(tmp_path, capsys, monkeypatch,
                                               name, bad):
    import hris_sim.runner as runner

    def no_drop(*args):
        raise AssertionError("a drop ran before validation")

    monkeypatch.setattr(runner, "realize_channels", no_drop)
    data = Scenario(n_drops=2, k_users=4, p_on_sweep_mw=(0.1,),
                    battery_trace_periods=100, soc_trace_periods=10).to_dict()
    data[name] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    rc = cli_main(["run", "--config", str(path), "--experiment", "battery",
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_invalid_scheme_rejected():
    for bad in ("not-a-scheme", "probe-q", "probe-q2 ", "probe-q-1", "Idle",
                "probe-q33", "probe-q" + "9" * 5000):
        with pytest.raises(ScenarioError, match="schemes entry"):
            Scenario(schemes=("idle", bad))
    sc = Scenario(schemes=("probe-q1", "probe-q32", "probe-q04", "idle",
                           "oracle-equal-gain", "oracle-weighted"))
    assert [probe_scheme_bits(s) for s in sc.schemes] == [1, 32, 4, None,
                                                          None, None]


# both exited 1 with a TypeError traceback from the range checks
@pytest.mark.parametrize("name, bad", [("nx", "8"), ("k_sweep", ["a"])])
def test_wrong_field_type_is_a_config_error(tmp_path, capsys, name, bad):
    data = json.loads(default_scenario_path().read_text())
    data[name] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    rc = cli_main(["run", "--config", str(path), "--experiment", "sumrate",
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _numbers(path):
    """Every cell of a CSV file that parses as a float."""
    for cell in path.read_text().replace("\n", ",").split(","):
        try:
            yield float(cell)
        except ValueError:
            pass


# half a wavelength at 1e-6 GHz is 150 km, and the mean of the symmetric
# array layout rounded past the centroid check's absolute 1e-12 m: exit 1; at
# 1e-308 and 3e-309 GHz the sum of the layout's offsets overflowed: exit 1
@pytest.mark.parametrize("experiment", ["sumrate", "energy"])
def test_kilohertz_carrier_runs_to_finite_csvs(tmp_path, experiment):
    for fc_ghz in (1e-6, 1e-308, 3e-309):
        path, out = tmp_path / f"{fc_ghz}.json", tmp_path / f"out-{fc_ghz}"
        path.write_text(json.dumps({**_SMALL.to_dict(), "fc_ghz": fc_ghz}))
        assert cli_main(["run", "--config", str(path), "--experiment",
                         experiment, "--out", str(out)]) == 0
        csvs = sorted(out.glob("*.csv"))
        assert csvs and all(math.isfinite(v) for p in csvs
                            for v in _numbers(p))


# each exited 1 with "element offsets must be finite" from the first array
# the run laid out: the half-wave spacing of the carrier overflowed the
# longest array axis, which the carrier alone does not decide
@pytest.mark.parametrize("base, edits, experiment", [
    pytest.param("coverage.json", {"fc_ghz": 5e-308}, "sumrate",
                 id="coverage-m128"),
    *(pytest.param("small", {"fc_ghz": 3e-309, name: 16}, experiment,
                   id=f"small-{name}16-{experiment}")
      for name, experiment in [("nx", "sumrate"), ("nx", "energy"),
                               ("m_bs_antennas", "sumrate")])])
def test_carrier_overflowing_the_longest_array_is_a_config_error(
        tmp_path, capsys, base, edits, experiment):
    data = (_SMALL.to_dict() if base == "small" else json.loads(
        default_scenario_path().with_name(base).read_text()))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**data, **edits}))
    rc = cli_main(["run", "--config", str(path), "--experiment", experiment,
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert all(name in err for name in ("element offsets must be finite",
                                        "fc_ghz", "nx", "nz", "n_sweep",
                                        "m_bs_antennas"))
    assert not (tmp_path / "out").exists()


# the carrier rule checks the outer offset of the longest axis by arithmetic,
# so an n_sweep entry of 8e6 elements, a 1e6-element axis at nx 8 that a
# sumrate run never lays out, costs a Scenario no memory; its layout is 56 MB
def test_scenario_checks_its_longest_axis_in_constant_memory():
    tracemalloc.start()
    try:
        sc = dataclasses.replace(_SMALL, n_sweep=(8_000_000,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sc.n_sweep == (8_000_000,) and 8_000_000 % sc.nx == 0
    assert peak < 1_000_000


# the cases of each run-time guard of a value a run computes: per case the
# experiment, the fields edited in _SMALL and the words the message holds
# besides the edited fields. Before the guards:
# - sum rate: sumrate ran to NaN sum rates with exit 0, a pathloss, power
#   or distance at a float limit making the link budget non-finite;
# - sensed power: each case stopped in step_dist on a NaN harvest, naming
#   mc_step_s and the power fields but not the field behind it;
# - UE box: a box shrunk onto an array at its height puts every UE on the
#   array, and pathloss raised a ValueError from inside the drop: exit 1;
# - net energy: the harvest overflows to inf, and so would its energy per
#   step.
_LINK_EDGES = {"d0_m-1e+308": {"d0_m": 1e308}, "d0_m-1e-300": {"d0_m": 1e-300},
               "ue_height_m-1e+308": {"ue_height_m": 1e308},
               "bs_position-x1e308": {"bs_position": [1e308, 25.0, 6.0]},
               "area_max-x1e308": {"area_max": [1e308, 50.0]}}
_RUN_TIME_FAULTS = {
    "sum rate": [
        pytest.param("sumrate", edits, ("sum rate",), id=name)
        for name, edits in {**_LINK_EDGES, "gamma0-1e+308": {"gamma0": 1e308},
                            "p_dbm--3000.0": {"p_dbm": -3000.0},
                            "noise_dbm-3000.0": {"noise_dbm": 3000.0}}.items()],
    "sensed power": [
        pytest.param(experiment, edits, ("sensed power",),
                     id=f"{name}-{experiment}")
        for name, edits in _LINK_EDGES.items()
        for experiment in ("energy", "battery")],
    "UE box": [
        pytest.param(experiment, {"area_min": corner, "area_max": corner,
                                  "ue_height_m": 6.0}, (array,),
                     id=f"corner{i}-{array}-{experiment}")
        for i, (corner, array) in enumerate([((0.0, 0.0), "hris_position"),
                                             ((-25.0, 25.0), "bs_position")])
        for experiment in ("sumrate", "energy")],
    "net energy": [
        pytest.param(experiment, {"harvester_a_w": 1e308},
                     ("net energy per step is not finite", "mc_step_s"),
                     id=experiment) for experiment in ("energy", "battery")],
    # K < M users give the M x M Gram rank K, and at a high SNR its
    # regularizer mu = K noise / P rounds away on the diagonal
    "RZF Gram": [
        pytest.param("sumrate", {"k_sweep": [k], name: value},
                     ("RZF Gram matrix", "is singular", "m_bs_antennas"),
                     id=f"k{k}-{name}-{value}")
        for k, name, value in [(2, "noise_dbm", -200.0), (2, "p_dbm", 300.0),
                               (2, "d0_m", 1000.0), (2, "gamma0", 1e6),
                               (1, "noise_dbm", -200.0)]]}


def _run_time_fault_test(guard):
    """A test that runs each case of ``guard`` through the CLI and expects
    exit 2, a message holding its words, in the one form of a computed
    value's error with every edited field among the fields it follows
    from, and no --out directory."""
    @pytest.mark.parametrize("experiment, edits, words", _RUN_TIME_FAULTS[guard])
    def test(tmp_path, capsys, experiment, edits, words):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**_SMALL.to_dict(), **edits}))
        rc = cli_main(["run", "--config", str(path), "--experiment",
                       experiment, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert all(word in err for word in (*words, *edits))
        form = re.fullmatch(r"configuration error: .+: it follows from (.+)\n",
                            err)
        assert form and set(edits) <= set(re.split(", | and ", form[1]))
        assert not (tmp_path / "out").exists()
    return test


test_non_finite_sum_rate_is_a_config_error = _run_time_fault_test("sum rate")
test_non_finite_sensed_power_is_a_config_error = _run_time_fault_test(
    "sensed power")
test_ue_box_on_an_array_is_a_config_error = _run_time_fault_test("UE box")
test_cli_overflowing_net_energy_is_a_config_error = _run_time_fault_test(
    "net energy")
test_singular_rzf_gram_is_a_config_error = _run_time_fault_test("RZF Gram")


# JSON's NaN and Infinity load as floats: a NaN p_dbm ran sumrate to nan sum
# rates with exit 0, and an infinite one exited 1 from a singular solve
@pytest.mark.parametrize("name, bad", [
    ("p_dbm", float("nan")), ("p_dbm", float("inf")), ("d0_m", float("-inf")),
    ("probe_threshold_w", float("nan")), ("p_on_sweep_mw", [0.1, float("inf")]),
    ("bs_position", [0.0, float("nan"), 6.0]),
    pytest.param("capacity_mah", 10 ** 400, id="capacity_mah-10**400")])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, name, bad):
    data = Scenario(n_drops=2, k_users=4, k_sweep=(4,), p_on_sweep_mw=(0.1,),
                    battery_trace_periods=100, soc_trace_periods=10).to_dict()
    data[name] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError, match=f"{name}.*finite number"):
        Scenario(**data)
    rc = cli_main(["run", "--config", str(path), "--experiment", "sumrate",
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, bad", [
    ("nx", True), ("nx", 8.0), ("seed", 1.5), ("eta", False), ("p_dbm", None),
    ("probe_threshold_w", "1e-9"), ("bs_hris_always_los", 1),
    ("k_sweep", 10), ("k_sweep", (10.0,)), ("q_sweep", (True,)),
    ("schemes", (1,)), ("bs_position", (0.0, 0.0))])
def test_wrong_field_type_rejected(field, bad):
    with pytest.raises(ScenarioError, match=field):
        Scenario(**{field: bad})


EDGES = (0, 1, -1, 1e-300, -1e-300, 1e308, -1e308, 10 ** 400, math.nan,
         math.inf, -math.inf)


# property-based (MacIver et al., "Hypothesis: A new approach to
# property-based testing", JOSS 4(43), 2019): one field, or one entry of a
# list field, set to an edge value either constructs or fails as a config
# error naming that field, never as another exception
@settings(deadline=None, max_examples=400)
@given(name=st.sampled_from([f.name for f in dataclasses.fields(Scenario)]),
       edge=st.sampled_from(EDGES), data=st.data())
def test_edge_value_constructs_or_names_its_field(name, edge, data):
    values = _SMALL.to_dict()
    value = values[name]
    if isinstance(value, list):
        value[data.draw(st.integers(0, len(value) - 1))] = edge
    else:
        value = edge
    try:
        Scenario(**{**values, name: value})
    except ScenarioError as exc:
        assert name in str(exc)


def test_numpy_scalars_and_integers_for_numbers_accepted():
    sc = Scenario(nx=np.int64(8), p_dbm=20, eta=np.float64(0.8),
                  k_sweep=[np.int64(10)], probe_threshold_w=None)
    assert sc.nx == 8 and sc.k_sweep == (10,)


def test_numbers_in_float_fields_are_stored_as_floats():
    sc = Scenario(p_dbm=20, eta=np.float64(0.8), probe_threshold_w=1,
                  capacity_mah=400, bs_position=(-25, 25, 6),
                  capacity_sweep_mah=[100, 0.5e3], zeta_sweep=(1, 0.5))
    floats = (sc.p_dbm, sc.eta, sc.probe_threshold_w, sc.capacity_mah,
              *sc.bs_position, *sc.capacity_sweep_mah, *sc.zeta_sweep)
    assert all(type(v) is float for v in floats)
    assert sc.capacity_sweep_mah == (100.0, 500.0)
    assert type(Scenario(nx=8).nx) is int


# numpy integers were stored as given, and json.dumps raised a TypeError
def test_numpy_integers_are_stored_as_ints_and_save(tmp_path):
    sc = Scenario(nx=np.int64(8), seed=np.uint32(3), n_sweep=(np.int32(16),),
                  k_sweep=[np.int64(10)])
    assert all(type(v) is int for v in (sc.nx, sc.seed, *sc.n_sweep, *sc.k_sweep))
    path = save_scenario(sc, tmp_path / "sc.json")
    assert load_scenario(path) == sc == Scenario(nx=8, seed=3, n_sweep=(16,),
                                                 k_sweep=(10,))


# scenario files written while the frame period and the CE slot count were
# fields: nothing read either, and both are dropped on load
def _with_retired_fields(sc):
    return {**sc.to_dict(), "period_s": 0.01, "n_ce_slots": 1}


def test_retired_fields_load_with_one_warning(tmp_path, caplog):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(_with_retired_fields(Scenario(seed=3))))
    save_scenario(Scenario(seed=3), new)
    with caplog.at_level(logging.WARNING, logger="hris_sim.scenario"):
        assert load_scenario(old) == load_scenario(new)
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "n_ce_slots, period_s" in caplog.records[0].getMessage()


def test_retired_fields_are_not_scenario_fields():
    for name in ("period_s", "n_ce_slots"):
        with pytest.raises(TypeError):
            Scenario(**{name: 1})


def test_cli_run_with_retired_fields_writes_the_same_bytes(tmp_path):
    small = Scenario(n_drops=2, k_users=4, n_sweep=(16,), q_sweep=(1,),
                     p_on_sweep_mw=(0.1,), capacity_sweep_mah=(100.0,),
                     zeta_sweep=(0.5,), battery_trace_periods=100,
                     soc_trace_periods=10)
    (tmp_path / "old.json").write_text(json.dumps(_with_retired_fields(small)))
    save_scenario(small, tmp_path / "new.json")
    for name in ("old", "new"):
        assert cli_main(["run", "--config", str(tmp_path / f"{name}.json"),
                         "--experiment", "energy",
                         "--out", str(tmp_path / f"out-{name}")]) == 0
    written = sorted(p.name for p in (tmp_path / "out-new").iterdir())
    assert "energy_drops.csv" in written and "scenario.json" in written
    assert sorted(p.name for p in (tmp_path / "out-old").iterdir()) == written
    for name in written:
        assert (tmp_path / "out-old" / name).read_bytes() == \
            (tmp_path / "out-new" / name).read_bytes()
    saved = json.loads((tmp_path / "out-old" / "scenario.json").read_text())
    assert "period_s" not in saved and "n_ce_slots" not in saved


@pytest.mark.parametrize("name", ["table1.json", "coverage.json"])
def test_packaged_files_hold_exactly_the_scenario_fields(name):
    data = json.loads(default_scenario_path().with_name(name).read_text())
    assert set(data) == {f.name for f in dataclasses.fields(Scenario)}


@pytest.mark.parametrize("text", ["[]", "7", '"table1"', "null"])
def test_file_that_is_not_an_object_is_a_config_error(tmp_path, text):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    with pytest.raises(ScenarioError, match="scenario file must hold a JSON object"):
        load_scenario(path)
