"""Tests of the benchmark itself, on scaled-down inputs (a few seconds each)."""

import json

import pytest

import run
import workloads


@pytest.fixture
def spec():
    return run.load_spec()


@pytest.fixture(autouse=True)
def scratch_work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_run_reports_every_layer_metric(workload, spec):
    result = run.measure(workload, seed=5, seconds=0, trace=True, smoke=True)
    assert result["problems"] == []
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    metrics = run.select_metrics(result, spec)
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    calls = {k: v["value"] for k, v in metrics.items() if k.endswith(".calls")}
    if workload == "sizing":
        assert calls["battery.size_battery.calls"] == 5
        assert metrics["battery.reducible"]["value"] > 0
    else:
        assert calls["channel.realize_channels.calls"] > 0
        assert metrics["runner.emit_csv.rows"]["value"] > 0
    if workload != "sumrate-coverage":
        assert calls["comm.rzf_precoder.calls"] == 0


def test_untraced_smoke_run_reports_end_to_end_metrics(spec):
    result = run.measure("sizing", seed=5, seconds=0, trace=False, smoke=True)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    metrics = run.select_metrics(result, spec)
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_corrupted_csv_byte_counts_as_failed_run(monkeypatch):
    real_spawn = run.spawn

    def spawn_then_corrupt(mode, workload, inputs_path, rep_dir):
        child = real_spawn(mode, workload, inputs_path, rep_dir)
        if mode == "trace":  # the second run of the workload
            path = rep_dir / "out" / "sumrate_summary.csv"
            data = bytearray(path.read_bytes())
            data[-2] ^= 1  # the last digit becomes another digit
            path.write_bytes(bytes(data))
        return child

    monkeypatch.setattr(run, "spawn", spawn_then_corrupt)
    result = run.measure("sumrate-coverage", seed=5, seconds=0, trace=True,
                         smoke=True)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)
    assert any("differ" in p for p in result["problems"])


def test_pinned_outputs_are_compared(tmp_path):
    inputs = workloads.make_inputs("sizing", 5, run.ROOT, tmp_path / "in.json",
                                   smoke=True)
    check = run.OutputCheck("sizing", inputs, pinned=[None] * len(inputs["cases"]))
    (tmp_path / "rep" / "out").mkdir(parents=True)
    (tmp_path / "rep" / "out" / "sizing.json").write_text(json.dumps([None]))
    child = run.Child(tmp_path / "rep", 1.0, 0, 1.0,
                      {"run0": 0.0, "run1": 1.0}, 0.0)
    assert check.problems(child) == ["outputs differ from the pinned outputs"]


def test_sizing_check_rejects_a_capacity_one_state_too_large(tmp_path):
    from hris_sim import battery as bat

    inputs = workloads.make_inputs("sizing", 5, run.ROOT, tmp_path / "in.json",
                                   smoke=True)
    results = [bat.size_battery(bat.NetEnergyDist.gaussian(c["mean"], c["std"]),
                                c["deltas"], inputs["target_ploc"],
                                inputs["gamma"], inputs["s_max"])
               for c in inputs["cases"]]
    results = [None if r is None else list(r) for r in results]
    assert workloads.check_sizing(inputs, results) == []
    i = next(i for i, r in enumerate(results) if r is not None)
    s, delta, _ = results[i]
    results[i] = [s + 1, delta, s * delta]
    assert workloads.check_sizing(inputs, results) == [
        f"case {i}: S={s} at delta {delta:.6g} already meets the target, "
        f"sizing returned {results[i]}"]


def test_reference_ploc_matches_the_chain_model():
    from hris_sim import battery as bat

    for mean, std, s, delta in ((-0.3, 1.0, 40, 0.5), (0.8, 2.0, 7, 1.0),
                                (50.0, 1.0, 3, 1.0)):
        chain = bat.build_chain(bat.NetEnergyDist.gaussian(mean, std), s, delta, 0.1)
        try:
            expected = bat.loss_of_charge(chain)
        except bat.ReducibleChainError:  # all mass ends in the top state
            expected = 0.0
        got = workloads.reference_ploc(mean, std, s, delta, 0.1)
        assert got == pytest.approx(expected, abs=1e-12)


def test_failed_workload_still_prints_the_result_line(monkeypatch, capsys):
    def no_good_run(workload, seed, seconds, trace, smoke=False):
        return run._result(workload, seed, 1, 1, ["0-run: exit code 1"], None)

    monkeypatch.setattr(run, "measure", no_good_run)
    assert run.main(["--workload", "all", "--seed", "5"]) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    n = len(workloads.WORKLOADS)
    assert line == {"correct": False, "attempted": n, "failed": n, "metrics": {}}
