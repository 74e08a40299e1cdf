"""Golden hashes: the sha256 of every CSV of small fixed runs.

Criterion 10 compares one run with another, so a change that moves the
numbers the same way in every run still passes it. These hashes pin the
bytes themselves. A change that is meant to move the numbers re-records them
in a commit of its own, with the reason and the summary-level deltas in
CHANGES.md. To print the hashes of the current code:

    PYTHONPATH=src python tests/test_golden.py

The cases run in one child process with BLAS pinned to one thread, as the
benchmark runs them: the 128x128 RZF solve of the coverage case gives other
bits with two OpenBLAS threads than with one.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

from hris_sim.cli import main as cli_main
from hris_sim.scenario import Scenario, load_scenario, save_scenario

ROOT = Path(__file__).resolve().parents[1]
PINNED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}

SMALL = Scenario(n_drops=4, k_users=6, k_sweep=(4, 6), n_sweep=(16, 32),
                 q_sweep=(1, 2), p_on_sweep_mw=(0.1, 0.3, 1.0),
                 capacity_sweep_mah=(100.0, 400.0),
                 battery_trace_periods=5000, soc_trace_periods=100)
# nine drops reach numpy's pairwise summation, which reorders at eight or
# more terms, so a summary reduced along an axis of a 2-D array shows; the
# sweeps and schemes are out of order, so a lost sort of K, of N and Q, or of
# the summary groups shows too. probe-q10 sorts before probe-q2 as a name.
UNSORTED = replace(SMALL, n_drops=9, k_sweep=(6, 4), n_sweep=(32, 16),
                   q_sweep=(2, 10, 1),
                   schemes=("probe-q2", "oracle-weighted", "idle", "probe-q1"),
                   p_on_sweep_mw=(0.3, 0.1), capacity_sweep_mah=(400.0, 100.0),
                   zeta_sweep=(0.8, 0.2))
COVERAGE = load_scenario(resources.files("hris_sim").joinpath("data/coverage.json"))

# case -> (scenario, experiment, workers)
CASES = {
    "sumrate": (SMALL, "sumrate", 1),
    "sumrate-workers2": (SMALL, "sumrate", 2),
    "sumrate-sampled": (replace(SMALL, blockage_mode="sampled"), "sumrate", 1),
    # the BS-HRIS link draws its LoS state after the user links; with the BS
    # below blocker height that draw comes out both ways across the drops
    "sumrate-los-drawn": (replace(SMALL, bs_hris_always_los=False,
                                  bs_position=(-25.0, 25.0, 1.0)),
                          "sumrate", 1),
    "energy": (SMALL, "energy", 1),
    # 64 elements at one bit: soft combining of the probed peaks nearly
    # cancels, so the quantized configs and their diode counts depend on the
    # last bits of every sensed power
    "energy-n64-q1": (replace(SMALL, n_sweep=(64,), q_sweep=(1,), n_drops=2),
                      "energy", 1),
    # the packaged 128-antenna scenario at a small drop count
    "sumrate-coverage-small": (replace(COVERAGE, n_drops=2), "sumrate", 1),
    "sumrate-unsorted": (UNSORTED, "sumrate", 1),
    "energy-unsorted": (UNSORTED, "energy", 1),
    # a point swept twice and the own 32-element 2-bit surface off the
    # sweep, mapped by two workers
    "energy-repeat-workers2": (replace(SMALL, n_sweep=(32, 16, 32),
                                       q_sweep=(1,)), "energy", 2),
    # full traffic and a zero diode draw saturate the charging chains; with
    # no idle controller draw and eight-week steps the idle-mode harvest
    # lifts the low-traffic SoC trace off empty one state at a time
    "battery": (replace(SMALL, n_drops=6, traffic=1.0,
                        p_on_sweep_mw=(0.0, 0.1, 0.3, 1.0),
                        controller_idle_mw=0.0, mc_step_s=8 * 604800.0),
                "battery", 1),
    # a prime trace length leaves a partial block in the trace, and at the
    # one-step capacity (two states) most steps of the near-balanced
    # two-week drifts jump past either end of the battery
    "battery-odd-periods": (replace(SMALL, battery_trace_periods=4999,
                                    capacity_sweep_mah=(20.0, 100.0),
                                    p_on_sweep_mw=(0.215, 0.22, 0.225),
                                    mc_step_s=2 * 604800.0),
                            "battery", 1),
    # 2^21 + 17 periods: two whole 2^20-period walk segments, then one block
    # and one trailing period; at 0.225 mW both traces cross the guard, at
    # an int8 top (6 states) and an int16 top (71 states)
    "battery-multi-segment": (replace(SMALL, battery_trace_periods=2 ** 21 + 17,
                                      p_on_sweep_mw=(0.225,),
                                      capacity_sweep_mah=(100.0, 1400.0)),
                              "battery", 1),
}

# recorded with numpy 2.4.6 and scipy 1.17.1, before the energy accounting,
# codebook builds and saturated-drift rule each moved to a single code path;
# energy-n64-q1 and sumrate-coverage-small recorded later, with the same
# versions, before the codebook became one (L, N) array of codewords;
# battery-odd-periods recorded with the same versions before the battery
# trace and chain assembly were vectorized; sumrate-los-drawn recorded with
# the same versions before channel realization was stacked over the users.
# sumrate-coverage-small was first recorded with two BLAS threads and is
# re-recorded with one, the count every case now runs with; sumrate-unsorted
# and energy-unsorted recorded with the same versions before the report
# sections became structured arrays; energy-repeat-workers2 recorded with the
# same versions, under the SkylakeX OpenBLAS kernel, before the energy run
# mapped all its surfaces in one pass; battery-multi-segment recorded with
# the same versions before each walk segment drew its own chunks
GOLDEN = {
    "battery": {
        "battery_ploc.csv":
            "28e1e0ff91bcffe40b3c72d781e5a36abaed71aed95b1e40f8b037a8fc60bbbe",
        "battery_soc.csv":
            "da77ea4168bd5d5c9ffced723c0bb3a5f27cfe4696aa8d832354e818be24bdec",
    },
    "battery-multi-segment": {
        "battery_ploc.csv":
            "99cd822773763680efdebe5abb247d828f083da1bc692a87512c1b28ae7357ec",
        "battery_soc.csv":
            "c64c6339fe127febb3a19fd8b20252aee5beb43d5b9cc99d1cf83ef756b220a5",
    },
    "battery-odd-periods": {
        "battery_ploc.csv":
            "64923a11ab79c3863a626e09ee61d81eaf53d93c0ff1c05c44cd1da5b312b38c",
        "battery_soc.csv":
            "d8bfa41a4922263f501f9dabb3f5144f5bfd17aa7495231531a513bf59e2544f",
    },
    "energy": {
        "battery_ploc.csv":
            "f28947c7ea0ca77d4492fe96c0c68c7458e3074667012be749bfae96eddd27bd",
        "battery_soc.csv":
            "c64c6339fe127febb3a19fd8b20252aee5beb43d5b9cc99d1cf83ef756b220a5",
        "energy_drops.csv":
            "0c19aef8a206bb9afbb4786dfac6da3fb8adfbb7c870eeea038cc0d9d50e7ff3",
        "energy_summary.csv":
            "d8b25f9d3b32f2263ebcbdbc919c19f45856dbb320570e98723de08a60363730",
    },
    "energy-n64-q1": {
        "battery_ploc.csv":
            "a0bcd5e819277c0d9e4fa4696310da99e53c7006749881032d146073bf13d0eb",
        "battery_soc.csv":
            "c64c6339fe127febb3a19fd8b20252aee5beb43d5b9cc99d1cf83ef756b220a5",
        "energy_drops.csv":
            "54496a1c7c37cb9f317b24ae2558fee1141ca7fc55d6a4bbc6111e6a17a37d32",
        "energy_summary.csv":
            "5ed4591f71279de77b6641cf451fa630df9b6143df54121c12f351ff6d788331",
    },
    "energy-repeat-workers2": {
        "battery_ploc.csv":
            "f28947c7ea0ca77d4492fe96c0c68c7458e3074667012be749bfae96eddd27bd",
        "battery_soc.csv":
            "c64c6339fe127febb3a19fd8b20252aee5beb43d5b9cc99d1cf83ef756b220a5",
        "energy_drops.csv":
            "1bd3bae489f85caa7df41ab3222a18d2f78497cfb495c806edb4fb01612943e8",
        "energy_summary.csv":
            "3032f0e0e6045ec05e0e6689e745373a91eca8928c208c3a158c4ae499c3f9d1",
    },
    "energy-unsorted": {
        "battery_ploc.csv":
            "0c5cdf5780deeeac1fb722bc191fcdc4ceee877d1abcd110cfb0aee5aac5995a",
        "battery_soc.csv":
            "2adcd321602615a4ca99b7278fdda5e0b1db95e200dc24272a138ece8574d0d7",
        "energy_drops.csv":
            "304a9eb939d6da882a7155eda50de8307551f6b0eb41b9f1e73921c01156dcac",
        "energy_summary.csv":
            "ac7530a88e91c32971cff1e41bdb1a334a6640f2e8773dba5b83fde98988e4ac",
    },
    "sumrate": {
        "direct_fraction.csv":
            "f373707e038fefdc1fd523c4da5b53ecaf3c6bd2a5f1840b297f05b7d7400ff6",
        "sumrate_drops.csv":
            "33c176a1a9dfc2879a00c3b8ee6dbfb6120099b35919425132bcf693101a16ef",
        "sumrate_summary.csv":
            "e8e26887467790af95305aca59f7ae4d1219b0b94dc2ad51d3ca2f5a2f7e4555",
    },
    "sumrate-coverage-small": {
        "direct_fraction.csv":
            "e54034173cb498d0168a8a5d45c6234901f76c092da0fba43b426ab5102a5694",
        "sumrate_drops.csv":
            "94caa0cd72cf51f0942804b9eadb2d3d914154ecfdf01611e76b7f622b4d8a7d",
        "sumrate_summary.csv":
            "0cb072a94991701ac920f489e1635ef3f9c24bb95776f4e5673105bb85637e4c",
    },
    "sumrate-los-drawn": {
        "direct_fraction.csv":
            "f0ab197a7fac1bc42717dab185b7f25065750327385aa85a4c4a584940fef8a2",
        "sumrate_drops.csv":
            "13c3e923030265ee2bdffad69848c51be327b380f66db84067dd4eeffda670b9",
        "sumrate_summary.csv":
            "1f9a153a905ac49fd69effd2dab13b98a2dead429ff89f52b02b0eeac6b4f10d",
    },
    "sumrate-sampled": {
        "direct_fraction.csv":
            "ecd40a38ab1bdac792140292400ee6b4bd5750be730bac510ad58f8d938f12fc",
        "sumrate_drops.csv":
            "2b4bfebbf8766543520bed67b93e5252c83781b86c0294d3b3dd1dafbb623bdb",
        "sumrate_summary.csv":
            "48cfac23320a1f99054d5bd946103d13a532324a9c288351a63eff0fb84eeddb",
    },
    "sumrate-unsorted": {
        "direct_fraction.csv":
            "3139f0bfd993e3459348ed78093309140f9d34f275cfb751372ba22b0cad3332",
        "sumrate_drops.csv":
            "4bbbf014be64c9632bed99c33d51c9e4b3d6d28bfea74d4a97705e0dd37f3928",
        "sumrate_summary.csv":
            "8befcdd3bcef18d0cd832159b3347cc060db0fd8bc2226ff7c53e954bd367adc",
    },
    "sumrate-workers2": {
        "direct_fraction.csv":
            "f373707e038fefdc1fd523c4da5b53ecaf3c6bd2a5f1840b297f05b7d7400ff6",
        "sumrate_drops.csv":
            "33c176a1a9dfc2879a00c3b8ee6dbfb6120099b35919425132bcf693101a16ef",
        "sumrate_summary.csv":
            "e8e26887467790af95305aca59f7ae4d1219b0b94dc2ad51d3ca2f5a2f7e4555",
    },
}


def csv_hashes(case: str, tmp_dir: Path) -> dict:
    scenario, experiment, workers = CASES[case]
    cfg = tmp_dir / "scenario-in.json"
    save_scenario(scenario, cfg)
    out = tmp_dir / "out"
    rc = cli_main(["run", "--config", str(cfg), "--experiment", experiment,
                   "--out", str(out), "--workers", str(workers)])
    assert rc == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))}


def pinned_hashes(cases) -> dict:
    """Hashes of ``cases``, computed in a child with BLAS on one thread."""
    env = dict(os.environ, **PINNED_BLAS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, __file__, "--in-process", *cases],
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def hashes(request):
    selected = [item.callspec.params["case"] for item in request.session.items
                if item.originalname == "test_csv_bytes_match_golden_hashes"]
    return pinned_hashes(selected)


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_bytes_match_golden_hashes(case, hashes):
    assert hashes[case] == GOLDEN[case]


if __name__ == "__main__":
    if sys.argv[1:2] == ["--in-process"]:
        found = {}
        with tempfile.TemporaryDirectory() as tmp:
            for name in sys.argv[2:]:
                case_dir = Path(tmp) / name
                case_dir.mkdir()
                with contextlib.redirect_stdout(io.StringIO()):
                    found[name] = csv_hashes(name, case_dir)
        print(json.dumps(found))
    else:
        for name, found in pinned_hashes(sorted(CASES)).items():
            print(f'    "{name}": {{')
            for csv_name, digest in found.items():
                print(f'        "{csv_name}":\n            "{digest}",')
            print("    },")
