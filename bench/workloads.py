"""Benchmark workloads: seeded inputs and the check of every output.

Three workloads, each run in a child process (see ``child.py``):

* ``sumrate-coverage``: ``hris-sim run --experiment sumrate`` on the packaged
  ``coverage.json`` (128 BS antennas, 400 drops x 5 schemes). The only
  workload where RZF precoding (``comm``) is heavy.
* ``energy-table1``: ``hris-sim run --experiment energy`` on the packaged
  ``table1.json``. The N/Q sweep plus the full battery analysis; dominated by
  ``battery.simulate_trace``. ``comm`` is never called.
* ``sizing``: ``battery.size_battery`` on a seeded set of Gaussian net-energy
  distributions, with the parameters of demo 04's sizing call (target p_LoC
  1e-3, ``s_max`` 200, guard fraction 0.1, delta grid {d/2, d}). The only
  workload that assembles large chains.

The seed changes the scenario seed (CLI workloads) or the drawn distributions
(``sizing``), never the amount of work, so runs on different seeds are
comparable.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

CLI_EXPERIMENTS = {"sumrate-coverage": ("sumrate", "coverage.json"),
                   "energy-table1": ("energy", "table1.json")}
WORKLOADS = (*CLI_EXPERIMENTS, "sizing")

# CSV columns as the CLI writes them; string-valued columns are not parsed
COLUMNS = {
    "sumrate_drops.csv": ("scheme", "k_users", "seed", "drop", "sum_rate_bps_hz"),
    "sumrate_summary.csv": ("scheme", "k_users", "seed", "n_drops",
                            "mean_sum_rate_bps_hz", "ci95_halfwidth"),
    "direct_fraction.csv": ("scheme", "k_users", "seed", "drop", "ue",
                            "direct_power_fraction"),
    "energy_drops.csv": ("scheme", "n_elements", "q_bits", "seed", "drop",
                         "harvested_w", "consumed_w", "consumed_diodes_w"),
    "energy_summary.csv": ("scheme", "n_elements", "q_bits", "seed", "n_drops",
                           "mean_harvested_w", "mean_consumed_w"),
    "battery_ploc.csv": ("scheme", "n_elements", "q_bits", "seed", "p_on_mw",
                         "capacity_mah", "delta_mah", "n_states", "mu_step_j",
                         "sigma_step_j", "ploc_theory", "ploc_empirical",
                         "ploc_stderr", "chain_status", "n_periods"),
    "battery_soc.csv": ("scheme", "n_elements", "q_bits", "seed", "zeta",
                        "capacity_mah", "period", "soc_mah"),
}
TEXT_COLUMNS = {"scheme", "chain_status"}
CHAIN_STATUSES = {"ok", "saturated-charge", "saturated-discharge"}

# sizing problem as demo 04 poses it: target p_LoC, the scenario's default
# guard fraction, and size_battery's default scan limit
SIZING_TARGET = 1e-3
SIZING_GAMMA = 0.1
SIZING_S_MAX = 200
# relative slack of the sizing check's reference p_LoC around the target
SIZING_CHECK_RTOL = 1e-9

# scaled-down inputs for the benchmark's own smoke tests
_SMOKE_SCENARIO = {"n_drops": 2, "k_sweep": [4, 6], "n_sweep": [16],
                   "q_sweep": [1], "p_on_sweep_mw": [0.1],
                   "capacity_sweep_mah": [100.0], "zeta_sweep": [0.5],
                   "battery_trace_periods": 2000, "soc_trace_periods": 50}
_SMOKE_S_MAX = 12


def input_seed(seed: int) -> int:
    """Scenario seeds must be non-negative; fold any integer into 32 bits."""
    return seed % 2 ** 32


def make_inputs(workload: str, seed: int, root: Path, dest: Path,
                smoke: bool = False) -> dict:
    """Write the workload's inputs to ``dest`` (a JSON file); return them."""
    if workload in CLI_EXPERIMENTS:
        _, packaged = CLI_EXPERIMENTS[workload]
        data = json.loads((root / "src" / "hris_sim" / "data" / packaged).read_text())
        data["seed"] = input_seed(seed)
        if smoke:
            data.update(_SMOKE_SCENARIO)
    elif workload == "sizing":
        data = sizing_inputs(seed, smoke)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    dest.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return data


def sizing_inputs(seed: int, smoke: bool = False) -> dict:
    """Seeded Gaussian net-energy distributions with a two-point delta grid.

    One has zero or negative drift, so both deltas scan S up to ``s_max`` and
    none qualifies (almost all of the work); three charge, so the scan stops
    at a small S; one charges so strongly that the CDF underflows and its
    chains are reducible. The mix fixes the work per seed while the values
    change with it.
    """
    import numpy as np

    rng = np.random.default_rng([input_seed(seed), 4])
    cases = []
    for low, high, n, grid in ((-0.5, 0.0, 1, (0.5, 1.0)),
                               (1.0, 3.0, 3, (0.5, 1.0)),
                               (40.0, 60.0, 1, (1.0, 2.0))):
        for _ in range(n):
            std = float(rng.uniform(0.5, 2.0))
            mean = float(rng.uniform(low, high)) * std
            cases.append({"mean": mean, "std": std,
                          "deltas": [g * std for g in grid]})
    return {"cases": cases, "target_ploc": SIZING_TARGET, "gamma": SIZING_GAMMA,
            "s_max": _SMOKE_S_MAX if smoke else SIZING_S_MAX}


def expected_rows(workload: str, scenario: dict) -> dict:
    """Data rows per CSV that follow from the scenario's sweeps."""
    d = scenario["n_drops"]
    if workload == "sumrate-coverage":
        s, ks = len(scenario["schemes"]), scenario["k_sweep"]
        return {"sumrate_drops.csv": s * len(ks) * d,
                "sumrate_summary.csv": s * len(ks),
                "direct_fraction.csv": s * sum(ks) * d}
    nq = len(scenario["n_sweep"]) * len(scenario["q_sweep"])
    return {"energy_drops.csv": nq * d,
            "energy_summary.csv": nq,
            "battery_ploc.csv": len(scenario["p_on_sweep_mw"])
            * len(scenario["capacity_sweep_mah"]),
            "battery_soc.csv": len(scenario["zeta_sweep"])
            * scenario["soc_trace_periods"]}


def csv_digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


def check_csvs(workload: str, scenario: dict, out_dir: Path) -> list:
    """Structural check of a CLI run's CSVs; returns a list of problems."""
    problems = []
    rows_expected = expected_rows(workload, scenario)
    found = sorted(p.name for p in out_dir.glob("*.csv"))
    if found != sorted(rows_expected):
        return [f"CSV files {found}, expected {sorted(rows_expected)}"]
    for name, n_rows in rows_expected.items():
        with (out_dir / name).open(newline="") as fh:
            reader = csv.reader(fh)
            header = tuple(next(reader, ()))
            if header != COLUMNS[name]:
                problems.append(f"{name}: header {header}")
                continue
            numeric = [i for i, c in enumerate(header) if c not in TEXT_COLUMNS]
            status = header.index("chain_status") if "chain_status" in header else None
            count = 0
            for row in reader:
                count += 1
                if len(row) != len(header):
                    problems.append(f"{name}: row {count} has {len(row)} cells")
                    break
                try:
                    bad = not all(math.isfinite(float(row[i])) for i in numeric)
                except ValueError:
                    bad = True
                if bad or (status is not None and row[status] not in CHAIN_STATUSES):
                    problems.append(f"{name}: row {count} not finite/valid: {row}")
                    break
        if count != n_rows:
            problems.append(f"{name}: {count} rows, expected {n_rows}")
    return problems


def reference_ploc(mean: float, std: float, n_states: int, delta: float,
                   gamma: float) -> float:
    """p_LoC of the battery chain, computed here from the Gaussian CDF alone.

    Psi[i, j] = F((j-i+1) delta) - F((j-i) delta), with the clipped tails in
    the end columns; pi solves pi = Psi^T pi, sum(pi) = 1; p_LoC is the mass
    at or below floor(gamma (S-1)). Independent of ``hris_sim.battery``, so a
    fault in the program's chain assembly or solve cannot hide in the check.
    Raises ``ValueError`` when the chain has no unique stationary distribution.
    """
    import numpy as np
    from scipy.special import ndtr

    k = np.arange(n_states)
    steps = k[None, :] - k[:, None]  # j - i
    upper = ndtr(((steps + 1) * delta - mean) / std)
    lower = ndtr((steps * delta - mean) / std)
    psi = upper - lower
    psi[:, 0] = upper[:, 0]
    psi[:, -1] = 1.0 - lower[:, -1]
    a = psi.T - np.eye(n_states)
    a[-1, :] = 1.0
    b = np.zeros(n_states)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        raise ValueError(f"S={n_states}: no unique stationary distribution")
    if np.abs(psi.T @ pi - pi).max() > 1e-9 or pi.min() < -1e-9:
        raise ValueError(f"S={n_states}: no unique stationary distribution")
    return float(pi[: int(np.floor(gamma * (n_states - 1))) + 1].sum())


def check_sizing(inputs: dict, results) -> list:
    """Confirm each returned sizing against ``reference_ploc``.

    A sizing (S, delta) must meet the target, and no grid point with a smaller
    capacity (or the same capacity at a smaller delta) may meet it; in
    particular S-1 at the returned delta does not. ``None`` means no grid
    point up to ``s_max`` meets it. Values within ``SIZING_CHECK_RTOL`` of
    the target count either way.
    """
    target, gamma, s_max = inputs["target_ploc"], inputs["gamma"], inputs["s_max"]
    slack = SIZING_CHECK_RTOL * target
    cases = inputs["cases"]
    if not isinstance(results, list) or len(results) != len(cases):
        return [f"expected {len(cases)} sizing results"]
    problems = []
    for i, (case, res) in enumerate(zip(cases, results)):
        def ploc(s, delta):
            return reference_ploc(case["mean"], case["std"], s, delta, gamma)

        try:
            if res is not None:
                s, delta, capacity = res
                if delta not in case["deltas"] or capacity != (s - 1) * delta:
                    problems.append(f"case {i}: inconsistent sizing {res}")
                    continue
                if ploc(s, delta) > target + slack:
                    problems.append(f"case {i}: S={s} misses the target")
                    continue
            for d in case["deltas"]:
                for s_other in range(2, s_max + 1):
                    if res is not None and ((s_other - 1) * d, d) >= (capacity, delta):
                        break
                    if ploc(s_other, d) <= target - slack:
                        problems.append(
                            f"case {i}: S={s_other} at delta {d:.6g} already "
                            f"meets the target, sizing returned {res}")
                        break
        except ValueError as exc:
            problems.append(f"case {i}: {exc}")
    return problems
