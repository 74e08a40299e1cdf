"""Energy self-sufficiency: harvested vs consumed power across surface sizes,
the per-drop power balance in run and idle mode, the battery state-of-charge
chain, loss-of-charge vs capacity, sizing, and a state-of-charge trace with
the idle-mode fallback.

Run:  python demos/04_energy_and_battery.py
"""

import numpy as np

from hris_sim import Scenario, run_energy_experiment
from hris_sim.battery import (NetEnergyDist, mah_to_joules, simulate_trace,
                              size_battery)
from hris_sim.energy import frame_power, idle_harvest_fraction
from hris_sim.runner import battery_drop_stats, step_dist

sc = Scenario(k_users=8, n_drops=40, battery_trace_periods=200000,
              soc_trace_periods=400)

report = run_energy_experiment(sc)
print("surface size sweep (probing-based configs, mean over drops):")
print(f"{'N':>4s} {'Q':>2s} {'harvested':>10s} {'consumed':>10s}")
for r in report.energy_summary:
    print(f"{r['n_elements']:4d} {r['q_bits']:2d} "
          f"{r['mean_harvested_w'] * 1e3:8.2f} mW {r['mean_consumed_w'] * 1e3:8.2f} mW")

print("\nloss-of-charge probability vs capacity (theory | million-period "
      "trace analogue):")
for p_on in sorted({r["p_on_mw"] for r in report.battery_ploc}):
    rows = sorted((r for r in report.battery_ploc if r["p_on_mw"] == p_on),
                  key=lambda r: r["capacity_mah"])
    cells = "  ".join(f"{r['capacity_mah']:.0f}mAh {r['ploc_theory']:.3f}|"
                      f"{r['ploc_empirical']:.3f}" for r in rows[:4])
    print(f"  p_on={p_on} mW: {cells}")

# battery sizing from the measured net-power statistics: the same per-drop
# power balance the energy and battery experiments use
stats = battery_drop_stats(sc)
power = frame_power(stats.harvest_base_w, stats.diode_count, sc.traffic,
                    sc.p_on_watts, sc.controller_run_w)
idle = frame_power(stats.harvest_base_w, 0,
                   idle_harvest_fraction(sc.nx, sc.nz) * sc.traffic,
                   sc.p_on_watts, sc.controller_idle_w)
net = power.net
delta_j = mah_to_joules(sc.delta_mah, sc.battery_voltage)
dist = step_dist(net.mean(), net.std(ddof=1), sc.mc_step_s, delta_j)
print(f"\nper-drop power balance at traffic {sc.traffic}: harvested "
      f"{power.harvested.mean() * 1e3:.2f} mW, consumed "
      f"{power.consumed.mean() * 1e3:.2f} mW (diodes "
      f"{power.diodes.mean() * 1e3:.2f} mW); idle mode "
      f"{idle.net.mean() * 1e3:+.2f} mW net")
print(f"net power over drops: {net.mean() * 1e3:+.2f} mW "
      f"(std {net.std(ddof=1) * 1e3:.2f} mW); per chain step "
      f"{dist.mean:+.0f} J (std {dist.std:.0f} J)")
sizing = size_battery(dist, [delta_j / 2, delta_j], target_ploc=1e-3, gamma=sc.guard_fraction)
if sizing is None:
    print("sizing: infeasible at this consumption level")
else:
    print(f"sizing for p_LoC <= 1e-3: S={sizing.n_states} states of "
          f"{sizing.delta / (3.6 * sc.battery_voltage):.0f} mAh -> capacity "
          f"{sizing.capacity / (3.6 * sc.battery_voltage):.0f} mAh")

# a discharging trace that falls into the idle band and bounces along it
drain = NetEnergyDist.gaussian(-0.8 * delta_j, 0.7 * delta_j)
idle = NetEnergyDist.gaussian(+1.6 * delta_j, 0.4 * delta_j)
cap_j = mah_to_joules(sc.capacity_mah, sc.battery_voltage)
ploc, soc = simulate_trace(drain, cap_j, delta_j, sc.guard_fraction, 400,
                           np.random.default_rng(5), idle_source=idle,
                           initial_soc=cap_j)
soc_mah = soc / (3.6 * sc.battery_voltage)
print(f"\ndrain trace with idle fallback: starts at {sc.capacity_mah:.0f} mAh,"
      f" floor {soc_mah.min():.0f} mAh, fraction of periods at/below guard "
      f"{ploc:.2f}")
print("tail of the trace (mAh):",
      " ".join(f"{v:.0f}" for v in soc_mah[-12:]))
