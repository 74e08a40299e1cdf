"""Tour of the propagation layer: array responses, pathloss, blockage, and
one full channel realization for the default scenario.

Run:  python demos/01_geometry_and_channels.py
"""

import numpy as np

from hris_sim import (BlockageField, PathlossModel, Radio, Scenario,
                      array_response, los_probability, pathloss, planar,
                      realize_channels, simulate_blockage, wave_vector)

sc = Scenario()
radio = Radio(sc.fc_hz)
print(f"carrier {sc.fc_ghz} GHz -> wavelength {radio.wavelength * 1e3:.2f} mm, "
      f"element spacing {radio.wavelength / 2 * 1e3:.2f} mm")

hris = planar(sc.hris_position, sc.nx, sc.nz, radio.wavelength / 2)
k = wave_vector(sc.bs_position, sc.hris_position, radio.wavelength)
print(f"\nwave vector toward the BS: {np.round(k, 2)}  (|k| = 2*pi/lambda = "
      f"{np.linalg.norm(k):.1f} rad/m)")

resp = array_response(hris, sc.bs_position, radio)
print(f"HRIS response toward the BS: {hris.n_elements} unit-modulus entries, "
      f"first three phases {np.round(np.angle(resp[:3]), 3)} rad")

# pathloss falls with the square (LoS) or fourth power (NLoS) of distance
model = PathlossModel(sc.gamma0, sc.d0_m, sc.chi_los, sc.chi_nlos)
print("\ndistance   LoS gain    NLoS gain")
for d in (5.0, 10.0, 20.0, 40.0):
    los = pathloss((d, 0, 0), (0, 0, 0), model, sc.chi_los)
    nlos = pathloss((d, 0, 0), (0, 0, 0), model, sc.chi_nlos)
    print(f"{d:6.0f} m   {los:9.2e}   {nlos:9.2e}")

# closed-form LoS probability vs an explicit blocker-dropping simulation
field = BlockageField(sc.blocker_density_per_m2, sc.blocker_height_m,
                      sc.blocker_diameter_m)
rng = np.random.default_rng(0)
print("\nground distance   P(LoS) closed form   blocker dropping (2e4 trials)")
for d in (5.0, 15.0, 30.0, 45.0):
    tx, rx = (0.0, 0.0, 6.0), (d, 0.0, 1.5)
    analytic = los_probability(tx, rx, field)
    sampled = simulate_blockage(tx, rx, field, rng, trials=20000).mean()
    print(f"{d:12.0f} m   {analytic:18.3f}   {sampled:12.3f}")

channels = realize_channels(sc, [np.random.default_rng(1)])[0]
sv = np.linalg.svd(channels.G, compute_uv=False)
print(f"\none drop with K={sc.k_users}: G is {channels.G.shape} with singular "
      f"values {sv[0]:.3f} / {sv[1]:.2e} (rank one)")
print(f"LoS fractions this drop: direct {channels.los_bs_ue.mean():.2f}, "
      f"surface-UE {channels.los_hris_ue.mean():.2f}")
