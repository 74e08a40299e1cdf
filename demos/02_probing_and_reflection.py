"""The self-configuration loop: sweep the probing codebook, detect power
peaks, combine them into absorption configs, and compose the reflection
config -- then compare against the perfect-CSI closed form.

Run:  python demos/02_probing_and_reflection.py
"""

import numpy as np

from hris_sim import (Radio, Scenario, build_codebook, compose_reflection,
                      oracle_config, planar, probe, realize_channels,
                      sensed_power)
from hris_sim.hris import incident_from_bs, incident_from_ues, quantize

sc = Scenario(k_users=8)
radio = Radio(sc.fc_hz)
hris = planar(sc.hris_position, sc.nx, sc.nz, radio.wavelength / 2)
codebook = build_codebook(hris, radio, sc.codebook_size, sc.q_bits)
print(f"codebook: {len(codebook)} codewords, {sc.q_bits}-bit phases, "
      f"grid {sc.nx} azimuths x {sc.nz} elevations")

channels = realize_channels(sc, [np.random.default_rng(7)])[0]

# probing sub-slot 1: the BS sends a pilot beamformed at the surface
v_bs = incident_from_bs(channels, sc.p_watts)
profile_b, phi_b = probe(codebook, v_bs, sc.eta, sc.noise_watts)
print(f"\nBS sweep: peak codewords {profile_b.peak_indices.tolist()} "
      f"(threshold {profile_b.threshold:.2e} W)")
top = int(np.argmax(profile_b.powers))
az, el = codebook.directions[top]
print(f"strongest codeword {top} points at azimuth {np.degrees(az):+.1f} deg, "
      f"elevation {np.degrees(el):+.1f} deg")

# probing sub-slot 2: all UEs send pilots simultaneously
v_ue = incident_from_ues(channels, sc.p_watts)
profile_u, phi_u = probe(codebook, v_ue, sc.eta, sc.noise_watts)
print(f"UE sweep: {profile_u.peak_indices.size} peaks "
      f"{profile_u.peak_indices.tolist()}")

theta = compose_reflection(phi_b, phi_u, sc.q_bits)
oracle = oracle_config(channels, "weighted")
h_hat = np.conj(channels.h.sum(axis=0)) * channels.a_r_bs
gain = lambda cfg: np.abs(np.vdot(cfg.phases, h_hat))
print(f"\nreflected-path gain |theta^H h_hat|:")
print(f"  probed, {sc.q_bits}-bit quantized : {gain(theta):.4e}")
print(f"  perfect CSI, quantized          : {gain(quantize(oracle, sc.q_bits)):.4e}")
print(f"  perfect CSI, continuous (bound) : {gain(oracle):.4e}")

# the sensed power the harvester would see under the probed configs
p_b = sensed_power(quantize(phi_b, sc.q_bits), v_bs, sc.eta, sc.noise_watts)
p_u = sensed_power(quantize(phi_u, sc.q_bits), v_ue, sc.eta, sc.noise_watts)
print(f"\nabsorbed power feeding the harvester: BS slots {p_b * 1e3:.2f} mW, "
      f"UE slots {p_u * 1e3:.2f} mW")
