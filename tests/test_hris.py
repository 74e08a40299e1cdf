import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hris_sim.battery import BatteryChain
from hris_sim.channel import realize_channels
from hris_sim.comm import LinkBudget
from hris_sim.energy import diode_count
from hris_sim.geometry import Radio, array_response, planar
from hris_sim.hris import (ABSORPTION, HrisConfig, PowerProfile,
                           build_codebook, compose_reflection,
                           direction_unit_vector, idle_config, oracle_config,
                           phase_grid, probe, quantize, sensed_power,
                           steering_config)
from hris_sim.runner import BatteryStats, RunReport
from hris_sim.scenario import MAX_Q_BITS, Scenario

RADIO = Radio(28e9)
HRIS = planar((0.0, 0.0, 6.0), 8, 4, RADIO.wavelength / 2)


def cfg(phases, branch=ABSORPTION):
    return HrisConfig(np.asarray(phases, dtype=complex), branch)


class TestQuantize:
    def test_grid_point_stays(self):
        out = quantize(cfg([1.0 + 0.0j]), 3)
        assert out.phases[0] == 1.0 + 0.0j
        assert out.quantized == 3

    def test_nearest_of_four(self):
        out = quantize(cfg([np.exp(1j * 0.9 * (2 * np.pi / 4))]), 2)
        assert np.isclose(np.angle(out.phases[0]) % (2 * np.pi), np.pi / 2)

    def test_tie_snaps_to_smaller_angle(self):
        step = 2 * np.pi / 4
        out = quantize(cfg([np.exp(1j * 0.5 * step)]), 2)
        assert np.isclose(np.angle(out.phases[0]), 0.0, atol=1e-12)

    def test_wraparound_tie_snaps_to_zero(self):
        step = 2 * np.pi / 4
        out = quantize(cfg([np.exp(1j * 3.5 * step)]), 2)
        assert np.isclose(np.angle(out.phases[0]), 0.0, atol=1e-12)

    def test_q16_max_error_exhaustive(self):
        rng = np.random.default_rng(5)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 256))
        out = quantize(cfg(phases), 16)
        err = np.abs(np.angle(out.phases / phases))
        assert err.max() <= np.pi / 2 ** 16 + 1e-12

    def test_moduli_forced_to_one(self):
        out = quantize(cfg([0.5 * np.exp(1j * 0.3)]), 2)
        assert np.isclose(abs(out.phases[0]), 1.0)

    def test_indices_roundtrip(self):
        rng = np.random.default_rng(9)
        out = quantize(cfg(np.exp(1j * rng.uniform(0, 2 * np.pi, 64))), 2)
        assert np.allclose(out.phases, np.exp(1j * out.indices * np.pi / 2))

    def test_grid_indices_roundtrip_at_every_scenario_depth(self):
        # every q_bits a scenario admits; float64 phases start to lose
        # indices at about 52 bits (hundreds of these 5,002 at 52)
        rng = np.random.default_rng(11)
        for q in range(1, MAX_Q_BITS + 1):
            m = np.r_[0, 2 ** q - 1, rng.integers(0, 2 ** q, 5000)]
            out = quantize(HrisConfig.from_indices(m, q), q)
            assert np.array_equal(out.indices, m), q

    def test_unquantized_config_has_no_indices(self):
        unquantized = cfg([np.exp(1j * 0.1)])
        assert unquantized.indices is None and unquantized.quantized is None
        with pytest.raises(ValueError):
            diode_count(unquantized)

    @settings(deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_quantize_then_indices_roundtrips(self, q_bits, data):
        angles = data.draw(st.lists(
            st.floats(-4 * np.pi, 4 * np.pi, allow_nan=False),
            min_size=1, max_size=64))
        snapped = quantize(cfg(np.exp(1j * np.asarray(angles))), q_bits)
        idx = snapped.indices
        assert idx.min() >= 0 and idx.max() < 2 ** q_bits
        rebuilt = quantize(cfg(np.exp(2j * np.pi * idx / 2 ** q_bits)), q_bits)
        assert np.array_equal(rebuilt.indices, idx)
        assert np.array_equal(rebuilt.phases, snapped.phases)
        direct = HrisConfig.from_indices(idx, q_bits, ABSORPTION)
        assert np.array_equal(direct.phases, snapped.phases)
        assert direct.quantized == snapped.quantized == q_bits


def _reference_quantize_indices(phases, q_bits):
    """The floor/fraction/tie index rule that ``quantize`` replaced."""
    n_levels = 2 ** q_bits
    step = 2.0 * np.pi / n_levels
    x = (np.angle(phases) % (2.0 * np.pi)) / step
    k = np.floor(x).astype(int)
    frac = x - k
    idx = np.where(frac > 0.5, k + 1, k)
    idx = np.where(frac == 0.5, np.where(k + 1 == n_levels, 0, k), idx)
    return idx % n_levels


@settings(deadline=None)
@given(st.integers(1, 16), st.data())
def test_quantize_indices_match_the_reference_rule(q_bits, data):
    step = 2.0 * np.pi / 2 ** q_bits
    angles = data.draw(st.lists(st.one_of(
        st.floats(-4 * np.pi, 4 * np.pi, allow_nan=False),
        st.integers(-2 ** q_bits, 2 ** (q_bits + 1)).map(
            lambda m: (m + 0.5) * step)), min_size=1, max_size=64))
    phases = np.exp(1j * np.asarray(angles))
    assert np.array_equal(quantize(cfg(phases), q_bits).indices,
                          _reference_quantize_indices(phases, q_bits))


class TestFromIndices:
    def test_phases_on_the_grid(self):
        out = HrisConfig.from_indices([0, 1, 2, 3], 2, ABSORPTION)
        assert np.allclose(out.phases, [1, 1j, -1, -1j])
        assert out.quantized == 2 and out.branch == ABSORPTION
        assert np.array_equal(out.indices, [0, 1, 2, 3])

    @pytest.mark.parametrize("indices, q_bits", [([0, 4], 2), ([-1], 2),
                                                 ([0], 0)])
    def test_rejects_indices_off_the_grid(self, indices, q_bits):
        with pytest.raises(ValueError):
            HrisConfig.from_indices(indices, q_bits)

    def test_bit_depth_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            HrisConfig(np.ones(4), ABSORPTION, quantized=2)


def test_configs_and_codebooks_compare_by_identity():
    # the generated dataclass __eq__ raised on the array fields
    a, b = HrisConfig(np.ones(4)), HrisConfig(np.ones(4))
    assert a == a and a != b
    cb = build_codebook(HRIS, RADIO, 4, 1)
    assert cb == cb and cb != build_codebook(HRIS, RADIO, 4, 1)


@pytest.mark.parametrize("make", [
    lambda: BatteryChain(2, 1.0, np.eye(2), 0),
    lambda: realize_channels(Scenario(k_users=2), np.random.default_rng(0)),
    lambda: LinkBudget(np.ones(2), 2.0, np.zeros(2)),
    lambda: planar((0.0, 0.0, 6.0), 2, 2, 0.005),
    lambda: PowerProfile(np.ones(3), 0.5),
    lambda: BatteryStats(np.ones(3), np.ones(3)),
    lambda: RunReport(sumrate_drops=np.ones(3)),
], ids=["BatteryChain", "ChannelSet", "LinkBudget",
        "ArrayGeometry", "PowerProfile", "BatteryStats", "RunReport"])
def test_array_holding_dataclasses_compare_by_identity(make):
    # the generated dataclass __eq__ raised on the array fields
    a, b = make(), make()
    assert a == a and a != b


class TestCodebook:
    def test_table1_codebook_shape(self):
        cb = build_codebook(HRIS, RADIO, 32, 2)
        assert len(cb) == 32
        assert cb.phases.shape == (32, 32) and cb.directions.shape == (32, 2)
        assert len(np.unique(cb.directions, axis=0)) == 32
        grid = phase_grid(2)
        assert np.allclose(np.abs(cb.phases), 1.0)
        angles = np.angle(cb.phases) % (2 * np.pi)
        dist = np.abs(np.exp(1j * angles[..., None]) - np.exp(1j * grid))
        assert dist.min(axis=-1).max() < 1e-9

    def test_broadside_codeword_all_ones(self):
        for q in (1, 2, 6):
            c = steering_config(HRIS, RADIO, 0.0, 0.0, q)
            assert np.allclose(c.phases, 1.0)

    def test_beam_gain_diagonal_dominates(self):
        cb = build_codebook(HRIS, RADIO, 32, 4)
        gains = np.empty((32, 32))
        for j, (az, el) in enumerate(cb.directions):
            p = HRIS.center + 1e3 * direction_unit_vector(az, el)
            a = array_response(HRIS, p, RADIO)
            for i, c in enumerate(cb.phases):
                gains[i, j] = np.abs(np.vdot(c, a))
        assert np.all(np.argmax(gains, axis=0) == np.arange(32))

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            build_codebook(HRIS, RADIO, 0, 2)


class TestSensedPower:
    def test_matched_config_coherent_bound(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        phi = cfg(np.exp(1j * np.angle(v)))
        p = sensed_power(phi, v, eta=0.8, noise_var=1e-11)
        assert np.isclose(p, 0.2 * np.abs(v).sum() ** 2 + 1e-11)

    def test_zero_incident_noise_floor(self):
        phi = cfg(np.ones(8))
        assert sensed_power(phi, np.zeros(8), 0.8, 1e-11) == 1e-11

    def test_full_reflection_leaves_noise_only(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        phi = cfg(np.exp(1j * rng.uniform(0, 2 * np.pi, 8)))
        assert sensed_power(phi, v, eta=1.0, noise_var=1e-11) == 1e-11

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
        p0 = sensed_power(cfg(phi), v, 0.8, 0.0)
        p1 = sensed_power(cfg(phi * np.exp(1j * 1.234)), v, 0.8, 0.0)
        assert np.isclose(p0, p1)

    def test_requires_absorption_branch(self):
        with pytest.raises(ValueError):
            sensed_power(idle_config(8), np.ones(8), 0.8, 1e-11)


class TestProbe:
    noise = 1e-11

    def _incident(self, direction_index, cb, scale=1e-3):
        az, el = cb.directions[direction_index]
        p = HRIS.center + 1e3 * direction_unit_vector(az, el)
        return scale * array_response(HRIS, p, RADIO)

    def test_single_source_recovers_codeword(self):
        cb = build_codebook(HRIS, RADIO, 32, 2)
        v = self._incident(13, cb)
        tau = 0.5 * sensed_power(cfg(cb.phases[13]), v, 0.8, self.noise)
        profile, config = probe(cb, v, 0.8, self.noise, tau=tau)
        assert list(profile.peak_indices) == [13]
        assert np.allclose(config.phases, cb.phases[13])

    def test_argmax_matches_source_for_every_grid_direction(self):
        cb = build_codebook(HRIS, RADIO, 32, 2)
        for j in range(32):
            v = self._incident(j, cb)
            powers = np.array([sensed_power(cfg(c), v, 0.8, 0.0) for c in cb.phases])
            assert int(np.argmax(powers)) == j

    def test_no_source_flagged(self):
        cb = build_codebook(HRIS, RADIO, 32, 2)
        profile, config = probe(cb, np.zeros(32), 0.8, self.noise, tau=1e-9)
        assert not profile.detected
        assert profile.peak_indices.size == 0
        assert np.allclose(config.phases, 1.0)

    def test_two_equal_sources_soft_combination(self):
        cb = build_codebook(HRIS, RADIO, 32, 2)
        v = self._incident(5, cb) + self._incident(26, cb)
        p5 = sensed_power(cfg(cb.phases[5]), v, 0.8, self.noise)
        p26 = sensed_power(cfg(cb.phases[26]), v, 0.8, self.noise)
        tau = 0.8 * min(p5, p26)
        profile, config = probe(cb, v, 0.8, self.noise, tau=tau, weighting="soft")
        assert set(profile.peak_indices) == {5, 26}
        expected = p5 * cb.phases[5] + p26 * cb.phases[26]
        assert np.allclose(config.phases, np.exp(1j * np.angle(expected)))

    def test_adaptive_threshold_is_twice_median(self):
        cb = build_codebook(HRIS, RADIO, 32, 2)
        v = self._incident(8, cb)
        profile, _ = probe(cb, v, 0.8, self.noise)
        powers = np.array([sensed_power(cfg(c), v, 0.8, self.noise)
                           for c in cb.phases])
        assert np.isclose(profile.threshold, 2 * np.median(powers))

    def test_threshold_below_noise_rejected(self):
        cb = build_codebook(HRIS, RADIO, 32, 2)
        with pytest.raises(ValueError):
            probe(cb, np.ones(32), 0.8, 1e-3, tau=1e-6)


def _reference_probe(codebook, incident, eta, noise_var, weighting):
    """The per-codeword sweep and running peak sum that ``probe`` replaced."""
    incident = np.asarray(incident, dtype=complex)
    powers = np.array([float((1.0 - eta) * np.abs(np.vdot(c, incident)) ** 2
                             + noise_var) for c in codebook.phases])
    peaks = np.flatnonzero(powers > 2.0 * float(np.median(powers)))
    weights = np.ones(peaks.size) if weighting == "hard" else powers[peaks]
    combined = np.zeros(codebook.phases.shape[1], dtype=complex)
    for w, i in zip(weights, peaks):
        combined += w * codebook.phases[i]
    return powers, peaks, combined


# 8x4 and 8x8 surfaces with one codeword per element, at Q = 1, 2, 3
SURFACES = {nz: planar((0.0, 0.0, 6.0), 8, nz, RADIO.wavelength / 2)
            for nz in (4, 8)}
CODEBOOKS = {(nz, q): build_codebook(geom, RADIO, 8 * nz, q)
             for nz, geom in SURFACES.items() for q in (1, 2, 3)}


class TestArraySweepMatchesScalarReference:
    noise = 1e-11

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from((4, 8)), st.sampled_from((1, 2, 3)),
           st.sampled_from(("hard", "soft")), st.integers(0, 2 ** 32 - 1),
           st.integers(1, 4))
    def test_probe_is_bit_equal_to_the_codeword_loop(self, nz, q_bits,
                                                     weighting, seed, n_src):
        geom, cb = SURFACES[nz], CODEBOOKS[nz, q_bits]
        rng = np.random.default_rng(seed)
        # a few far-field sources at random directions plus a diffuse part
        v = 1e-4 * (rng.normal(size=geom.n_elements)
                    + 1j * rng.normal(size=geom.n_elements))
        for _ in range(n_src):
            az, el = rng.uniform(-1.5, 1.5), rng.uniform(-0.7, 0.7)
            p = geom.center + 1e3 * direction_unit_vector(az, el)
            v = v + rng.uniform(1e-4, 1e-2) * array_response(geom, p, RADIO)
        powers, peaks, combined = _reference_probe(cb, v, 0.8, self.noise,
                                                   weighting)
        profile, config = probe(cb, v, 0.8, self.noise, weighting=weighting)
        assert np.array_equal(profile.powers, powers)
        assert np.array_equal(profile.peak_indices, peaks)
        if peaks.size:
            assert np.array_equal(config.phases,
                                  np.exp(1j * np.angle(combined)))
        for c, p in zip(cb.phases, powers):
            assert sensed_power(cfg(c), v, 0.8, self.noise) == p

    @settings(deadline=None, max_examples=30)
    @given(st.sampled_from((4, 8)), st.integers(1, 40), st.integers(1, 4))
    def test_codebook_rows_are_the_steering_configs(self, nz, l_codewords,
                                                    q_bits):
        geom = SURFACES[nz]
        cb = build_codebook(geom, RADIO, l_codewords, q_bits)
        assert cb.phases.shape == (l_codewords, geom.n_elements)
        for row, (az, el) in zip(cb.phases, cb.directions):
            expected = steering_config(geom, RADIO, az, el, q_bits)
            assert np.array_equal(row, expected.phases)


class TestComposeAndOracle:
    def test_self_composition_is_identity(self):
        rng = np.random.default_rng(11)
        phi = cfg(np.exp(1j * rng.uniform(0, 2 * np.pi, 32)))
        out = compose_reflection(phi, phi)
        assert np.allclose(out.phases, 1.0)
        assert out.branch == "reflection"

    def test_all_ones_bs_side_returns_conjugate(self):
        rng = np.random.default_rng(12)
        phi_u = cfg(np.exp(1j * rng.uniform(0, 2 * np.pi, 32)))
        out = compose_reflection(cfg(np.ones(32)), phi_u)
        assert np.allclose(out.phases, np.conj(phi_u.phases))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compose_reflection(cfg(np.ones(8)), cfg(np.ones(4)))

    def test_closed_form_matches_channel_oracle(self):
        # composing the two closed-form absorption configs reproduces the
        # direct reflection formula from the channel quantities
        sc = Scenario(k_users=6)
        ch = realize_channels(sc, np.random.default_rng(21))
        h_sum = ch.h.sum(axis=0)
        phi_b = cfg(np.exp(1j * np.angle(ch.a_r_bs)))
        phi_u = cfg(np.exp(1j * np.angle(h_sum)))
        composed = compose_reflection(phi_b, phi_u)
        direct = np.exp(1j * np.angle(np.conj(h_sum) * ch.a_r_bs))
        assert np.allclose(composed.phases, direct)
        assert np.allclose(oracle_config(ch, "weighted").phases, direct)

    def test_oracle_modes_identical_for_single_user(self):
        sc = Scenario(k_users=1)
        ch = realize_channels(sc, np.random.default_rng(22))
        assert np.allclose(oracle_config(ch, "equal").phases,
                           oracle_config(ch, "weighted").phases)

    def test_oracle_modes_differ_and_weighted_tracks_strong_user(self):
        sc = Scenario(k_users=2)
        rng = np.random.default_rng(23)
        ch = realize_channels(sc, rng)
        ch.h[0] *= 30.0  # make user 0 by far the stronger reflected link
        eq = oracle_config(ch, "equal").phases
        wt = oracle_config(ch, "weighted").phases
        assert not np.allclose(eq, wt)
        strong = np.exp(1j * np.angle(np.conj(ch.h[0]) * ch.a_r_bs))
        inner_wt = np.abs(np.vdot(wt, strong))
        inner_eq = np.abs(np.vdot(eq, strong))
        assert inner_wt > inner_eq

    def test_reflected_gain_closed_form_beats_random(self):
        sc = Scenario(k_users=4)
        rng = np.random.default_rng(24)
        ch = realize_channels(sc, rng)
        h_hat = np.conj(ch.h.sum(axis=0)) * ch.a_r_bs
        best = np.abs(np.vdot(oracle_config(ch, "weighted").phases, h_hat))
        random_configs = np.exp(1j * rng.uniform(0, 2 * np.pi, (2000, 32)))
        gains = np.abs(np.conj(random_configs) @ h_hat)
        assert best >= gains.max()

    def test_quantization_gain_monotone_q2_vs_q1(self):
        sc = Scenario(k_users=4)
        gains = {1: [], 2: []}
        for seed in range(120):
            ch = realize_channels(sc, np.random.default_rng(seed))
            h_hat = np.conj(ch.h.sum(axis=0)) * ch.a_r_bs
            theta = oracle_config(ch, "weighted")
            for q in (1, 2):
                tq = quantize(theta, q)
                gains[q].append(np.abs(np.vdot(tq.phases, h_hat)))
        assert np.mean(gains[2]) >= np.mean(gains[1])
