import numpy as np
import pytest

from hris_sim.channel import realize_channels
from hris_sim.comm import effective_channels, evaluate, rzf_precoder
from hris_sim.hris import HrisConfig, idle_config, oracle_config
from hris_sim.scenario import Scenario


def random_channels(k_users=3, seed=0):
    sc = Scenario(k_users=k_users)
    return sc, realize_channels(sc, np.random.default_rng(seed))


class TestEffectiveChannels:
    def test_eta_zero_gives_direct_channels(self):
        sc, ch = random_channels()
        e = effective_channels(ch, oracle_config(ch, "weighted"), eta=0.0)
        assert np.allclose(e, ch.h_d.T)

    def test_identity_config_pure_reflection(self):
        sc, ch = random_channels(k_users=2)
        ch.h_d[:] = 0.0
        e = effective_channels(ch, idle_config(sc.n_hris_elements), eta=0.7)
        expected = np.sqrt(0.7) * (ch.G.conj().T @ ch.h.T)
        assert np.allclose(e, expected)

    def test_oracle_beats_random_configs_without_direct_path(self):
        sc, ch = random_channels(k_users=1, seed=5)
        ch.h_d[:] = 0.0
        rng = np.random.default_rng(6)
        best = np.linalg.norm(effective_channels(ch, oracle_config(ch, "weighted"), sc.eta))
        for _ in range(1000):
            theta = HrisConfig(np.exp(1j * rng.uniform(0, 2 * np.pi, 32)))
            norm = np.linalg.norm(effective_channels(ch, theta, sc.eta))
            assert best >= norm - 1e-12

    def test_requires_reflection_branch(self):
        sc, ch = random_channels()
        with pytest.raises(ValueError):
            effective_channels(ch, HrisConfig(np.ones(32), "absorption"), 0.8)


class TestRzfPrecoder:
    def test_single_user_matched_filter(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
        prec = rzf_precoder(h, p_total=0.1, noise_var=1e-11)
        w = prec.W[:, 0]
        assert np.isclose(np.linalg.norm(w) ** 2, 0.1)
        corr = np.abs(np.vdot(w, h[:, 0])) / (np.linalg.norm(w) * np.linalg.norm(h))
        assert np.isclose(corr, 1.0)

    def test_orthogonal_columns_closed_form(self):
        # orthogonal equal-norm columns pass through with equal power split
        h = np.zeros((4, 2), dtype=complex)
        h[0, 0] = 2.0
        h[1, 1] = 2.0
        prec = rzf_precoder(h, p_total=0.1, noise_var=1e-11)
        norms = np.linalg.norm(prec.W, axis=0)
        assert np.isclose(norms[0], norms[1])
        assert np.abs(prec.W[0, 1]) < 1e-12 and np.abs(prec.W[1, 0]) < 1e-12

    def test_table1_regularizer_value(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        prec = rzf_precoder(h, p_total=0.1, noise_var=1e-11)
        assert np.isclose(prec.regularizer, 4e-10)

    def test_frobenius_power_normalization(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        prec = rzf_precoder(h, p_total=0.1, noise_var=1e-11)
        assert np.isclose(np.linalg.norm(prec.W) ** 2, 0.1, rtol=1e-9)


class TestEvaluate:
    def test_single_user_matched_filter_snr(self):
        sc, ch = random_channels(k_users=1, seed=9)
        theta = idle_config(sc.n_hris_elements)
        e = effective_channels(ch, theta, eta=0.0)
        prec = rzf_precoder(e, sc.p_watts, sc.noise_watts)
        budget = evaluate(e, ch.h_d, prec, sc.noise_watts)
        expected = sc.p_watts * np.linalg.norm(ch.h_d[0]) ** 2 / sc.noise_watts
        assert np.isclose(budget.sinr[0], expected, rtol=1e-9)
        assert np.isclose(budget.sum_rate, np.log2(1 + expected), rtol=1e-9)
        assert np.isclose(budget.direct_power_fraction[0], 1.0)

    def test_zero_channels_zero_rate(self):
        sc, ch = random_channels(k_users=2)
        ch.h_d[:] = 0.0
        ch.h[:] = 0.0
        ch.G[:] = 0.0
        e = effective_channels(ch, idle_config(sc.n_hris_elements), sc.eta)
        prec = rzf_precoder(np.eye(4, 2, dtype=complex), sc.p_watts, sc.noise_watts)
        budget = evaluate(e, ch.h_d, prec, sc.noise_watts)
        assert np.allclose(budget.sinr, 0.0)
        assert budget.sum_rate == 0.0

    def test_symmetric_users_equal_sinr(self):
        sc, ch = random_channels(k_users=2, seed=4)
        # mirror user 1 onto user 0's channels
        ch.h_d[1] = ch.h_d[0]
        ch.h[1] = ch.h[0]
        theta = oracle_config(ch, "weighted")
        e = effective_channels(ch, theta, sc.eta)
        prec = rzf_precoder(e, sc.p_watts, sc.noise_watts)
        budget = evaluate(e, ch.h_d, prec, sc.noise_watts)
        assert np.isclose(budget.sinr[0], budget.sinr[1], rtol=1e-6)

    def test_sum_rate_invariant_under_user_relabeling(self):
        sc, ch = random_channels(k_users=4, seed=7)
        perm = np.array([2, 0, 3, 1])
        theta = oracle_config(ch, "weighted")

        def rate(c):
            e = effective_channels(c, theta, sc.eta)
            prec = rzf_precoder(e, sc.p_watts, sc.noise_watts)
            return evaluate(e, c.h_d, prec, sc.noise_watts).sum_rate

        base = rate(ch)
        ch.h = ch.h[perm]
        ch.h_d = ch.h_d[perm]
        assert np.isclose(rate(ch), base, rtol=1e-9)

    def test_joint_power_noise_scaling_leaves_sinr(self):
        sc, ch = random_channels(k_users=3, seed=8)
        theta = oracle_config(ch, "weighted")
        e = effective_channels(ch, theta, sc.eta)
        out = []
        for scale in (1.0, 100.0):
            prec = rzf_precoder(e, scale * sc.p_watts, scale * sc.noise_watts)
            out.append(evaluate(e, ch.h_d, prec, scale * sc.noise_watts).sinr)
        assert np.allclose(out[0], out[1], rtol=1e-9)

    def test_eta_zero_independent_of_config(self):
        sc, ch = random_channels(k_users=3, seed=10)
        rng = np.random.default_rng(0)
        rates = []
        for _ in range(3):
            theta = HrisConfig(np.exp(1j * rng.uniform(0, 2 * np.pi, 32)))
            e = effective_channels(ch, theta, 0.0)
            prec = rzf_precoder(e, sc.p_watts, sc.noise_watts)
            rates.append(evaluate(e, ch.h_d, prec, sc.noise_watts).sum_rate)
        assert np.allclose(rates, rates[0])

    def test_oracle_beats_idle_on_average_small_k(self):
        # with spare spatial degrees of freedom the aimed reflection helps
        sums = {"oracle": [], "idle": []}
        sc = Scenario(k_users=2)
        for seed in range(120):
            ch = realize_channels(sc, np.random.default_rng(seed))
            for name in sums:
                theta = oracle_config(ch, "weighted") if name == "oracle" \
                    else idle_config(sc.n_hris_elements)
                e = effective_channels(ch, theta, sc.eta)
                prec = rzf_precoder(e, sc.p_watts, sc.noise_watts)
                sums[name].append(evaluate(e, ch.h_d, prec,
                                           sc.noise_watts).sum_rate)
        assert np.mean(sums["oracle"]) >= np.mean(sums["idle"])

    def test_direct_fraction_in_unit_interval(self):
        sc, ch = random_channels(k_users=5, seed=11)
        theta = oracle_config(ch, "weighted")
        e = effective_channels(ch, theta, sc.eta)
        prec = rzf_precoder(e, sc.p_watts, sc.noise_watts)
        budget = evaluate(e, ch.h_d, prec, sc.noise_watts)
        assert np.all(budget.direct_power_fraction >= 0.0)
        assert np.all(budget.direct_power_fraction <= 1.0)
