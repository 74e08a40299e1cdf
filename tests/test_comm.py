import os
import platform
import subprocess
import sys
import threading
from dataclasses import replace
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hris_sim.channel import realize_channels
from hris_sim.comm import effective_channels, evaluate, rzf_precoder
from hris_sim.hris import REFLECTION, HrisConfig, idle_config, oracle_config
from hris_sim.runner import (_EXP_SUMRATE, _probe_codebooks,
                             _reflection_for_scheme, _rng)
from hris_sim.scenario import Scenario, load_scenario

COVERAGE = load_scenario(resources.files("hris_sim").joinpath("data/coverage.json"))


def random_channels(k_users=3, seed=0):
    sc = Scenario(k_users=k_users)
    return sc, realize_channels(sc, [np.random.default_rng(seed)])[0]


def reference_effective_channels(channels, theta, eta):
    """effective_channels as it was before it assembled the result in place."""
    if theta.branch != REFLECTION:
        raise ValueError("effective channel needs a reflection-branch config")
    reflected = channels.G.conj().T @ (theta.phases[:, None] * channels.h.T)
    return channels.h_d.T + np.sqrt(eta) * reflected


def reference_rzf_precoder(h_eff, p_total, noise_var):
    """rzf_precoder in its allocating form, without a reused Gram buffer."""
    if p_total <= 0:
        raise ValueError("total power must be positive")
    m, k = h_eff.shape
    mu = k * noise_var / p_total
    gram = h_eff @ h_eff.conj().T
    gram.flat[::m + 1] += mu
    x = np.linalg.solve(gram, h_eff)
    nrm = np.linalg.norm(x)
    x *= np.sqrt(p_total)
    x /= nrm
    return x


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def outcome(precoder, h, p_total, noise_var):
    """The precoder's result, or the exception it raised."""
    try:
        return precoder(h, p_total, noise_var)
    except Exception as exc:
        return exc


def draw(rng, shape, complex_):
    x = rng.normal(size=shape)
    return x + 1j * rng.normal(size=shape) if complex_ else x


# (M, K, complex) triples, visited in one example so that state kept from one
# shape or dtype would be reused, wrongly, by the next; K runs above M too
SHAPES = st.lists(st.tuples(st.integers(1, 40), st.integers(1, 60),
                            st.booleans()), min_size=2, max_size=5)


@settings(max_examples=60, deadline=None)
@given(shapes=SHAPES, seed=st.integers(0, 2 ** 32 - 1),
       p_total=st.floats(1e-3, 1e3), noise_var=st.floats(1e-13, 1e-3))
@example(shapes=[(40, 10, True), (40, 10, False), (40, 60, True),
                 (7, 3, True), (40, 10, True), (1, 1, False)],
         seed=0, p_total=0.1, noise_var=1e-11)
# a real K < M draw with mu near 4e-16: the first (5, 1) Gram matrix is
# singular to working precision, and the reference raises LinAlgError on it
@example(shapes=[(1, 1, False), (12, 18, False), (5, 1, False)],
         seed=0, p_total=226.0, noise_var=1e-13)
def test_rzf_precoder_equals_reference_bit_for_bit(shapes, seed, p_total,
                                                   noise_var):
    rng = np.random.default_rng(seed)
    cases = [draw(rng, (m, k), c) for m, k, c in shapes + shapes[::-1]]
    got = [outcome(rzf_precoder, h, p_total, noise_var) for h in cases]
    # checked once all calls are done: a result aliasing storage kept between
    # calls would have been overwritten by the calls after it
    for h, w in zip(cases, got):
        want = outcome(reference_rzf_precoder, h, p_total, noise_var)
        assert type(w) is type(want)
        if isinstance(want, Exception):  # the same error where it fails
            assert str(w) == str(want)
            continue
        assert_same_bits(w, want)


@settings(max_examples=60, deadline=None)
@given(shapes=SHAPES, seed=st.integers(0, 2 ** 32 - 1),
       direct_complex=st.booleans(), eta=st.floats(0.0, 1.0))
def test_effective_channels_equal_reference_bit_for_bit(shapes, seed,
                                                        direct_complex, eta):
    rng = np.random.default_rng(seed)
    for m, k, complex_ in shapes:
        n = int(rng.integers(1, 33))
        # a stand-in with the three links effective_channels reads, so G
        # may be of any rank, unlike ChannelSet's
        channels = SimpleNamespace(
            G=draw(rng, (n, m), complex_), h=draw(rng, (k, n), complex_),
            h_d=draw(rng, (k, m), complex_ or direct_complex))
        theta = HrisConfig(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
        assert_same_bits(effective_channels(channels, theta, eta),
                         reference_effective_channels(channels, theta, eta))


@pytest.mark.parametrize("k", [10, 75])
def test_effective_channels_factor_through_the_rank_one_link(k):
    # G^H (theta h^T) = amplitude a_bs (a_r_bs^H theta h^T), so the link's
    # factors on ChannelSet are all that the rank-one form of H needs
    sc = replace(COVERAGE, k_users=k)
    codebooks = _probe_codebooks(sc)
    for drop in range(5):
        ch = realize_channels(sc, [_rng(sc, _EXP_SUMRATE, k, drop)])[0]
        for scheme in sc.schemes:
            theta = _reflection_for_scheme(sc, ch, scheme, codebooks)
            have = effective_channels(ch, theta, sc.eta)
            row = ch.a_r_bs.conj() @ (theta.phases[:, None] * ch.h.T)
            want = ch.h_d.T + np.sqrt(sc.eta) * ch.amplitude * np.outer(ch.a_bs, row)
            err = np.linalg.norm(have - want, axis=0)
            assert np.all(err <= 1e-12 * np.linalg.norm(have, axis=0)), scheme


# A warm M = 128, K = 75 call faults in about 2 pages, all inside
# single-threaded OpenBLAS's solve (0.02 with two threads). Were the 256 KB
# Gram matrix handed back to the kernel after each call, as a trimmed heap
# top or an unmapped block, each call would fault in 64 pages more. Counted
# in a fresh process, whose heap no other test has grown, on one BLAS thread
# as the golden runs and the benchmark pin it.
_FAULTS_PER_CALL = """
import resource
import numpy as np
from hris_sim.comm import rzf_precoder
rng = np.random.default_rng(0)
h = rng.normal(size=(128, 75)) + 1j * rng.normal(size=(128, 75))
rzf_precoder(h, 0.1, 1e-11)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    rzf_precoder(h, 0.1, 1e-11)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap's trim and mmap thresholds are glibc's")
def test_warm_rzf_precoder_faults_in_few_pages():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    env.get("PYTHONPATH")) if p)
    child = subprocess.run([sys.executable, "-c", _FAULTS_PER_CALL], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert float(child.stdout) < 8.0


def test_rzf_precoder_concurrent_calls_equal_the_serial_reference():
    # numpy releases the GIL inside matmul and solve, so threads sharing any
    # storage would overwrite each other's results; more threads than cores
    # and a short switch interval make them interleave
    rng = np.random.default_rng(1)
    inputs = [draw(rng, (48, 12 + 6 * i), True) for i in range(4)]
    serial = [reference_rzf_precoder(h, 0.1, 1e-11) for h in inputs]
    start = threading.Barrier(len(inputs), timeout=30)
    results = [[] for _ in inputs]

    def work(i):
        start.wait()
        for _ in range(40):
            results[i].append(rzf_precoder(inputs[i], 0.1, 1e-11))

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for want, got in zip(serial, results):
        assert len(got) == 40
        for w in got:
            assert_same_bits(w, want)


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
        w = rzf_precoder(h, p_total=0.1, noise_var=1e-11)[:, 0]
        assert np.isclose(np.linalg.norm(w) ** 2, 0.1)
        corr = np.abs(np.vdot(w, h[:, 0])) / (np.linalg.norm(w) * np.linalg.norm(h))
        assert np.isclose(corr, 1.0)

    def test_orthogonal_columns_closed_form(self):
        # orthogonal equal-norm columns pass through with equal power split
        h = np.zeros((4, 2), dtype=complex)
        h[0, 0] = 2.0
        h[1, 1] = 2.0
        w = rzf_precoder(h, p_total=0.1, noise_var=1e-11)
        norms = np.linalg.norm(w, axis=0)
        assert np.isclose(norms[0], norms[1])
        assert np.abs(w[0, 1]) < 1e-12 and np.abs(w[1, 0]) < 1e-12

    def test_table1_regularizer_value(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        w = rzf_precoder(h, p_total=0.1, noise_var=1e-11)
        # mu = K * noise_var / P = 4 * 1e-11 / 0.1
        x = np.linalg.solve(h @ h.conj().T + 4e-10 * np.eye(4), h)
        assert np.allclose(w, np.sqrt(0.1) * x / np.linalg.norm(x),
                           rtol=1e-12, atol=0.0)

    def test_frobenius_power_normalization(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        w = rzf_precoder(h, p_total=0.1, noise_var=1e-11)
        assert np.isclose(np.linalg.norm(w) ** 2, 0.1, rtol=1e-9)


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
        ch.amplitude = 0.0
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
            ch = realize_channels(sc, [np.random.default_rng(seed)])[0]
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


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: rzf_precoder(np.ones((4, 2)), 0.0, 1e-9),
                 "total power must be positive", id="p_total"),
])
def test_argument_check_names_its_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()
