from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import linalg, sparse
from scipy.sparse.csgraph import connected_components
from scipy.stats import norm

from hris_sim import battery
from hris_sim.battery import (BatteryChain, BatterySizing, NetEnergyDist,
                              ReducibleChainError, _closed_classes, build_chain,
                              loss_of_charge, mah_to_joules, ploc_standard_error,
                              resolve_loss_of_charge, simulate_trace,
                              size_battery, states_for_capacity, stationary,
                              stationary_power_iteration)


def two_point_dist(lo, hi, delta):
    """dE is lo*delta or hi*delta with equal probability; atoms off the grid."""
    a, b = lo * delta, hi * delta

    def cdf(x):
        return np.where(x > a, 0.5, 0.0) + np.where(x > b, 0.5, 0.0)

    return NetEnergyDist(mean=(a + b) / 2, std=(b - a) / 2, cdf=cdf,
                         sampler=lambda rng, n: np.where(rng.uniform(size=n) < 0.5, a, b))


class TestUnitsAndShape:
    def test_table1_state_count(self):
        assert states_for_capacity(400.0, 20.0) == 21
        assert states_for_capacity(mah_to_joules(400.0), mah_to_joules(20.0)) == 21

    def test_mah_joules_roundtrip(self):
        assert np.isclose(mah_to_joules(20.0), 20e-3 * 3600 * 3.7)

    def test_capacity_property(self):
        chain = build_chain(NetEnergyDist.gaussian(0.0, 1.0), 21, 20.0, 0.1)
        assert chain.capacity == 400.0
        assert chain.guard_state == 2


class TestBuildChain:
    def test_near_deterministic_is_rejected_as_reducible(self):
        dist = NetEnergyDist.gaussian(0.0, 1e-12)
        chain = build_chain(dist, 5, 1.0, 0.0)
        with pytest.raises(ReducibleChainError):
            stationary(chain)

    def test_s2_symmetric_half_half(self):
        dist = NetEnergyDist.gaussian(0.0, 100.0)
        chain = build_chain(dist, 2, 1.0, 0.0)
        pi = stationary(chain)
        assert np.allclose(pi, [0.5, 0.5], atol=5e-3)

    def test_rows_stochastic_over_grid(self):
        for s in (2, 3, 8, 21, 60):
            for mu, sigma in ((0.0, 1.0), (2.0, 0.5), (-1.0, 3.0)):
                chain = build_chain(NetEnergyDist.gaussian(mu, sigma), s, 1.0, 0.1)
                assert np.abs(chain.psi.sum(axis=1) - 1.0).max() <= 1e-12
                assert chain.psi.min() >= 0.0

    def test_interior_transitions_match_cdf_differences(self):
        dist = NetEnergyDist.gaussian(0.3, 1.7)
        delta = 2.5
        chain = build_chain(dist, 7, delta, 0.0)
        for i in range(7):
            for j in range(1, 6):
                expected = dist.cdf((j - i + 1) * delta) - dist.cdf((j - i) * delta)
                assert np.isclose(chain.psi[i, j], expected, atol=1e-15)
            assert np.isclose(chain.psi[i, 0], dist.cdf((1 - i) * delta))
            assert np.isclose(chain.psi[i, 6], 1 - dist.cdf((6 - i) * delta))


class TestStationary:
    def test_symmetric_reflecting_walk_uniform(self):
        # +-0.5 delta jumps with equal probability: doubly stochastic chain
        dist = two_point_dist(-0.5, 1.5, 1.0)
        chain = build_chain(dist, 9, 1.0, 0.0)
        pi = stationary(chain)
        assert np.allclose(pi, 1.0 / 9, atol=1e-12)

    def test_positive_drift_mass_on_top(self):
        dist = NetEnergyDist.gaussian(2.0, 0.5)
        chain = build_chain(dist, 12, 1.0, 0.1)
        pi = stationary(chain)
        assert pi[-1] > 0.5
        # independent solve: null space of (Psi^T - I)
        ns = linalg.null_space(chain.psi.T - np.eye(12))
        assert ns.shape[1] == 1
        pi_ref = np.abs(ns[:, 0]) / np.abs(ns[:, 0]).sum()
        assert np.abs(pi - pi_ref).max() < 1e-10

    def test_residual_below_tolerance(self):
        chain = build_chain(NetEnergyDist.gaussian(0.2, 1.3), 30, 1.0, 0.1)
        pi = stationary(chain)
        assert np.abs(chain.psi.T @ pi - pi).max() < 1e-10

    def test_two_methods_agree(self):
        chain = build_chain(NetEnergyDist.gaussian(0.1, 1.1), 25, 1.0, 0.1)
        a = stationary(chain)
        b = stationary_power_iteration(chain)
        assert np.abs(a - b).max() < 1e-8


class TestLossOfCharge:
    def test_charging_regime_tiny_ploc(self):
        chain = build_chain(NetEnergyDist.gaussian(3.0, 0.6), 15, 1.0, 0.0)
        assert loss_of_charge(chain) < 1e-3

    def test_guard_at_top_gives_one(self):
        chain = build_chain(NetEnergyDist.gaussian(0.5, 1.0), 10, 1.0, 0.0)
        chain.guard_state = 9
        assert np.isclose(loss_of_charge(chain), 1.0)

    def test_monotone_decreasing_in_capacity(self):
        # growing capacity sweep in the charging-feasible regime
        dist = NetEnergyDist.gaussian(16.0, 24.0)
        plocs = []
        for cap in range(100, 900, 100):
            s = states_for_capacity(float(cap), 20.0)
            plocs.append(loss_of_charge(build_chain(dist, s, 20.0, 0.1)))
        assert all(a >= b - 1e-15 for a, b in zip(plocs, plocs[1:]))
        assert plocs[-1] < plocs[0]

    def test_ploc_non_increasing_in_drift(self):
        sigma = 1.0
        plocs = [loss_of_charge(build_chain(NetEnergyDist.gaussian(mu, sigma),
                                            15, 1.0, 0.1))
                 for mu in (-0.5, 0.0, 0.5, 1.0)]
        assert all(a >= b for a, b in zip(plocs, plocs[1:]))


class TestSaturatedChains:
    # delta is 10 std: P[dE >= delta] rounds to 0, so every step is 0 or -1
    # and state 0 is the one closed class, though the mean is positive
    def test_positive_mean_that_only_drains_is_saturated_discharge(self):
        dist = NetEnergyDist.gaussian(0.1, 1.0)
        chain = build_chain(dist, 5, 10.0, 0.1)
        with pytest.raises(ReducibleChainError):
            stationary(chain)
        assert resolve_loss_of_charge(chain) == (1.0, "saturated-discharge")
        ploc, _ = simulate_trace(dist, chain.capacity, 10.0, 0.1, 10 ** 4,
                                 np.random.default_rng(0))
        assert ploc > 0.99

    def test_positive_mean_that_only_drains_has_no_battery_size(self):
        dist = NetEnergyDist.gaussian(0.1, 1.0)
        assert size_battery(dist, [10.0], 1e-3, 0.1, s_max=20) is None

    @pytest.mark.parametrize("mean, want", [
        (50.0, (0.0, "saturated-charge")), (-50.0, (1.0, "saturated-discharge"))])
    def test_closed_class_at_an_end_decides(self, mean, want):
        chain = build_chain(NetEnergyDist.gaussian(mean, 1.0), 5, 1.0, 0.1)
        assert resolve_loss_of_charge(chain) == want


class TestSizing:
    def test_strong_positive_drift_minimal_battery(self):
        dist = NetEnergyDist.gaussian(10.0, 1.0)
        result = size_battery(dist, [1.0, 2.0], target_ploc=0.01, gamma=0.0)
        assert result is not None
        assert result.n_states == 2 and result.delta == 1.0
        assert result.capacity == 1.0

    def test_strong_negative_drift_infeasible(self):
        dist = NetEnergyDist.gaussian(-10.0, 1.0)
        assert size_battery(dist, [1.0, 5.0, 20.0], 0.01, 0.1) is None

    def test_capacity_non_increasing_in_target(self):
        dist = NetEnergyDist.gaussian(1.0, 1.0)
        caps = []
        for target in (0.1, 0.01, 0.001):
            result = size_battery(dist, [1.0, 2.0], target, 0.1)
            caps.append(np.inf if result is None else result.capacity)
        assert all(a <= b for a, b in zip(caps, caps[1:]))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            size_battery(NetEnergyDist.gaussian(1.0, 1.0), [], 0.01, 0.1)


class TestTrace:
    def test_deterministic_ramp(self):
        n = 40
        stream = np.full(n, 5.0)  # exactly +delta per period
        ploc, soc = simulate_trace(stream, capacity=50.0, delta=5.0, gamma=0.0,
                                   n_periods=n, rng=np.random.default_rng(0),
                                   initial_soc=0.0)
        assert soc[9] == 50.0
        assert np.all(soc[9:] == 50.0)
        assert np.all(np.diff(soc[:10]) == 5.0)

    def test_seeded_rerun_identical(self):
        dist = NetEnergyDist.gaussian(1.0, 10.0)
        a = simulate_trace(dist, 100.0, 5.0, 0.1, 5000, np.random.default_rng(7))
        b = simulate_trace(dist, 100.0, 5.0, 0.1, 5000, np.random.default_rng(7))
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    def test_soc_stays_in_range(self):
        dist = NetEnergyDist.gaussian(0.0, 30.0)
        _, soc = simulate_trace(dist, 100.0, 5.0, 0.1, 20000,
                                np.random.default_rng(3))
        assert soc.min() >= 0.0 and soc.max() <= 100.0

    def test_agrees_with_chain_over_million_periods(self):
        dist = NetEnergyDist.gaussian(15.0, 110.0)
        delta, cap, gamma = 100.0, 1500.0, 0.1
        chain = build_chain(dist, states_for_capacity(cap, delta), delta, gamma)
        theory = loss_of_charge(chain)
        se = ploc_standard_error(chain, 10 ** 6)
        empirical, _ = simulate_trace(dist, cap, delta, gamma, 10 ** 6,
                                      np.random.default_rng(42),
                                      burn_in=10 ** 4)
        assert abs(empirical - theory) <= 3 * se

    def test_step_near_the_int64_limit_pins_the_trace_full(self):
        # 2^63 - 1024 is the largest float below 2^63: added unclipped to a
        # state above 1023 it wraps around to a negative int64
        ploc, soc = simulate_trace(np.array([2.0 ** 63 - 1024, 0.0]), 2000.0,
                                   1.0, 0.1, 2, np.random.default_rng(0))
        assert ploc == 0.0
        assert np.array_equal(soc, [2000.0, 2000.0])

    @pytest.mark.parametrize("idle", [False, True])
    def test_non_finite_stream_is_rejected(self, idle):
        bad = np.concatenate((np.full(20, np.nan), np.full(20, np.inf)))
        good = np.zeros(40)
        active, idle_source = (good, bad) if idle else (bad, None)
        with pytest.raises(ValueError, match="non-finite net energies "
                                             "inf, nan in 40 of 40 periods"):
            simulate_trace(active, 100.0, 5.0, 0.1, 40,
                           np.random.default_rng(0), idle_source=idle_source)

    def test_non_finite_samples_are_rejected(self):
        dist = NetEnergyDist(0.0, 1.0, cdf=lambda x: x,
                             sampler=lambda rng, n: np.r_[np.zeros(n - 1), -np.inf])
        with pytest.raises(ValueError, match="-inf in 1 of 50 periods"):
            simulate_trace(dist, 100.0, 5.0, 0.1, 50, np.random.default_rng(0))

    def test_idle_source_engages_below_guard(self):
        # harsh active drain, generous idle recharge: the trace must bounce
        # off the guard band instead of pinning at zero
        active = np.full(4000, -30.0)
        idle = np.full(4000, +30.0)
        _, soc = simulate_trace(active, 100.0, 10.0, 0.3, 4000,
                                np.random.default_rng(1), idle_source=idle,
                                initial_soc=100.0)
        assert soc.min() >= 0.0
        states = soc / 10.0
        assert (states <= 3).any() and (states >= 4).any()
        # hysteresis cycle: drain to the guard band, recharge two states past
        # it, drain again; the tail never returns to full charge
        assert soc[-100:].max() <= 70.0
        assert (states[-100:] <= 3).any()


def scalar_psi(dist, s, delta):
    """Transition matrix by one scalar cdf call per grid point and one
    assignment per entry: the reference for build_chain's Toeplitz form."""
    f_grid = np.array([float(dist.cdf(k * delta)) for k in range(-(s - 1), s)])

    def f(k):  # F(k*delta)
        return f_grid[k + s - 1]

    psi = np.zeros((s, s))
    for i in range(s):
        psi[i, 0] = f(max(1 - i, -(s - 1)))
        psi[i, s - 1] = 1.0 - f(min(s - 1 - i, s - 1))
        for j in range(1, s - 1):
            psi[i, j] = f(j - i + 1) - f(j - i)
    return np.clip(psi, 0.0, None)


def scalar_trace(source, capacity, delta, gamma, n_periods, initial_soc=None,
                 burn_in=0):
    """One clamped step per period on numpy scalars: the reference for
    simulate_trace without an idle source (array sources only)."""
    s = states_for_capacity(capacity, delta)
    guard = int(np.floor(gamma * (s - 1)))
    top = s - 1
    state = top if initial_soc is None else int(round(
        min(max(initial_soc, 0.0), capacity) / delta))
    steps = np.floor(np.asarray(source, dtype=float)[:n_periods]
                     / delta).astype(np.int64)
    states = np.empty(n_periods, dtype=np.int64)
    for t in range(n_periods):
        state += steps[t]
        if state < 0:
            state = 0
        elif state > top:
            state = top
        states[t] = state
    ploc = float(np.mean(states[burn_in:] <= guard))
    return ploc, states.astype(float) * delta


def linear_size_battery(dist, delta_grid, target_ploc, gamma, s_max=200):
    """Scans S = 2..s_max for every delta: the reference for size_battery's
    bisection."""
    delta_grid = list(delta_grid)
    if not delta_grid:
        raise ValueError("empty delta grid")
    if not 0.0 < target_ploc < 1.0:
        raise ValueError("target p_LoC must lie in (0, 1)")
    best = None
    for delta in delta_grid:
        for s in range(2, s_max + 1):
            ploc, _ = resolve_loss_of_charge(build_chain(dist, s, delta, gamma))
            if ploc <= target_ploc:
                candidate = BatterySizing(s, float(delta), float((s - 1) * delta))
                if best is None or (candidate.capacity, candidate.delta) \
                        < (best.capacity, best.delta):
                    best = candidate
                break  # larger S at this delta only grows the capacity
    return best


def closed_classes_reference(psi):
    """Closed classes from scipy's strongly connected components: the
    reference for _closed_classes."""
    adj = sparse.csr_matrix(psi > 0)
    n_comp, labels = connected_components(adj, directed=True, connection="strong")
    closed = []
    for comp in range(n_comp):
        members = np.flatnonzero(labels == comp)
        outside = np.setdiff1d(np.arange(psi.shape[0]), members)
        if outside.size == 0 or not np.any(psi[np.ix_(members, outside)] > 0):
            closed.append(members.tolist())
    return n_comp, closed


def assert_closed_classes_match_reference(psi):
    n_comp, closed = _closed_classes(psi)
    want_n, want_closed = closed_classes_reference(psi)
    assert n_comp == want_n
    assert sorted(closed) == sorted(want_closed)
    if n_comp > 1:
        chain = BatteryChain(n_states=len(psi), step=1.0, psi=psi, guard_state=0)
        with pytest.raises(ReducibleChainError) as err:
            stationary(chain)
        detail = "; ".join(str(c) for c in sorted(want_closed))  # by smallest state
        assert str(err.value) == f"reducible chain: closed class(es) {detail}"


class TestVectorizedAgainstScalar:
    @settings(deadline=None, max_examples=150)
    @given(st.floats(-50.0, 50.0), st.floats(1e-3, 50.0), st.integers(2, 80),
           st.floats(1e-2, 10.0))
    def test_psi_equals_scalar_assembly(self, mean, std, s, delta):
        dist = NetEnergyDist.gaussian(mean, std)
        psi = build_chain(dist, s, delta, 0.1).psi
        assert np.array_equal(psi, scalar_psi(dist, s, delta))
        assert np.abs(psi.sum(axis=1) - 1.0).max() <= 1e-12

    @settings(deadline=None, max_examples=150)
    @given(st.integers(1, 40), st.sampled_from((0.5, 1.0, 3.0)),
           st.sampled_from((2, 3, 4, 16)), st.integers(0, 3), st.data())
    @example(top=1, delta=1.0, block=16, depth=0, data=None)  # 2 states, 1 period
    def test_trace_equals_scalar_loop(self, top, delta, block, depth, data):
        capacity = top * delta
        if data is None:
            n, steps, initial_soc, burn_in = 1, np.array([5]), None, 0
        else:
            # block**depth <= n < block**(depth + 1): depth levels of blocks
            # above the scalar loop
            n = data.draw(st.integers(block ** depth, block ** (depth + 1) - 1),
                          label="n_periods")
            rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                                  label="seed"))
            far_share = data.draw(st.sampled_from((0.0, 0.02, 0.3)),
                                  label="far_share")
            near = rng.integers(-2 * top - 1, 2 * top + 1, n, endpoint=True)
            far = rng.integers(-2 ** 62, 2 ** 62, n, endpoint=True)
            steps = np.where(rng.uniform(size=n) < far_share, far, near)
            initial_soc = data.draw(st.one_of(
                st.none(), st.floats(-capacity, 2.0 * capacity)),
                label="initial_soc")
            burn_in = data.draw(st.integers(0, n - 1), label="burn_in")
        # energies a quarter step into each step's bin
        source = (steps + 0.25) * delta
        with mock.patch.object(battery, "_BLOCK", block):
            got = simulate_trace(source, capacity, delta, 0.1, n,
                                 np.random.default_rng(0),
                                 initial_soc=initial_soc, burn_in=burn_in)
        want = scalar_trace(source, capacity, delta, 0.1, n,
                            initial_soc=initial_soc, burn_in=burn_in)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("top", [2 ** 30 - 1, 2 ** 30])  # int32, int64 rows
    def test_trace_at_the_int32_limit_equals_scalar_loop(self, top):
        rng = np.random.default_rng(top)
        n = 3000
        near_ends = rng.choice([-top - 1, -top, -top + 1, -1, 0, 1,
                                top - 1, top, top + 1], n)
        far = rng.integers(-2 ** 62, 2 ** 62, n, endpoint=True)
        small = rng.integers(-3, 3, n, endpoint=True)
        pick = rng.integers(0, 3, n)
        source = np.choose(pick, [near_ends, far, small]) + 0.25
        got = simulate_trace(source, float(top), 1.0, 0.1, n,
                             np.random.default_rng(0))
        want = scalar_trace(source, float(top), 1.0, 0.1, n)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])

    def test_sampled_trace_equals_scalar_loop(self):
        # a Gaussian source: same draws, same trace, over many blocks
        dist = NetEnergyDist.gaussian(0.4, 9.0)
        n = 100_003
        got = simulate_trace(dist, 60.0, 5.0, 0.1, n,
                             np.random.default_rng(11), burn_in=1000)
        energies = dist.sample(np.random.default_rng(11), n)
        want = scalar_trace(energies, 60.0, 5.0, 0.1, n, burn_in=1000)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])

    @settings(deadline=None, max_examples=150)
    @given(st.sampled_from((-1.0, 1.0)),
           st.one_of(st.floats(0.0, 3.0), st.floats(0.0, 45.0)),
           st.floats(-2.0, 1.0),
           st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
           st.integers(2, 60), st.floats(-6.0, np.log10(0.5)),
           st.sampled_from((0.0, 0.1, 0.5)))
    # p_LoC 0.418 at S=6 but 0.456 at S=11, where the guard steps up to 1
    @example(sign=1.0, sigmas=0.0, log_std=0.0, log_deltas=[-0.375], s_max=11,
             log_target=-0.375, gamma=0.1)
    def test_sizing_equals_linear_scan(self, sign, sigmas, log_std, log_deltas,
                                       s_max, log_target, gamma):
        # past about 8 std of drift the chain saturates to discharge, past
        # about 38 std to charge
        std = 10.0 ** log_std
        dist = NetEnergyDist.gaussian(sign * sigmas * std, std)
        deltas = [std * 10.0 ** v for v in log_deltas]
        target = 10.0 ** log_target
        assert size_battery(dist, deltas, target, gamma, s_max) == \
            linear_size_battery(dist, deltas, target, gamma, s_max)


class TestAgainstScipyReference:
    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 60),
           st.one_of(st.sampled_from((0.0, 0.01, 0.05, 1.0)), st.floats(0.0, 1.0)),
           st.integers(0, 2 ** 32 - 1))
    @example(s=1, density=0.0, seed=0)  # one state, no self-loop
    def test_closed_classes_of_random_matrices(self, s, density, seed):
        rng = np.random.default_rng(seed)
        psi = rng.uniform(size=(s, s)) * (rng.uniform(size=(s, s)) < density)
        assert_closed_classes_match_reference(psi)

    @settings(deadline=None, max_examples=150)
    @given(st.integers(2, 60), st.sampled_from((-1.0, 1.0)), st.floats(0.0, 60.0),
           st.floats(1e-3, 10.0), st.floats(0.1, 10.0))
    def test_closed_classes_of_chains_up_to_saturated_drift(self, s, sign, sigmas,
                                                            std, delta):
        # past about 8 std of drift one tail of the CDF rounds away
        dist = NetEnergyDist.gaussian(sign * sigmas * std, std)
        assert_closed_classes_match_reference(build_chain(dist, s, delta, 0.1).psi)

    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from((-1.0, 1.0)), st.floats(-6.0, 3.0), st.floats(-9.0, 3.0),
           arrays(np.float64, st.integers(0, 40), elements=st.floats(-40.0, 40.0)),
           arrays(np.float64, st.integers(0, 10), elements=st.floats(-1e4, 1e4)),
           st.floats(-40.0, 40.0))
    def test_gaussian_cdf_equals_norm_cdf(self, sign, log_mean, log_std, z, wide,
                                          z0):
        mean, std = sign * 10.0 ** log_mean, 10.0 ** log_std
        cdf = NetEnergyDist.gaussian(mean, std).cdf
        x = np.concatenate(([-np.inf, np.inf], mean + std * z, wide))
        assert np.array_equal(cdf(x), norm.cdf(x, loc=mean, scale=std))
        x0 = mean + std * z0
        got = cdf(x0)
        assert np.ndim(got) == 0
        assert np.array_equal(got, norm.cdf(x0, loc=mean, scale=std))


class TestStandardError:
    def test_iid_chain_matches_bernoulli_formula(self):
        # rows all equal to pi: zero autocorrelation
        pi = np.array([0.2, 0.3, 0.5])
        psi = np.tile(pi, (3, 1))
        chain = BatteryChain(n_states=3, step=1.0, psi=psi, guard_state=0)
        chain.pi = pi
        se = ploc_standard_error(chain, 10000)
        assert np.isclose(se, np.sqrt(0.2 * 0.8 / 10000), rtol=1e-9)
