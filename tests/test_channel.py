import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hris_sim.channel import (BlockageField, PathlossModel, los_probability,
                              pathloss, realize_channels, simulate_blockage)
from hris_sim.geometry import (MIN_DISTANCE_M, Radio, array_response, planar,
                               ula, wave_vector)
from hris_sim.scenario import Scenario

TABLE1_FIELD = BlockageField(density=0.3, blocker_height=1.8, blocker_diameter=0.6)


# --- scalar reference: the per-user channel realization the stacked code
# replaced, with its one-link helpers -------------------------------------

def ref_pathloss(p, q, model, exponent):
    dist = float(np.linalg.norm(np.asarray(p, float) - np.asarray(q, float)))
    if dist < 1e-15:
        raise ValueError("zero distance between link endpoints")
    return model.gamma0 * (model.d0 / dist) ** exponent


def ref_shadow_fraction(h_a, h_b, h_blocker):
    hi, lo = max(h_a, h_b), min(h_a, h_b)
    if hi == lo:
        return 1.0 if hi < h_blocker else 0.0
    with np.errstate(over="ignore"):  # a subnormal gap: inf, clipped to 1
        return min(1.0, max(0.0, (h_blocker - lo) / (hi - lo)))


def ref_los_probability(tx, rx, field):
    tx = np.asarray(tx, float)
    rx = np.asarray(rx, float)
    d2d = float(np.linalg.norm(tx[:2] - rx[:2]))
    frac = ref_shadow_fraction(tx[2], rx[2], field.blocker_height)
    mean_blockers = field.density * field.blocker_diameter * d2d * frac
    return float(min(1.0, np.exp(-mean_blockers)))


def ref_array_response(arr, p, radio):
    diff = np.asarray(p, float) - arr.center
    dist = np.linalg.norm(diff)
    if dist < 1e-15:
        raise ValueError("degenerate link: endpoints coincide")
    k = (2.0 * np.pi / radio.wavelength) * diff / dist
    return np.exp(1j * (arr.element_offsets @ k))


def ref_draw_los(tx, rx, field, rng):
    if field.mode == "sampled":
        return bool(simulate_blockage(tx, rx, field, rng, trials=1)[0])
    return bool(rng.uniform() < ref_los_probability(tx, rx, field))


def ref_realize_channels(scenario, rng):
    radio = Radio(scenario.fc_hz)
    half_wave = radio.wavelength / 2.0
    bs = ula(scenario.bs_position, scenario.m_bs_antennas, half_wave)
    hris = planar(scenario.hris_position, scenario.nx, scenario.nz, half_wave)
    model = PathlossModel(scenario.gamma0, scenario.d0_m,
                          scenario.chi_los, scenario.chi_nlos)
    field = BlockageField(scenario.blocker_density_per_m2,
                          scenario.blocker_height_m,
                          scenario.blocker_diameter_m, scenario.blockage_mode)
    k = scenario.k_users
    lo = np.asarray(scenario.area_min, float)
    hi = np.asarray(scenario.area_max, float)
    ue = np.empty((k, 3))
    ue[:, 0] = rng.uniform(lo[0], hi[0], size=k)
    ue[:, 1] = rng.uniform(lo[1], hi[1], size=k)
    ue[:, 2] = scenario.ue_height_m
    b = np.asarray(scenario.bs_position, float)
    r = np.asarray(scenario.hris_position, float)
    los_bs_ue = np.array([ref_draw_los(b, ue[i], field, rng) for i in range(k)])
    los_hris_ue = np.array([ref_draw_los(r, ue[i], field, rng) for i in range(k)])
    if scenario.bs_hris_always_los:
        los_bs_hris = True
    else:
        los_bs_hris = ref_draw_los(b, r, field, rng)

    def chi(los):
        return model.chi_los if los else model.chi_nlos

    a_r_bs = ref_array_response(hris, b, radio)
    a_bs_hris = ref_array_response(bs, r, radio)
    gain_g = ref_pathloss(b, r, model, chi(los_bs_hris))
    G = np.sqrt(gain_g) * np.outer(a_r_bs, a_bs_hris.conj())
    h = np.empty((k, hris.n_elements), dtype=complex)
    h_d = np.empty((k, bs.n_elements), dtype=complex)
    for i in range(k):
        h[i] = np.sqrt(ref_pathloss(ue[i], r, model, chi(los_hris_ue[i]))) \
            * ref_array_response(hris, ue[i], radio)
        h_d[i] = np.sqrt(ref_pathloss(b, ue[i], model, chi(los_bs_ue[i]))) \
            * ref_array_response(bs, ue[i], radio)
    # G stays its own explicit expression, not ChannelSet's property
    return SimpleNamespace(G=G, amplitude=np.sqrt(gain_g), h=h, h_d=h_d,
                           los_bs_hris=los_bs_hris, los_hris_ue=los_hris_ue,
                           los_bs_ue=los_bs_ue, ue_positions=ue,
                           a_r_bs=a_r_bs, a_bs=a_bs_hris)


coords = st.floats(-60.0, 60.0)
# heights include repeats and the blocker height, so equal-height links and
# links that graze the blockers come up
heights = st.sampled_from((0.5, 1.5, 1.8, 6.0)) | st.floats(0.0, 15.0)
points3 = st.tuples(coords, coords, heights)
# stacks of points: hypothesis' own picks, which favour round and repeated
# values, or seeded uniform draws, whose last bits are as varied as a drop's
stacks = arrays(np.float64, st.tuples(st.integers(1, 80), st.just(3)),
                elements=st.sampled_from((0.0, 0.5, 1.5, 1.8, 6.0)) | coords) \
    | st.builds(lambda seed, k: np.random.default_rng(seed).uniform(-60, 60, (k, 3)),
                st.integers(0, 2 ** 32 - 1), st.integers(1, 80))


def raises_value_error(fn, *args):
    try:
        fn(*args)
    except ValueError:
        return True
    return False


class TestPathloss:
    model = PathlossModel(gamma0=1.0, d0=1.0)

    def test_reference_distance(self):
        assert pathloss((1.0, 0, 0), (0, 0, 0), self.model, 2.0) == 1.0

    def test_inverse_square(self):
        assert np.isclose(pathloss((10.0, 0, 0), (0, 0, 0), self.model, 2.0), 0.01)

    def test_nlos_exponent(self):
        assert np.isclose(pathloss((10.0, 0, 0), (0, 0, 0), self.model, 4.0), 1e-4)

    def test_zero_distance_raises(self):
        with pytest.raises(ValueError):
            pathloss((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), self.model, 2.0)

    def test_decreasing_in_distance(self):
        gains = [pathloss((d, 0, 0), (0, 0, 0), self.model, 2.0)
                 for d in (5.0, 10.0, 20.0, 40.0)]
        assert all(a > b for a, b in zip(gains, gains[1:]))


class TestLosProbability:
    def test_coincident_ground_projection(self):
        assert los_probability((0, 0, 6.0), (0, 0, 1.5), TABLE1_FIELD) == 1.0

    def test_no_blockers(self):
        field = BlockageField(density=0.0)
        assert los_probability((0, 0, 6.0), (20, 0, 1.5), field) == 1.0

    def test_both_endpoints_above_blockers(self):
        assert los_probability((0, 0, 6.0), (30, 0, 6.0), TABLE1_FIELD) == 1.0

    # the quotient over a subnormal height gap overflowed with a
    # RuntimeWarning, an error under pytest; the whole track is shadowed
    def test_subnormal_height_gap_is_fully_shadowed(self):
        p = los_probability((0, 0, 0.0), (20, 0, 2.2250738585e-313),
                            TABLE1_FIELD)
        assert np.isclose(p, np.exp(-0.3 * 0.6 * 20.0))

    def test_equal_low_heights_fully_shadowed(self):
        p = los_probability((0, 0, 1.0), (20, 0, 1.0), TABLE1_FIELD)
        assert np.isclose(p, np.exp(-0.3 * 0.6 * 20.0))

    def test_symmetric_in_endpoints(self):
        a, b = (0, 0, 6.0), (17.0, 9.0, 1.5)
        assert np.isclose(los_probability(a, b, TABLE1_FIELD),
                          los_probability(b, a, TABLE1_FIELD))

    def test_monotone_in_distance_density_diameter(self):
        base = los_probability((0, 0, 6.0), (20, 0, 1.5), TABLE1_FIELD)
        farther = los_probability((0, 0, 6.0), (40, 0, 1.5), TABLE1_FIELD)
        denser = los_probability((0, 0, 6.0), (20, 0, 1.5),
                                 BlockageField(0.6, 1.8, 0.6))
        wider = los_probability((0, 0, 6.0), (20, 0, 1.5),
                                BlockageField(0.3, 1.8, 1.2))
        assert farther <= base and denser <= base and wider <= base

    def test_matches_blocker_dropping_oracle(self):
        # Table-1 field, tx 6 m, rx 1.5 m, ground distance 20 m
        tx, rx = (0.0, 0.0, 6.0), (20.0, 0.0, 1.5)
        analytic = los_probability(tx, rx, TABLE1_FIELD)
        rng = np.random.default_rng(1234)
        empirical = simulate_blockage(tx, rx, TABLE1_FIELD, rng, trials=10 ** 5).mean()
        assert abs(analytic - empirical) < 0.02


class TestRealizeChannels:
    def test_all_los_norms(self):
        sc = Scenario(k_users=1, blocker_density_per_m2=0.0)
        ch = realize_channels(sc, [np.random.default_rng(0)])[0]
        model = PathlossModel(sc.gamma0, sc.d0_m, sc.chi_los, sc.chi_nlos)
        gain = pathloss(ch.ue_positions[0], sc.hris_position, model, sc.chi_los)
        assert np.isclose(np.linalg.norm(ch.h[0]) ** 2, gain * sc.n_hris_elements)

    def test_fixed_seed_reproducible(self):
        sc = Scenario(k_users=5)
        a = realize_channels(sc, [np.random.default_rng(42)])[0]
        b = realize_channels(sc, [np.random.default_rng(42)])[0]
        assert np.array_equal(a.G, b.G)
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.h_d, b.h_d)
        assert np.array_equal(a.ue_positions, b.ue_positions)

    def test_g_rank_one_with_expected_top_singular_value(self):
        sc = Scenario(k_users=2)
        model = PathlossModel(sc.gamma0, sc.d0_m, sc.chi_los, sc.chi_nlos)
        for seed in range(5):
            ch = realize_channels(sc, [np.random.default_rng(seed)])[0]
            s = np.linalg.svd(ch.G, compute_uv=False)
            gain = pathloss(sc.bs_position, sc.hris_position, model, sc.chi_los)
            assert np.isclose(s[0], np.sqrt(gain * sc.n_hris_elements * sc.m_bs_antennas))
            assert s[1] < 1e-10 * s[0]

    def test_exponent_swap_symmetry(self):
        # all-LoS flags with the NLoS exponent in the LoS slot reproduce the
        # gains of an all-blocked field with the exponents in their usual slots
        all_los_swapped = Scenario(k_users=4, blocker_density_per_m2=0.0,
                                   chi_los=4.0, chi_nlos=4.0)
        all_nlos = Scenario(k_users=4, blocker_density_per_m2=1e9,
                            chi_los=2.0, chi_nlos=4.0)
        a = realize_channels(all_los_swapped, [np.random.default_rng(7)])[0]
        b = realize_channels(all_nlos, [np.random.default_rng(7)])[0]
        assert np.array_equal(a.ue_positions, b.ue_positions)
        assert not b.los_hris_ue.any() and not b.los_bs_ue.any()
        assert np.allclose(a.h, b.h)
        assert np.allclose(a.h_d, b.h_d)

    def test_sampled_mode_runs(self):
        sc = Scenario(k_users=3, blockage_mode="sampled")
        ch = realize_channels(sc, [np.random.default_rng(3)])[0]
        assert ch.h.shape == (3, sc.n_hris_elements)


class TestStackedHelpers:
    """Stacked helpers equal their row-by-row scalar calls and the scalar
    reference, bit for bit."""

    @settings(deadline=None, max_examples=60)
    @given(stacks, points3, st.floats(0.01, 10.0), st.floats(0.1, 5.0),
           arrays(np.float64, 80, elements=st.floats(0.0, 6.0)))
    def test_pathloss(self, ps, q, gamma0, d0, exps):
        model = PathlossModel(gamma0, d0, 0.0, 6.0)
        exps = exps[:len(ps)]
        if any(raises_value_error(ref_pathloss, p, q, model, e)
               for p, e in zip(ps, exps)):
            with pytest.raises(ValueError, match="zero distance"):
                pathloss(ps, q, model, exps)
            return
        stacked = pathloss(ps, q, model, exps)
        assert stacked.shape == (len(ps),)
        rows = [pathloss(p, q, model, e) for p, e in zip(ps, exps)]
        assert all(type(g) is float for g in rows)
        assert np.array_equal(stacked, rows)
        assert np.array_equal(stacked, [ref_pathloss(p, q, model, float(e))
                                        for p, e in zip(ps, exps)])
        assert np.array_equal(pathloss(q, ps, model, exps), stacked)

    @settings(deadline=None, max_examples=60)
    @given(stacks, points3, st.floats(0.0, 2.0), st.sampled_from((1.0, 1.8)),
           st.floats(0.1, 2.0))
    def test_los_probability(self, ps, tx, density, height, diameter):
        field = BlockageField(density, height, diameter)
        stacked = los_probability(tx, ps, field)
        assert stacked.shape == (len(ps),)
        rows = [los_probability(tx, p, field) for p in ps]
        assert all(type(v) is float for v in rows)
        assert np.array_equal(stacked, rows)
        assert np.array_equal(stacked, [ref_los_probability(tx, p, field)
                                        for p in ps])

    @settings(deadline=None, max_examples=60)
    @given(stacks, points3, st.integers(1, 12), st.integers(1, 12),
           st.integers(1, 130))
    def test_array_response(self, ps, center, nx, nz, m):
        radio = Radio(28e9)
        for arr in (planar(center, nx, nz, radio.wavelength / 2),
                    ula(center, m, radio.wavelength / 2)):
            if any(raises_value_error(ref_array_response, arr, p, radio)
                   for p in ps):
                with pytest.raises(ValueError, match="coincide"):
                    array_response(arr, ps, radio)
                continue
            stacked = array_response(arr, ps, radio)
            assert stacked.shape == (len(ps), arr.n_elements)
            assert np.array_equal(stacked,
                                  [array_response(arr, p, radio) for p in ps])
            assert np.array_equal(stacked,
                                  [ref_array_response(arr, p, radio) for p in ps])

    def test_one_coinciding_row_raises(self):
        q = np.array([1.0, 2.0, 3.0])
        stack = np.array([[10.0, 0.0, 1.5], q, [-4.0, 7.0, 2.0]])
        model = PathlossModel()
        with pytest.raises(ValueError, match="zero distance"):
            pathloss(stack, q, model, np.full(3, 2.0))
        with pytest.raises(ValueError, match="zero distance"):
            pathloss(q, stack, model, np.full(3, 2.0))
        with pytest.raises(ValueError, match="coincide"):
            wave_vector(stack, q, 0.01)
        with pytest.raises(ValueError, match="coincide"):
            array_response(planar(q, 4, 2, 0.005), stack, Radio(28e9))


@settings(deadline=None, max_examples=80)
@given(k=st.integers(1, 80), m=st.integers(1, 64), nx=st.integers(1, 10),
       nz=st.integers(1, 10), bs=points3, hris=points3,
       corner=st.tuples(coords, coords), size=st.tuples(st.floats(0.0, 60.0),
                                                        st.floats(0.0, 60.0)),
       ue_height=heights, density=st.floats(0.0, 2.0),
       chi=st.tuples(st.floats(0.0, 6.0), st.floats(0.0, 6.0)),
       mode=st.sampled_from(("analytic", "sampled")), always=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_realize_channels_matches_scalar_reference(
        k, m, nx, nz, bs, hris, corner, size, ue_height, density, chi, mode,
        always, seed):
    assume(math.dist(bs, hris) >= MIN_DISTANCE_M)  # Scenario rejects it
    sc = Scenario(k_users=k, m_bs_antennas=m, nx=nx, nz=nz, n_sweep=(nx,),
                  bs_position=bs, hris_position=hris, area_min=corner,
                  area_max=(corner[0] + size[0], corner[1] + size[1]),
                  ue_height_m=ue_height, blocker_density_per_m2=density,
                  chi_los=min(chi), chi_nlos=max(chi), blockage_mode=mode,
                  bs_hris_always_los=always)
    try:
        ref = ref_realize_channels(sc, np.random.default_rng(seed))
    except ValueError:  # a UE or the BS on top of an array
        with pytest.raises(ValueError):
            realize_channels(sc, [np.random.default_rng(seed)])[0]
        return
    got = realize_channels(sc, [np.random.default_rng(seed)])[0]
    assert type(got.los_bs_hris) is bool
    for name in ("G", "h", "h_d", "los_bs_hris", "los_hris_ue", "los_bs_ue",
                 "ue_positions", "a_r_bs", "amplitude", "a_bs"):
        want, have = getattr(ref, name), getattr(got, name)
        assert np.array_equal(want, have), name
        assert np.asarray(want).dtype == np.asarray(have).dtype, name


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@settings(deadline=None, max_examples=40)
@given(k=st.integers(1, 75), drops=st.data(), m=st.integers(1, 16),
       nx=st.integers(1, 8), nz=st.integers(1, 8),
       mode=st.sampled_from(("analytic", "sampled")), always=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_blocked_realization_matches_scalar_reference(k, drops, m, nx, nz,
                                                      mode, always, seed):
    # a BS below the blockers makes both LoS states of its link to the
    # surface occur when that link is drawn
    sc = Scenario(k_users=k, m_bs_antennas=m, nx=nx, nz=nz, n_sweep=(nx,),
                  bs_position=(-25.0, 25.0, 1.0), blockage_mode=mode,
                  bs_hris_always_los=always)
    n = drops.draw(st.integers(1, 12), label="drops")
    size = drops.draw(st.integers(1, n), label="block size")
    rngs = [np.random.default_rng([seed, d]) for d in range(n)]
    got = [ch for start in range(0, n, size)
           for ch in realize_channels(sc, rngs[start:start + size])]
    assert len(got) == n
    for d, have in enumerate(got):
        want = ref_realize_channels(sc, np.random.default_rng([seed, d]))
        for name in ("G", "h", "h_d", "a_r_bs", "ue_positions", "amplitude",
                     "a_bs"):
            assert np.array_equal(_bits(getattr(want, name)),
                                  _bits(getattr(have, name))), (d, name)
        assert type(have.los_bs_hris) is bool
        assert have.los_bs_hris == want.los_bs_hris, d
        for name in ("los_hris_ue", "los_bs_ue"):
            assert np.array_equal(getattr(want, name), getattr(have, name)), (d, name)


def test_both_los_states_of_the_bs_hris_link_occur_below_the_blockers():
    sc = Scenario(k_users=1, bs_hris_always_los=False,
                  bs_position=(-25.0, 25.0, 1.0))
    block = realize_channels(sc, [np.random.default_rng(d) for d in range(40)])
    assert {ch.los_bs_hris for ch in block} == {True, False}
    # the drops of a block share the link's two responses, and the drops of
    # one state its amplitude
    for name in ("a_r_bs", "a_bs"):
        assert len({id(getattr(ch, name)) for ch in block}) == 1, name
    for los in (True, False):
        amplitudes = {ch.amplitude for ch in block if ch.los_bs_hris is los}
        assert len(amplitudes) == 1


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: PathlossModel(gamma0=0.0),
                 "gamma0 and d0 must be positive", id="gamma0"),
    pytest.param(lambda: PathlossModel(chi_los=5.0, chi_nlos=4.0),
                 "need 0 <= chi_los <= chi_nlos", id="chi"),
    pytest.param(lambda: BlockageField(density=-1.0),
                 "density must be >= 0", id="density"),
    pytest.param(lambda: BlockageField(blocker_height=0.0),
                 "blocker dimensions must be positive", id="blocker"),
    pytest.param(lambda: BlockageField(mode="psychic"),
                 "unknown blockage mode 'psychic'", id="mode"),
])
def test_argument_check_names_its_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()
