import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hris_sim.energy import (ConsumptionModel, HarvesterModel,
                             atom_consumption, config_consumption, diode_count,
                             frame_power, harvest, idle_harvest_fraction,
                             slot_harvest)
from hris_sim.hris import HrisConfig

DEFAULT_HARVESTER = HarvesterModel(a=0.01, b=6.642857142857143e-05,
                                   c=0.013285714285714286)


class TestHarvest:
    def test_zero_input_zero_output(self):
        assert harvest(DEFAULT_HARVESTER, 0.0) == 0.0

    def test_saturation_limit(self):
        sat = DEFAULT_HARVESTER.saturation
        big = harvest(DEFAULT_HARVESTER, 1e6 * DEFAULT_HARVESTER.c)
        assert big < sat
        assert np.isclose(big, sat, rtol=1e-3)

    def test_hand_evaluated_point(self):
        model = HarvesterModel(a=0.1, b=0.01, c=1.0)
        assert np.isclose(harvest(model, 1.0), 0.045)

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            harvest(DEFAULT_HARVESTER, -1e-6)

    def test_monotone_and_midpoint_concave(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x, y = np.sort(rng.uniform(0.0, 0.5, 2))
            fx, fy = harvest(DEFAULT_HARVESTER, x), harvest(DEFAULT_HARVESTER, y)
            assert fy >= fx - 1e-15
            mid = harvest(DEFAULT_HARVESTER, (x + y) / 2)
            assert mid >= (fx + fy) / 2 - 1e-15

    def test_non_decreasing_validated(self):
        with pytest.raises(ValueError):
            HarvesterModel(a=0.001, b=0.01, c=1.0)


class TestAtomConsumption:
    def test_zero_index_draws_nothing(self):
        model = ConsumptionModel(1e-4, 2, 4.9e-3, 1.8e-3)
        assert atom_consumption(0, model) == 0.0

    def test_popcount_oracle_exhaustive_up_to_q8(self):
        for q in range(1, 9):
            model = ConsumptionModel(1e-4, q, 4.9e-3, 1.8e-3)
            for m in range(2 ** q):
                expected = 1e-4 * bin(m).count("1")
                assert np.isclose(atom_consumption(m, model), expected)

    @pytest.mark.parametrize("q_bits", [0, 33, 52, 63])
    def test_bit_depth_past_the_scenario_bound_rejected(self, q_bits):
        with pytest.raises(ValueError, match=f"q_bits {q_bits} .*MAX_Q_BITS=32"):
            ConsumptionModel(1e-4, q_bits, 4.9e-3, 1.8e-3)

    def test_q2_examples(self):
        model = ConsumptionModel(1e-4, 2, 4.9e-3, 1.8e-3)
        assert np.isclose(atom_consumption(3, model), 2e-4)
        assert np.isclose(atom_consumption(2, model), 1e-4)

    def test_out_of_range_rejected(self):
        model = ConsumptionModel(1e-4, 2, 4.9e-3, 1.8e-3)
        with pytest.raises(ValueError):
            atom_consumption(4, model)
        with pytest.raises(ValueError):
            atom_consumption(-1, model)


class TestConfigConsumption:
    model = ConsumptionModel(1e-4, 2, 4.9e-3, 1.8e-3)

    def test_zero_phase_config_draws_nothing(self):
        cfg = HrisConfig.from_indices(np.zeros(32, int), 2)
        assert config_consumption(cfg, self.model) == 0.0

    def test_all_index_three_table_value(self):
        # 32 elements, two diodes each at 0.1 mW -> 6.4 mW
        cfg = HrisConfig.from_indices(np.full(32, 3), 2)
        assert np.isclose(config_consumption(cfg, self.model), 6.4e-3)

    def test_random_config_popcount_sum(self):
        rng = np.random.default_rng(1)
        idx = rng.integers(0, 4, size=32)
        cfg = HrisConfig.from_indices(idx, 2)
        expected = 1e-4 * sum(bin(int(m)).count("1") for m in idx)
        assert np.isclose(config_consumption(cfg, self.model), expected)

    def test_unquantized_rejected(self):
        cfg = HrisConfig(np.exp(1j * np.linspace(0, 1, 32)), "reflection")
        with pytest.raises(ValueError):
            config_consumption(cfg, self.model)
        with pytest.raises(ValueError):
            diode_count(cfg)


class TestFrameEnergy:
    harvest_w = 8 * harvest(DEFAULT_HARVESTER, 1e-3) \
        + 3 * harvest(DEFAULT_HARVESTER, 1e-3)
    diodes = 64  # 32 elements at index 3 in both banks, Q=2

    def active(self, traffic=0.5):
        return frame_power(self.harvest_w, self.diodes, traffic, 1e-4, 4.9e-3)

    def idle(self, nu, zeta=0.5):
        return frame_power(self.harvest_w, 0, nu * zeta, 1e-4, 1.8e-3)

    def test_idle_energy_is_controller_idle_only(self):
        power = self.idle(nu=0.0126)
        assert power.consumed == 1.8e-3
        assert power.diodes == 0.0

    def test_zero_traffic_harvests_nothing(self):
        assert self.active(traffic=0.0).harvested == 0.0

    def test_idle_fraction_hand_value(self):
        nu = idle_harvest_fraction(8, 4)
        assert abs(nu - 0.125 / np.pi ** 2) < 1e-12

    def test_harvest_formula_matches_hand_expansion(self):
        p_b, p_u = 2e-3, 5e-4
        slot = slot_harvest(DEFAULT_HARVESTER, 8, 3, p_b, p_u)
        power = frame_power(slot, self.diodes, 0.5, 1e-4, 4.9e-3)
        expected = 0.5 * (8 * harvest(DEFAULT_HARVESTER, p_b)
                          + 3 * harvest(DEFAULT_HARVESTER, p_u))
        assert np.isclose(power.harvested, expected)
        assert np.isclose(power.diodes, 64 * 1e-4)
        assert np.isclose(power.consumed, 4.9e-3 + 64 * 1e-4)
        assert np.isclose(power.net, expected - (4.9e-3 + 64 * 1e-4))

    def test_linear_in_traffic(self):
        base, double = self.active(traffic=0.25), self.active(traffic=0.5)
        assert np.isclose(double.harvested, 2 * base.harvested)
        assert double.consumed == base.consumed

    def test_idle_consumes_less_than_active(self):
        assert self.idle(nu=0.0126).consumed < self.active().consumed

    def test_idle_scales_harvest_by_nu(self):
        nu = idle_harvest_fraction(8, 4)
        assert np.isclose(self.idle(nu).harvested, nu * self.active().harvested)

    def test_element_wise_over_drops(self):
        slot = np.array([0.0, 1e-3, 4e-3])
        counts = np.array([0, 5, 64])
        power = frame_power(slot, counts, 0.5, 1e-4, 4.9e-3)
        for i in range(3):
            one = frame_power(slot[i], counts[i], 0.5, 1e-4, 4.9e-3)
            assert power.net[i] == one.net


finite = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)


class TestAccountingProperties:
    @settings(deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_diode_count_matches_atom_consumption(self, q_bits, data):
        idx = data.draw(st.lists(st.integers(0, 2 ** q_bits - 1),
                                 min_size=1, max_size=64))
        cfg = HrisConfig.from_indices(idx, q_bits)
        unit = ConsumptionModel(1.0, q_bits, 0.0, 0.0)
        assert diode_count(cfg) == sum(atom_consumption(m, unit) for m in idx)
        model = ConsumptionModel(1e-4, q_bits, 4.9e-3, 1.8e-3)
        assert config_consumption(cfg, model) == pytest.approx(
            sum(atom_consumption(m, model) for m in idx), rel=1e-12, abs=0.0)

    @settings(deadline=None)
    @given(finite, st.integers(0, 10 ** 4), st.floats(0.0, 1.0), finite, finite)
    def test_active_point_matches_inline_expression(self, h, d, traffic, p_on,
                                                    controller):
        reference = traffic * h - (controller + p_on * d)
        assert frame_power(h, d, traffic, p_on, controller).net == reference

    @settings(deadline=None)
    @given(finite, st.floats(0.0, 1.0), st.floats(0.0, 1.0), finite, finite)
    def test_idle_point_matches_inline_expression(self, h, nu, zeta, p_on,
                                                  controller_idle):
        reference = nu * zeta * h - controller_idle
        power = frame_power(h, 0, nu * zeta, p_on, controller_idle)
        assert power.net == reference


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: HarvesterModel(a=0.01, b=0.0, c=0.0),
                 "c must be positive", id="c"),
    pytest.param(lambda: ConsumptionModel(-1e-4, 2, 4.9e-3, 1.8e-3),
                 "powers must be >= 0", id="powers"),
    pytest.param(lambda: config_consumption(
                     HrisConfig.from_indices(np.zeros(4, int), 3),
                     ConsumptionModel(1e-4, 2, 4.9e-3, 1.8e-3)),
                 "configuration bit depth does not match the model", id="bit-depth"),
])
def test_argument_check_names_its_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()
