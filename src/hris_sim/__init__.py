"""Monte-Carlo simulator of a self-configuring, energy-harvesting hybrid
reconfigurable intelligent surface (HRIS) assisting a multi-user downlink."""

from .battery import (BatteryChain, NetEnergyDist, build_chain, loss_of_charge,
                      mah_to_joules, simulate_trace, size_battery, stationary,
                      states_for_capacity)
from .channel import (BlockageField, ChannelSet, PathlossModel, los_probability,
                      pathloss, realize_channels, simulate_blockage)
from .comm import LinkBudget, effective_channels, evaluate, rzf_precoder
from .energy import (ConsumptionModel, FramePower, HarvesterModel,
                     atom_consumption, config_consumption, diode_count,
                     frame_power, harvest, idle_harvest_fraction, slot_harvest)
from .geometry import ArrayGeometry, Radio, array_response, planar, ula, wave_vector
from .hris import (Codebook, HrisConfig, PowerProfile, build_codebook,
                   compose_reflection, idle_config, incident_from_bs,
                   incident_from_ues, oracle_config, probe, quantize,
                   sensed_power, steering_config)
from .runner import (RunReport, emit_csv, run_battery_experiment,
                     run_energy_experiment, run_sumrate_experiment)
from .scenario import (Scenario, ScenarioError, default_scenario_path,
                       load_scenario, save_scenario)

__version__ = "0.1.0"
