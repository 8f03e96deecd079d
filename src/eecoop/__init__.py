"""Outage analysis and energy-efficiency optimization for network-coded
multi-user relay networks with energy harvesting and inter-user energy
transfer."""

from .model import (
    ScenarioConfig,
    LinkCoefficients,
    Policy,
    EnergyLedger,
    FeasibilityReport,
    compute_link_coefficients,
    energy_ledger,
    energy_efficiency,
    link_outage,
    total_energy,
    validate_policy,
    load_scenario,
    save_scenario,
)
from .outage import (
    OutageReport,
    MonomialTable,
    network_outage_exact,
    relay_miss_prob,
    network_outage_approx,
    network_outage_report,
    build_outage_tables,
)
from .solver import (
    SolveResult,
    InfeasibleError,
    dinkelbach_optimize,
    inner_solve,
    optimize,
)
from .baselines import (
    PolicyEvaluation,
    depleted_energy_policy,
    no_transfer_policy,
    nonc_df_policy,
    relay_assignment,
    uniform_power_policy,
)
from .montecarlo import (
    MonteCarloResult,
    sample_channel_power_gain,
    estimate_outage,
    wilson_interval,
)

__version__ = "0.1.0"
