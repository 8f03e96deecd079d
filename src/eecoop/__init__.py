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
    total_energy,
    validate_policy,
    load_scenario,
    save_scenario,
    zero_policy,
)
from .outage import (
    OutageReport,
    MonomialTable,
    per_link_outage_exact,
    network_outage_exact,
    relay_miss_prob,
    network_outage_approx,
    network_outage_report,
    build_outage_tables,
)
from .solver import (
    SolverOptions,
    SolveResult,
    InfeasibleError,
    dinkelbach_optimize,
    evaluate_V_prime,
    inner_solve,
)
from .baselines import (
    PolicyEvaluation,
    BruteForceResult,
    GridSpec,
    brute_force_optimize,
    depleted_energy_policy,
    no_transfer_policy,
    nonc_df_policy,
    per_user_outage_exact,
    relay_assignment,
    uniform_power_policy,
)
from .montecarlo import (
    RngSpec,
    MonteCarloResult,
    sample_channel_power_gain,
    estimate_outage,
    wilson_interval,
)

__version__ = "0.1.0"
