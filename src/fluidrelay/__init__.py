"""Fluid-antenna relay uplink modeling and resource allocation.

Submodules:

* ``channel``   -- port geometry, spatial correlation, correlated sampling
* ``mvncdf``    -- multivariate normal CDF engine (quasi-Monte Carlo)
* ``outage``    -- copula best-gain CDF, AF/DF outage, the scheme-selection rule
* ``allocator`` -- SNR model, bandwidth closed form, power control
* ``harness``   -- Monte Carlo validation, benchmarks, parameter sweeps
* ``scenario``  -- JSON scenario files
* ``cli``       -- command-line entry point
"""

from .allocator import (
    SnrTriple,
    TrialAllocations,
    UserConfig,
    allocate_bandwidth,
    optimize_powers,
    snr_af,
    snr_df,
    solve_df_subproblem,
    solve_system,
)
from .channel import (
    CorrelationMatrix,
    PortGrid,
    build_correlation,
    sample_gains,
)
from .errors import InfeasibleError, NumericalError
from .harness import Scenario, SweepSpec, random_scenario, run_benchmark, run_sweep
from .mvncdf import MvnEstimate, MvnProblem, mvn_cdf, std_normal_quantile
from .outage import (
    CopulaConfig,
    LinkBudget,
    OutageQuery,
    OutageResult,
    Selection,
    best_gain_cdf,
    op_surface,
    outage_probabilities,
    outage_thresholds,
    scheme_region,
    select_scheme,
    xi_af,
    xi_df,
)

__version__ = "0.1.0"
