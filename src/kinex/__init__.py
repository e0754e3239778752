"""kinex: kinetic wealth-exchange models.

Finite-N Monte Carlo simulation of binary wealth exchanges, a conservative
integrator for the thermodynamic-limit master equation, and the inequality
and mobility metrics (Gini index, mobility profile, liquidity) that
characterize the approach to wealth condensation.
"""

__version__ = "0.1.0"

from .core import (
    ContractViolation,
    Population,
    RngStream,
    RuleKind,
    RuleSpec,
    UNIFORM_LAMBDA,
    WealthGrid,
    read_snapshot,
    write_snapshot,
)
from .engine import (
    EnsembleSummary,
    Initial,
    SimConfig,
    StopReason,
    Trajectory,
    run,
    run_ensemble,
)
from .master_eq import (
    DiscreteKernel,
    IntegrationAbort,
    IntegrationReport,
    KernelCheckReport,
    build_grid,
    build_kernel,
    check_kernel,
    gini_rate,
    integrate,
    mobility_bound_check,
    oligarchy_surrogate,
    rhs,
)
from .metrics import (
    MetricsRecord,
    gini_grid,
    gini_population,
    liquidity_grid,
    mobility_profile,
)
from .rules import (
    DeltaDistribution,
    delta_distribution,
    expected_abs_delta,
    expected_delta,
    format_rule,
    parse_rule,
    two_point_law,
)

__all__ = [
    "__version__",
    "ContractViolation",
    "Population",
    "RngStream",
    "RuleKind",
    "RuleSpec",
    "UNIFORM_LAMBDA",
    "WealthGrid",
    "read_snapshot",
    "write_snapshot",
    "EnsembleSummary",
    "Initial",
    "SimConfig",
    "StopReason",
    "Trajectory",
    "run",
    "run_ensemble",
    "DiscreteKernel",
    "IntegrationAbort",
    "IntegrationReport",
    "KernelCheckReport",
    "build_grid",
    "build_kernel",
    "check_kernel",
    "gini_rate",
    "integrate",
    "mobility_bound_check",
    "oligarchy_surrogate",
    "rhs",
    "MetricsRecord",
    "gini_grid",
    "gini_population",
    "liquidity_grid",
    "mobility_profile",
    "DeltaDistribution",
    "delta_distribution",
    "expected_abs_delta",
    "expected_delta",
    "format_rule",
    "parse_rule",
    "two_point_law",
]
