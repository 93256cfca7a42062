"""Transfer operators, invariant densities and central-limit diagnostics
for piecewise-linear interval maps."""

from .clt import (
    ConditionReport,
    DivergenceError,
    MapSystem,
    Observable,
    VarianceEstimate,
    VarianceProfile,
    autocovariance_sequence,
    blocked_observable,
    condition_report,
    sigma2_autocovariance,
    sigma2_resolvent,
    tent_mean,
    tent_observable,
    tent_sigma_recursion,
    tent_system,
    three_branch_system,
    variance_profile,
    variance_profile_dyadic,
)
from .densities import (
    ConvergenceError,
    DetectionError,
    UlamOperator,
    detect_periodicity,
    invariant_density,
    tent_density,
    ulam_matrix,
)
from .maps import (
    AffineMap,
    Interval,
    PiecewiseLinearMap,
    SupportCycle,
    tent_conjugacy,
    tent_fixed_point,
    tent_map,
    tent_period,
    tent_support_cycle,
    three_branch_map,
)
from .piecewise import PiecewiseAffineFunction, integrate_product, pw_sum
from .simulate import (
    CltSample,
    GofReport,
    MaximalInequalityReport,
    ks_statistic,
    limit_law_check,
    maximal_inequality_sweep,
    mixture_normal_cdf,
    partial_sum_paths,
    sample_from_density,
)
from .transfer import NormalizedTransfer, frobenius_perron, koopman

__version__ = "0.1.0"
