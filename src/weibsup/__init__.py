"""Two-sided bounds for suprema of Weibull-driven canonical processes.

Library layout:

- ``core``: point sets, lp metrics, reproducible random streams
- ``laws``: Weibull-tail laws, exact moments, moment functionals, the
  Gaussian-product coupling
- ``mcsup``: Monte Carlo expected-supremum estimators and order-statistic
  probe schedules
- ``gamma``: admissible partition trees and gamma_alpha functionals
- ``transforms``: the (log(n/k))^(1/s) weights and permuted transforms
- ``harness``: instance families, verification experiments, reports, CLI
"""

from .core import (
    Metric,
    PointSet,
    RandomStream,
    diameter,
    distance,
    load_points_csv,
    pairwise_distance_matrix,
    write_points_csv,
)
from .gamma import (
    GammaValue,
    NotAdmissibleError,
    PartitionTree,
    build_greedy_tree,
    chaining_bound,
    dudley_bound,
    exact_small_tree,
    gamma_exact_small,
    gamma_from_tree,
    gaussian_gamma2_proxy,
    intersect_trees,
    sudakov_lower,
    validate_admissible,
)
from .harness import (
    BoundReport,
    ConfigError,
    InstanceFamily,
    RunConfig,
    counterexample_run,
    moment_check,
    reports_json_text,
    run,
    standard_suite,
    truncation_check,
    verify_main_bound,
    verify_r1_bound,
    write_reports_csv,
    write_reports_json,
)
from .laws import (
    MomentFunctional,
    QuadratureError,
    WeibullLaw,
    conjugate_exponent,
    sup_norm_moment_bound,
    coupled_quantiles,
    exact_abs_moment,
    lp_norm_moment_bound,
    product_tail,
    sample_symmetric_weibull,
)
from .mcsup import (
    Driver,
    NonFiniteSampleError,
    ProbeSchedule,
    SupEstimate,
    build_probe_schedule,
    esup_mc,
    esup_permuted_prefixes,
    esup_permuted_weighted,
    esup_rep_mc,
    order_stat_tail,
    probe_schedule_check,
    rearrange_nonincreasing,
)
from .transforms import EpiGamma2, WeightVector, apply_permuted_weights, epi_gamma2, ts_transform, weights

__version__ = "0.1.0"
