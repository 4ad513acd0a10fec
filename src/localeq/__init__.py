"""Local observed-score test equating without an anchor test.

Builds families of score transforms conditioned on ability proxies: the
classical anchor-score conditioning, propensity-score stratification, and
stabilized inverse probability weighting within strata, plus the
equipercentile generalization with kernel continuization. A seeded 2PL
simulation harness compares the methods against the analytic truth.
"""

from .core import (
    ECDF,
    KernelCDF,
    LinearTransform,
    ScoreTable,
    TransformFamily,
    WeightedSample,
    inverse_cdf,
    unweighted_moments,
    weighted_moments,
)
from .equating import (
    EquipercentileMap,
    IPWWeights,
    anchor_family,
    equipercentile_family,
    family_at_percentiles,
    ipw_family,
    ipw_weights,
    pooled_transform,
    strat_family,
)
from .errors import (
    ConfigError,
    DegenerateColumnWarning,
    DimensionError,
    EmptyFamilyError,
    EmptyInputError,
    InsufficientDataError,
    InvalidBandwidthError,
    InvalidProbabilityError,
    InvalidWeightError,
    LocalEqError,
    OmittedBinError,
    RowError,
    SchemaError,
    SeparationWarning,
    StudyUnstableWarning,
    TooManyStrataError,
    UsageError,
)
from .evaluation import (
    ErrorAccumulator,
    EvaluationReport,
    apply_omission_rule,
    bin_by_theta,
    run_study,
)
from .propensity import (
    BalanceReport,
    PropensityModel,
    StratumAssignment,
    asmd,
    balance_report,
    encode_covariates,
    estimate_propensity,
    fit_logistic,
    sigmoid,
    stratify_quantile,
)
from .simulation import (
    CovariateDesign,
    ItemParams,
    SimulationConfig,
    SimulationDesign,
    conditional_score_moments,
    draw_design,
    draw_items,
    gen_population,
    mixture_score_distribution,
    normal_quadrature,
    prob_2pl,
    score_distribution,
    true_transform,
)

__version__ = "0.1.0"
