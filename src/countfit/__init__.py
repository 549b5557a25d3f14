"""Fitting over-dispersed count distributions to frequency data.

Closed-form maximum likelihood for zero-inflated/deflated geometric and
hurdle geometric models, numerical MLE for the negative binomial shape,
chi-squared goodness of fit with tail pooling, AIC comparison, and a
simulation harness.
"""

__version__ = "0.1.0"

from .dist import (
    CountModel,
    Geometric,
    Hurdle,
    Moments,
    NegBinomial,
    Poisson,
    ZeroInflated,
    log_pmf,
    log_pmf_array,
    moments,
    pmf,
)
from .errors import (
    AllZerosError,
    CountFitError,
    DegenerateBinningError,
    DomainError,
    EstimationError,
    InputFormatError,
    InvalidModelError,
    ParameterBoundError,
    UnderDispersedError,
)
from .estimate import (
    FitResult,
    FrequencySample,
    SolverInfo,
    aic,
    loglik,
    mle_geometric,
    mle_hg,
    mle_nb,
    mle_poisson,
    mle_zig,
    mom_nb,
    summarize,
)
from .gof import (
    ComparisonReport,
    GofResult,
    compare_models,
    expected_counts,
    gof_test,
)
from .sim import RecoveryReport, recovery_experiment, sample
from .specfn import chi2_survival
