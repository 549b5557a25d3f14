"""Chi-squared goodness of fit with tail pooling, AIC and model comparison."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import CountModel, log_pmf_array
from .errors import (
    CountFitError,
    DegenerateBinningError,
    EstimationError,
    InvalidModelError,
)
from .estimate import (
    FitResult,
    FrequencySample,
    _table_fits,
    mle_geometric,
    mle_hg,
    mle_nb,
    mle_poisson,
    mle_zig,
)
from .specfn import chi2_survival

__all__ = [
    "Bin",
    "GofResult",
    "ModelEntry",
    "ComparisonReport",
    "expected_counts",
    "pool_tail",
    "chi2_statistic",
    "gof_test",
    "aic",
    "compare_models",
    "FAMILIES",
    "N_PARAMS",
]

FAMILIES = ("nb", "zig", "hg", "geom", "poisson")

N_PARAMS = {"nb": 2, "zig": 2, "hg": 2, "geom": 1, "poisson": 1}

_FITTERS = {
    "nb": mle_nb,
    "zig": mle_zig,
    "hg": mle_hg,
    "geom": mle_geometric,
    "poisson": mle_poisson,
}

MIN_BINS = 3

# relative AIC difference below which two fits count as tied
AIC_TIE = 1e-12


@dataclass(frozen=True)
class Bin:
    label: str  # single count "3" or pooled range "3+"
    observed: float
    expected: float


@dataclass(frozen=True)
class GofResult:
    bins: tuple[Bin, ...]
    chi2: float
    df: int
    p_value: float
    n_params: int
    pooling_threshold: float


@dataclass(frozen=True)
class ModelEntry:
    family: str
    fit: FitResult | None
    gof: GofResult | None
    error: str | None = None


@dataclass(frozen=True)
class ComparisonReport:
    entries: tuple[ModelEntry, ...]
    best_aic_model: str | None
    notes: tuple[str, ...] = ()


def expected_counts(model: CountModel, n: int, max_count: int) -> list[float]:
    """Expected frequencies n*pmf(y) for y in [0, max_count] plus a tail cell."""
    if max_count < 1:
        raise InvalidModelError(f"max_count must be >= 1, got {max_count!r}")
    probs = np.exp(log_pmf_array(model, np.arange(max_count + 1)))
    tail = max(0.0, 1.0 - float(np.sum(probs)))
    return (n * probs).tolist() + [n * tail]


def pool_tail(
    observed: list[float],
    expected: list[float],
    threshold: float,
    labels: list[str] | None = None,
) -> list[Bin]:
    """Merge sparse upper-tail cells until the tail clears the threshold.

    Pooling proceeds from the largest count downward and stops at the
    first cell whose own expected frequency reaches the threshold; lower
    cells are never touched.
    """
    if len(observed) != len(expected):
        raise CountFitError("observed and expected must have equal length")
    if threshold <= 0.0:
        raise CountFitError(f"pooling threshold must be > 0, got {threshold!r}")
    labels = list(labels) if labels is not None else [str(y) for y in range(len(expected))]
    obs = list(observed)
    exp = list(expected)
    pooled = False
    while len(exp) > MIN_BINS and exp[-1] < threshold and exp[-2] < threshold:
        last_obs = obs.pop()
        last_exp = exp.pop()
        obs[-1] += last_obs
        exp[-1] += last_exp
        labels.pop()
        pooled = True
    if pooled:
        labels[-1] = f"{labels[-1].split(',')[0]}+"
    if len(exp) < MIN_BINS:
        raise DegenerateBinningError(
            f"pooling left only {len(exp)} bins (< {MIN_BINS})"
        )
    return [Bin(label=l, observed=o, expected=e) for l, o, e in zip(labels, obs, exp)]


def chi2_statistic(bins: list[Bin]) -> float:
    """Pearson statistic sum (obs - exp)^2 / exp over the pooled bins."""
    if any(b.expected <= 0.0 for b in bins):
        raise CountFitError("chi-squared statistic undefined for expected <= 0")
    return sum((b.observed - b.expected) ** 2 / b.expected for b in bins)


def _merge_structural_zeros(
    observed: list[float], expected: list[float], labels: list[str]
) -> tuple[list[float], list[float], list[str]]:
    """Fold zero-probability cells into their right neighbor (left for the last)."""
    labels = list(labels)
    i = 0
    obs, exp = list(observed), list(expected)
    while i < len(exp):
        if exp[i] == 0.0:
            j = i + 1 if i + 1 < len(exp) else i - 1
            exp[j] += exp[i]
            obs[j] += obs[i]
            labels[j] = f"{labels[i]},{labels[j]}" if j > i else f"{labels[j]},{labels[i]}"
            del exp[i], obs[i], labels[i]
        else:
            i += 1
    return obs, exp, labels


def _largest_cell(s: FrequencySample) -> int:
    """The largest count, checked to give a sane table of cells over 0..largest+1.

    The table is refused past the size rule of `summarize` (largest count
    against n), where it would cost far more than the sample itself.
    """
    max_count = int(s.counts[-1])
    if max_count < 1:
        raise DegenerateBinningError("all observations are zero; nothing to bin")
    if not _table_fits(max_count, s.n):
        raise DegenerateBinningError(
            f"largest count {max_count} is too large for a table of cells "
            f"over 0..{max_count + 1} at n={s.n}"
        )
    return max_count


def gof_test(
    model: CountModel,
    s: FrequencySample,
    n_params: int,
    threshold: float = 1.0,
) -> GofResult:
    """Chi-squared test of the model against the observed histogram."""
    if s.counts is None:
        raise EstimationError("goodness of fit requires the full frequency table")
    max_count = _largest_cell(s)
    exp = expected_counts(model, s.n, max_count)
    observed = np.zeros(max_count + 2)
    observed[s.counts] = s.freqs
    obs = observed.tolist()
    labels = [str(y) for y in range(max_count + 1)] + [f"{max_count + 1}+"]
    obs, exp, labels = _merge_structural_zeros(obs, exp, labels)
    bins = pool_tail(obs, exp, threshold, labels=labels)
    chi2 = chi2_statistic(bins)
    df = len(bins) - 1 - n_params
    if df < 1:
        raise DegenerateBinningError(
            f"df = {len(bins)} bins - 1 - {n_params} params = {df} < 1"
        )
    return GofResult(
        bins=tuple(bins),
        chi2=chi2,
        df=df,
        p_value=chi2_survival(chi2, df),
        n_params=n_params,
        pooling_threshold=threshold,
    )


def aic(loglik: float, n_params: int) -> float:
    """Akaike's information criterion: 2*n_params - 2*loglik."""
    if n_params < 1:
        raise CountFitError(f"n_params must be >= 1, got {n_params!r}")
    return 2.0 * n_params - 2.0 * loglik


def compare_models(
    s: FrequencySample,
    families: list[str],
    threshold: float = 1.0,
) -> ComparisonReport:
    """Fit each requested family, test its fit, and rank by AIC.

    Estimator failures (e.g. NB on under-dispersed data) become error
    entries instead of aborting the report.
    """
    if not families:
        raise CountFitError("at least one model family is required")
    unknown = [f for f in families if f not in _FITTERS]
    if unknown:
        raise CountFitError(f"unknown families: {unknown}; choose from {FAMILIES}")
    entries: list[ModelEntry] = []
    for family in families:
        try:
            fit = _FITTERS[family](s)
            gof: GofResult | None
            try:
                gof = gof_test(fit.model, s, fit.n_params, threshold)
            except CountFitError:
                gof = None
            entries.append(ModelEntry(family=family, fit=fit, gof=gof))
        except CountFitError as exc:
            entries.append(ModelEntry(family=family, fit=None, gof=None, error=str(exc)))
    fitted = [e for e in entries if e.fit is not None]
    if not fitted:
        raise EstimationError("every requested family failed to fit")
    # zig and hg tie up to roundoff: the first requested family within
    # AIC_TIE of the minimum wins, whatever the summation order
    low = min(e.fit.aic for e in fitted)
    best = next(e for e in fitted if e.fit.aic <= low + AIC_TIE * abs(low))
    notes: tuple[str, ...] = ()
    if {"zig", "hg"} <= {e.family for e in fitted}:
        notes = (
            "zig and hg are reparametrizations of each other; their "
            "log-likelihoods and AICs coincide",
        )
    return ComparisonReport(
        entries=tuple(entries), best_aic_model=best.family, notes=notes
    )
