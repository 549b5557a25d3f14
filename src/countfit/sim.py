"""Sampling, a brute-force likelihood-grid oracle, and recovery experiments.

Random streams come from numpy's default PCG64 generator seeded through
SeedSequence, so identical (model, n, seed) inputs reproduce the exact
same counts on any platform. Replicates of an experiment draw from
spawned child streams and are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import (
    CountModel,
    Geometric,
    Hurdle,
    NegBinomial,
    Poisson,
    ZeroInflated,
    log_pmf_array,
    pmf,
)
from .errors import CountFitError, EstimationError, InvalidModelError
from .estimate import (
    FrequencySample,
    loglik,
    mle_geometric,
    mle_hg,
    mle_nb,
    mle_poisson,
    mle_zig,
    mom_nb,
    summarize,
)

__all__ = ["sample", "grid_oracle", "recovery_experiment", "RecoveryReport"]

_TAIL_MASS = 1e-12
_TABLE_CAP = 10_000_000


def _inverse_cdf_table(probs, start: int = 0) -> np.ndarray:
    """Cumulative probabilities from ``start`` until tail mass < 1e-12.

    ``probs`` maps an array of counts to their probabilities. The range is
    doubled until it covers all but the tail mass, so the table costs a few
    array calls, not one pmf call per count.
    """
    size = 64
    while True:
        cum = np.cumsum(probs(np.arange(start, start + size)))
        covered = np.flatnonzero(cum >= 1.0 - _TAIL_MASS)
        if covered.size:
            return cum[: covered[0] + 1]
        if size >= _TABLE_CAP:
            raise CountFitError("inverse-CDF table did not converge")
        size = min(2 * size, _TABLE_CAP)


def _poisson(rng: np.random.Generator, lam, n: int | None = None) -> np.ndarray:
    try:
        return rng.poisson(lam, n)
    except ValueError as exc:  # numpy refuses means near 2**63
        raise CountFitError(f"cannot sample a Poisson mean this large ({exc})") from exc


def _sample_base(base: CountModel, n: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(base, Poisson):
        return _poisson(rng, base.mean, n)
    if isinstance(base, Geometric):
        if base.p == 1.0:
            return np.zeros(n, dtype=np.int64)
        # inverse CDF: floor(ln(1-U) / ln(q)) has the number-of-failures law
        u = rng.random(n)
        return np.floor(np.log1p(-u) / math.log1p(-base.p)).astype(np.int64)
    if isinstance(base, NegBinomial):
        if base.p == 1.0:
            return np.zeros(n, dtype=np.int64)
        return _poisson(rng, rng.gamma(base.k, (1.0 - base.p) / base.p, n))
    raise InvalidModelError(f"cannot sample base model {type(base).__name__}")


def sample(model: CountModel, n: int, seed) -> np.ndarray:
    """Draw n counts from the model, deterministically in the seed."""
    if n < 1:
        raise CountFitError(f"sample size must be >= 1, got {n!r}")
    rng = np.random.default_rng(seed)
    if isinstance(model, (Poisson, Geometric, NegBinomial)):
        return _sample_base(model, n, rng)
    if isinstance(model, ZeroInflated):
        if model.pi >= 0.0:
            is_extra_zero = rng.random(n) < model.pi
            draws = _sample_base(model.base, n, rng)
            draws[is_extra_zero] = 0
            return draws
        # negative mixing weight: the mixture story breaks down, sample the
        # compound pmf directly by inverse CDF
        cum = _inverse_cdf_table(lambda ys: np.exp(log_pmf_array(model, ys)))
        return np.searchsorted(cum, rng.random(n)).astype(np.int64)
    if isinstance(model, Hurdle):
        at_zero = rng.random(n) < model.pi
        p0 = pmf(model.base, 0)
        cum = _inverse_cdf_table(
            lambda ys: np.exp(log_pmf_array(model.base, ys)) / (1.0 - p0), start=1
        )
        draws = 1 + np.searchsorted(cum, rng.random(n)).astype(np.int64)
        draws[at_zero] = 0
        return draws
    raise InvalidModelError(f"cannot sample model {type(model).__name__}")


def grid_oracle(
    s: FrequencySample, family: str, resolution: int = 1000
) -> tuple[dict[str, float], float]:
    """Exhaustive lattice search of the (pi, p) log-likelihood surface.

    Returns the lattice maximizer and its log-likelihood. Independent of
    the closed-form estimators: the likelihood is evaluated directly from
    its structured form at every lattice point. The p-axis endpoints are
    fixed, so doubling the resolution refines the lattice in place.
    """
    if resolution < 100:
        raise CountFitError(f"resolution must be >= 100, got {resolution!r}")
    if family not in ("zig", "hg"):
        raise CountFitError(f"grid oracle supports 'zig' and 'hg', not {family!r}")
    n, n0, m = s.n, s.n0, s.mean
    eps = 1e-6
    p = np.linspace(eps, 1.0 - eps, resolution + 1)
    t = np.linspace(0.0, 1.0, resolution + 1)[:, None]
    s_total = m * n
    with np.errstate(divide="ignore", invalid="ignore"):
        if family == "zig":
            pi_lo = -p / (1.0 - p)
            pi = pi_lo[None, :] + t * ((1.0 - eps) - pi_lo[None, :])
            p0 = pi + (1.0 - pi) * p[None, :]
            ll = (
                n0 * np.log(p0)
                + (n - n0) * np.log1p(-pi)
                + (n - n0) * np.log(p[None, :])
                + s_total * np.log1p(-p[None, :])
            )
        else:
            pi = t * np.ones_like(p)[None, :] * (1.0 - eps)
            term_pi = np.where(n0 > 0, n0 * np.log(pi), 0.0)
            ll = (
                term_pi
                + (n - n0) * np.log1p(-pi)
                + (n - n0) * np.log(p[None, :])
                + (s_total - (n - n0)) * np.log1p(-p[None, :])
            )
    ll = np.where(np.isfinite(ll), ll, -np.inf)
    i, j = np.unravel_index(np.argmax(ll), ll.shape)
    return {"pi": float(pi[i, j]), "p": float(p[j])}, float(ll[i, j])


@dataclass(frozen=True)
class RecoveryReport:
    true_model: CountModel
    n: int
    replicates: int
    seed: int
    true_params: dict[str, float]
    estimates: dict[str, dict[str, float]]  # method -> mean parameter values
    abs_error: dict[str, dict[str, float]]  # method -> mean |estimate - true|
    solver_failures: int


def _true_params(model: CountModel) -> dict[str, float]:
    if isinstance(model, Poisson):
        return {"m": model.mean}
    if isinstance(model, Geometric):
        return {"p": model.p}
    if isinstance(model, NegBinomial):
        return {"p": model.p, "k": model.k}
    if isinstance(model, (ZeroInflated, Hurdle)):
        if not isinstance(model.base, Geometric):
            raise CountFitError("recovery supports geometric-based compounds only")
        return {"pi": model.pi, "p": model.base.p}
    raise InvalidModelError(f"unknown model type {type(model).__name__}")


def _estimators_for(model: CountModel):
    if isinstance(model, Poisson):
        return {"mle": (mle_poisson, lambda f: {"m": f.model.mean})}
    if isinstance(model, Geometric):
        return {"mle": (mle_geometric, lambda f: {"p": f.model.p})}
    if isinstance(model, NegBinomial):
        extract = lambda f: {"p": f.model.p, "k": f.model.k}
        return {"mle": (mle_nb, extract), "moments": (mom_nb, extract)}
    if isinstance(model, ZeroInflated):
        return {"mle": (mle_zig, lambda f: {"pi": f.model.pi, "p": f.model.base.p})}
    if isinstance(model, Hurdle):
        return {"mle": (mle_hg, lambda f: {"pi": f.model.pi, "p": f.model.base.p})}
    raise InvalidModelError(f"unknown model type {type(model).__name__}")


def recovery_experiment(
    true_model: CountModel, n: int, replicates: int, seed: int
) -> RecoveryReport:
    """Sample-and-refit experiment measuring estimator error.

    Each replicate draws n counts from the true model and fits every
    applicable estimator. Estimator failures are counted, not raised.
    """
    if replicates < 1:
        raise CountFitError(f"replicates must be >= 1, got {replicates!r}")
    truth = _true_params(true_model)
    estimators = _estimators_for(true_model)
    sums: dict[str, dict[str, float]] = {
        meth: {k: 0.0 for k in truth} for meth in estimators
    }
    err_sums: dict[str, dict[str, float]] = {
        meth: {k: 0.0 for k in truth} for meth in estimators
    }
    successes = {meth: 0 for meth in estimators}
    failures = 0
    children = np.random.SeedSequence(seed).spawn(replicates)
    for child in children:
        counts = sample(true_model, n, child)
        s = summarize(counts)
        for meth, (fit_fn, extract) in estimators.items():
            try:
                fit = fit_fn(s)
            except CountFitError:
                failures += 1
                continue
            est = extract(fit)
            successes[meth] += 1
            for name, value in est.items():
                sums[meth][name] += value
                err_sums[meth][name] += abs(value - truth[name])
    estimates = {
        meth: {k: v / successes[meth] for k, v in sums[meth].items()}
        for meth in estimators
        if successes[meth] > 0
    }
    abs_error = {
        meth: {k: v / successes[meth] for k, v in err_sums[meth].items()}
        for meth in estimators
        if successes[meth] > 0
    }
    return RecoveryReport(
        true_model=true_model,
        n=n,
        replicates=replicates,
        seed=seed,
        true_params=truth,
        estimates=estimates,
        abs_error=abs_error,
        solver_failures=failures,
    )
