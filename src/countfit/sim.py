"""Sampling and recovery experiments.

Random streams come from numpy's default PCG64 generator seeded through
SeedSequence, so identical (model, n, seed) inputs reproduce the exact
same counts on any platform. An NB sample is drawn by inverse CDF, one
uniform per value looked up in a cumulative table of its pmf (exact up to
the 1e-12 tail the table leaves out). The table is built once per model and
sample size, and only where it passes the size rule of `summarize` against
the values drawn; past it each value is a Poisson draw of a gamma variate.
An NB that is the base of an inflated ZIG is drawn the same way.

Replicate i of a recovery experiment is
``sample(model, n, child_i)``, child_i being the i-th stream spawned from
``SeedSequence(seed)``: replicates are independent, and any one can be
drawn again alone. The experiment tallies the replicates into one
(replicates, L) frequency table as they are drawn, L being 1 + the largest
count, and fits all rows at once with the row fitters of the true model's
family in `estimate.FAMILY_TABLE`, which match its scalar fitters (closed
forms bit for bit, the NB shape to roundoff). Past the size rule of
`summarize` it fits replicate by replicate with the scalar fitters instead,
so memory stays O(n + replicates*L).
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
    _TABLE_CAP,
    _table_fits,
    log_pmf_array,
    moments,
    pmf,
)
from .errors import CountFitError, InvalidModelError
from .estimate import Family, _summarize_rows, family_of, summarize

__all__ = ["sample", "recovery_experiment", "RecoveryReport"]

_TAIL_MASS = 1e-12

# the most values one call may draw, summed over its replicates
MAX_VALUES = 10**9


def _inverse_cdf_table(probs, start: int = 0, n: int | None = None) -> np.ndarray | None:
    """Cumulative probabilities from ``start`` until tail mass < 1e-12.

    ``probs`` maps an array of counts to their probabilities. The range is
    doubled until it covers all but the tail mass, so the table costs a few
    array calls, not one pmf call per count. Given ``n``, the number of
    values the table serves, the table is None unless its length passes the
    size rule of `summarize` against n; the doubling stops as soon as it
    cannot.
    """
    size = 64
    while True:
        cum = np.cumsum(probs(np.arange(start, start + size)))
        covered = np.flatnonzero(cum >= 1.0 - _TAIL_MASS)
        if covered.size:
            cum = cum[: covered[0] + 1]
            return cum if n is None or _table_fits(cum.size, n) else None
        if n is not None and not _table_fits(size + 1, n):
            return None  # the covering table is longer than this one
        if size >= _TABLE_CAP:
            raise CountFitError("inverse-CDF table did not converge")
        size = min(2 * size, _TABLE_CAP)


def _check_table_length(base: CountModel) -> None:
    """Refuse up front a base whose inverse-CDF table would pass the cap.

    Past L counts the geometric tail is (1-p)^L, so the table needs at
    least ln(1e-12)/ln(1-p) counts. A Poisson or NB table must reach past
    the mean, past which the pmf falls: so the counts from the cap to any j
    above it hold at least (j - cap)*pmf(j). Where that passes 1e-8 for
    some j, no table within the cap covers all but 1e-12, even allowing for
    the 1e-9 by which a cumsum over that many cells can round. The doubling
    would otherwise build ever larger tables up to the cap before it gave
    up.
    """
    if isinstance(base, Geometric):
        if math.log(_TAIL_MASS) / math.log1p(-base.p) > _TABLE_CAP:
            raise CountFitError(
                f"cannot sample a geometric p={base.p!r} this small by inverse CDF: "
                f"its table would need more than {_TABLE_CAP} counts"
            )
        return
    steps = 2.0 ** np.arange(25)
    if moments(base).mean > _TABLE_CAP or np.any(
        steps * np.exp(log_pmf_array(base, _TABLE_CAP + steps)) > 1e-8
    ):
        raise CountFitError(
            f"cannot sample the base {base!r} by inverse CDF: its table would "
            f"need more than {_TABLE_CAP} counts"
        )


def _poisson(rng: np.random.Generator, lam, n: int | None = None) -> np.ndarray:
    try:
        return rng.poisson(lam, n)
    except ValueError as exc:  # numpy refuses means near 2**63
        raise CountFitError(f"cannot sample a Poisson mean this large ({exc})") from exc


# ln(1 - u) at the largest float below 1 that rng.random() returns
_LOG_U_FLOOR = math.log1p(-(1.0 - 2.0**-53))


def _table_sampler(cum: np.ndarray, n: int, start: int = 0):
    """rng -> n counts by inverse CDF: one uniform per value, looked up in ``cum``."""
    def draw(rng: np.random.Generator) -> np.ndarray:
        draws = np.searchsorted(cum, rng.random(n)).astype(np.int64, copy=False)
        return np.add(draws, start, out=draws) if start else draws
    return draw


def _zero_mixed(pi: float, draw, n: int):
    """rng -> n counts, each 0 with probability pi and else what ``draw`` gives.

    The n uniforms that pick the zeros are drawn first; ``draw`` then runs
    on the rest of the stream.
    """

    def draw_mixed(rng: np.random.Generator) -> np.ndarray:
        at_zero = rng.random(n) < pi
        draws = draw(rng)
        draws[at_zero] = 0
        return draws

    return draw_mixed


def _sampler(model: CountModel, n: int):
    """rng -> n counts from the model.

    Checks and inverse-CDF tables are made here, once per model and sample
    size, so that the replicates of an experiment share them. An NB with
    p < 1 is drawn from a table of its pmf where the table passes the size
    rule of `summarize` against n, else as a Poisson of a gamma variate; the
    choice depends on (model, n) alone, so ``sample(model, n, seed)`` draws
    what a recovery replicate of n values draws from the same stream. An
    inflated ZIG draws its base as that base alone is drawn; deflated ZIGs
    and the positive part of hurdles are drawn from tables too.
    """
    if isinstance(model, Poisson):
        return lambda rng: _poisson(rng, model.mean, n)
    if isinstance(model, (Geometric, NegBinomial)) and model.p == 1.0:
        return lambda rng: np.zeros(n, dtype=np.int64)
    if isinstance(model, Geometric):
        log_q = math.log1p(-model.p)
        if _LOG_U_FLOOR / log_q >= 2.0**63:
            raise CountFitError(
                f"cannot sample a geometric p={model.p!r} this small: "
                "its draws can exceed the int64 range"
            )
        # inverse CDF: floor(ln(1-U) / ln(q)) has the number-of-failures law
        return lambda rng: np.floor(np.log1p(-rng.random(n)) / log_q).astype(np.int64)
    if isinstance(model, NegBinomial):
        cum = _inverse_cdf_table(lambda ys: np.exp(log_pmf_array(model, ys)), n=n)
        if cum is not None:
            return _table_sampler(cum, n)
        scale = (1.0 - model.p) / model.p
        return lambda rng: _poisson(rng, rng.gamma(model.k, scale, n))
    if isinstance(model, ZeroInflated) and model.pi >= 0.0:
        return _zero_mixed(model.pi, _sampler(model.base, n), n)
    if isinstance(model, ZeroInflated):
        # negative mixing weight: the mixture story breaks down, sample the
        # compound pmf directly by inverse CDF
        _check_table_length(model.base)
        cum = _inverse_cdf_table(lambda ys: np.exp(log_pmf_array(model, ys)))
        return _table_sampler(cum, n)
    if isinstance(model, Hurdle):
        _check_table_length(model.base)
        p0 = pmf(model.base, 0)
        cum = _inverse_cdf_table(
            lambda ys: np.exp(log_pmf_array(model.base, ys)) / (1.0 - p0), start=1
        )
        return _zero_mixed(model.pi, _table_sampler(cum, n, start=1), n)
    raise InvalidModelError(f"cannot sample model {type(model).__name__}")


def _check_size(n: int, replicates: int = 1) -> None:
    """Refuse a sample size below 1, or more than MAX_VALUES values in all."""
    if n < 1:
        raise CountFitError(f"sample size must be >= 1, got {n!r}")
    if n * replicates > MAX_VALUES:
        raise CountFitError(
            f"{n * replicates} values asked for (n={n}, replicates={replicates}); "
            f"the cap is {MAX_VALUES}"
        )


def sample(model: CountModel, n: int, seed) -> np.ndarray:
    """Draw n counts from the model, deterministically in the seed."""
    _check_size(n)
    return _sampler(model, n)(np.random.default_rng(seed))


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


def _tally_replicates(draws, b: int, n: int) -> np.ndarray | None:
    """The (b, L) frequency table of b replicates of n values, L = 1 + largest count.

    Each replicate is tallied as it is drawn. None once the table would
    break the size rule of `summarize` (b*L cells against b*n values), so
    memory stays O(n + b*L).
    """
    rows, width = [], 1
    for values in draws:
        width = max(width, int(values.max()) + 1)
        if not _table_fits(b * width, b * n):
            return None
        rows.append(np.bincount(values))
    table = np.zeros((b, width), dtype=np.int64)
    for row, counts in zip(table, rows):
        row[: counts.size] = counts
    return table


def _fit_replicates(draws, b: int, n: int, family: Family) -> dict:
    """method -> (parameter arrays by name, success mask) over b replicates of n values.

    ``draws()`` yields the replicates afresh on each call. They are fitted
    as the rows of one table by the family's row fitters, or one by one by
    its scalar fitters where that table would be too large.
    """
    table = _tally_replicates(draws(), b, n)
    if table is not None:
        stats = _summarize_rows(table)
        fits = {meth: rows(table, *stats) for meth, (_, rows) in family.fits.items()}
    else:
        failed = (np.nan,) * family.n_params
        found: dict[str, list] = {meth: [] for meth in family.fits}
        for values in draws():
            s = summarize(values)
            for meth, (fit_fn, _) in family.fits.items():
                try:
                    found[meth].append(family.values(fit_fn(s).model))
                except CountFitError:
                    found[meth].append(None)
        fits = {
            meth: (
                np.array([failed if f is None else f for f in per]).T,
                np.array([f is not None for f in per]),
            )
            for meth, per in found.items()
        }
    return {meth: (dict(zip(family.names, cols)), ok) for meth, (cols, ok) in fits.items()}


def _mean_in_order(values: np.ndarray) -> float:
    """The mean, summed in replicate order."""
    total = 0.0
    for v in values.tolist():
        total += v
    return total / values.size


def recovery_experiment(
    true_model: CountModel, n: int, replicates: int, seed: int
) -> RecoveryReport:
    """Sample-and-refit experiment measuring estimator error.

    Replicate i draws n counts with ``sample(true_model, n, child_i)``,
    child_i being the i-th stream spawned from ``SeedSequence(seed)``, so
    results do not depend on how the replicates are fitted. Each replicate
    is tallied as it is drawn into one (replicates, L) frequency table, L
    being 1 + the largest count, and every estimator then runs once over
    all rows as array code, computing parameters only. The closed forms
    match the scalar `mle_*` bit for bit, the NB shape agrees with `mle_nb`
    to roundoff, and the rows that fail are those the scalar estimators
    reject. Where the table would break the size rule of `summarize`
    (replicates*L cells against replicates*n values), each replicate is
    summarized and fitted by the scalar estimators instead, so memory stays
    O(n + replicates*L). Estimator failures are counted, not raised.
    """
    if replicates < 1:
        raise CountFitError(f"replicates must be >= 1, got {replicates!r}")
    family = family_of(true_model)
    truth = family.params(true_model)
    _check_size(n, replicates)
    draw = _sampler(true_model, n)
    children = np.random.SeedSequence(seed).spawn(replicates)
    fits = _fit_replicates(
        lambda: (draw(np.random.default_rng(c)) for c in children),
        replicates,
        n,
        family,
    )
    estimates, abs_error, failures = {}, {}, 0
    for meth, (params, ok) in fits.items():
        failures += int(np.count_nonzero(~ok))
        if ok.any():
            estimates[meth] = {k: _mean_in_order(params[k][ok]) for k in truth}
            abs_error[meth] = {
                k: _mean_in_order(np.abs(params[k][ok] - v)) for k, v in truth.items()
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
