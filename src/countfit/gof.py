"""Chi-squared goodness of fit with tail pooling, AIC and model comparison.

The cells of a sample whose largest count is M are the counts 0..M and a
tail cell for M+1 and up. A cell expects n*pmf(y); the tail cell expects
n*(1 - the pmf summed over 0..M) and observes 0. Three rules turn the
cells into the bins of the test:

1. A cell that expects exactly 0 folds into the next cell up that expects
   more; a zero run at the top folds into the last such cell instead.
2. The upper tail pools: the last bin absorbs the one below it while
   more than MIN_BINS bins remain and both expect less than the
   threshold, which must be > 0 (inf pools down to MIN_BINS bins).
3. chi2 is the sum of (o - e)**2 / e over the bins, left to right, and
   df = bins - 1 - fitted parameters.

A bin label matches ``\\d+(,\\d+)*\\+?``: the counts of its cells joined by
commas ("0,1" holds a folded zero cell), with "+" on the last bin, whose
last listed count stands for itself and every count above it. A pooled
last bin is its first count and "+" ("12+").

Cost of one test over M + 2 cells that end as B bins: the log-pmf, the
zero check and pooling (a reversed running sum of the expected cells)
are O(M) numpy work; the fold is O(M) numpy work too, and runs only when
some count's cell expects exactly 0 (a zero tail cell just drops into
the cell below). Only the B bins are turned into Python floats. A `Bin`
is a named tuple made by `tuple.__new__` in C, one tuple per bin with no
Python frame; labels and chi2 are O(B) Python loops.
`compare_models` builds the observed cells and the cell names once per
sample and shares them across its families, which it fits by their "mle"
fitters in `estimate.FAMILY_TABLE`; `FAMILIES` is a view of that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .dist import CountModel, _table_fits, log_pmf_array
from .errors import (
    CountFitError,
    DegenerateBinningError,
    EstimationError,
    InvalidModelError,
)
from .estimate import FAMILY_TABLE, FitResult, FrequencySample
from .specfn import chi2_survival

__all__ = [
    "Bin",
    "GofResult",
    "ModelEntry",
    "ComparisonReport",
    "expected_counts",
    "gof_test",
    "compare_models",
    "FAMILIES",
]

FAMILIES = tuple(FAMILY_TABLE)

MIN_BINS = 3

# relative AIC difference below which two fits count as tied
AIC_TIE = 1e-12


class Bin(NamedTuple):
    label: str  # single count "3" or pooled range "3+"
    observed: float
    expected: float


def _bins(labels, observed, expected) -> tuple[Bin, ...]:
    """The bins as a tuple, each made by `tuple.__new__` with no Python frame."""
    return tuple(map(tuple.__new__, repeat(Bin), zip(labels, observed, expected)))


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


def _expected(model: CountModel, n: int, ys: np.ndarray) -> tuple[np.ndarray, float]:
    """n*pmf over the counts ``ys`` = 0..max_count, and the tail cell's n*(1 - sum)."""
    probs = np.exp(log_pmf_array(model, ys))
    return n * probs, n * max(0.0, 1.0 - float(np.sum(probs)))


def _check_integer(name: str, v, least: int) -> None:
    """Refuse a v that is not an int or numpy integer >= least; bools are refused."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < least:
        raise InvalidModelError(f"{name} must be >= {least} and an integer, got {v!r}")


def expected_counts(model: CountModel, n: int, max_count: int) -> list[float]:
    """Expected frequencies n*pmf(y) for y in [0, max_count] plus a tail cell.

    Raises InvalidModelError unless n is an integer >= 0 and max_count one >= 1.
    """
    _check_integer("sample size", n, 0)
    _check_integer("max_count", max_count, 1)
    cells, tail = _expected(model, n, np.arange(max_count + 1))
    return cells.tolist() + [tail]


def _check_threshold(threshold: float) -> None:
    # written so that a NaN threshold fails too
    if not threshold > 0.0:
        raise CountFitError(f"pooling threshold must be > 0, got {threshold!r}")


def _pool(expected: np.ndarray, threshold: float) -> tuple[int, float]:
    """The tail pooling rule: bins left, and the last bin's expected count.

    ``tail[i]`` is the top i + 1 cells summed from the top down, in the
    order a one-cell-at-a-time merge adds them (cumsum is sequential and
    addition commutes), so the pooled count is the same bits.
    """
    _check_threshold(threshold)
    k = len(expected)
    if k < MIN_BINS:
        raise DegenerateBinningError(f"pooling left only {k} bins (< {MIN_BINS})")
    top_down = expected[::-1]
    tail = np.cumsum(top_down)
    # merge i: the last bin, holding the top i + 1 cells, absorbs the cell below
    low = top_down < threshold
    merge = (tail[: k - MIN_BINS] < threshold) & low[1 : k - MIN_BINS + 1]
    # the merges run up to the first refused one
    merged = int(np.argmin(np.append(merge, False)))
    return k - merged, float(tail[merged])


def _chi2(observed: list[float], expected: list[float]) -> float:
    # left to right with Python's float pow, not numpy's x*x: the two
    # differ in the last bit for some values. A plain loop, not sum(),
    # which compensates float sums since Python 3.12 and so would give
    # other bits there
    total = 0.0
    for o, e in zip(observed, expected):
        total += (o - e) ** 2 / e
    return total


@dataclass(frozen=True)
class _Cells:
    """A sample's GOF cells 0..largest+1, built once and shared by every model."""

    n: int
    ys: np.ndarray  # the counts 0..largest, where the pmf is evaluated
    freqs: np.ndarray  # int64 observed frequency per cell; the tail cell's is 0
    observed: list[float]  # the same frequencies as floats
    names: list[str]  # str(y) for the first len(names) cells, grown on demand

    def names_to(self, end: int) -> list[str]:
        """The shared list of cell names, made to cover the cells below ``end``."""
        if len(self.names) < end:
            self.names.extend(map(str, range(len(self.names), end)))
        return self.names


def _cells(s: FrequencySample) -> _Cells:
    """The cell table of a sample, checked to be sane.

    The table is refused for an all-zero sample, and past the size rule of
    `summarize` (largest count against n), where it would cost far more
    than the sample itself.
    """
    if s.counts is None:
        raise EstimationError("goodness of fit requires the full frequency table")
    max_count = int(s.counts[-1])
    if max_count < 1:
        raise DegenerateBinningError("all observations are zero; nothing to bin")
    if not _table_fits(max_count, s.n):
        raise DegenerateBinningError(
            f"largest count {max_count} is too large for a table of cells "
            f"over 0..{max_count + 1} at n={s.n}"
        )
    freqs = np.zeros(max_count + 2, dtype=np.int64)
    freqs[s.counts] = s.freqs
    return _Cells(
        s.n, np.arange(max_count + 1), freqs, freqs.astype(np.float64).tolist(), []
    )


def _fold_zero_cells(
    freqs: np.ndarray, expected: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold each zero-expected cell into the next live cell up.

    A zero run at the top folds into the last live cell instead. Returns
    the folded observed and expected arrays and the first cell of each bin.
    Observed sums are exact while n < 2**53; expected values are unchanged,
    since only zeros are added to them. Some cell is live: the tail cell
    holds n*(1 - sum) when every other cell expects 0.
    """
    live = np.flatnonzero(expected)
    starts = np.concatenate(([0], live[:-1] + 1))
    return np.add.reduceat(freqs, starts, dtype=np.float64), expected[live], starts


def _gof(model: CountModel, cells: _Cells, n_params: int, threshold: float) -> GofResult:
    expected, tail = _expected(model, cells.n, cells.ys)
    if expected.all():
        # a zero tail cell (observed 0 too) folds into the largest count
        # without changing it, so it is left out of the cells
        observed, starts = cells.freqs, None
        if tail > 0.0:
            expected = np.append(expected, tail)
    else:
        observed, expected, starts = _fold_zero_cells(
            cells.freqs, np.append(expected, tail)
        )
    k, last_exp = _pool(expected, threshold)
    pooled = k < len(expected)
    obs = cells.observed[:k] if starts is None else observed[:k].tolist()
    exp = expected[:k].tolist()
    # observed cells are whole numbers, so any order sums them exactly
    obs[-1], exp[-1] = float(observed[k - 1 : len(expected)].sum()), last_exp
    chi2 = _chi2(obs, exp)
    df = k - 1 - n_params
    if df < 1:
        raise DegenerateBinningError(f"df = {k} bins - 1 - {n_params} params = {df} < 1")
    if starts is None:
        labels = cells.names_to(k)[:k]
        # the tail cell or the pooled tail from k - 1 up, or the largest
        # count with the zero tail cell folded in
        labels[-1] = f"{k - 1}+" if pooled or tail > 0.0 else f"{k - 1},{k}+"
    else:
        first = starts[:k].tolist()
        ends = first[1:] + [int(starts[k]) if pooled else len(cells.observed)]
        names = cells.names_to(ends[-1])
        labels = [",".join(names[a:b]) for a, b in zip(first, ends)]
        labels[-1] = f"{first[-1]}+" if pooled else labels[-1] + "+"
    if chi2 == math.inf:
        # (o - e)**2 stays below n**2, so only an expected count near the
        # bottom of the float range can overflow a term
        i = max(range(k), key=lambda i: (obs[i] - exp[i]) ** 2 / exp[i])
        raise CountFitError(
            f"bin {labels[i]!r} expects {exp[i]!r} against {obs[i]!r} observed: "
            "its chi-squared term overflows"
        )
    return GofResult(
        bins=_bins(labels, obs, exp),
        chi2=chi2,
        df=df,
        p_value=chi2_survival(chi2, df),
        n_params=n_params,
        pooling_threshold=threshold,
    )


def gof_test(
    model: CountModel,
    s: FrequencySample,
    n_params: int,
    threshold: float = 1.0,
) -> GofResult:
    """Chi-squared test of the model against the observed histogram.

    The bins come from the cells 0..largest count plus a tail cell, by the
    fold, pool and label rules of this module's docstring. Observed values
    are exact while n < 2**53, and expected values and chi2 are the same
    bits as folding and pooling one cell at a time. Raises CountFitError
    for a threshold that is not > 0 (NaN included); DegenerateBinningError
    for an all-zero sample, a largest count past `summarize`'s table size
    rule, fewer than MIN_BINS bins or df < 1; CountFitError naming the bin
    when a chi-squared term overflows (a bin expecting about 1e-300 or less
    that holds an observation); and InvalidModelError unless n_params is an
    integer >= 0 (0 for a fully specified model).
    """
    _check_integer("n_params", n_params, 0)
    return _gof(model, _cells(s), n_params, threshold)


def _tested_fit(
    family: str, s: FrequencySample, cells: _Cells | None, threshold: float
) -> ModelEntry:
    """Fit one family by its "mle" fitter, then test the fit, or give no GOF.

    The test runs against ``cells``, else the sample's own; a CountFitError
    from either gives no GOF, and a failed fit an entry holding its error.
    """
    try:
        fit = FAMILY_TABLE[family].mle(s)
    except CountFitError as exc:
        return ModelEntry(family=family, fit=None, gof=None, error=str(exc))
    try:
        gof = _gof(fit.model, cells or _cells(s), fit.n_params, threshold)
    except CountFitError:
        gof = None
    return ModelEntry(family=family, fit=fit, gof=gof)


def compare_models(
    s: FrequencySample,
    families: list[str],
    threshold: float = 1.0,
) -> ComparisonReport:
    """Fit each requested family, test its fit, and rank by AIC.

    Estimator failures (e.g. NB on under-dispersed data) become error
    entries instead of aborting the report; a threshold that is not > 0
    is refused before any fit. The sample's GOF cells are built once and
    shared by every family's test.
    """
    if not families:
        raise CountFitError("at least one model family is required")
    unknown = [f for f in families if f not in FAMILY_TABLE]
    if unknown:
        raise CountFitError(f"unknown families: {unknown}; choose from {FAMILIES}")
    _check_threshold(threshold)
    try:
        cells: _Cells | None = _cells(s)
    except CountFitError:
        cells = None
    entries = [_tested_fit(family, s, cells, threshold) for family in families]
    fitted = [e for e in entries if e.fit is not None]
    if not fitted:
        raise EstimationError("every requested family failed to fit")
    # reparametrized families tie up to roundoff: the first requested
    # family within AIC_TIE of the minimum wins, whatever the summation order
    low = min(e.fit.aic for e in fitted)
    best = next(e for e in fitted if e.fit.aic <= low + AIC_TIE * abs(low))
    names = {e.family for e in fitted}
    notes = tuple(
        f"{f.reparam_of} and {f.name} are reparametrizations of each other; "
        "their log-likelihoods and AICs coincide"
        for f in FAMILY_TABLE.values()
        if f.name in names and f.reparam_of in names
    )
    return ComparisonReport(
        entries=tuple(entries), best_aic_model=best.family, notes=notes
    )
