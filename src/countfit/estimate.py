"""Maximum-likelihood and method-of-moments estimators for count data.

Zero-inflated geometric, hurdle geometric, geometric and Poisson fits are
closed-form. The negative binomial shape is the unique root of its
finite-sum profile score (Bliss & Fisher 1953); one solver, `_solve_log_k`
(safeguarded Newton in log k), finds it for the scalar and the row fits. Its
contract is Python floats; only the row fit, which scores arrays, converts.

A family's law is its model class in `dist`. Its `FAMILY_TABLE` record
holds the rest: its parameter names, how to build a model from them, its
scalar and row fitters, and the family it reparametrizes. The CLI, `gof`
and `sim` read the table; adding a family is a class and a record.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from types import MappingProxyType

import numpy as np

from .dist import (
    CountModel, Geometric, Hurdle, NegBinomial, Poisson, ZeroInflated,
    _require_model, _table_fits, log_pmf_array,
)
from .errors import AllZerosError, CountFitError, EstimationError, UnderDispersedError
from .specfn import _digamma, _trigamma, _x_minus_log1p, _x_minus_log1p_series

__all__ = [
    "FrequencySample",
    "SolverInfo",
    "FitResult",
    "Family",
    "FAMILY_TABLE",
    "family_of",
    "aic",
    "summarize",
    "loglik",
    "mle_zig",
    "mle_hg",
    "mle_geometric",
    "mle_poisson",
    "mle_nb",
    "mom_nb",
]

_BRACKET_CAP = 1e8
_BRACKET_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class FrequencySample:
    """Histogram summary of a count sample.

    ``counts`` holds the distinct observed counts in ascending order and
    ``freqs`` their (positive) frequencies, as aligned read-only int64
    arrays; every full-table operation works on these in O(distinct
    counts). Both are None for samples specified only through (n, n0,
    mean), which is all the closed-form estimators need; operations that
    require the full histogram raise in that case. Variance uses
    denominator n (population convention, matching the method-of-moments
    formulas).
    """

    counts: np.ndarray | None
    freqs: np.ndarray | None
    n: int
    n0: int
    mean: float
    var: float | None

    @classmethod
    def from_summary(
        cls, n: int, n0: int, mean: float, var: float | None = None
    ) -> "FrequencySample":
        """A sample known only by its summary; refuses one no counts can give."""
        # n - n0 nonzero counts sum to n*mean, at least n - n0 (0 with none);
        # their spread is least when all are equal, so var >= mean^2*n0/(n-n0)
        if not (all(isinstance(v, (int, np.integer)) for v in (n, n0))
                and 1 <= n and 0 <= n0 <= n and math.isfinite(mean)
                and mean >= (n - n0) / n and (n0 < n or mean == 0.0)
                and (var is None or 0.0 <= var < math.inf
                     and var * (n - n0) >= (1.0 - 1e-9) * n0 * mean * mean)):
            raise EstimationError(
                f"inconsistent summary: n={n!r}, n0={n0!r}, mean={mean!r}, var={var!r}"
            )
        return cls(counts=None, freqs=None, n=n, n0=n0, mean=mean, var=var)

    @cached_property
    def freq(self) -> Mapping[int, int] | None:
        """Read-only count -> frequency mapping, built on first use."""
        if self.counts is None:
            return None
        return MappingProxyType(dict(zip(self.counts.tolist(), self.freqs.tolist())))


def summarize(data: Iterable[int] | Mapping[int, int]) -> FrequencySample:
    """Build a FrequencySample from raw counts or a count->frequency map.

    Raw counts (a numpy array, list or any iterable) are tallied with
    ``np.bincount``, or by sorting when the largest count is large relative
    to the number of values, and a map of ints is read with no Python per
    entry; so ingest is O(n) and every later operation O(distinct counts).
    """
    if isinstance(data, Mapping):
        counts, freqs = _from_map(data)
    else:
        counts, freqs = _tally(_values(data))
    if counts.size == 0:
        raise EstimationError("empty sample")
    if counts[0] < 0:
        raise EstimationError("negative counts are not allowed")
    if freqs.min() < 0:
        raise EstimationError("negative frequencies are not allowed")
    counts.flags.writeable = False
    freqs.flags.writeable = False
    ys, fs = counts.tolist(), freqs.tolist()
    n = sum(fs)
    mean = sum(map(operator.mul, ys, fs)) / n  # exact integer total
    var = float(np.sum(_squared_deviations(counts, freqs, mean))) / n
    n0 = fs[0] if ys[0] == 0 else 0
    return FrequencySample(counts=counts, freqs=freqs, n=n, n0=n0, mean=mean, var=var)


def _squared_deviations(counts: np.ndarray, freqs: np.ndarray, mean) -> np.ndarray:
    """f * (y - mean)^2 per distinct count: the terms of n times the variance."""
    dev = counts - mean
    return freqs * (dev * dev)


def _summarize_rows(table: np.ndarray) -> tuple:
    """(n, n0, mean, var) of each row of a (rows, L) table of count frequencies.

    Every row holds the same number of values n. The mean keeps the exact
    integer total, and the variance sums each row's terms over its distinct
    counts as `summarize` does, so both match `summarize` bit for bit. A sum
    over the zero-padded row would group the terms differently, round
    differently, and could move a variance across the mean.
    """
    n = int(table[0].sum())
    mean = np.array([t / n for t in (table @ np.arange(table.shape[1])).tolist()])
    rows, counts = np.nonzero(table)
    terms = _squared_deviations(counts, table[rows, counts], mean[rows])
    ends = np.cumsum(np.count_nonzero(table, axis=1)).tolist()
    var = [float(terms[a:b].sum()) / n for a, b in zip([0] + ends, ends)]
    return n, table[:, 0], mean, np.array(var)


def _from_map(data: Mapping[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Ascending counts and their nonzero frequencies from a count map.

    Keys and values numpy reads as flat int64 arrays are taken as they are;
    any other map (floats, strs, ints past int64) goes through int() per entry.
    """
    try:
        counts, freqs = np.array(list(data.keys())), np.array(list(data.values()))
    except ValueError:  # ragged entries: int() below says what is wrong
        counts = freqs = np.empty(0, dtype=object)
    if not (counts.dtype == freqs.dtype == np.int64 and counts.ndim == freqs.ndim == 1):
        try:
            # int() first, so that a frequency it turns into 0 is dropped too
            items = [(int(y), int(f)) for y, f in data.items()]
            counts = np.array([y for y, f in items if f], dtype=np.int64)
            freqs = np.array([f for _, f in items if f], dtype=np.int64)
        except OverflowError as exc:
            raise EstimationError("counts and frequencies must be below 2**63") from exc
        except (TypeError, ValueError) as exc:
            raise EstimationError(f"count map entries must be integers: {exc}") from exc
    counts, freqs = counts[freqs != 0], freqs[freqs != 0]
    order = np.argsort(counts)
    counts, freqs = counts[order], freqs[order]
    if np.any(counts[1:] == counts[:-1]):
        raise EstimationError("count map has duplicate counts")
    return counts, freqs


def _values(data: Iterable[int]) -> np.ndarray:
    """Raw counts as a flat int64 array; int() semantics for other types."""
    try:
        values = data if isinstance(data, np.ndarray) else list(data)
        arr = np.asarray(values)
        if not np.can_cast(arr.dtype, np.int64):
            arr = np.array([int(v) for v in values], dtype=np.int64)
    except OverflowError as exc:
        raise EstimationError("counts must be below 2**63") from exc
    except (TypeError, ValueError) as exc:
        raise EstimationError(f"counts must be integers: {exc}") from exc
    if arr.ndim != 1:
        raise EstimationError("counts must be a flat sequence")
    return arr.astype(np.int64, copy=False)


def _tally(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending distinct values and their frequencies."""
    if values.size and _table_fits(values.max(), values.size):
        try:
            table = np.bincount(values)
        except ValueError:  # a negative value
            return np.unique(values, return_counts=True)
        counts = np.flatnonzero(table)
        return counts, table[counts]
    return np.unique(values, return_counts=True)


@dataclass(frozen=True)
class SolverInfo:  # field order is the order of a report's "solver" keys
    method: str  # "closed-form", "newton-bisection" or "moments"
    iterations: int = 0
    bracket: tuple[float, float] | None = None
    residual: float | None = None
    boundary: bool = False
    notes: tuple[str, ...] = field(default=())


@dataclass(frozen=True)
class FitResult:
    model: CountModel
    loglik: float
    aic: float
    n_params: int
    solver: SolverInfo


def aic(loglik: float, n_params: int) -> float:
    """Akaike's information criterion: 2*n_params - 2*loglik."""
    if n_params < 1:
        raise CountFitError(f"n_params must be >= 1, got {n_params!r}")
    return 2.0 * n_params - 2.0 * loglik


def _fit_result(
    model: CountModel, ll: float, n_params: int, solver: SolverInfo
) -> FitResult:
    return FitResult(
        model=model, loglik=ll, aic=aic(ll, n_params), n_params=n_params, solver=solver
    )


def loglik(model: CountModel, s: FrequencySample) -> float:
    """Log-likelihood of the sample under the model.

    With a full histogram this is the direct sum of freqs * log_pmf_array. For
    summary-only samples the model's structured form (a function of n, n0
    and the mean alone) is used; the geometric family and its
    zero-inflated/hurdle compounds have one.
    """
    if s.counts is not None:
        return float(np.sum(s.freqs * log_pmf_array(model, s.counts)))
    return _require_model(model)._summary_loglik(s.n, s.n0, s.mean)


def _require_nonzero_mean(s: FrequencySample) -> None:
    if s.mean == 0.0:
        raise AllZerosError("every observation is zero; no two-parameter fit exists")


def _zig_params(n, n0, m):
    """ZIG MLE (pi, p) from n, n0 and the mean, elementwise over arrays.

    The third value says where the maximizer is interior to the p axis:
    false where every nonzero count equals 1 (or the mean is zero). With
    no zeros the estimate is the floor pi = -p/(1-p), raised by the fewest
    ulps (at most a few) that keep P(0) = pi + (1-pi)p from rounding below
    zero: the reported pair then gives P(0) >= 0 wherever it is evaluated,
    not only inside `log_pmf_array`, and pi stays in the admissible interval.
    """
    m = np.asarray(m, dtype=np.float64)  # no ZeroDivisionError where p = 1
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = m * n - n + n0
        p = (n - n0) / (m * n)
        pi = np.where(n0 == 0, -p / (1.0 - p), (m * n0 - n + n0) / denom)
        low = pi + (1.0 - pi) * p < 0.0
        while np.any(low):
            pi = np.where(low, np.nextafter(pi, 0.0), pi)
            low = pi + (1.0 - pi) * p < 0.0
    return pi, p, denom > 0.0


def _hg_params(n, n0, m):
    """Hurdle geometric MLE (pi, p) from n, n0 and the mean, elementwise."""
    return n0 / n, (n - n0) / (n * m)


def _geometric_p(m):
    """Geometric MLE p = 1/(1+m), elementwise."""
    return 1.0 / (1.0 + m)


def _moments_shape(m, var):
    """Method-of-moments NB shape m^2/(var - m), elementwise."""
    return m * m / (var - m)


def mle_zig(s: FrequencySample) -> FitResult:
    """Closed-form MLE for the zero-inflated(deflated) geometric model."""
    _require_nonzero_mean(s)
    pi_hat, p_hat, interior = _zig_params(s.n, s.n0, s.mean)
    if not interior:
        raise EstimationError(
            "degenerate sample: every nonzero count equals 1; the ZIG "
            "likelihood has no interior maximizer"
        )
    notes: tuple[str, ...] = ()
    boundary = s.n0 == 0
    if boundary:
        notes = ("no zeros observed: estimate sits on the P(0)=0 boundary",)
    model = ZeroInflated(pi=float(pi_hat), base=Geometric(p=float(p_hat)))
    ll = loglik(model, s)
    return _fit_result(
        model, ll, 2, SolverInfo(method="closed-form", boundary=boundary, notes=notes)
    )


def mle_hg(s: FrequencySample) -> FitResult:
    """Closed-form MLE for the hurdle geometric model."""
    _require_nonzero_mean(s)
    pi_hat, p_hat = _hg_params(s.n, s.n0, s.mean)
    if p_hat >= 1.0:
        raise EstimationError(
            "degenerate sample: every nonzero count equals 1; the hurdle "
            "geometric base collapses to a point mass at zero"
        )
    model = Hurdle(pi=pi_hat, base=Geometric(p=p_hat))
    ll = loglik(model, s)
    boundary = s.n0 == 0
    return _fit_result(
        model, ll, 2, SolverInfo(method="closed-form", boundary=boundary)
    )


def mle_geometric(s: FrequencySample) -> FitResult:
    """Geometric MLE: p = 1/(1+m); p=1 degenerate for an all-zero sample."""
    model = Geometric(p=_geometric_p(s.mean))
    ll = loglik(model, s)
    return _fit_result(model, ll, 1, SolverInfo(method="closed-form"))


def mle_poisson(s: FrequencySample) -> FitResult:
    """Poisson MLE: the sample mean."""
    model = Poisson(mean=s.mean)
    if s.counts is not None:
        ll = loglik(model, s)
    elif s.mean == 0.0:
        ll = 0.0
    else:
        raise EstimationError("Poisson log-likelihood requires the full histogram")
    return _fit_result(model, ll, 1, SolverInfo(method="closed-form"))


def mom_nb(s: FrequencySample) -> FitResult:
    """Method-of-moments NB fit: k = m^2/(s2 - m), p = k/(m + k)."""
    _require_nonzero_mean(s)
    if s.var is None:
        raise EstimationError("method of moments requires the sample variance")
    if s.var <= s.mean:
        raise UnderDispersedError(
            f"sample variance {s.var:.6g} does not exceed mean {s.mean:.6g}"
        )
    k_hat = _moments_shape(s.mean, s.var)
    p_hat = k_hat / (s.mean + k_hat)
    model = NegBinomial(p=p_hat, k=k_hat)
    ll = loglik(model, s) if s.counts is not None else float("nan")
    return _fit_result(model, ll, 2, SolverInfo(method="moments"))


def _nb_profile_score(ys: np.ndarray, fs: np.ndarray, n: int, m: float):
    """k -> (g(k), g'(k)): the NB score in k with p = k/(m+k) substituted.

    Bliss & Fisher (1953): with A_j = #{y > j}, g(k) = sum_j A_j/(k+j) -
    n*log1p(m/k). As sum_j A_j = n*m, it is evaluated as n*(x - log1p(x)) -
    (1/k)*sum_j j*A_j/(k+j) with x = m/k, where no two large terms cancel
    near the Poisson limit. The A_j table costs O(largest count); past the
    size rule of `summarize` the sum runs over the distinct counts instead,
    as digamma differences (A_j is constant between them).
    """
    if _table_fits(int(ys[-1]), n):
        j = np.arange(ys[-1], dtype=np.float64)
        ja = j * (n - np.cumsum(np.bincount(ys, fs)[:-1]))  # j * A_j

        def score(k: float) -> tuple[float, float]:
            inv = 1.0 / (k + j)
            r = ja * inv
            s1, s2 = float(r.sum()), float(r @ inv)
            g = n * _x_minus_log1p(m / k) - s1 / k
            return g, (s1 + k * s2 - n * m * m / (m + k)) / (k * k)

    else:

        def score(k: float) -> tuple[float, float]:
            g = float(np.sum(fs * (_digamma(ys + k) - _digamma(k))))
            dg = float(np.sum(fs * (_trigamma(ys + k) - _trigamma(k))))
            return g - n * math.log1p(m / k), dg + n * m / (k * (m + k))

    return score


def mle_nb(s: FrequencySample) -> FitResult:
    """Numerical NB MLE: the root in k of the finite-sum profile score.

    The root is unique when the variance exceeds the mean (Aragon, Eberly &
    Eberly 1992); `_solve_log_k` states the rules. ``iterations`` counts
    every score evaluation, the last one at k giving ``residual``.
    """
    _require_nonzero_mean(s)
    if s.var is None or s.counts is None:
        raise EstimationError("NB MLE requires the full frequency table")
    if s.var <= s.mean:
        raise UnderDispersedError(
            f"sample variance {s.var:.6g} does not exceed mean {s.mean:.6g}; "
            "the NB score equation has no finite root"
        )
    n, m = s.n, s.mean
    score = _nb_profile_score(s.counts, s.freqs, n, m)

    [(k, bracket, g, evals, cap, floor)] = _solve_log_k(
        lambda rows, ks: list(zip(*map(score, ks))), [_moments_shape(m, s.var)],
        lambda x: list(map(math.exp, x)), lambda x: list(map(math.log, x)),
    )
    notes: tuple[str, ...] = ()
    if cap:
        notes = (f"Poisson limit: the NB score is still positive at the cap k={k:.0e}",)
    elif floor:
        notes = (f"the NB score is not positive at the floor k={k:.0e}",)
    else:
        g, evals = score(k)[0], evals + 1
    model = NegBinomial(p=k / (m + k), k=k)
    info = SolverInfo("newton-bisection", evals, bracket, g, bool(notes), notes)
    return _fit_result(model, loglik(model, s), 2, info)


def _solve_log_k(score, k0: list[float], exp, log) -> list[tuple]:
    """Safeguarded Newton in log k for NB shapes, for any number of rows.

    The one statement of the NB solver's rules. ``score(rows, ks)`` gives the
    profile score g (positive below the root) and g' as two sequences for a
    list of row numbers and a list of their shapes; ``k0`` lists the rows'
    moments shapes. Per row, the bracket k0/10, k0*10 in
    [1e-8, 1e8] moves down tenfold while g <= 0 at its low end, then up while
    g > 0 at its high end. g > 0 at the cap gives k = 1e8 (cap); else g <= 0 at
    the floor gives k = 1e-8 (floor). Else Newton in log k runs from k0 (the
    bracket's log-midpoint if k0 is outside), each g narrowing the bracket by
    its sign. A step >= 1e-10 that leaves the bracket becomes a bisection (a
    smaller one may round onto an edge and stands), and the row ends,
    unevaluated, where its first step < 1e-10 lands (or after 100 steps).
    Returns one tuple per row, (k, (lo, hi), g, evaluations, cap, floor), of
    Python floats, ints and bools: k, the widened bracket, the last g, the
    evaluation count, and the cap and floor flags. Past k ~ 1e6, k is
    roundoff beyond about 1e-9 relative (g's terms cancel). Row state is
    Python floats, which round as numpy's do: a step is one ``score``, ``log``
    and ``exp`` over the live rows, ``exp`` and ``log`` mapping lists to lists.
    Each caller passes its own: numpy's SIMD ones can differ from libm's in
    the last bit, and the reports hold libm's bits for `mle_nb` and numpy's
    for the row fits.
    """
    every = list(range(len(k0)))
    lo = [min(max(_BRACKET_FLOOR, v / 10.0), _BRACKET_CAP) for v in k0]
    hi = [max(min(_BRACKET_CAP, v * 10.0), _BRACKET_FLOOR) for v in k0]
    def g_at(ends: list, rows) -> list:  # g at each row's end of the bracket
        return list(score(rows, [ends[i] for i in rows])[0])
    g_lo, g_hi, evals = g_at(lo, every), g_at(hi, every), [2] * len(k0)
    while grow := [i for i in every if g_lo[i] <= 0.0 and lo[i] > _BRACKET_FLOOR]:
        for i in grow:
            hi[i], g_hi[i], lo[i] = lo[i], g_lo[i], max(_BRACKET_FLOOR, lo[i] / 10.0)
        for i, v in zip(grow, g_at(lo, grow)):
            g_lo[i], evals[i] = v, evals[i] + 1
    while grow := [i for i in every if g_hi[i] > 0.0 and hi[i] < _BRACKET_CAP]:
        for i in grow:
            lo[i], g_lo[i], hi[i] = hi[i], g_hi[i], min(_BRACKET_CAP, hi[i] * 10.0)
        for i, v in zip(grow, g_at(hi, grow)):
            g_hi[i], evals[i] = v, evals[i] + 1
    cap = [v > 0.0 for v in g_hi]
    floor = [not c and v <= 0.0 for c, v in zip(cap, g_lo)]
    k = [b if c else a for c, a, b in zip(cap, lo, hi)]
    g = [b if c else a for c, a, b in zip(cap, g_lo, g_hi)]
    rows = [i for i in every if not (cap[i] or floor[i])]
    kr = [k0[i] if lo[i] < k0[i] < hi[i] else math.sqrt(lo[i] * hi[i]) for i in rows]
    t_lo, t_hi = (log([end[i] for i in rows]) for end in (lo, hi))
    for _ in range(100):
        if not rows:
            break
        t = log(kr)
        gr, dg = score(rows, kr)
        t_lo = [b if v > 0.0 else a for a, b, v in zip(t_lo, t, gr)]
        t_hi = [a if v > 0.0 else b for a, b, v in zip(t_hi, t, gr)]
        t_new = [b - _divide(v, c * d) if d < 0.0 else math.inf
                 for b, v, c, d in zip(t, gr, kr, dg)]
        t_new = [0.5 * (a + b) if abs(c - d) >= 1e-10 and not a < c < b else c
                 for a, b, c, d in zip(t_lo, t_hi, t_new, t)]
        kr = exp(t_new)
        for i, a, b in zip(rows, gr, kr):
            g[i], k[i], evals[i] = a, b, evals[i] + 1
        if not all(keep := [not abs(c - d) < 1e-10 for c, d in zip(t_new, t)]):
            rows, kr, t_lo, t_hi = (list(compress(x, keep)) for x in (rows, kr, t_lo, t_hi))
    return list(zip(k, zip(lo, hi), g, evals, cap, floor))


def _divide(a: float, b: float) -> float:
    """a / b, giving numpy's +-inf or nan where b is +-0."""
    return a / b if b else a * math.copysign(math.inf, b)


def _nb_shape_rows(
    table: np.ndarray, n: int, m: np.ndarray, var: np.ndarray
) -> np.ndarray:
    """`mle_nb`'s shape k for every row of a (rows, L) frequency table.

    Each row holds n values with 0 < mean < var, and the table fits the
    dense size rule; one `_solve_log_k` call solves them all. Sums run over
    the padded row, so k matches `mle_nb` to roundoff, up to about 20*eps*k
    relative near the Poisson limit: rows past k = 1e4 go to `mle_nb`.
    """
    j = np.arange(table.shape[1] - 1, dtype=np.float64)
    ja = j * (n - np.cumsum(table[:, :-1], axis=1))  # j * A_j per row

    def score(rows: list[int], ks: list[float]) -> tuple[list, list]:
        rows, k = np.array(rows, dtype=int), np.array(ks)
        mr = m[rows]
        inv = 1.0 / (k[:, None] + j)
        r = ja[rows] * inv
        s1, s2 = r.sum(axis=1), (r * inv).sum(axis=1)
        x = mr / k
        phi = np.where(x > 0.01, x - np.log1p(x), _x_minus_log1p_series(x))
        g = n * phi - s1 / k
        return g.tolist(), ((s1 + k * s2 - n * mr * mr / (mr + k)) / (k * k)).tolist()

    solved = _solve_log_k(score, _moments_shape(m, var).tolist(),
                          lambda x: np.exp(x).tolist(), lambda x: np.log(x).tolist())
    k = np.array([row[0] for row in solved])
    for i in np.flatnonzero(k > 1e4):
        counts = np.flatnonzero(table[i])
        s = FrequencySample(
            counts=counts, freqs=table[i, counts], n=n, n0=int(table[i, 0]),
            mean=float(m[i]), var=float(var[i]),
        )
        k[i] = mle_nb(s).model.k
    return k


# Row fitters: (table, n, n0, mean, var) of a (rows, L) frequency table ->
# (one array per parameter, mask of the rows the scalar fitter would not
# reject). Each mask mirrors the conditions under which its scalar fitter
# raises.


def _rows_poisson(table, n, n0, m, var):
    return (m,), np.ones(m.shape, dtype=bool)


def _rows_geometric(table, n, n0, m, var):
    return (_geometric_p(m),), np.ones(m.shape, dtype=bool)


def _rows_zig(table, n, n0, m, var):
    pi, p, interior = _zig_params(n, n0, m)
    return (pi, p), (m > 0.0) & interior


def _rows_hg(table, n, n0, m, var):
    with np.errstate(divide="ignore", invalid="ignore"):
        pi, p = _hg_params(n, n0, m)
    return (pi, p), (m > 0.0) & (p < 1.0)


def _rows_nb_mle(table, n, n0, m, var):
    ok = (m > 0.0) & (var > m)
    k = np.full(m.shape, np.nan)
    k[ok] = _nb_shape_rows(table[ok], n, m[ok], var[ok])
    return (k / (m + k), k), ok


def _rows_nb_moments(table, n, n0, m, var):
    ok = (m > 0.0) & (var > m)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = _moments_shape(m, var)
        return (k / (m + k), k), ok


@dataclass(frozen=True)
class Family:
    """One fitted model family: its parameters, how to build its models, its fitters.

    ``names`` are the parameters in report order. ``build(*values)`` makes a
    model from them; the model's class reads them back and defines the law.
    ``fits`` maps each fit method to (scalar fitter, row fitter); "mle"
    comes first. A compound family's base is geometric. Where
    ``reparam_of`` names another family, the two give the same pmf under a
    change of parameters.
    """

    name: str
    names: tuple[str, ...]
    build: Callable[..., CountModel]
    fits: Mapping[str, tuple[Callable, Callable]]
    reparam_of: str | None = None

    @property
    def n_params(self) -> int:
        return len(self.names)

    @property
    def mle(self) -> Callable[[FrequencySample], FitResult]:
        return self.fits["mle"][0]

    def params(self, model: CountModel) -> dict[str, float]:
        """The model's parameters by name, in report order."""
        return dict(zip(self.names, model._values()))


# every fitted family, in the order reports and messages list them
FAMILY_TABLE: dict[str, Family] = {f.name: f for f in (
    Family("nb", ("p", "k"), NegBinomial,
           {"mle": (mle_nb, _rows_nb_mle), "moments": (mom_nb, _rows_nb_moments)}),
    Family("zig", ("pi", "p"), lambda pi, p: ZeroInflated(pi=pi, base=Geometric(p=p)),
           {"mle": (mle_zig, _rows_zig)}),
    Family("hg", ("pi", "p"), lambda pi, p: Hurdle(pi=pi, base=Geometric(p=p)),
           {"mle": (mle_hg, _rows_hg)}, reparam_of="zig"),
    Family("geom", ("p",), Geometric, {"mle": (mle_geometric, _rows_geometric)}),
    Family("poisson", ("m",), Poisson, {"mle": (mle_poisson, _rows_poisson)}),
)}


def family_of(model: CountModel) -> Family:
    """The fitted family of a model; compounds over a geometric base only."""
    if isinstance(model, (ZeroInflated, Hurdle)) and not isinstance(model.base, Geometric):
        raise CountFitError("recovery supports geometric-based compounds only")
    return FAMILY_TABLE[_require_model(model)._family]
