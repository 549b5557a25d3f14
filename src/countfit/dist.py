"""Count distributions: each model class is its family's law.

Supported families: Poisson, geometric, negative binomial, and the two
zero-modified constructions (zero-inflated/deflated and hurdle) over any
base family, nesting refused. A model class holds its log-pmf, moments,
sampler, parameter values and, where it has one, its log-likelihood from a
sample's (n, n0, mean) alone; the public functions here, `sim.sample` and
`estimate.loglik` call those methods. All model types are immutable.

Draws come from a numpy Generator the caller passes in. An NB is drawn by
inverse CDF, one uniform per value looked up in a cumulative table of its
pmf (exact up to the 1e-12 tail it leaves out), where that table passes the
size rule of `summarize` against the values drawn; past it each value is a
Poisson draw of a gamma variate. Deflated ZIs and the positive part of
hurdles are drawn from tables too.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import CountFitError, EstimationError, InvalidModelError, ParameterBoundError

__all__ = [
    "Poisson", "Geometric", "NegBinomial", "ZeroInflated", "Hurdle", "CountModel", "BaseModel",
    "Moments", "pmf", "log_pmf", "log_pmf_array", "moments",
]

_NEG_INF = float("-inf")
_TAIL_MASS = 1e-12

# The most cells any dense table over counts may have, however many values
# it serves: 10 million cells, 80 MB as float64.
_TABLE_CAP = 10_000_000

# ln(1 - u) at the largest float below 1 that rng.random() returns
_LOG_U_FLOOR = math.log1p(-(1.0 - 2.0**-53))


class _Model:
    """What every model class defines: ``_log_pmf(y)``, ln P(Y=y) over a
    float64 array of counts (-inf where the pmf is exactly zero);
    ``_moments()``, (mean, variance); ``_sampler(n)``, the `_Draw` of n
    counts, made once per model and n so that an experiment's replicates
    share its checks and tables; ``_values()``, the parameters in report
    order; and ``_family``, the fitted family in `estimate.FAMILY_TABLE`.
    """

    def __post_init__(self) -> None:
        for name, v in vars(self).items():
            real = isinstance(v, (int, float, np.integer, np.floating))
            if name != "base" and (isinstance(v, bool) or not real):
                raise InvalidModelError(
                    f"{type(self).__name__} {name} must be a real number, got {v!r}"
                )
        self._check()

    def _values(self) -> tuple[float, ...]:
        return tuple(vars(self).values())

    def _p0(self) -> float:
        """P(Y=0) as the zero-inflation floor takes it."""
        return pmf(self, 0)

    def _summary_loglik(self, n: int, n0: int, m: float) -> float:
        raise EstimationError(
            f"no structured log-likelihood for {type(self).__name__}; "
            "provide the full frequency table"
        )

    def _check_table_length(self) -> None:
        """Refuse up front a base whose inverse-CDF table would pass the cap.

        A Poisson or NB table must reach past the mean, past which the pmf
        falls: so the counts from the cap to any j above it hold at least
        (j - cap)*pmf(j). Where that passes 1e-8, no table within the cap
        covers all but 1e-12 (a cumsum that long rounds by about 1e-9), and
        the doubling would build tables up to the cap before it gave up.
        """
        steps = 2.0 ** np.arange(25)
        if self._moments()[0] > _TABLE_CAP or np.any(
            steps * np.exp(log_pmf_array(self, _TABLE_CAP + steps)) > 1e-8
        ):
            raise CountFitError(
                f"cannot sample the base {self!r} by inverse CDF: its table would "
                f"need more than {_TABLE_CAP} counts"
            )


def _require_model(model, message: str = "unknown model type"):
    """The model, or an InvalidModelError naming the type of what is no model."""
    if not isinstance(model, _Model):
        raise InvalidModelError(f"{message} {type(model).__name__}")
    return model


@dataclass(frozen=True)
class Poisson(_Model):
    mean: float
    _family = "poisson"

    def _check(self) -> None:
        if not math.isfinite(self.mean) or self.mean < 0.0:
            raise InvalidModelError(f"Poisson mean must be >= 0, got {self.mean!r}")

    def _log_pmf(self, y: np.ndarray) -> np.ndarray:
        if self.mean == 0.0:
            return _point_mass_at_zero(y)
        return y * math.log(self.mean) - self.mean - _log_factorial(y)

    def _moments(self) -> tuple[float, float]:
        return self.mean, self.mean

    def _sampler(self, n: int) -> _Draw:
        return _Draw(lambda rng: _poisson(rng, self.mean, n))


@dataclass(frozen=True)
class Geometric(_Model):
    p: float
    _family = "geom"

    def _check(self) -> None:
        if not 0.0 < self.p <= 1.0:
            raise InvalidModelError(f"Geometric p must be in (0, 1], got {self.p!r}")

    def _p0(self) -> float:
        """p itself: exp(log p) can round below p and reject the floor
        -p/(1-p) that `mle_zig` returns for a sample with no zeros."""
        return self.p

    def _log_pmf(self, y: np.ndarray) -> np.ndarray:
        if self.p == 1.0:
            return _point_mass_at_zero(y)
        return math.log(self.p) + y * math.log1p(-self.p)

    def _moments(self) -> tuple[float, float]:
        q = 1.0 - self.p
        return q / self.p, (q / self.p**2 if self.p**2 else math.inf)

    def _summary_loglik(self, n: int, n0: int, m: float) -> float:
        return _xlogy(n, self.p) + _xlogy(m * n, 1.0 - self.p)

    def _check_table_length(self) -> None:
        """Past L counts the tail is (1-p)^L: the table needs ln(1e-12)/ln(1-p) counts."""
        if math.log(_TAIL_MASS) / math.log1p(-self.p) > _TABLE_CAP:
            raise CountFitError(
                f"cannot sample a geometric p={self.p!r} this small by inverse CDF: "
                f"its table would need more than {_TABLE_CAP} counts"
            )

    def _sampler(self, n: int) -> _Draw:
        if self.p == 1.0:
            return _Draw(lambda rng: np.zeros(n, dtype=np.int64))
        log_q = math.log1p(-self.p)
        if _LOG_U_FLOOR / log_q >= 2.0**63:
            raise CountFitError(
                f"cannot sample a geometric p={self.p!r} this small: "
                "its draws can exceed the int64 range"
            )
        # inverse CDF: floor(ln(1-U) / ln(q)) has the number-of-failures law
        return _Draw(lambda rng: np.floor(np.log1p(-rng.random(n)) / log_q).astype(np.int64))


@dataclass(frozen=True)
class NegBinomial(_Model):
    p: float
    k: float
    _family = "nb"

    def _check(self) -> None:
        if not 0.0 < self.p <= 1.0:
            raise InvalidModelError(f"NegBinomial p must be in (0, 1], got {self.p!r}")
        if not math.isfinite(self.k) or self.k <= 0.0:
            raise InvalidModelError(f"NegBinomial k must be > 0, got {self.k!r}")

    def _log_pmf(self, y: np.ndarray) -> np.ndarray:
        p, k = self.p, self.k
        if p == 1.0:
            return _point_mass_at_zero(y)
        return _log_nb_coefficient(y, k) + k * math.log(p) + y * math.log1p(-p)

    def _moments(self) -> tuple[float, float]:
        q = 1.0 - self.p
        return self.k * q / self.p, (self.k * q / self.p**2 if self.p**2 else math.inf)

    def _sampler(self, n: int) -> _Draw:
        if self.p == 1.0:
            return _Draw(lambda rng: np.zeros(n, dtype=np.int64))
        cum = _inverse_cdf_table(lambda ys: np.exp(log_pmf_array(self, ys)), n=n)
        if cum is not None:
            return _table_sampler(cum, n)
        scale = (1.0 - self.p) / self.p
        return _Draw(lambda rng: _poisson(rng, rng.gamma(self.k, scale, n)))


BaseModel = Union[Poisson, Geometric, NegBinomial]


@dataclass(frozen=True)
class _ZeroModified(_Model):
    """A zero part and a base law: what ZeroInflated and Hurdle share.

    Each sets P(0) (``_zero_mass``, given the base's P(0)) and gives each
    count above 0 the base's pmf times a constant (``_log_positive``); they
    differ in how ``pi`` sets the two. The base part's counts start at
    ``_start``: a hurdle's base is truncated below 1. Over a geometric base
    a sample's log-likelihood needs only n, n0 and the mean.
    """

    pi: float
    base: BaseModel

    def _check(self) -> None:
        if isinstance(self.base, _ZeroModified):
            raise InvalidModelError("compound models cannot be nested")
        _require_model(self.base)

    def _values(self) -> tuple[float, ...]:
        return (self.pi, *self.base._values())

    def _zero_inflation_floor(self) -> float:
        """Smallest admissible mixing weight: -p0/(1-p0) keeps P(Y=0) >= 0."""
        p0 = self.base._p0()
        return 0.0 if p0 >= 1.0 else -p0 / (1.0 - p0)

    def _log_pmf(self, y: np.ndarray) -> np.ndarray:
        p0 = pmf(self.base, 0)
        mass0 = self._zero_mass(p0)
        # at the ZI floor P(0) is exactly zero; mass0 rounds to about ±eps.
        # `mle_zig` may raise a geometric floor by an ulp or two, to where
        # pi + (1 - pi) p (with p itself, not exp(log p)) is exactly zero.
        # A hurdle's P(0) is pi: neither rule changes it
        at0 = _NEG_INF if (
            mass0 <= 0.0 or self.pi == self._zero_inflation_floor() < 0.0
            or self._zero_mass(self.base._p0()) <= 0.0
        ) else math.log(mass0)
        if self.pi >= 1.0:
            return np.where(y == 0, at0, _NEG_INF)
        return np.where(y == 0, at0, self._log_positive(y, p0))

    def _summary_loglik(self, n: int, n0: int, m: float) -> float:
        if not isinstance(self.base, Geometric):
            return super()._summary_loglik(n, n0, m)
        pi, p = self.pi, self.base.p
        return (_xlogy(n0, self._zero_mass(p)) + _xlogy(n - n0, 1.0 - pi) + _xlogy(n - n0, p)
                + _xlogy(m * n - self._start * (n - n0), 1.0 - p))


@dataclass(frozen=True)
class ZeroInflated(_ZeroModified):
    """P(0) = pi + (1 - pi)*P_base(0); above 0, (1 - pi) times the base.

    A pi below 0 deflates the zeros, down to the floor where P(0) = 0.
    """

    _family = "zig"
    _start = 0

    def _check(self) -> None:
        super()._check()
        lo = self._zero_inflation_floor()
        if not lo <= self.pi <= 1.0:
            raise ParameterBoundError(
                f"zero-inflation weight {self.pi!r} outside admissible interval [{lo:.6g}, 1]",
                lo, 1.0,
            )

    def _zero_mass(self, p0: float) -> float:
        return self.pi + (1.0 - self.pi) * p0

    def _log_positive(self, y: np.ndarray, p0: float) -> np.ndarray:
        return math.log1p(-self.pi) + self.base._log_pmf(y)

    def _moments(self) -> tuple[float, float]:
        mean, var = self.base._moments()
        w = 1.0 - self.pi
        return w * mean, w * var + self.pi * w * mean**2

    def _sampler(self, n: int) -> _Draw:
        if self.pi >= 0.0:
            return _zero_mixed(self.pi, self.base._sampler(n), n)
        # negative mixing weight: the mixture story breaks down, sample the
        # compound pmf directly by inverse CDF
        self.base._check_table_length()
        return _table_sampler(_inverse_cdf_table(lambda ys: np.exp(log_pmf_array(self, ys))), n)


@dataclass(frozen=True)
class Hurdle(_ZeroModified):
    """P(0) = pi; above 0, (1 - pi) times the base truncated to the positive counts."""

    _family = "hg"
    _start = 1

    def _check(self) -> None:
        super()._check()
        if not 0.0 <= self.pi <= 1.0:
            raise ParameterBoundError(f"hurdle zero mass {self.pi!r} outside [0, 1]", 0.0, 1.0)
        if pmf(self.base, 0) >= 1.0:
            raise InvalidModelError(
                "hurdle base puts all mass at zero; truncated part is undefined"
            )

    def _zero_mass(self, p0: float) -> float:
        return self.pi

    def _log_positive(self, y: np.ndarray, p0: float) -> np.ndarray:
        return math.log1p(-self.pi) + self.base._log_pmf(y) - math.log1p(-p0)

    def _moments(self) -> tuple[float, float]:
        mean, var = self.base._moments()
        alpha = (1.0 - self.pi) / (1.0 - pmf(self.base, 0))
        return alpha * mean, alpha * var + alpha * (1.0 - alpha) * mean**2

    def _sampler(self, n: int) -> _Draw:
        self.base._check_table_length()
        p0 = pmf(self.base, 0)
        cum = _inverse_cdf_table(
            lambda ys: np.exp(log_pmf_array(self.base, ys)) / (1.0 - p0), start=self._start
        )
        return _zero_mixed(self.pi, _table_sampler(cum, n, start=self._start), n)


CountModel = Union[Poisson, Geometric, NegBinomial, ZeroInflated, Hurdle]


@dataclass(frozen=True)
class Moments:
    mean: float
    variance: float
    dispersion: float | None  # variance/mean; None when mean == 0


def _xlogy(x: float, y: float) -> float:
    """x * ln(y) with the convention 0 * ln(0) = 0."""
    if x == 0.0:
        return 0.0
    return x * math.log(y) if y > 0.0 else float("-inf")


def _table_fits(largest: int, n: int) -> bool:
    """Whether a dense table over 0..largest costs at most a few cells per value.

    The table also stays within `_TABLE_CAP`, so a sample whose frequencies
    near 2**63 never asks numpy for an array that large.
    """
    return largest <= min(4 * n + 1024, _TABLE_CAP)


def _sums_below(y: np.ndarray, steps) -> np.ndarray | None:
    """For each count in ``y``, the sum of steps(j) over j < y; None past the size rule.

    One cumsum over 0..largest count; the rule keeps that table within a
    few cells per count asked for.
    """
    largest = int(y.max()) if y.size else 0
    if not _table_fits(largest, y.size):
        return None
    table = np.zeros(largest + 1)
    np.cumsum(steps(np.arange(largest, dtype=np.float64)), out=table[1:])
    return table[y.astype(np.intp)]


def _per_distinct(y: np.ndarray, fn) -> np.ndarray:
    """fn over the distinct counts of ``y``, spread back over ``y``."""
    distinct, at = np.unique(y, return_inverse=True)
    return np.array([fn(v) for v in distinct.tolist()])[at].reshape(y.shape)


def _log_factorial(y: np.ndarray) -> np.ndarray:
    """ln y!: the sum of log1p(j) over j < y, or ``math.lgamma`` past the size rule."""
    sums = _sums_below(y, np.log1p)
    return sums if sums is not None else _per_distinct(y, lambda v: math.lgamma(v + 1.0))


def _log_nb_coefficient(y: np.ndarray, k: float) -> np.ndarray:
    """ln Gamma(y + k) - ln Gamma(k) - ln y!, elementwise.

    Within the size rule this is y*ln k + the sum of log1p(j/k) - log1p(j)
    over j < y, so near the Poisson limit (k large) no two terms of size
    ln Gamma(k) cancel. Past the rule it is ``math.lgamma`` over the
    distinct counts, where ln Gamma(k) does cancel: about eps * k ln k
    absolute at large k. A subnormal k, where j/k overflows below the
    largest count, takes the ``math.lgamma`` form too.
    """
    sums = None
    if not y.size or (float(y.max()) - 1.0) / k < math.inf:
        sums = _sums_below(y, lambda j: np.log1p(j / k) - np.log1p(j))
    if sums is not None:
        return y * math.log(k) + sums
    lg_k = math.lgamma(k)
    return _per_distinct(y, lambda v: math.lgamma(v + k) - lg_k - math.lgamma(v + 1.0))


def _point_mass_at_zero(y: np.ndarray) -> np.ndarray:
    return np.where(y == 0, 0.0, _NEG_INF)


def log_pmf_array(model: CountModel, ys) -> np.ndarray:
    """ln P(Y=y) for each count in ``ys``; -inf where the pmf is exactly zero.

    ``ys`` holds non-negative integers (any integer or float dtype). The
    model's class defines the pmf; ``log_pmf`` and ``pmf`` wrap this.
    """
    return _require_model(model)._log_pmf(np.asarray(ys, dtype=np.float64))


def log_pmf(model: CountModel, y: int) -> float:
    """ln P(Y=y), -inf where the pmf is exactly zero; y is an integer >= 0 or an integral float."""
    if isinstance(y, (bool, np.bool_)) or not (y >= 0 and float(y).is_integer()):
        raise InvalidModelError(f"count must be >= 0 and an integer, got {y!r}")
    return float(log_pmf_array(model, y))


def pmf(model: CountModel, y: int) -> float:
    """P(Y=y); exact 0.0 for structurally impossible outcomes."""
    lp = log_pmf(model, y)
    return 0.0 if lp == _NEG_INF else math.exp(lp)


def moments(model: CountModel) -> Moments:
    """Mean, variance and variance-to-mean ratio from the closed formulas;
    the variance and the ratio are infinite where p**2 underflows."""
    mean, var = _require_model(model)._moments()
    dispersion = (var / mean if mean < math.inf else math.inf) if mean > 0.0 else None
    return Moments(mean=mean, variance=var, dispersion=dispersion)


# --- drawing counts --------------------------------------------------------


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


def _poisson(rng: np.random.Generator, lam, n: int | None = None) -> np.ndarray:
    try:
        return rng.poisson(lam, n)
    except ValueError as exc:  # numpy refuses means near 2**63
        raise CountFitError(f"cannot sample a Poisson mean this large ({exc})") from exc


class _Draw(NamedTuple):
    """How n counts are drawn from one model, made once per (model, n).

    ``draw(rng)`` gives the n counts or, with ``edges``, n uniforms: count c
    takes those in (edges[c], edges[c+1]]. A table from ``start`` on has the
    edges [-inf, -1 (``start`` times), cum..., +inf], so -1 is a 0.
    """

    draw: Callable[[np.random.Generator], np.ndarray]
    edges: np.ndarray | None = None

    def values(self, rng: np.random.Generator) -> np.ndarray:
        drawn = self.draw(rng)
        if self.edges is None:
            return drawn
        cells = self.edges.searchsorted(drawn)  # one search per value
        return np.subtract(cells, 1, out=cells)  # in place: n may be large

    def row(self, rng: np.random.Generator) -> np.ndarray | None:
        """``np.bincount`` of what ``values`` gives on the same stream.

        Counts are checked first: None past the size rule of `summarize`.
        Uniforms are sorted in place and the edges, up to the largest
        uniform's, searched into them: one sort and at most L + 2 searches.
        """
        drawn = self.draw(rng)
        if self.edges is None:
            return np.bincount(drawn) if _table_fits(int(drawn.max()) + 1, drawn.size) else None
        drawn.sort()
        top = int(self.edges.searchsorted(drawn[-1])) - 1  # the largest count
        below = drawn.searchsorted(self.edges[: top + 2], side="right")
        return below[1:] - below[:-1]


def _table_sampler(cum: np.ndarray, n: int, start: int = 0) -> _Draw:
    """n counts from ``start`` on by inverse CDF: one uniform per value, looked up in ``cum``."""
    edges = np.concatenate(([-np.inf], np.full(start, -1.0), cum, [np.inf]))
    return _Draw(lambda rng: rng.random(n), edges)


def _zero_mixed(pi: float, base: _Draw, n: int) -> _Draw:
    """n counts, each 0 with probability pi and else what ``base`` gives.

    The n uniforms that pick the zeros are drawn first; ``base`` then runs
    on the rest of the stream. Over a table, a picked zero is a uniform of -1.
    """

    def draw(rng: np.random.Generator) -> np.ndarray:
        at_zero = rng.random(n) < pi
        drawn = base.draw(rng)
        drawn[at_zero] = 0 if base.edges is None else -1.0
        return drawn

    return _Draw(draw, base.edges)
