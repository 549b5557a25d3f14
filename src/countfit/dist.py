"""Count distributions: pmf, log-pmf and moments.

Supported families: Poisson, geometric, negative binomial, and the two
compound constructions (zero-inflated/deflated and hurdle) over any of the
base families. Compound nesting is restricted to depth 1. All model types
are immutable and every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidModelError, ParameterBoundError

__all__ = [
    "Poisson",
    "Geometric",
    "NegBinomial",
    "ZeroInflated",
    "Hurdle",
    "CountModel",
    "BaseModel",
    "Moments",
    "pmf",
    "log_pmf",
    "log_pmf_array",
    "moments",
]

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class Poisson:
    mean: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean) or self.mean < 0.0:
            raise InvalidModelError(f"Poisson mean must be >= 0, got {self.mean!r}")


@dataclass(frozen=True)
class Geometric:
    p: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p <= 1.0:
            raise InvalidModelError(f"Geometric p must be in (0, 1], got {self.p!r}")


@dataclass(frozen=True)
class NegBinomial:
    p: float
    k: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p <= 1.0:
            raise InvalidModelError(f"NegBinomial p must be in (0, 1], got {self.p!r}")
        if not math.isfinite(self.k) or self.k <= 0.0:
            raise InvalidModelError(f"NegBinomial k must be > 0, got {self.k!r}")


BaseModel = Union[Poisson, Geometric, NegBinomial]


@dataclass(frozen=True)
class ZeroInflated:
    pi: float
    base: BaseModel

    def __post_init__(self) -> None:
        if isinstance(self.base, (ZeroInflated, Hurdle)):
            raise InvalidModelError("compound models cannot be nested")
        lo = _zero_inflation_floor(self.base)
        if not lo <= self.pi <= 1.0:
            raise ParameterBoundError(
                f"zero-inflation weight {self.pi!r} outside admissible "
                f"interval [{lo:.6g}, 1]",
                lo,
                1.0,
            )


@dataclass(frozen=True)
class Hurdle:
    pi: float
    base: BaseModel

    def __post_init__(self) -> None:
        if isinstance(self.base, (ZeroInflated, Hurdle)):
            raise InvalidModelError("compound models cannot be nested")
        if not 0.0 <= self.pi <= 1.0:
            raise ParameterBoundError(
                f"hurdle zero mass {self.pi!r} outside [0, 1]", 0.0, 1.0
            )
        if pmf(self.base, 0) >= 1.0:
            raise InvalidModelError(
                "hurdle base puts all mass at zero; truncated part is undefined"
            )


CountModel = Union[Poisson, Geometric, NegBinomial, ZeroInflated, Hurdle]


@dataclass(frozen=True)
class Moments:
    mean: float
    variance: float
    dispersion: float | None  # variance/mean; None when mean == 0


def _zero_inflation_floor(base: BaseModel) -> float:
    """Smallest admissible mixing weight: -p0/(1-p0) keeps P(Y=0) >= 0.

    A geometric base uses p0 = p itself: exp(log p) can round below p and
    reject the floor -p/(1-p) that `mle_zig` returns for a sample with no
    zeros.
    """
    p0 = base.p if isinstance(base, Geometric) else pmf(base, 0)
    if p0 >= 1.0:
        return 0.0
    return -p0 / (1.0 - p0)


# The most cells any dense table over counts may have, however many values
# it serves: 10 million cells, 80 MB as float64.
_TABLE_CAP = 10_000_000


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


def log_pmf_array(model: CountModel, ys) -> np.ndarray:
    """ln P(Y=y) for each count in ``ys``; -inf where the pmf is exactly zero.

    ``ys`` holds non-negative integers (any integer or float dtype). This is
    the one definition of each family's pmf; ``log_pmf`` and ``pmf`` wrap it.
    """
    y = np.asarray(ys, dtype=np.float64)
    if isinstance(model, Poisson):
        if model.mean == 0.0:
            return _point_mass_at_zero(y)
        return y * math.log(model.mean) - model.mean - _log_factorial(y)
    if isinstance(model, Geometric):
        if model.p == 1.0:
            return _point_mass_at_zero(y)
        return math.log(model.p) + y * math.log1p(-model.p)
    if isinstance(model, NegBinomial):
        p, k = model.p, model.k
        if p == 1.0:
            return _point_mass_at_zero(y)
        return _log_nb_coefficient(y, k) + k * math.log(p) + y * math.log1p(-p)
    if isinstance(model, ZeroInflated):
        pi = model.pi
        mass0 = pi + (1.0 - pi) * pmf(model.base, 0)
        # at the floor P(0) is exactly zero; the sum above rounds to about ±eps.
        # `mle_zig` may raise a geometric floor by an ulp or two, to where
        # pi + (1 - pi) p (with p itself, not exp(log p)) is exactly zero
        if (
            mass0 <= 0.0
            or pi == _zero_inflation_floor(model.base) < 0.0
            or (isinstance(model.base, Geometric) and pi + (1.0 - pi) * model.base.p <= 0.0)
        ):
            at0 = _NEG_INF
        else:
            at0 = math.log(mass0)
        if pi >= 1.0:
            return np.where(y == 0, at0, _NEG_INF)
        return np.where(y == 0, at0, math.log1p(-pi) + log_pmf_array(model.base, y))
    if isinstance(model, Hurdle):
        pi = model.pi
        at0 = math.log(pi) if pi > 0.0 else _NEG_INF
        if pi >= 1.0:
            return np.where(y == 0, at0, _NEG_INF)
        lp = math.log1p(-pi) + log_pmf_array(model.base, y) - math.log1p(-pmf(model.base, 0))
        return np.where(y == 0, at0, lp)
    raise InvalidModelError(f"unknown model type {type(model).__name__}")


def _point_mass_at_zero(y: np.ndarray) -> np.ndarray:
    return np.where(y == 0, 0.0, _NEG_INF)


def log_pmf(model: CountModel, y: int) -> float:
    """ln P(Y=y); returns -inf where the pmf is exactly zero."""
    if y < 0:
        raise InvalidModelError(f"count must be >= 0, got {y!r}")
    return float(log_pmf_array(model, y))


def pmf(model: CountModel, y: int) -> float:
    """P(Y=y); exact 0.0 for structurally impossible outcomes."""
    lp = log_pmf(model, y)
    return 0.0 if lp == _NEG_INF else math.exp(lp)


def moments(model: CountModel) -> Moments:
    """Mean, variance and variance-to-mean ratio from the closed formulas."""
    if isinstance(model, Poisson):
        mean = var = model.mean
    elif isinstance(model, Geometric):
        q = 1.0 - model.p
        mean = q / model.p
        var = q / model.p**2
    elif isinstance(model, NegBinomial):
        q = 1.0 - model.p
        mean = model.k * q / model.p
        var = model.k * q / model.p**2
    elif isinstance(model, ZeroInflated):
        base = moments(model.base)
        pi = model.pi
        mean = (1.0 - pi) * base.mean
        var = (1.0 - pi) * base.variance + pi * (1.0 - pi) * base.mean**2
    elif isinstance(model, Hurdle):
        base = moments(model.base)
        alpha = (1.0 - model.pi) / (1.0 - pmf(model.base, 0))
        mean = alpha * base.mean
        var = alpha * base.variance + alpha * (1.0 - alpha) * base.mean**2
    else:
        raise InvalidModelError(f"unknown model type {type(model).__name__}")
    dispersion = var / mean if mean > 0.0 else None
    return Moments(mean=mean, variance=var, dispersion=dispersion)
