"""Special functions backing the likelihood and chi-squared machinery.

Pure Python and numpy, no scipy: digamma and trigamma (private, for the NB
score) shift their argument up to at least 10 by recurrence and then sum
the asymptotic series, elementwise over arrays; the chi-squared survival
function is the regularized upper incomplete gamma Q(a, x), by its power
series below x = a + 1 and by a Lentz continued fraction above (Numerical
Recipes, sec. 6.2), with the prefactor x^a e^-x / Gamma(a) formed as in
DiDonato & Morris (1986, ACM TOMS 12:377) so that nothing cancels at large
a. All functions are pure and safe for concurrent use.
"""

import math

import numpy as np

from .errors import DomainError

__all__ = ["chi2_survival"]

# the asymptotic series below are accurate to about 1e-16 relative from here up
_SHIFT_TO = 10.0
# a stopping test of a few ulps: 1e-16 is below the spacing of floats near 1
# and is never met
_TOL = 4.0 * np.finfo(np.float64).eps


def _shifted(x, term):
    """(x shifted up to >= 10 by steps of 1, the sum of term(x + i) over the steps)."""
    z = np.array(x, dtype=np.float64)
    acc = np.zeros_like(z)
    while (low := z < _SHIFT_TO).any():
        acc += np.where(low, term(z), 0.0)
        z = np.where(low, z + 1.0, z)
    return z, acc


def _digamma(x) -> np.ndarray:
    """psi(x) for x > 0, elementwise: psi(x) = psi(x + 1) - 1/x, then the series."""
    z, acc = _shifted(x, lambda z: 1.0 / z)
    w = 1.0 / (z * z)
    series = w * (1 / 12 - w * (1 / 120 - w * (1 / 252 - w * (1 / 240 - w * (
        1 / 132 - w * (691 / 32760 - w / 12))))))
    return np.log(z) - 0.5 / z - series - acc


def _trigamma(x) -> np.ndarray:
    """psi'(x) for x > 0, elementwise: psi'(x) = psi'(x + 1) + 1/x^2, then the series."""
    z, acc = _shifted(x, lambda z: 1.0 / (z * z))
    w = 1.0 / (z * z)
    series = 1.0 + 0.5 / z + w * (1 / 6 - w * (1 / 30 - w * (1 / 42 - w * (
        1 / 30 - w * (5 / 66 - w * (691 / 2730 - w * 7 / 6))))))
    return series / z + acc


def _x_minus_log1p(x: float) -> float:
    """x - log(1 + x) for x > -1, without cancellation when |x| is small."""
    return x - math.log1p(x) if abs(x) > 0.01 else _x_minus_log1p_series(x)


def _x_minus_log1p_series(x):
    """x^2/2 - x^3/3 + ... to x^9/9, elementwise.

    For |x| <= 0.01 the next term is below 1e-17 relative.
    """
    return x * x * (1 / 2 - x * (1 / 3 - x * (1 / 4 - x * (1 / 5 - x * (
        1 / 6 - x * (1 / 7 - x * (1 / 8 - x / 9)))))))


def _stirling_error(a: float) -> float:
    """ln Gamma(a) - ((a - 1/2) ln a - a + ln(2 pi)/2)."""
    if a < 15.0:
        return math.lgamma(a) - ((a - 0.5) * math.log(a) - a + 0.5 * math.log(2 * math.pi))
    w = 1.0 / (a * a)
    return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w / 1188)))) / a


def _log_prefactor(a: float, x: float) -> float:
    """ln(x^a e^-x / Gamma(a)) for a, x > 0.

    Past a = 10, a ln x, x and ln Gamma(a) are each far larger than their
    sum; it is formed instead as -a * phi + ln(a / 2 pi)/2 minus the
    Stirling error, phi = x/a - 1 - ln(x/a) >= 0, where nothing large
    cancels. Near x = a, phi is t - log1p(t) with t = (x - a)/a.
    """
    if a < 10.0:
        return a * math.log(x) - x - math.lgamma(a)
    if x > 0.5 * a:
        phi = _x_minus_log1p((x - a) / a)
    else:
        phi = x / a - 1.0 - (math.log(x) - math.log(a))
    return -a * phi + 0.5 * math.log(a / (2 * math.pi)) - _stirling_error(a)


def _gamma_q(a: float, x: float) -> float:
    """The regularized upper incomplete gamma Q(a, x) for a > 0, x >= 0.

    0.0 where the prefactor x^a e^-x / Gamma(a) underflows above x = a + 1;
    1.0 where it underflows below. Both expansions need O(sqrt(a)) terms
    near x = a, and stop at a relative change of a few ulps.
    """
    if x == 0.0:
        return 1.0
    prefactor = math.exp(_log_prefactor(a, x))
    max_iter = 1000 + int(50.0 * math.sqrt(a))
    if x < a + 1.0:
        # P(a, x) = prefactor/a * sum_n x^n / ((a+1)...(a+n))
        if prefactor == 0.0:
            return 1.0
        term = total = 1.0 / a  # every term is positive
        ap = a
        for _ in range(max_iter):
            ap += 1.0
            term *= x / ap
            total += term
            if term < total * _TOL:
                return 1.0 - prefactor * total
    else:
        if prefactor == 0.0:
            return 0.0
        # Q(a, x) = prefactor / (x + 1 - a - 1(1-a)/(x + 3 - a - ...)), modified Lentz
        tiny = 1e-300
        b = x + 1.0 - a
        c = 1.0 / tiny
        d = 1.0 / b
        h = d
        for i in range(1, max_iter + 1):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            d = tiny if abs(d) < tiny else d
            c = b + an / c
            c = tiny if abs(c) < tiny else c
            d = 1.0 / d
            delta = d * c
            h *= delta
            if abs(delta - 1.0) < _TOL:
                return prefactor * h
    raise DomainError(f"incomplete gamma Q({a!r}, {x!r}) did not converge")


def chi2_survival(stat: float, df: int) -> float:
    """P(X >= stat) for X ~ chi-squared with df degrees of freedom.

    Computed as the regularized upper incomplete gamma Q(df/2, stat/2).
    """
    if not math.isfinite(stat) or stat < 0.0:
        raise DomainError(f"chi2_survival requires stat >= 0, got {stat!r}")
    if df < 1:
        raise DomainError(f"chi2_survival requires df >= 1, got {df!r}")
    return _gamma_q(df / 2.0, stat / 2.0)
