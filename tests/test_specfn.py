import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from countfit.errors import DomainError
from countfit.specfn import _digamma, _stirling_error, _trigamma, chi2_survival

EULER_GAMMA = 0.5772156649015329


def ln_gamma(x: float) -> float:
    """ln Gamma(x) as the chi-squared prefactor forms it: Stirling's formula
    plus `_stirling_error`, which is a series from x = 15 up."""
    return (x - 0.5) * math.log(x) - x + 0.5 * math.log(2 * math.pi) + _stirling_error(x)


def test_ln_gamma_trivial_values():
    assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert ln_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
    assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-12)


@pytest.mark.parametrize("x", [1e-6, 1e-3, 0.5, 1.5, 10.0, 1e3, 1e6])
def test_ln_gamma_recurrence(x):
    # ln Gamma(x+1) = ln Gamma(x) + ln x
    assert ln_gamma(x + 1.0) == pytest.approx(ln_gamma(x) + math.log(x), rel=1e-12)


def test_digamma_trivial_values():
    assert _digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-12)
    assert _digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, rel=1e-12)


def test_digamma_matches_ln_gamma_finite_difference():
    h = 1e-5
    for x in [0.1, 0.5, 1.0, 10.5, 42.0, 100.0]:
        fd = (ln_gamma(x + h) - ln_gamma(x - h)) / (2.0 * h)
        assert _digamma(x) == pytest.approx(fd, rel=1e-6)


@given(st.floats(min_value=1e-3, max_value=100.0))
@settings(max_examples=1000)
def test_digamma_recurrence(x):
    assert _digamma(x + 1.0) - _digamma(x) == pytest.approx(1.0 / x, abs=1e-10 * max(1.0, 1.0 / x))


def test_trigamma_trivial_values():
    assert _trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-12)
    assert _trigamma(2.0) == pytest.approx(math.pi**2 / 6.0 - 1.0, rel=1e-12)


def test_trigamma_matches_digamma_finite_difference():
    h = 1e-5
    for x in [0.5, 1.0, 7.3, 25.0]:
        fd = (_digamma(x + h) - _digamma(x - h)) / (2.0 * h)
        assert _trigamma(x) == pytest.approx(fd, rel=1e-5)


@given(st.floats(min_value=0.05, max_value=100.0))
def test_trigamma_positive(x):
    assert _trigamma(x) > 0.0


def test_chi2_survival_at_zero():
    assert chi2_survival(0.0, 5) == pytest.approx(1.0, abs=1e-14)


def test_chi2_survival_reference_values():
    # independently computable via df=2 closed form and published table rows
    assert chi2_survival(6.8092, 12) == pytest.approx(0.8699, abs=5e-4)
    assert chi2_survival(20.6558, 8) == pytest.approx(0.0081, abs=5e-4)


@given(st.floats(min_value=0.0, max_value=200.0))
def test_chi2_survival_df2_closed_form(x):
    assert chi2_survival(x, 2) == pytest.approx(math.exp(-x / 2.0), abs=1e-12)


def test_chi2_survival_monotone_decreasing():
    prev = 1.0
    for stat in [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 200.0]:
        cur = chi2_survival(stat, 7)
        assert cur <= prev + 1e-15
        prev = cur
    assert chi2_survival(1e4, 7) < 1e-12


def test_chi2_survival_domain_errors():
    with pytest.raises(DomainError):
        chi2_survival(-0.1, 3)
    with pytest.raises(DomainError):
        chi2_survival(1.0, 0)


# --- against scipy.special (a test-only dependency) -------------------------

_DFS = sorted({*range(1, 41), *np.geomspace(41, 5000, 60).astype(int).tolist()})


@pytest.mark.parametrize("df", _DFS)
def test_chi2_survival_matches_scipy_gammaincc(df):
    # from 1e-3*df up through the centre to far past underflow
    for stat in np.geomspace(1e-3 * df, 40.0 * df + 3000.0, 400).tolist():
        want = float(sp.gammaincc(df / 2.0, stat / 2.0))
        got = chi2_survival(stat, df)
        if want == 0.0:
            assert got <= 1e-300, (df, stat, got)
        elif want >= 1e-300:
            assert got == pytest.approx(want, rel=1e-11), (df, stat)


def test_chi2_survival_far_tail_is_zero_and_fast():
    # the prefactor underflows: no expansion runs at all
    assert chi2_survival(1e6, 3) == 0.0
    assert chi2_survival(1e300, 5000) == 0.0
    assert chi2_survival(1e-300, 5000) == 1.0


def test_chi2_survival_huge_df_converges():
    # both expansions need O(sqrt(df)) terms near the centre
    for df in (10**5, 10**6):
        for stat in (0.99 * df, df - 1.0, float(df), df + 3.0, 1.01 * df):
            assert chi2_survival(stat, df) == pytest.approx(
                float(sp.gammaincc(df / 2.0, stat / 2.0)), rel=1e-10
            )


_GRID = np.concatenate([np.geomspace(1e-8, 1e8, 4001), np.linspace(0.01, 30.0, 6001)])


def test_digamma_matches_scipy_psi():
    want = sp.psi(_GRID)
    got = _digamma(_GRID)
    # psi has a root at 1.4616...; there only an absolute error of a few
    # ulps of the shifted terms (about 2) is meaningful
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want) + 1e-15)


def test_trigamma_matches_scipy_polygamma():
    want = sp.polygamma(1, _GRID)
    got = _trigamma(_GRID)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_ln_gamma_matches_scipy_gammaln():
    for x in _GRID[::10].tolist():
        assert ln_gamma(x) == pytest.approx(float(sp.gammaln(x)), rel=1e-13, abs=1e-15)
