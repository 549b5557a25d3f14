import math
import warnings

import numpy as np
import pytest
from scipy import stats

from conftest import random_model
from likelihood_oracles import pgf
from countfit.dist import (
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
from countfit.errors import InvalidModelError, ParameterBoundError


def series_sum(model, f, tail=1e-14):
    """Brute-force series accumulator Sum f(y)*pmf(y) with tail cutoff."""
    total = 0.0
    cum = 0.0
    y = 0
    while cum < 1.0 - tail and y < 200_000:
        p = pmf(model, y)
        total += f(y) * p
        cum += p
        y += 1
    return total


# --- pmf / log_pmf ---------------------------------------------------------


def test_geometric_pmf():
    assert pmf(Geometric(p=0.5), 0) == pytest.approx(0.5)
    assert pmf(Geometric(p=0.5), 3) == pytest.approx(0.5 * 0.5**3)


def test_nb_k1_pmf_value():
    assert pmf(NegBinomial(p=0.4, k=1.0), 3) == pytest.approx(0.4 * 0.6**3, rel=1e-12)


def test_zig_zero_mass_reference_row():
    # Seo sample A parameters: P(0) equals the observed zero fraction
    model = ZeroInflated(pi=0.3653, base=Geometric(p=0.3843))
    assert pmf(model, 0) == pytest.approx(0.3653 + 0.6347 * 0.3843, abs=2e-4)
    assert pmf(model, 0) == pytest.approx(0.6092, abs=2e-4)


def test_log_pmf_matches_pmf():
    assert log_pmf(Geometric(p=0.5), 0) == pytest.approx(math.log(0.5))


def test_log_pmf_hurdle_zero_mass_signal():
    assert log_pmf(Hurdle(pi=0.0, base=Geometric(p=0.5)), 0) == float("-inf")
    assert pmf(Hurdle(pi=0.0, base=Geometric(p=0.5)), 0) == 0.0


def test_nb_log_pmf_against_product_oracle():
    # Gamma(y+k)/Gamma(y+1)/Gamma(k) by repeated multiplication
    p, k, y = 0.2, 0.6, 50
    ratio = 1.0
    for i in range(y):
        ratio *= (k + i) / (i + 1.0)
    expected = math.log(ratio) + k * math.log(p) + y * math.log(1.0 - p)
    assert log_pmf(NegBinomial(p=p, k=k), y) == pytest.approx(expected, rel=1e-10)


def _scipy_base_logpmf(base, ys):
    if isinstance(base, Poisson):
        return stats.poisson.logpmf(ys, base.mean)
    if isinstance(base, Geometric):
        return stats.geom.logpmf(ys + 1, base.p)  # scipy counts trials
    return stats.nbinom.logpmf(ys, base.k, base.p)


def _scipy_logpmf(model, ys):
    """Independent log-pmf from scipy.stats for every family and compound."""
    if not isinstance(model, (ZeroInflated, Hurdle)):
        return _scipy_base_logpmf(model, ys)
    pi, base = model.pi, model.base
    base_lp = _scipy_base_logpmf(base, ys)
    p0 = math.exp(_scipy_base_logpmf(base, np.array([0]))[0])
    with np.errstate(divide="ignore"):
        if isinstance(model, ZeroInflated):
            zero, rest = np.log(pi + (1.0 - pi) * p0), np.log1p(-pi) + base_lp
        else:
            zero, rest = np.log(pi), np.log1p(-pi) + base_lp - np.log1p(-p0)
    return np.where(ys == 0, zero, rest)


_LOG_PMF_CASES = [
    Poisson(mean=3.7),
    Poisson(mean=0.0),  # point mass at zero
    Geometric(p=0.3),
    Geometric(p=1.0),  # point mass at zero
    NegBinomial(p=0.4, k=2.5),
    NegBinomial(p=0.15, k=0.3),
    NegBinomial(p=1.0, k=2.5),  # point mass at zero
    ZeroInflated(pi=0.2, base=Geometric(p=0.3)),
    ZeroInflated(pi=-1.0, base=Geometric(p=0.5)),  # the floor -p/(1-p): P(0) = 0
    ZeroInflated(pi=1.0, base=Geometric(p=0.3)),  # all mass at zero
    ZeroInflated(pi=0.1, base=Poisson(mean=2.0)),
    ZeroInflated(pi=-0.05, base=NegBinomial(p=0.5, k=1.5)),
    Hurdle(pi=0.35, base=Geometric(p=0.3)),
    Hurdle(pi=0.0, base=Geometric(p=0.3)),  # no zeros
    Hurdle(pi=1.0, base=Geometric(p=0.3)),  # all mass at zero
    Hurdle(pi=0.4, base=NegBinomial(p=0.3, k=0.8)),
    Hurdle(pi=0.2, base=Poisson(mean=1.5)),
]


@pytest.mark.parametrize("model", _LOG_PMF_CASES, ids=repr)
def test_log_pmf_array_against_scipy_stats(model):
    ys = np.arange(0, 80)
    got = log_pmf_array(model, ys)
    want = _scipy_logpmf(model, ys)
    assert got.shape == ys.shape
    np.testing.assert_array_equal(np.isneginf(got), np.isneginf(want))
    finite = np.isfinite(want)
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-10, atol=1e-12)
    # the scalar wrappers are the same formula, with exact structural zeros
    for y in (0, 1, 7, 79):
        assert log_pmf(model, y) == got[y]
        assert pmf(model, y) == (0.0 if got[y] == -np.inf else math.exp(got[y]))
    assert log_pmf_array(model, ys.astype(np.float64)).tolist() == got.tolist()


@pytest.mark.parametrize(
    "model",
    [Poisson(mean=3.7), Poisson(mean=250.0), NegBinomial(p=0.3, k=0.45), NegBinomial(p=0.02, k=60.0)],
    ids=repr,
)
def test_log_pmf_array_table_and_lgamma_paths_agree(model):
    # counts 0..299 take the cumsum table; one huge count puts the same
    # counts past the table size rule, onto math.lgamma
    dense = np.arange(300)
    past_rule = log_pmf_array(model, np.append(dense, 10**7))[:-1]
    np.testing.assert_allclose(log_pmf_array(model, dense), past_rule, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("k", [5e-324, 1e-310])
def test_nb_log_pmf_at_subnormal_shape(k):
    # j/k overflows for a subnormal k; the lgamma form does not
    model, ys = NegBinomial(p=0.5, k=k), np.arange(6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_pmf_array(model, ys)
        assert 0.0 <= pmf(model, 2) < 1.0
    want = [
        math.lgamma(y + k) - math.lgamma(k) - math.lgamma(y + 1.0) + k * math.log(0.5) + y * math.log(0.5)
        for y in ys.tolist()
    ]
    assert np.all(np.isfinite(got)) and np.all(got <= 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_pmf_rejects_negative_count():
    with pytest.raises(InvalidModelError):
        pmf(Geometric(p=0.5), -1)


@pytest.mark.parametrize("y", [2.5, math.nan, math.inf, True, np.True_, np.float64(0.5)])
@pytest.mark.parametrize("call", [pmf, log_pmf])
def test_a_count_that_is_no_integer_is_refused(call, y):
    with pytest.raises(InvalidModelError, match="count must be >= 0 and an integer"):
        call(Poisson(mean=2.0), y)


@pytest.mark.parametrize("y", [2.0, np.float64(2.0), np.int64(2), np.uint8(2)])
def test_an_integral_count_of_any_number_type_is_taken(y):
    for model in (Poisson(mean=2.0), Geometric(p=0.5), Hurdle(pi=0.3, base=Geometric(p=0.5))):
        assert log_pmf(model, y) == log_pmf(model, 2)


@pytest.mark.parametrize(
    "call",
    [lambda m: log_pmf(m, 10**400), lambda m: pmf(m, 10**400), lambda m: log_pmf_array(m, [10**400])],
)
def test_a_count_past_the_float_range_is_refused(call):
    # the conversion to float raised a bare OverflowError
    with pytest.raises(InvalidModelError, match="float range"):
        call(Poisson(mean=2.0))


@pytest.mark.parametrize("call", [lambda: log_pmf_array(object(), [1]), lambda: moments(object())])
def test_an_object_that_is_no_model_is_refused(call):
    with pytest.raises(InvalidModelError, match="unknown model type object"):
        call()


# --- pgf -------------------------------------------------------------------


def test_pgf_normalization(rng):
    for _ in range(20):
        assert pgf(random_model(rng), 1.0) == pytest.approx(1.0, abs=1e-12)


def test_pgf_at_zero_is_zero_mass():
    model = ZeroInflated(pi=0.5, base=Geometric(p=0.5))
    assert pgf(model, 0.0) == pytest.approx(0.75, abs=1e-14)


def test_hurdle_pgf_against_series():
    model = Hurdle(pi=0.2, base=Geometric(p=0.4))
    z = 0.7
    assert pgf(model, z) == pytest.approx(series_sum(model, lambda y: z**y), rel=1e-12)


def test_pgf_domain():
    with pytest.raises(InvalidModelError):
        pgf(Geometric(p=0.5), 1.5)


# --- moments ---------------------------------------------------------------


def test_geometric_moments():
    mom = moments(Geometric(p=0.5))
    assert mom.mean == pytest.approx(1.0)
    assert mom.variance == pytest.approx(2.0)
    assert mom.dispersion == pytest.approx(2.0)


def test_zig_pi_zero_collapses():
    for p in (0.2, 0.5, 0.8):
        zi = moments(ZeroInflated(pi=0.0, base=Geometric(p=p)))
        geo = moments(Geometric(p=p))
        assert zi.mean == pytest.approx(geo.mean)
        assert zi.variance == pytest.approx(geo.variance)


def test_hurdle_moments_closed_form_and_series():
    model = Hurdle(pi=0.3, base=Geometric(p=0.4))
    mom = moments(model)
    assert mom.mean == pytest.approx((1.0 - 0.3) / 0.4)
    assert mom.variance == pytest.approx(0.7 / 0.16 * (1.0 + 0.3 - 0.4))
    mean_series = series_sum(model, lambda y: y)
    second = series_sum(model, lambda y: y * y)
    assert mom.mean == pytest.approx(mean_series, rel=1e-12)
    assert mom.variance == pytest.approx(second - mean_series**2, rel=1e-10)


def test_moments_undefined_dispersion():
    assert moments(Poisson(mean=0.0)).dispersion is None


@pytest.mark.parametrize(
    "model, mean",
    [
        (Geometric(p=1e-200), 1e200),
        (NegBinomial(p=1e-300, k=1.0), 1e300),
        (NegBinomial(p=1e-160, k=1e10), 1e170),  # p**2 subnormal: the division overflows
        (NegBinomial(p=1e-300, k=1e10), math.inf),
    ],
)
def test_moments_where_p_squared_underflows(model, mean):
    mom = moments(model)
    assert mom.mean == pytest.approx(mean, rel=1e-12)
    assert mom.variance == math.inf and mom.dispersion == math.inf


@pytest.mark.parametrize(
    "model, mean",
    [
        (ZeroInflated(pi=0.2, base=Geometric(p=1e-200)), 0.8e200),
        (Hurdle(pi=0.2, base=NegBinomial(p=1e-300, k=1.0)), 0.8e300),
        # deflated: the two variance terms are +inf and -inf
        (ZeroInflated(pi=-1e-200, base=Geometric(p=1e-200)), 1e200),
        (ZeroInflated(pi=-1e-158, base=Geometric(p=1e-158)), 1e158),
        # a numpy float's square overflows to inf with no OverflowError
        (ZeroInflated(pi=-1e-200, base=Geometric(p=np.float64(1e-200))), 1e200),
        (Hurdle(pi=0.2, base=Poisson(mean=np.float64(1e160))), 0.8e160),
        # an infinite base mean: inf - inf
        (ZeroInflated(pi=-5e-324, base=Geometric(p=5e-324)), math.inf),
    ],
)
def test_compound_moments_where_the_mean_squared_overflows(model, mean):
    # Python's float ** raised OverflowError on the base mean squared
    mom = moments(model)
    assert mom.mean == pytest.approx(mean, rel=1e-12)
    assert mom.variance == math.inf and mom.dispersion == math.inf


def test_compound_moments_past_the_mean_squared_stay_exact_where_finite():
    # pi * mean^2 = 1e20 is finite though mean^2 = 1e320 is not
    mom = moments(ZeroInflated(pi=1e-300, base=Poisson(mean=1e160)))
    assert mom.variance == pytest.approx(1e160, rel=1e-12)
    for model in (ZeroInflated(pi=1.0, base=Geometric(p=1e-200)),
                  Hurdle(pi=1.0, base=NegBinomial(p=1e-300, k=1.0)),
                  # the base's variance is infinite, its mean squares fine: 0 * inf
                  ZeroInflated(pi=1.0, base=NegBinomial(p=1e-200, k=1e-300))):
        assert moments(model) == Moments(mean=0.0, variance=0.0, dispersion=None)


def test_finite_compound_moments_keep_the_bits_of_the_closed_form(rng):
    # x**2 and x*x can differ in the last bit: the variance keeps **
    for _ in range(300):
        model = random_model(rng)
        if not isinstance(model, (ZeroInflated, Hurdle)):
            continue
        base = moments(model.base)
        mean, var = base.mean, base.variance
        if isinstance(model, ZeroInflated):
            w = 1.0 - model.pi
            want = w * mean, w * var + model.pi * w * mean**2
        else:
            alpha = (1.0 - model.pi) / (1.0 - pmf(model.base, 0))
            want = alpha * mean, alpha * var + alpha * (1.0 - alpha) * mean**2
        got = moments(model)
        assert (got.mean, got.variance) == want


# --- constructors ----------------------------------------------------------


def test_make_zero_inflated_pi_zero_equals_base():
    model = ZeroInflated(pi=0.0, base=Geometric(p=0.5))
    for y in range(20):
        assert pmf(model, y) == pytest.approx(pmf(Geometric(p=0.5), y), abs=1e-15)


def test_make_zero_inflated_deflated_reference_row():
    # Crofton sample A: valid zero-deflated parameters
    model = ZeroInflated(pi=-0.0256, base=Geometric(p=0.3109))
    assert model.pi == -0.0256


def test_make_zero_inflated_bound_error_reports_interval():
    with pytest.raises(ParameterBoundError) as exc:
        ZeroInflated(pi=-1.5, base=Geometric(p=0.5))
    assert exc.value.admissible == (-1.0, 1.0)


def test_make_hurdle_direct_substitution():
    model = Hurdle(pi=0.5, base=Geometric(p=0.5))
    assert pmf(model, 0) == pytest.approx(0.5)
    assert pmf(model, 1) == pytest.approx(0.25)


def test_make_hurdle_pi_p0_collapse():
    for p in (0.3, 0.5, 0.7):
        model = Hurdle(pi=p, base=Geometric(p=p))
        for y in range(30):
            assert pmf(model, y) == pytest.approx(pmf(Geometric(p=p), y), abs=1e-14)


def test_make_hurdle_equals_reparametrized_zig():
    # Crofton sample C parameters under the change of variables
    pi_zig, p = 0.4875, 0.4605
    pi_hg = pi_zig + (1.0 - pi_zig) * p
    hg = Hurdle(pi=pi_hg, base=Geometric(p=p))
    zig = ZeroInflated(pi=pi_zig, base=Geometric(p=p))
    for y in range(60):
        assert pmf(hg, y) == pytest.approx(pmf(zig, y), abs=1e-14)


def test_make_hurdle_bounds():
    with pytest.raises(ParameterBoundError):
        Hurdle(pi=1.5, base=Geometric(p=0.5))
    with pytest.raises(InvalidModelError):
        Hurdle(pi=0.5, base=Geometric(p=1.0))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Poisson(mean=True),
        lambda: Geometric(p="0.5"),
        lambda: NegBinomial(p=0.5, k=None),
        lambda: NegBinomial(p=np.True_, k=1.0),
        lambda: ZeroInflated(pi=False, base=Geometric(p=0.5)),
        lambda: Hurdle(pi="0.2", base=Geometric(p=0.5)),
    ],
)
def test_a_parameter_that_is_no_number_is_refused(make):
    with pytest.raises(InvalidModelError, match="must be a real number"):
        make()


def test_numpy_numbers_are_taken_as_parameters():
    assert Poisson(mean=np.int64(3)) == Poisson(mean=3.0)
    assert Geometric(p=np.float32(0.5)) == Geometric(p=0.5)
    assert NegBinomial(p=np.float64(0.25), k=np.int32(2)) == NegBinomial(p=0.25, k=2.0)
    assert ZeroInflated(pi=np.float64(0.5), base=Geometric(p=0.5)).pi == 0.5


@pytest.mark.parametrize("base", [object(), "Geometric(p=0.5)"])
def test_a_compound_over_no_model_is_refused(base):
    for compound in (ZeroInflated, Hurdle):
        with pytest.raises(InvalidModelError, match="unknown model type"):
            compound(pi=0.2, base=base)


def test_no_nested_compounds():
    zi = ZeroInflated(pi=0.2, base=Geometric(p=0.5))
    with pytest.raises(InvalidModelError):
        ZeroInflated(pi=0.2, base=zi)
    with pytest.raises(InvalidModelError):
        Hurdle(pi=0.2, base=zi)


# --- invariants ------------------------------------------------------------


def test_normalization_random_models(rng):
    for _ in range(200):
        model = random_model(rng)
        total = series_sum(model, lambda y: 1.0, tail=1e-13)
        assert total >= 1.0 - 1e-12
        assert total <= 1.0 + 1e-12


def test_pgf_derivatives_reproduce_moments(rng):
    for _ in range(30):
        model = random_model(rng)
        mom = moments(model)
        if mom.mean < 1e-3:
            continue
        h = 1e-5
        # first derivative at 1- via central differences plus Richardson
        d1 = (pgf(model, 1.0) - pgf(model, 1.0 - 2 * h)) / (2 * h)
        d2 = (pgf(model, 1.0 - h) - pgf(model, 1.0 - 3 * h)) / (2 * h)
        mean_est = 2 * d1 - d2
        assert mean_est == pytest.approx(mom.mean, rel=1e-4)
        # second factorial moment from a 3-point second difference
        h2 = 1e-4
        s1 = (pgf(model, 1.0) - 2 * pgf(model, 1.0 - h2) + pgf(model, 1.0 - 2 * h2)) / h2**2
        s2 = (pgf(model, 1.0) - 2 * pgf(model, 1.0 - 2 * h2) + pgf(model, 1.0 - 4 * h2)) / (2 * h2) ** 2
        fact2 = 2 * s1 - s2
        var_est = fact2 + mean_est - mean_est**2
        assert var_est == pytest.approx(mom.variance, rel=1e-3, abs=1e-6)


def test_nb_k1_equals_geometric():
    for p in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
        nb = NegBinomial(p=p, k=1.0)
        geo = Geometric(p=p)
        for y in range(101):
            assert abs(pmf(nb, y) - pmf(geo, y)) < 1e-14


def test_nb_poisson_limit():
    m, k = 3.0, 1e6
    nb = NegBinomial(p=k / (m + k), k=k)
    po = Poisson(mean=m)
    worst = max(abs(pmf(nb, y) - pmf(po, y)) for y in range(51))
    assert worst < 1e-5


def test_zig_dispersion_identity(rng):
    # D = sigma^2/mu + pi*mu with (mu, sigma^2) the base moments
    for _ in range(50):
        p = float(rng.uniform(0.15, 0.9))
        base = Geometric(p=p)
        lo = -p / (1.0 - p)
        pi = float(rng.uniform(0.8 * lo, 0.9))
        mom = moments(ZeroInflated(pi=pi, base=base))
        bm = moments(base)
        assert mom.dispersion == pytest.approx(
            bm.variance / bm.mean + pi * bm.mean, abs=1e-12 * max(1.0, mom.dispersion)
        )


def test_zig_hg_overdispersed_for_nonnegative_pi():
    # D > 1 asserted on the pi >= 0 grid only; the zero-deflated case is
    # recorded but not asserted (the pi*mu term goes negative there)
    deflated = []
    for p in np.linspace(0.1, 0.9, 10):
        base = Geometric(p=float(p))
        for pi in np.linspace(0.0, 0.9, 10):
            assert moments(ZeroInflated(pi=float(pi), base=base)).dispersion > 1.0
        for pi in np.linspace(float(p) + 0.01, 0.99, 10):
            if pi <= 1.0:
                assert moments(Hurdle(pi=float(pi), base=base)).dispersion > 1.0
        lo = -p / (1.0 - p)
        for pi in np.linspace(0.9 * lo, -0.01, 5):
            deflated.append(
                moments(ZeroInflated(pi=float(pi), base=base)).dispersion
            )
    assert len(deflated) == 50  # recorded, unasserted
