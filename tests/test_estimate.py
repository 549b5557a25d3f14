import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import hypothesis
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CROFTON_ZIG, SEO_ZIG, recovered_n0
from likelihood_oracles import hg_zig_reparam, score_residuals, zig_hg_reparam
from countfit.dist import Geometric, Hurdle, NegBinomial, Poisson, ZeroInflated, log_pmf
from countfit.errors import (
    AllZerosError,
    EstimationError,
    UnderDispersedError,
)
from countfit.estimate import (
    FrequencySample,
    _from_map,
    _tally,
    loglik,
    mle_geometric,
    mle_hg,
    mle_nb,
    mle_poisson,
    mle_zig,
    mom_nb,
    summarize,
)
from countfit.sim import sample


def random_sample(rng, n_max=500):
    pi = float(rng.uniform(0.0, 0.7))
    p = float(rng.uniform(0.2, 0.8))
    n = int(rng.integers(30, n_max + 1))
    counts = sample(ZeroInflated(pi=pi, base=Geometric(p=p)), n, rng.integers(2**31))
    s = summarize(counts.tolist())
    if s.mean == 0.0 or s.n0 == 0:
        return random_sample(rng, n_max)
    return s


# --- summarize -------------------------------------------------------------


def test_summarize_from_counts():
    s = summarize([0, 0, 1, 3])
    assert (s.n, s.n0, s.mean, s.var) == (4, 2, 1.0, 1.5)


def test_summarize_from_histogram():
    s = summarize({0: 50, 1: 50})
    assert (s.n, s.n0, s.mean) == (100, 50, 0.5)


def test_summarize_single_observation():
    s = summarize({5: 1})
    assert (s.n, s.n0, s.mean) == (1, 0, 5.0)


def test_summarize_rejects_bad_input():
    with pytest.raises(EstimationError):
        summarize([])
    with pytest.raises(EstimationError):
        summarize([-1, 2])
    with pytest.raises(EstimationError, match="negative frequencies"):
        summarize({1: -2})
    with pytest.raises(EstimationError, match="counts must be a flat sequence"):
        summarize([[1, 2], [3, 4]])
    with pytest.raises(EstimationError, match="counts must be integers"):
        summarize(["a"])


def test_summarize_drops_map_frequencies_that_int_turns_into_zero():
    s = summarize({3: 0.5, 1: 2})
    assert s.counts.tolist() == [1] and s.freqs.tolist() == [2]
    for data in ({0: 0.9}, {5: 0}):
        with pytest.raises(EstimationError, match="empty sample"):
            summarize(data)


# raw values as summarize receives them: small and sparse huge counts,
# bools and floats (int() truncates them)
_raw_value = st.one_of(
    st.integers(0, 40),
    st.integers(0, 2**63 - 1),
    st.booleans(),
    st.floats(0.0, 40.0),
)


def _assert_matches_oracle(s, oracle: Counter) -> None:
    ys = sorted(oracle)
    assert s.counts.dtype == np.int64 and s.freqs.dtype == np.int64
    assert s.counts.tolist() == ys
    assert s.freqs.tolist() == [oracle[y] for y in ys]
    assert dict(s.freq) == dict(oracle)
    n = sum(oracle.values())
    assert (s.n, s.n0) == (n, oracle.get(0, 0))
    mean = Fraction(sum(y * f for y, f in oracle.items()), n)
    assert s.mean == float(mean)
    var = sum(f * (y - mean) ** 2 for y, f in oracle.items()) / n
    # float deviations carry roundoff of order max(y)^2 * 2^-52
    assert abs(s.var - float(var)) <= 1e-12 * max(ys) ** 2 + 1e-12 * float(var)


@given(st.lists(_raw_value, min_size=1, max_size=60))
@settings(max_examples=300)
def test_summarize_matches_counter_oracle(values):
    oracle = Counter(int(v) for v in values)
    _assert_matches_oracle(summarize(values), oracle)
    _assert_matches_oracle(summarize(iter(values)), oracle)
    ints = [int(v) for v in values]
    _assert_matches_oracle(summarize(np.array(ints, dtype=np.int64)), oracle)
    _assert_matches_oracle(summarize(dict(reversed(oracle.items()))), oracle)
    if all(isinstance(v, float) for v in values):
        _assert_matches_oracle(summarize(np.array(values)), oracle)
    if all(isinstance(v, bool) for v in values):
        _assert_matches_oracle(summarize(np.array(values)), oracle)


@given(
    st.lists(st.integers(0, 40), max_size=10),
    st.integers(2**63, 2**80),
)
def test_summarize_rejects_integers_beyond_int64(values, huge):
    with pytest.raises(EstimationError):
        summarize(values + [huge])
    with pytest.raises(EstimationError):
        summarize({**{v: 1 for v in values}, huge: 1})
    with pytest.raises(EstimationError):
        summarize({1: huge})


def test_summarize_sparse_huge_counts_do_not_allocate_a_table():
    tracemalloc.start()
    try:
        s = summarize([0, 10**12])
        s_arr = summarize(np.array([0, 10**12, 10**12]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert s.counts.tolist() == [0, 10**12] and s.freqs.tolist() == [1, 1]
    assert s_arr.freqs.tolist() == [1, 2]
    assert s.mean == 5e11


def test_summarize_arrays_are_read_only():
    values = np.array([3, 1, 1, 0])
    s = summarize(values)
    assert values.flags.writeable
    with pytest.raises(ValueError):
        s.counts[0] = 7
    with pytest.raises(TypeError):
        s.freq[0] = 7


def _ref_from_map(data):
    """`_from_map` as it stood with int() of every entry: the reference."""
    try:
        items = sorted(yf for yf in ((int(y), int(f)) for y, f in data.items()) if yf[1])
        counts = np.array([y for y, _ in items], dtype=np.int64)
        freqs = np.array([f for _, f in items], dtype=np.int64)
    except OverflowError as exc:
        raise EstimationError("counts and frequencies must be below 2**63") from exc
    except (TypeError, ValueError) as exc:
        raise EstimationError(f"count map entries must be integers: {exc}") from exc
    if np.any(counts[1:] == counts[:-1]):
        raise EstimationError("count map has duplicate counts")
    return counts, freqs


def _outcome(from_map, data):
    """The arrays a map gives, or the type and message of what it raises."""
    try:
        counts, freqs = from_map(data)
    except Exception as exc:  # compared with the reference, not handled
        return type(exc), str(exc)
    return counts.dtype, counts.tolist(), freqs.dtype, freqs.tolist()


# int entries numpy reads as int64 (bools among them), and every kind that
# must take the int() path: floats, strs, bools alone, numpy ints of other
# widths, ints numpy keeps as uint64, float64 or object, tuples and lists
_small_int = st.one_of(
    st.integers(-3, 40), st.builds(np.int64, st.integers(-3, 40)), st.booleans()
)
_map_entry = st.one_of(
    _small_int,
    _small_int,
    st.integers(2**63 - 2, 2**64 + 2),
    st.integers(-(2**63) - 2, -(2**63) + 2),
    st.builds(np.int32, st.integers(0, 40)),
    st.builds(np.uint64, st.integers(0, 2**64 - 1)),
    st.floats(-2.0, 2.0**64),
    st.sampled_from([0.5, math.nan, math.inf, "3", "-2", "x", (1, 2), None]),
)


@given(st.one_of(
    st.dictionaries(_small_int, _small_int, max_size=30),
    st.dictionaries(_map_entry, _small_int, max_size=8),
    st.dictionaries(_small_int, st.one_of(_map_entry, st.lists(_small_int, max_size=2)), max_size=8),
))
@settings(max_examples=500)
def test_from_map_matches_int_of_every_entry(data):
    assert _outcome(_from_map, data) == _outcome(_ref_from_map, data)


@pytest.mark.parametrize("data", [
    {3: 0.5}, {"3": 1}, {-1: 1, 2**63: 1}, {2**63: 1}, {2**64: 1}, {1: 2**63},
    {2**63: 0, 1: 1}, {True: 2, 3: 1}, {True: 2}, {1: True}, {1.0: 2, 2.5: 1},
    {1: 2, (1, 2): 1}, {1: np.array([1, 2])}, {np.int32(4): 1, 2: 3}, {},
])
def test_from_map_takes_int_of_every_entry_where_numpy_reads_no_int64(data):
    assert _outcome(_from_map, data) == _outcome(_ref_from_map, data)


def test_a_negative_value_goes_from_bincount_to_the_sort(monkeypatch):
    bincount, refused = np.bincount, []

    def counting_bincount(values, *args, **kwargs):
        try:
            return bincount(values, *args, **kwargs)
        except ValueError:
            refused.append(values.tolist())
            raise

    monkeypatch.setattr(np, "bincount", counting_bincount)
    with pytest.raises(EstimationError, match="negative counts are not allowed"):
        summarize([-3, 0, 5])
    assert refused == [[-3, 0, 5]]
    counts, freqs = _tally(np.array([4, -3, 4, 0]))
    assert (counts.tolist(), freqs.tolist()) == ([-3, 0, 4], [1, 1, 2])


def test_a_huge_sparse_count_never_reaches_bincount(monkeypatch):
    def no_bincount(*args, **kwargs):
        raise AssertionError("np.bincount called")

    monkeypatch.setattr(np, "bincount", no_bincount)
    s = summarize(np.array([0, 10**12]))
    assert (s.counts.tolist(), s.freqs.tolist()) == ([0, 10**12], [1, 1])


# --- loglik ----------------------------------------------------------------


def test_loglik_trivial():
    s = summarize({0: 1})
    assert loglik(Geometric(p=0.5), s) == pytest.approx(math.log(0.5))
    assert loglik(Hurdle(pi=0.0, base=Geometric(p=0.5)), s) == float("-inf")


@pytest.mark.parametrize(
    "n, n0, mean, var",
    [
        (10.5, 2, 1.0, None),  # mle_zig gave pi = -3.25
        (10, 2.0, 1.0, None),
        (10, 10, 2.0, None),  # all zeros with a positive mean
        (10, 2, 0.5, None),  # eight nonzero counts cannot sum to 5
        (10, 2, math.nan, None),
        (10, 2, math.inf, None),
        (10, 2, -1.0, None),
        (10, 11, 2.0, None),
        (0, 0, 0.0, None),
        (10, 2, 1.0, math.nan),
        (10, 2, 1.0, -0.5),
        (10, 2, 1.0, math.inf),
        (10, 2, 1.0, 0.0),  # eight counts summing to 10 have var >= 0.25
        (10, 2, 1.0, 0.25 * (1.0 - 1e-8)),
        (True, 0, 1.0, None),  # a bool is no sample size
        (10, True, 1.0, None),
    ],
)
def test_from_summary_refuses_a_summary_no_sample_has(n, n0, mean, var):
    with pytest.raises(EstimationError, match="inconsistent summary"):
        FrequencySample.from_summary(n, n0, mean, var)


@pytest.mark.parametrize(
    "n, n0, mean, var",
    [(10, 10, 0.0, 0.0), (10, 2, 0.8, 0.16), (3, 2, 1 / 3, None), (np.int64(5), np.int64(0), 1.0, 0.0)],
)
def test_from_summary_takes_the_summaries_of_real_samples(n, n0, mean, var):
    s = FrequencySample.from_summary(n, n0, mean, var)
    assert (s.n, s.n0, s.mean, s.var) == (n, n0, mean, var)
    assert s.freq is None  # a summary holds no histogram


def _zeros_then_equal(n0: int, n1: int, c: int) -> list[int]:
    return [0] * n0 + [c] * n1


# equal nonzero counts put the variance on the least value from_summary takes
_summarized_values = st.one_of(
    st.lists(st.one_of(st.integers(0, 40), st.integers(0, 2**62)), min_size=1, max_size=60),
    st.builds(_zeros_then_equal, st.integers(0, 300), st.integers(1, 300), st.integers(1, 10**8)),
    st.builds(_zeros_then_equal, st.integers(1, 300), st.integers(1, 300), st.integers(1, 2**62)),
)


@given(_summarized_values)
@settings(max_examples=500)
def test_from_summary_takes_every_summarized_sample(values):
    s = summarize(values)
    t = FrequencySample.from_summary(s.n, s.n0, s.mean, s.var)
    assert (t.n, t.n0, t.mean, t.var) == (s.n, s.n0, s.mean, s.var)


def test_loglik_two_accumulations_agree(rng):
    # generic freq*log_pmf sum vs the structured (n, n0, mean) form
    for _ in range(20):
        s = random_sample(rng)
        summary = FrequencySample.from_summary(s.n, s.n0, s.mean)
        for model in [
            ZeroInflated(pi=0.2, base=Geometric(p=0.4)),
            Hurdle(pi=0.35, base=Geometric(p=0.45)),
            Geometric(p=0.55),
        ]:
            assert loglik(model, s) == pytest.approx(
                loglik(model, summary), rel=1e-10
            )


def _mp_nb_loglik(model, s):
    """NB log-likelihood of the sample at 50 digits, from the float p and k."""
    with mpmath.workdps(50):
        p, k = mpmath.mpf(model.p), mpmath.mpf(model.k)
        per_value = mpmath.loggamma(k) - k * mpmath.log(p)
        terms = (
            f * (mpmath.loggamma(y + k) - mpmath.loggamma(y + 1) + y * mpmath.log1p(-p)
                 - per_value)
            for y, f in zip(s.counts.tolist(), s.freqs.tolist())
        )
        return mpmath.fsum(terms)


# near the Poisson limit ln Gamma(y+k) - ln Gamma(k) cancels two terms of
# about k ln k: taken that way the error is 2.2e-7, 1.9e-6 and -5.2e-3 at
# k = 1e4, 1e6 and 1e8 on this sample
@hypothesis.example(freq={0: 65859, 1: 24609, 2: 9553}, log10_k=4.0)
@hypothesis.example(freq={0: 65859, 1: 24609, 2: 9553}, log10_k=6.0)
@hypothesis.example(freq={0: 65859, 1: 24609, 2: 9553}, log10_k=8.0)
@given(
    freq=st.dictionaries(st.integers(0, 40), st.integers(1, 10**5), min_size=1, max_size=12),
    log10_k=st.floats(-2.0, 8.0),
)
@settings(max_examples=60, deadline=None)
def test_nb_loglik_matches_mpmath_up_to_the_poisson_limit(freq, log10_k):
    s = summarize(freq)
    k = 10.0**log10_k
    # p as the profile likelihood pairs it with k
    model = NegBinomial(p=k / (max(s.mean, 0.1) + k), k=k)
    want = _mp_nb_loglik(model, s)
    assert loglik(model, s) == pytest.approx(float(want), rel=1e-12, abs=1e-12)


def test_nb_aic_exceeds_poisson_by_two_at_the_cap():
    # at the cap k = 1e8 the NB pmf is the Poisson pmf up to O(m^2/k), so
    # the AIC gap is the one extra parameter; cancellation made it 2.0104
    s = summarize({0: 65859, 1: 24609, 2: 9553})
    nb, poisson = mle_nb(s), mle_poisson(s)
    assert nb.model.k == 1e8
    assert nb.aic - poisson.aic == pytest.approx(2.0, abs=1e-6)


# --- closed-form estimators ------------------------------------------------


def test_mle_zig_seo_sample_a():
    n, m, pi_ref, p_ref = SEO_ZIG["A"]
    s = FrequencySample.from_summary(n, recovered_n0(n, m, p_ref), m)
    assert s.n0 == 329
    fit = mle_zig(s)
    assert fit.model.pi == pytest.approx(pi_ref, abs=5e-3)
    assert fit.model.base.p == pytest.approx(p_ref, abs=5e-3)
    assert fit.solver.method == "closed-form"


def test_mle_zig_crofton_sample_c():
    n, m, pi_ref, p_ref = CROFTON_ZIG["C"]
    s = FrequencySample.from_summary(n, recovered_n0(n, m, p_ref), m)
    fit = mle_zig(s)
    assert fit.model.pi == pytest.approx(0.4875, abs=5e-3)
    assert fit.model.base.p == pytest.approx(0.4605, abs=5e-3)


def test_mle_zig_exact_geometric_data():
    fit = mle_zig(FrequencySample.from_summary(100, 50, 1.0))
    assert fit.model.pi == pytest.approx(0.0, abs=1e-14)
    assert fit.model.base.p == pytest.approx(0.5)


def test_mle_zig_score_zero_at_estimate(rng):
    for _ in range(20):
        s = random_sample(rng)
        fit = mle_zig(s)
        resid = score_residuals(fit.model, s)
        assert np.all(np.abs(resid) < 1e-8 * max(1.0, s.n))


def test_mle_zig_moment_matching(rng):
    # P(0) = n0/n and fitted mean = sample mean, algebraically
    for _ in range(20):
        s = random_sample(rng)
        fit = mle_zig(s)
        pi, p = fit.model.pi, fit.model.base.p
        assert pi + (1.0 - pi) * p == pytest.approx(s.n0 / s.n, abs=1e-12)
        assert (1.0 - pi) * (1.0 - p) / p == pytest.approx(s.mean, abs=1e-12 * s.mean)


def test_mle_zig_all_zeros_error():
    with pytest.raises(AllZerosError):
        mle_zig(summarize({0: 10}))


def test_mle_zig_no_zeros_boundary():
    s = summarize({1: 5, 2: 3, 4: 2})
    fit = mle_zig(s)
    assert fit.solver.boundary
    p = fit.model.base.p
    assert fit.model.pi == pytest.approx(-p / (1.0 - p), abs=1e-12)
    # zero probability vanishes on the boundary
    assert fit.model.pi + (1.0 - fit.model.pi) * p == pytest.approx(0.0, abs=1e-12)



def test_mle_zig_floor_p0_does_not_round_below_zero():
    # here fl(-p/(1-p)) + (1 - that) p rounds to -5.6e-17, whose log is NaN
    fit = mle_zig(summarize({1: 4, 2: 4, 3: 9, 4: 5, 5: 5, 6: 2, 8: 1}))
    p, pi = fit.model.base.p, fit.model.pi
    floor = -p / (1.0 - p)
    assert floor + (1.0 - floor) * p < 0.0
    assert pi == math.nextafter(floor, 0.0)
    assert pi + (1.0 - pi) * p == 0.0
    assert log_pmf(fit.model, 0) == -math.inf

@given(
    st.dictionaries(st.integers(1, 10**6), st.integers(1, 10**6), min_size=1, max_size=8)
    .filter(lambda freq: max(freq) >= 2)
)
@settings(max_examples=300)
def test_mle_zig_without_zeros_is_a_flagged_boundary(freq):
    fit = mle_zig(summarize(freq))
    assert fit.solver.boundary
    p = fit.model.base.p
    # the positive counts alone fix p = n / sum(y); pi sits on its floor
    # -p/(1-p), raised by the fewest ulps at which P(0) does not round below 0
    n, total = sum(freq.values()), sum(y * f for y, f in freq.items())
    assert p == pytest.approx(n / total, rel=1e-12)
    pi = fit.model.pi
    floor = -p / (1.0 - p)
    assert pi >= floor and pi + (1.0 - pi) * p >= 0.0
    below = math.nextafter(pi, -math.inf)
    assert pi == floor or below + (1.0 - below) * p < 0.0


def test_mle_hg_direct_formula():
    fit = mle_hg(FrequencySample.from_summary(100, 50, 1.0))
    assert fit.model.pi == pytest.approx(0.5)
    assert fit.model.base.p == pytest.approx(0.5)


def test_mle_hg_no_zeros():
    fit = mle_hg(FrequencySample.from_summary(100, 0, 2.0))
    assert fit.model.pi == pytest.approx(0.0)
    assert fit.model.base.p == pytest.approx(0.5)


def test_mle_hg_score_zero_at_estimate(rng):
    for _ in range(10):
        s = random_sample(rng)
        fit = mle_hg(s)
        resid = score_residuals(fit.model, s)
        assert np.all(np.abs(resid) < 1e-8 * max(1.0, s.n))


def test_mle_hg_all_zeros_error():
    with pytest.raises(AllZerosError):
        mle_hg(summarize({0: 7}))


def test_zig_hg_logliks_coincide(rng):
    for _ in range(30):
        s = random_sample(rng)
        assert mle_zig(s).loglik == pytest.approx(mle_hg(s).loglik, abs=1e-9)


def test_mle_geometric():
    assert mle_geometric(FrequencySample.from_summary(10, 5, 1.0)).model.p == 0.5
    assert mle_geometric(summarize({0: 5})).model.p == 1.0
    fit = mle_geometric(FrequencySample.from_summary(100, 25, 3.0))
    assert fit.model.p == pytest.approx(0.25)
    # numerical derivative of the geometric loglik vanishes at the estimate
    s = FrequencySample.from_summary(100, 25, 3.0)
    h = 1e-6
    d = (
        loglik(Geometric(p=0.25 + h), s) - loglik(Geometric(p=0.25 - h), s)
    ) / (2 * h)
    assert abs(d) < 1e-4  # O(h^2) curvature term plus roundoff


def test_mle_poisson():
    s = summarize({0: 3, 2: 4, 5: 3})
    fit = mle_poisson(s)
    assert fit.model.mean == pytest.approx(s.mean)
    assert math.isfinite(fit.loglik)
    assert mle_poisson(summarize({0: 4})).model.mean == 0.0
    # a summary gives the Poisson log-likelihood only where every count is 0
    assert mle_poisson(FrequencySample.from_summary(4, 4, 0.0)).loglik == 0.0


@pytest.mark.parametrize(
    "fitter, s, message",
    [
        (mle_poisson, FrequencySample.from_summary(100, 30, 2.0, var=4.0), "full histogram"),
        (mom_nb, FrequencySample.from_summary(100, 30, 2.0), "requires the sample variance"),
        (mle_nb, FrequencySample.from_summary(100, 30, 2.0, var=4.0), "full frequency table"),
        (lambda s: loglik(Poisson(mean=1.0), s), FrequencySample.from_summary(10, 2, 1.0),
         "no structured log-likelihood for Poisson"),
    ],
)
def test_a_fitter_refuses_a_summary_that_lacks_what_it_needs(fitter, s, message):
    with pytest.raises(EstimationError, match=message):
        fitter(s)


# --- NB estimators ---------------------------------------------------------


def test_mom_nb_direct():
    s = FrequencySample.from_summary(100, 30, 2.0, var=4.0)
    fit = mom_nb(s)
    assert fit.model.k == pytest.approx(2.0)
    assert fit.model.p == pytest.approx(0.5)
    assert fit.solver.method == "moments"


def test_mom_nb_underdispersed():
    with pytest.raises(UnderDispersedError):
        mom_nb(FrequencySample.from_summary(100, 30, 1.0, var=1.0))


def test_mom_nb_recovery():
    m, k = 2.5, 0.6
    counts = sample(NegBinomial(p=k / (m + k), k=k), 100_000, 11)
    fit = mom_nb(summarize(counts.tolist()))
    assert fit.model.k == pytest.approx(0.6, abs=0.1)


def test_mle_nb_underdispersed_error():
    with pytest.raises(UnderDispersedError):
        mle_nb(summarize({0: 1, 1: 1}))


def test_mle_nb_recovery_table_params():
    m, k = 4.6102, 0.6193
    counts = sample(NegBinomial(p=k / (m + k), k=k), 100_000, 42)
    s = summarize(counts.tolist())
    fit = mle_nb(s)
    assert 0.58 <= fit.model.k <= 0.66
    assert abs(fit.solver.residual) < 1e-10 * s.n
    # the score changes sign across the recorded bracket
    resid_lo = score_residuals(
        NegBinomial(p=fit.solver.bracket[0] / (s.mean + fit.solver.bracket[0]), k=fit.solver.bracket[0]), s
    )[1]
    resid_hi = score_residuals(
        NegBinomial(p=fit.solver.bracket[1] / (s.mean + fit.solver.bracket[1]), k=fit.solver.bracket[1]), s
    )[1]
    assert (resid_lo > 0) != (resid_hi > 0)


def test_mle_nb_on_geometric_data():
    counts = sample(Geometric(p=0.4), 100_000, 5)
    fit = mle_nb(summarize(counts.tolist()))
    assert 0.9 <= fit.model.k <= 1.1


def test_mle_nb_p_relation():
    counts = sample(NegBinomial(p=0.3, k=1.5), 50_000, 3)
    s = summarize(counts.tolist())
    fit = mle_nb(s)
    assert fit.model.p == pytest.approx(fit.model.k / (s.mean + fit.model.k), rel=1e-12)


def test_geometric_is_nb_k1_constrained():
    s = FrequencySample.from_summary(100, 40, 1.5)
    assert mle_geometric(s).model.p == 1.0 / (1.0 + s.mean)


# --- score residuals -------------------------------------------------------


def test_hg_pi_score_identity():
    s = summarize({0: 4, 1: 3, 2: 2, 5: 1})
    fit = mle_hg(s)
    resid = score_residuals(fit.model, s)
    assert resid[0] == pytest.approx(0.0, abs=1e-10)


def test_score_nonzero_off_optimum(rng):
    s = random_sample(rng)
    fit = mle_zig(s)
    shifted = ZeroInflated(pi=fit.model.pi + 0.1, base=fit.model.base)
    assert abs(score_residuals(shifted, s)[0]) > 1e-3


def test_nb_score_components():
    counts = sample(NegBinomial(p=0.4, k=2.0), 20_000, 9)
    s = summarize(counts.tolist())
    fit = mle_nb(s)
    resid = score_residuals(fit.model, s)
    assert abs(resid[0]) < 1e-6 * s.n  # p-equation holds by construction
    assert abs(resid[1]) < 1e-10 * s.n


# --- NB shape MLE against a 50-digit oracle --------------------------------


def _mp_nb_score(s):
    """The psi-form NB profile score in k and the exact sample mean, as mpf."""
    ys, fs = s.counts.tolist(), s.freqs.tolist()
    mean = mpmath.mpf(sum(y * f for y, f in zip(ys, fs))) / s.n

    def g(k):
        terms = (f * (mpmath.digamma(y + k) - mpmath.digamma(k)) for y, f in zip(ys, fs))
        return mpmath.fsum(terms) - s.n * mpmath.log1p(mean / k)

    return g, mean


def _mp_nb_root(s) -> float:
    """Root of the profile score at 50 digits, bracketed from the moments shape.

    The score is solved in t = log k and scaled by k**2/n, which keeps it of
    order var - mean near the Poisson limit, where the score itself is tiny.
    """
    with mpmath.workdps(50):
        g, mean = _mp_nb_score(s)
        k_mom = mean**2 / (mpmath.mpf(s.var) - mean)
        lo, hi = k_mom / 10, k_mom * 10
        while g(lo) <= 0:
            lo /= 10
        while g(hi) > 0:
            hi *= 10
        h = lambda t: g(mpmath.exp(t)) * mpmath.exp(2 * t) / s.n
        bracket = (mpmath.log(lo), mpmath.log(hi))
        t = mpmath.findroot(h, bracket, solver="anderson", verify=False)
        return float(mpmath.exp(t))


def _no_multi_root_note(fit) -> bool:
    return not any("roots" in note for note in fit.solver.notes)


@st.composite
def overdispersed_samples(draw):
    """NB draws with k in [0.2, 50], or Poisson draws with var/mean - 1 < 1e-3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        k = draw(st.floats(0.2, 50.0))
        mean = draw(st.floats(0.2, 20.0))
        n = draw(st.integers(20, 3000))
        draw_once = lambda: rng.negative_binomial(k, k / (mean + k), n)
        accept = lambda s: s.var > s.mean
    else:
        mean = draw(st.floats(0.5, 10.0))
        n = draw(st.integers(500, 3000))
        draw_once = lambda: rng.poisson(mean, n)
        accept = lambda s: s.mean > 0.0 and 0.0 < s.var / s.mean - 1.0 < 1e-3
    # accept on summarize's own moments: numpy's var and mean can order
    # differently, as for {0: 333, 1: 140, 2: 22, 3: 4, 4: 1} (both 0.4)
    for _ in range(20_000):
        s = summarize(draw_once())
        if accept(s):
            return s
    hypothesis.reject()


@given(s=overdispersed_samples())
@settings(max_examples=60, deadline=None)
def test_mle_nb_matches_mpmath_root(s):
    assert s.var > s.mean
    fit = mle_nb(s)
    root = _mp_nb_root(s)
    assert fit.model.k == pytest.approx(min(root, 1e8), rel=1e-9)
    assert fit.solver.boundary == (root > 1e8)
    assert _no_multi_root_note(fit)


def test_mle_nb_near_poisson_single_root():
    # var/mean = 1.00009: the psi-form score's terms are about 1e4 while
    # the score is about 1e-11, and roundoff once produced five "roots"
    s = summarize(sample(Poisson(mean=3.39), 1893, 323))
    fit = mle_nb(s)
    assert fit.model.k == pytest.approx(38950.670281214, rel=1e-9)
    assert fit.model.k == pytest.approx(_mp_nb_root(s), rel=1e-9)
    assert _no_multi_root_note(fit)


def test_mle_nb_sparse_huge_counts():
    # a dense A_j table would need 10**12 cells
    s = summarize({0: 5, 10**12: 1, 10**12 + 7: 2})
    fit = mle_nb(s)
    assert fit.model.k == pytest.approx(0.018691, rel=1e-4)
    assert fit.model.k == pytest.approx(_mp_nb_root(s), rel=1e-9)
    assert not fit.solver.boundary


def test_mle_nb_poisson_limit_is_a_flagged_boundary():
    # var - mean = 1e-10 < mean**2 / 1e8, so the root lies beyond the cap and
    # k_mom / 10 is above the cap
    s = summarize({0: 65859, 1: 24609, 2: 9553})
    assert 0.0 < s.var - s.mean < s.mean**2 / 1e8
    with mpmath.workdps(50):
        assert _mp_nb_score(s)[0](mpmath.mpf(10**8)) > 0  # root above the cap
    fit = mle_nb(s)
    assert fit.model.k == 1e8
    assert fit.solver.boundary
    assert any("Poisson limit" in note for note in fit.solver.notes)
    lo, hi = fit.solver.bracket
    assert lo <= hi <= 1e8
    assert fit.solver.residual > 0.0


def test_mle_nb_root_below_floor_is_a_flagged_boundary():
    s = summarize({0: 10**9, 2: 1})
    assert s.var > s.mean
    with mpmath.workdps(50):
        assert _mp_nb_score(s)[0](mpmath.mpf("1e-8")) < 0  # root below the floor
    fit = mle_nb(s)
    assert fit.model.k == 1e-8
    assert fit.solver.boundary
    assert fit.solver.residual <= 0.0


@pytest.mark.parametrize(
    "freq",
    [{0: 30, 1: 12, 2: 9, 5: 4, 11: 2}, {0: 5, 10**12: 1, 10**12 + 7: 2}],
    ids=["dense", "sparse"],
)
@pytest.mark.parametrize("p, k", [(0.4, 0.7), (0.9, 25.0)])
def test_nb_k_score_matches_mpmath(freq, p, k):
    s = summarize(freq)
    with mpmath.workdps(50):
        g, mean = _mp_nb_score(s)
        want = g(mpmath.mpf(k)) + s.n * (mpmath.log(p) + mpmath.log1p(mean / k))
        got = score_residuals(NegBinomial(p=p, k=k), s)[1]
        assert got == pytest.approx(float(want), rel=1e-9, abs=1e-9 * s.n)


# --- reparametrization -----------------------------------------------------


def test_zig_hg_reparam_values():
    assert zig_hg_reparam(0.0, 0.37) == pytest.approx(0.37)
    assert zig_hg_reparam(0.4875, 0.4605) == pytest.approx(0.7235, abs=1e-4)


@given(
    pi=st.floats(min_value=-0.5, max_value=0.99),
    p=st.floats(min_value=0.01, max_value=0.95),
)
@settings(max_examples=1000)
def test_zig_hg_reparam_round_trip(pi, p):
    assert hg_zig_reparam(zig_hg_reparam(pi, p), p) == pytest.approx(pi, abs=1e-14)


def test_reparam_maps_fits_onto_each_other(rng):
    s = random_sample(rng)
    zig = mle_zig(s).model
    hg = mle_hg(s).model
    assert zig_hg_reparam(zig.pi, zig.base.p) == pytest.approx(hg.pi, abs=1e-12)
    assert zig.base.p == pytest.approx(hg.base.p, abs=1e-12)
