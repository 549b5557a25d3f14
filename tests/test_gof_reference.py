"""The GOF cells against a frozen copy of the cell-by-cell list loop.

`_reference_gof` is the list implementation `gof_test` had before it moved
onto arrays: merge each zero-expected cell into its neighbour one at a
time, pop the sparse tail one cell at a time, and sum chi-squared over
`Bin` records. The array code must give the same labels, observed and
expected values, df and chi-squared bit for bit, and raise the same
error wherever the loop raises. `_ref_pool_tail` is also the reference
for the pooling rule `gof._pool` on its own.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from countfit.dist import Geometric, Hurdle, NegBinomial, Poisson, ZeroInflated
from countfit.errors import (
    CountFitError,
    DegenerateBinningError,
    DomainError,
    EstimationError,
)
from countfit.estimate import FAMILY_TABLE, summarize
from countfit import gof
from countfit.gof import Bin, expected_counts, gof_test
from countfit.specfn import chi2_survival

MIN_BINS = 3
THRESHOLDS = (0.5, 1.0, 5.0, 1e-300)


# ---------------------------------------------------------------- reference


def _ref_pool_tail(observed, expected, threshold, labels=None):
    if len(observed) != len(expected):
        raise CountFitError("observed and expected must have equal length")
    if not threshold > 0.0:
        raise CountFitError(f"pooling threshold must be > 0, got {threshold!r}")
    labels = list(labels) if labels is not None else [str(y) for y in range(len(expected))]
    obs = list(observed)
    exp = list(expected)
    pooled = False
    while len(exp) > MIN_BINS and exp[-1] < threshold and exp[-2] < threshold:
        last_obs = obs.pop()
        last_exp = exp.pop()
        obs[-1] += last_obs
        exp[-1] += last_exp
        labels.pop()
        pooled = True
    if pooled:
        labels[-1] = f"{labels[-1].split(',')[0]}+"
    if len(exp) < MIN_BINS:
        raise DegenerateBinningError(f"pooling left only {len(exp)} bins (< {MIN_BINS})")
    return [Bin(label=l, observed=o, expected=e) for l, o, e in zip(labels, obs, exp)]


def _ref_merge_structural_zeros(observed, expected, labels):
    labels = list(labels)
    i = 0
    obs, exp = list(observed), list(expected)
    while i < len(exp):
        if exp[i] == 0.0:
            j = i + 1 if i + 1 < len(exp) else i - 1
            exp[j] += exp[i]
            obs[j] += obs[i]
            labels[j] = f"{labels[i]},{labels[j]}" if j > i else f"{labels[j]},{labels[i]}"
            del exp[i], obs[i], labels[i]
        else:
            i += 1
    return obs, exp, labels


def _ref_gof(model, s, n_params, threshold):
    if s.counts is None:
        raise EstimationError("goodness of fit requires the full frequency table")
    max_count = int(s.counts[-1])
    if max_count < 1:
        raise DegenerateBinningError("all observations are zero; nothing to bin")
    if max_count > 4 * s.n + 1024:
        raise DegenerateBinningError(
            f"largest count {max_count} is too large for a table of cells "
            f"over 0..{max_count + 1} at n={s.n}"
        )
    exp = expected_counts(model, s.n, max_count)
    observed = np.zeros(max_count + 2)
    observed[s.counts] = s.freqs
    labels = [str(y) for y in range(max_count + 1)] + [f"{max_count + 1}+"]
    obs, exp, labels = _ref_merge_structural_zeros(observed.tolist(), exp, labels)
    bins = _ref_pool_tail(obs, exp, threshold, labels=labels)
    if any(b.expected <= 0.0 for b in bins):
        raise CountFitError("chi-squared statistic undefined for expected <= 0")
    chi2 = 0.0
    for b in bins:
        chi2 += (b.observed - b.expected) ** 2 / b.expected
    df = len(bins) - 1 - n_params
    if df < 1:
        raise DegenerateBinningError(f"df = {len(bins)} bins - 1 - {n_params} params = {df} < 1")
    return bins, chi2, df, chi2_survival(chi2, df)


# ---------------------------------------------------------------- helpers


def _outcome(fn, *args):
    """("ok", result) or ("raised", error type, message)."""
    try:
        return "ok", fn(*args)
    except CountFitError as exc:
        return "raised", type(exc), str(exc)


def _assert_same_gof(model, s, n_params, threshold):
    want = _outcome(_ref_gof, model, s, n_params, threshold)
    got = _outcome(gof_test, model, s, n_params, threshold)
    if want[:2] == ("raised", DomainError) and want[2].endswith("got inf"):
        # the loop hands an overflowing chi2 to chi2_survival; gof_test
        # names the bin whose term overflows instead
        assert got[:2] == ("raised", CountFitError) and "overflows" in got[2], model
        return
    if want[0] == "raised" or got[0] == "raised":
        assert got == want, model
        return
    (bins, chi2, df, p_value), got = want[1], got[1]
    assert [b.label for b in got.bins] == [b.label for b in bins], model
    assert [b.observed for b in got.bins] == [b.observed for b in bins], model
    assert [b.expected for b in got.bins] == [b.expected for b in bins], model
    assert all(type(b) is Bin for b in got.bins)
    assert got.df == df and got.n_params == n_params and got.pooling_threshold is threshold
    assert got.chi2 == chi2 and got.p_value == p_value, model


def _models(s, extra):
    """The five fitted families plus the given fixed models, with n_params."""
    out = []
    for family in FAMILY_TABLE.values():
        try:
            fit = family.mle(s)
        except CountFitError:
            continue
        out.append((fit.model, fit.n_params))
    return out + [(m, 2) for m in extra]


FIXED = (
    Hurdle(pi=0.0, base=Geometric(p=0.3)),
    ZeroInflated(pi=-0.4 / (1.0 - 0.4), base=Geometric(p=0.4)),  # the ZIG floor
    Poisson(mean=1e-3),
    Geometric(p=1.0),
    Hurdle(pi=0.3, base=Poisson(mean=900.0)),  # zeros between live cells
    Poisson(mean=1e3),  # leading zeros
)

model_strategy = st.one_of(
    st.builds(Poisson, st.floats(0.0, 2e3)),
    st.builds(Geometric, st.floats(1e-4, 1.0)),
    st.builds(NegBinomial, st.floats(1e-3, 1.0), st.floats(1e-2, 1e3)),
    st.builds(
        lambda p, frac: ZeroInflated(pi=-p / (1.0 - p) * frac, base=Geometric(p=p)),
        st.floats(1e-3, 0.9),
        st.sampled_from([1.0, 0.5, 0.0]),
    ),
    st.builds(
        lambda pi, m: Hurdle(pi=pi, base=Poisson(mean=m)),
        st.floats(0.0, 0.99),
        st.floats(1e-3, 2e3),
    ),
)

dense = st.dictionaries(st.integers(0, 60), st.integers(1, 500), min_size=1, max_size=61)
sparse = st.dictionaries(st.integers(0, 3000), st.integers(1, 50), min_size=1, max_size=400)


# ---------------------------------------------------------------- tests


@settings(max_examples=60, deadline=None)
@given(freq=st.one_of(dense, sparse), model=model_strategy)
def test_gof_matches_reference_loop(freq, model):
    s = summarize(freq)
    for m, n_params in _models(s, FIXED + (model,)):
        for threshold in THRESHOLDS:
            _assert_same_gof(m, s, n_params, threshold)


@settings(max_examples=300, deadline=None)
@given(
    cells=st.lists(
        st.tuples(
            st.integers(0, 40),
            st.one_of(st.just(0.0), st.floats(1e-3, 0.4), st.floats(1e-320, 1e-300)),
        ),
        min_size=2,
        max_size=40,
    ),
    mass=st.sampled_from([0.9, 0.999, 1.0, 1.001]),
    threshold=st.sampled_from(THRESHOLDS),
)
def test_gof_matches_reference_loop_on_any_cell_pattern(cells, mass, threshold):
    # any pattern of zero cells, not only those a family's pmf can make:
    # isolated zeros, runs at either end, a mass of 1 or more (no tail cell)
    freqs, pmf = zip(*cells)
    freq = {y: f for y, f in enumerate(freqs) if f}
    pmf = np.array(pmf[: max(freq, default=0) + 1])
    assume(max(freq, default=0) >= 1 and pmf.sum() >= 1e-3)
    s = summarize(freq)
    with np.errstate(divide="ignore"):
        log_pmf = np.log(pmf * (mass / pmf.sum()))
    with mock.patch.object(gof, "log_pmf_array", lambda model, ys: log_pmf):
        _assert_same_gof(Geometric(p=0.5), s, 1, threshold)


@pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan"), float("inf")])
def test_gof_odd_thresholds_match_reference_loop(threshold):
    s = summarize({0: 30, 1: 20, 2: 9, 3: 4, 5: 2, 9: 1})
    for m, n_params in _models(s, FIXED):
        _assert_same_gof(m, s, n_params, threshold)


@settings(max_examples=200, deadline=None)
@given(
    cells=st.lists(
        st.tuples(
            st.one_of(st.floats(0.0, 50.0), st.integers(0, 50)),
            st.one_of(st.floats(0.0, 8.0), st.sampled_from([0.0, 1e-300, 0.1, 1.0])),
        ),
        max_size=30,
    ),
    threshold=st.one_of(st.sampled_from([0.0, -1.0, 1e-300, 0.5, 1.0, 5.0]), st.floats(0.0, 10.0)),
    named=st.booleans(),
)
def test_pool_tail_matches_reference_loop(cells, threshold, named):
    obs = [o for o, _ in cells]
    exp = [e for _, e in cells]
    labels = [f"{y},{y + 1}" if y % 3 == 0 else str(y) for y in range(len(cells))] if named else None
    want = _outcome(_ref_pool_tail, obs, exp, threshold, labels)
    got = _outcome(gof._pool, np.array(exp, dtype=np.float64), threshold)
    if want[0] == "raised" or got[0] == "raised":
        assert got == want
        return
    # bins left and the last bin's expected count, bit for bit
    bins = want[1]
    assert got[1] == (len(bins), bins[-1].expected)
    assert type(got[1][1]) is float
