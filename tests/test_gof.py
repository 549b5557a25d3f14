import builtins
import dataclasses
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countfit.cli import read_frequency_file
from countfit.dist import Geometric, Hurdle, Poisson, ZeroInflated
from countfit.errors import (
    CountFitError,
    DegenerateBinningError,
    EstimationError,
    InvalidModelError,
)
from countfit.estimate import FrequencySample, aic, mle_hg, mle_zig, summarize
from countfit.gof import (
    FAMILIES,
    Bin,
    GofResult,
    _chi2,
    _pool,
    compare_models,
    expected_counts,
    gof_test,
)
from countfit.sim import sample
from countfit.specfn import chi2_survival


def test_expected_counts_geometric():
    exp = expected_counts(Geometric(p=0.5), 8, 2)
    assert exp == pytest.approx([4.0, 2.0, 1.0, 1.0])


def test_expected_counts_zero_n():
    assert expected_counts(Geometric(p=0.5), 0, 3) == pytest.approx([0.0] * 5)


def test_expected_counts_needs_a_cell_past_zero():
    with pytest.raises(InvalidModelError, match="max_count must be >= 1"):
        expected_counts(Geometric(p=0.5), 10, 0)


@pytest.mark.parametrize(
    "n, max_count, message",
    [
        (-5, 3, "sample size must be >= 0"),
        (2.5, 3, "sample size must be >= 0 and an integer"),
        (True, 3, "sample size must be >= 0 and an integer"),
        (10, 2.5, "max_count must be >= 1 and an integer"),
        (10, True, "max_count must be >= 1 and an integer"),
        (10, np.float64(3.0), "max_count must be >= 1 and an integer"),
    ],
)
def test_expected_counts_refuses_a_size_or_largest_count_that_is_not_a_whole_number(
    n, max_count, message
):
    # a negative size gave negative expected counts, and max_count=2.5 gave
    # four cells and a tail
    with pytest.raises(InvalidModelError, match=message):
        expected_counts(Geometric(p=0.5), n, max_count)


def test_expected_counts_takes_numpy_integers():
    assert expected_counts(Geometric(p=0.5), np.int64(8), np.int64(2)) == pytest.approx(
        [4.0, 2.0, 1.0, 1.0]
    )


def test_expected_counts_zig_reference_zero_cell():
    # Seo sample A parameters reproduce the recovered zero count
    exp = expected_counts(ZeroInflated(pi=0.3653, base=Geometric(p=0.3843)), 540, 5)
    assert exp[0] == pytest.approx(329.0, abs=0.2)


def test_pool_tail_example():
    # the last two cells expect 3 and 1, both under 5: they pool into one bin
    assert _pool(np.array([10.0, 6.0, 3.0, 1.0]), 5.0) == (3, 4.0)


def test_pool_tail_identity_when_all_clear():
    assert _pool(np.array([10.0, 10.0, 10.0]), 5.0) == (3, 10.0)


def test_pool_tail_conservation(rng):
    for _ in range(20):
        exp = rng.uniform(0.01, 20.0, size=rng.integers(5, 40))
        k, last = _pool(exp, 1.0)
        assert float(np.sum(exp[: k - 1])) + last == pytest.approx(float(np.sum(exp)), abs=1e-12)


def test_gof_bins_conserve_counts(rng):
    for seed in range(20):
        p = float(rng.uniform(0.1, 0.6))
        model = ZeroInflated(pi=float(rng.uniform(0.0, 0.5)), base=Geometric(p=p))
        s = summarize(sample(model, int(rng.integers(50, 2000)), seed))
        g = gof_test(model, s, 1)
        assert sum(b.observed for b in g.bins) == s.n
        assert sum(b.expected for b in g.bins) == pytest.approx(s.n, rel=1e-12)


def test_pool_tail_degenerate():
    with pytest.raises(DegenerateBinningError):
        _pool(np.array([0.5, 0.4]), 5.0)


def test_chi2_statistic_values():
    assert _chi2([4.0, 2.0], [4.0, 2.0]) == 0.0
    assert _chi2([5.0, 5.0], [4.0, 6.0]) == pytest.approx(0.25 + 1.0 / 6.0, rel=1e-12)


def test_chi2_statistic_second_implementation(rng):
    model = ZeroInflated(pi=0.25, base=Geometric(p=0.45))
    counts = sample(model, 2000, 77)
    s = summarize(counts.tolist())
    g = gof_test(model, s, 2)
    # spreadsheet-style accumulation, fsum in a plain loop
    cells = [(b.observed - b.expected) ** 2 / b.expected for b in g.bins]
    assert g.chi2 == pytest.approx(math.fsum(cells), abs=1e-10)


def test_gof_perfect_fit():
    # dyadic histogram equal to N*pmf cell by cell once the sub-threshold
    # tail mass is pooled into the last cell: chi2 is exactly zero
    model = Geometric(p=0.5)
    freq = {y: 2 ** (13 - y) for y in range(14)}
    freq[14] = 1
    s = summarize(freq)
    g = gof_test(model, s, 1)
    assert g.chi2 == pytest.approx(0.0, abs=1e-9)
    assert g.p_value == pytest.approx(1.0, abs=1e-9)


def test_gof_df_arithmetic(rng):
    model = ZeroInflated(pi=0.3, base=Geometric(p=0.4))
    for seed in range(5):
        counts = sample(model, 3000, seed)
        s = summarize(counts.tolist())
        fit = mle_zig(s)
        g = gof_test(fit.model, s, fit.n_params)
        assert g.df == len(g.bins) - 1 - g.n_params
        assert g.df >= 1
        assert 0.0 <= g.p_value <= 1.0
        assert g.p_value == chi2_survival(g.chi2, g.df)
        assert sum(b.observed for b in g.bins) == s.n
        assert sum(b.expected for b in g.bins) == pytest.approx(s.n, abs=1e-9)


def test_gof_structural_zero_merged():
    # hurdle with pi=0 has zero expected mass at y=0
    model = Hurdle(pi=0.0, base=Geometric(p=0.5))
    s = summarize({1: 50, 2: 25, 3: 13, 4: 6, 5: 6})
    g = gof_test(model, s, 1)
    assert all(b.expected > 0.0 for b in g.bins)


def test_gof_pvalue_calibration():
    model = ZeroInflated(pi=0.3, base=Geometric(p=0.4))
    rejections = 0
    for rep in range(200):
        counts = sample(model, 10_000, 1000 + rep)
        s = summarize(counts.tolist())
        fit = mle_zig(s)
        g = gof_test(fit.model, s, fit.n_params)
        if g.p_value < 0.05:
            rejections += 1
    assert 0.01 <= rejections / 200 <= 0.10


def test_aic():
    assert aic(0.0, 2) == 4.0
    assert aic(-63.768, 2) == pytest.approx(131.536)
    with pytest.raises(CountFitError):
        aic(0.0, 0)


def test_fitresult_aic_invariant(rng):
    counts = sample(ZeroInflated(pi=0.2, base=Geometric(p=0.5)), 500, 1)
    s = summarize(counts.tolist())
    fit = mle_zig(s)
    assert fit.aic == pytest.approx(2 * fit.n_params - 2 * fit.loglik, abs=1e-12)


def test_compare_models_zig_hg_equal_aic():
    counts = sample(ZeroInflated(pi=0.3, base=Geometric(p=0.4)), 5000, 8)
    s = summarize(counts.tolist())
    report = compare_models(s, ["zig", "hg"])
    aics = {e.family: e.fit.aic for e in report.entries}
    assert aics["zig"] == pytest.approx(aics["hg"], abs=1e-9)
    assert report.notes


def test_compare_models_tie_break_ignores_cell_order():
    # zig and hg tie up to roundoff; the first requested family must win
    # however the cells are ordered, since cell order changes the roundoff
    counts = sample(ZeroInflated(pi=0.3653, base=Geometric(p=0.3843)), 200_000, 3)
    cells = list(Counter(counts.tolist()).items())
    rng = np.random.default_rng(17)
    for _ in range(25):
        s = summarize(dict(cells[i] for i in rng.permutation(len(cells))))
        assert compare_models(s, ["zig", "hg"]).best_aic_model == "zig"
        assert compare_models(s, ["hg", "zig"]).best_aic_model == "hg"
        assert compare_models(s, ["geom", "hg", "zig"]).best_aic_model == "hg"


def test_compare_models_nb_vs_zig():
    counts = sample(ZeroInflated(pi=0.3, base=Geometric(p=0.4)), 5000, 21)
    s = summarize(counts.tolist())
    report = compare_models(s, ["nb", "zig"])
    aics = {e.family: e.fit.aic for e in report.entries}
    # equal parameter counts; the well-specified family should not lose badly
    assert aics["zig"] <= aics["nb"] + 2.0
    for e in report.entries:
        if e.gof is not None:
            assert e.gof.df == len(e.gof.bins) - 1 - 2


def test_compare_models_nb_failure_is_entry():
    s = summarize({0: 5, 1: 5})  # under-dispersed
    report = compare_models(s, ["nb", "geom"])
    by_family = {e.family: e for e in report.entries}
    assert by_family["nb"].error is not None
    assert by_family["geom"].fit is not None
    assert report.best_aic_model == "geom"


@pytest.mark.parametrize("threshold", [-1.0, 0.0, float("nan")])
def test_threshold_not_above_zero_is_refused(threshold):
    s = summarize({0: 30, 1: 20, 2: 9, 3: 4, 5: 2, 9: 1})
    with pytest.raises(CountFitError, match="pooling threshold must be > 0"):
        compare_models(s, ["nb", "zig", "geom"], threshold)
    with pytest.raises(CountFitError, match="pooling threshold must be > 0"):
        gof_test(Geometric(p=0.5), s, 1, threshold)


def test_compare_models_empty_and_all_failed():
    s = summarize({0: 5, 1: 5})
    with pytest.raises(CountFitError):
        compare_models(s, [])
    with pytest.raises(EstimationError):
        compare_models(s, ["nb"])
    with pytest.raises(CountFitError, match=r"unknown families: \['bogus'\]"):
        compare_models(s, ["nb", "bogus"])


def test_gof_of_a_summary_sample_is_refused():
    s = FrequencySample.from_summary(100, 30, 2.0, var=4.0)
    with pytest.raises(EstimationError, match="requires the full frequency table"):
        gof_test(Geometric(p=0.5), s, 1)


def test_pooling_preserves_statistic_for_proportional_cells():
    # pooled cells with equal obs/exp ratios leave the statistic unchanged
    obs = [50.0, 25.0, 2.0, 1.0]
    exp = [100.0, 50.0, 4.0, 2.0]
    stat_unpooled = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
    k, last = _pool(np.array(exp), 5.0)
    stat_pooled = _chi2(obs[: k - 1] + [sum(obs[k - 1 :])], exp[: k - 1] + [last])
    # each cell has obs = exp/2, so both statistics equal sum(exp)/4
    assert stat_pooled <= stat_unpooled + 1e-12


def _gof_outcome(fit, s):
    try:
        g = gof_test(fit.model, s, fit.n_params)
    except CountFitError as exc:
        return type(exc)
    return [b.label for b in g.bins], g.df


def test_zig_floor_example_bins_like_hg():
    s = summarize({1: 117, 2: 73, 3: 52, 4: 22, 5: 21, 6: 11, 7: 7, 8: 3, 9: 2, 10: 1, 11: 2, 18: 1})
    zig, hg = mle_zig(s), mle_hg(s)
    assert expected_counts(zig.model, s.n, 1)[0] == 0.0
    labels, df = _gof_outcome(zig, s)
    assert labels[:2] == ["0,1", "2"] and df == 9
    assert _gof_outcome(hg, s) == (labels, df)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.integers(1, 80), st.integers(1, 300), min_size=1, max_size=40).filter(
        lambda freq: max(freq) >= 2
    )
)
def test_zig_floor_on_zero_free_samples_has_no_zero_cell(freq):
    # mle_zig puts pi exactly on its floor -p/(1-p), where P(0) is 0: the
    # zero cell must be a structural zero, binned as HG's (pi = 0) is
    s = summarize(freq)
    zig, hg = mle_zig(s), mle_hg(s)
    assert expected_counts(zig.model, s.n, 1)[0] == 0.0
    assert _gof_outcome(zig, s) == _gof_outcome(hg, s)


def test_overflowing_chi2_term_is_a_named_error():
    # count 39 expects about 1.6e-322 under this model, so its term is inf
    model = Hurdle(pi=0.3, base=Poisson(mean=900.0))
    s = summarize({0: 1, 39: 1})
    with pytest.raises(CountFitError, match="bin '39' expects .* overflows"):
        gof_test(model, s, 2, 1.0)


def test_bins_are_an_eager_tuple_of_bin_records():
    # every record is built before gof_test returns: a field, not a view
    assert "bins" in {f.name for f in dataclasses.fields(GofResult)}
    s = summarize({0: 30, 1: 20, 2: 12, 3: 6, 4: 3, 5: 2, 9: 1})
    g = gof_test(Geometric(p=0.45), s, 1)
    assert type(g.bins) is tuple and all(type(b) is Bin for b in g.bins)
    assert "bins" in vars(g)


def test_bin_is_an_immutable_hashable_record():
    b = Bin(label="3+", observed=2.0, expected=1.5)
    assert b == Bin("3+", 2.0, 1.5) and hash(b) == hash(Bin("3+", 2.0, 1.5))
    assert (b.label, b.observed, b.expected) == ("3+", 2.0, 1.5)
    assert b != Bin("3+", 2.0, 1.25) and len({b, Bin("3+", 2.0, 1.5)}) == 1
    # a named tuple: equal to the plain 3-tuple and unpacks like one
    label, observed, expected = b
    assert b == ("3+", 2.0, 1.5) and (label, observed, expected) == tuple(b)
    with pytest.raises(AttributeError):
        b.expected = 2.0


def _neumaier_sum(iterable, /, start=0, *, _sum=builtins.sum):
    """`sum` as Python 3.12 and later add floats: Neumaier compensation."""
    items = list(iterable)
    if type(start) not in (int, float) or not all(type(x) is float for x in items):
        return _sum(items, start)
    total, c = float(start), 0.0
    for x in items:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def _golden_reports():
    out = []
    for path in sorted((Path(__file__).parent / "data" / "cli_golden").glob("*.csv")):
        try:
            s, _ = read_frequency_file(str(path))
            report = compare_models(s, list(FAMILIES))
        except CountFitError:
            continue
        out.append((path.name, [(e.gof.chi2, e.gof.p_value) for e in report.entries if e.gof]))
    return out


def test_chi2_bits_do_not_depend_on_how_sum_adds_floats(monkeypatch):
    want = _golden_reports()
    assert sum(len(r) for _, r in want) >= 40
    assert _neumaier_sum([1.0, 1e100, 1.0, -1e100]) == 2.0  # the emulation compensates
    monkeypatch.setattr(builtins, "sum", _neumaier_sum)
    assert _golden_reports() == want


# the ZIG fit of this map has 7 bins and df 5
ZIG_MAP = {0: 30, 1: 20, 2: 12, 3: 8, 4: 5, 5: 3, 6: 2}


@pytest.mark.parametrize("n_params", [-3, 1.5, True, "2", None])
def test_gof_test_refuses_a_parameter_count_that_is_not_a_whole_number(n_params):
    s = summarize(ZIG_MAP)
    # -3, 1.5 and True gave df 10, 5.5 and 6, each with a p-value
    with pytest.raises(CountFitError, match="n_params must be >= 0 and an integer"):
        gof_test(mle_zig(s).model, s, n_params)


def test_gof_test_takes_a_fully_specified_model_and_numpy_integers():
    s = summarize(ZIG_MAP)
    model = mle_zig(s).model
    assert gof_test(model, s, np.int64(2)).df == 5
    assert gof_test(model, s, 0).df == 7
