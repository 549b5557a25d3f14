"""The samplers against independent oracles: scipy.stats pmfs and numpy's own draws.

The frequency rows that recovery experiments tally are checked against
np.bincount of the values drawn from the same stream, and ``sample``'s draws
against the histograms of tests/data/sample_corpus.json, recorded by
tests/data/record_sample_corpus.py at an earlier commit.

Every test here has a fixed seed or a derandomized search, and is
deterministic. The chi-squared tests would each fail a correct sampler with
probability ALPHA at a fresh seed; over the six NB cases that is a
false-alarm budget of 6 * ALPHA = 0.6%.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from countfit import dist
from countfit.dist import (
    Geometric,
    Hurdle,
    NegBinomial,
    Poisson,
    ZeroInflated,
    _table_fits,
    log_pmf_array,
    pmf,
)
from countfit.sim import sample
from test_dist import _LOG_PMF_CASES

ALPHA = 1e-3
N = 200_000


def _nb(m: float, k: float) -> NegBinomial:
    return NegBinomial(p=k / (m + k), k=k)


def _chi2_p_value(draws: np.ndarray, pmf, n: int) -> float:
    """Pearson chi-squared p-value of the histogram of ``draws`` against ``pmf``.

    Cells 0..c each expect at least 5 values, c being the last such count;
    everything above c is one pooled tail cell. No parameter is fitted, so
    the test has (cells - 1) degrees of freedom.
    """
    ys = np.arange(int(draws.max()) + 2)
    expected = n * pmf(ys)
    c = int(np.flatnonzero(expected >= 5.0)[-1])
    observed = np.bincount(draws, minlength=ys.size)
    obs = np.append(observed[: c + 1], observed[c + 1 :].sum())
    exp = np.append(expected[: c + 1], n - expected[: c + 1].sum())
    if exp[-1] < 5.0:  # fold a thin tail into the last full cell
        obs = np.append(obs[:-2], obs[-2:].sum())
        exp = np.append(exp[:-2], exp[-2:].sum())
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    return float(stats.chi2.sf(chi2, obs.size - 1))


@pytest.mark.parametrize(
    "m, k, seed",
    [
        (2.8235, 0.4240, 101),  # the three NB recovery scenarios
        (4.6102, 0.6193, 102),
        (3.39, 50.0, 103),
        (20.0, 2.5, 104),  # k > 1
        (5.0, 0.05, 105),  # k < 0.1: a long table, most mass at 0
    ],
)
def test_nb_draws_match_the_scipy_pmf(m, k, seed):
    model = _nb(m, k)
    # the case is drawn from the inverse-CDF table, not the gamma-Poisson fallback
    table = dist._inverse_cdf_table(lambda ys: np.exp(log_pmf_array(model, ys)), n=N)
    assert table is not None
    draws = sample(model, N, seed)
    assert draws.dtype == np.int64 and draws.size == N and draws.min() >= 0
    p_value = _chi2_p_value(draws, lambda ys: stats.nbinom.pmf(ys, k, model.p), N)
    assert p_value > ALPHA


def test_inflated_zig_over_an_nb_base_matches_the_scipy_pmf():
    base, pi = _nb(2.8235, 0.4240), 0.3
    draws = sample(ZeroInflated(pi=pi, base=base), N, 106)

    def pmf(ys):
        return pi * (ys == 0) + (1.0 - pi) * stats.nbinom.pmf(ys, base.k, base.p)

    assert _chi2_p_value(draws, pmf, N) > ALPHA


@pytest.mark.parametrize("base", [Poisson(mean=3.39), Geometric(p=0.4), Geometric(p=1.0)])
def test_inflated_zig_draws_its_zeros_then_its_base(base):
    n, pi, seed = 5000, 0.3, 29
    rng = np.random.default_rng(seed)
    at_zero = rng.random(n) < pi
    if isinstance(base, Poisson):
        expected = rng.poisson(base.mean, n)
    elif base.p == 1.0:
        expected = np.zeros(n, dtype=np.int64)
    else:  # the inverse CDF floor(ln(1-U) / ln(1-p))
        expected = np.floor(np.log1p(-rng.random(n)) / math.log1p(-base.p)).astype(np.int64)
    expected[at_zero] = 0
    assert np.array_equal(sample(ZeroInflated(pi=pi, base=base), n, seed), expected)


@pytest.mark.parametrize("mean, n, seed", [(3.39, 1893, 323), (0.0, 10, 1), (1e6, 1000, 7)])
def test_poisson_draws_are_numpys_poisson(mean, n, seed):
    expected = np.random.default_rng(seed).poisson(mean, n)
    assert np.array_equal(sample(Poisson(mean=mean), n, seed), expected)


@pytest.mark.parametrize(
    "m, k, n",
    [
        (1e9, 0.5, 20),  # the table would reach far past the size rule
        (1e9, 0.5, 1000),
        (5.0, 0.05, 20),  # 2,181 entries against a rule of 1,104 at n = 20
        (1e12, 3.0, 50_000),  # past the absolute cap however large n is
    ],
)
def test_nb_past_the_size_rule_draws_gamma_then_poisson(m, k, n):
    model = _nb(m, k)
    seed = 17
    start = time.perf_counter()
    draws = sample(model, n, seed)
    assert time.perf_counter() - start < 0.5
    rng = np.random.default_rng(seed)
    expected = rng.poisson(rng.gamma(k, (1.0 - model.p) / model.p, n))
    assert np.array_equal(draws, expected)


# --- rows tallied from the uniforms against np.bincount of the values ------


def _nb_table(model: NegBinomial, n: int):
    return dist._inverse_cdf_table(lambda ys: np.exp(log_pmf_array(model, ys)), n=n)


@st.composite
def _deflated_zig(draw, bases):
    base = draw(bases)
    p0 = pmf(base, 0)
    return ZeroInflated(pi=-draw(st.floats(0.01, 0.99)) * p0 / (1.0 - p0), base=base)


_GEOMETRIC = st.builds(Geometric, p=st.floats(0.05, 0.95))
_POISSON = st.builds(Poisson, mean=st.floats(0.1, 8.0))
# short tables: they pass the size rule at every n
_NB_TABLE = st.builds(_nb, m=st.floats(0.1, 5.0), k=st.floats(0.3, 50.0))
_BASES = st.one_of(_GEOMETRIC, _NB_TABLE, _POISSON)
_SAMPLER_KINDS = {
    "nb table": _NB_TABLE,
    # tables of 6,700 entries or more against a rule of at most 2,224 at n <= 300
    "nb gamma-poisson": st.builds(_nb, m=st.floats(30.0, 100.0), k=st.floats(0.05, 0.1)),
    "deflated zig": _deflated_zig(_BASES),
    "inflated zig over a table": st.builds(ZeroInflated, pi=st.floats(0.0, 0.99), base=_NB_TABLE),
    "inflated zig": st.builds(
        ZeroInflated, pi=st.floats(0.0, 0.99), base=st.one_of(_GEOMETRIC, _POISSON)
    ),
    # pi near 1 leaves replicates with no base value at all
    "hg": st.builds(Hurdle, pi=st.one_of(st.floats(0.0, 1.0), st.just(0.999)), base=_BASES),
    "geometric": st.builds(Geometric, p=st.floats(0.01, 0.99)),
    "poisson": st.builds(Poisson, mean=st.floats(0.0, 50.0)),
    "zeros": st.one_of(
        st.just(Geometric(p=1.0)), st.builds(NegBinomial, p=st.just(1.0), k=st.floats(0.1, 10.0))
    ),
}


@pytest.mark.parametrize("kind", list(_SAMPLER_KINDS))
@given(data=st.data(), n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_a_row_is_the_bincount_of_the_values_on_the_same_stream(kind, data, n, seed):
    model = data.draw(_SAMPLER_KINDS[kind])
    nb = model.base if isinstance(model, ZeroInflated) else model
    if kind.startswith("nb") or kind == "inflated zig over a table":
        assert (_nb_table(nb, n) is not None) == (kind != "nb gamma-poisson")
    draw = model._sampler(n)
    values = draw.values(np.random.default_rng(seed))
    row = draw.row(np.random.default_rng(seed))
    if row is None:  # only a row made from values is checked against the size rule
        assert draw.edges is None and not _table_fits(int(values.max()) + 1, n)
        return
    assert row.dtype == np.int64
    assert np.array_equal(row, np.bincount(values))


@pytest.mark.parametrize("start", [0, 1])
@pytest.mark.parametrize(
    "u",
    [
        [0.25],  # n = 1, a tie with a table entry
        [0.9999999999995],  # n = 1, above the last entry
        [0.0, 0.25, 0.5, 0.5, 0.75, 0.9999999999995],  # ties, and one above the last
        [0.6, 0.1, 0.3, 0.3, 0.05],  # unsorted
        [-1.0, 0.3, -1.0],  # zeros a mixture picked
        [-1.0, -1.0],  # zeros only: nothing drawn from the table
    ],
)
def test_table_values_and_rows_put_each_uniform_where_searchsorted_puts_it(u, start):
    cum = np.array([0.25, 0.5, 0.75, 1.0 - 1e-12])
    draw = dist._table_sampler(cum, len(u), start)._replace(draw=lambda _: np.array(u))
    expected = np.where(np.array(u) < 0, 0, np.searchsorted(cum, u) + start)
    values = draw.values(None)
    assert values.dtype == np.int64 and np.array_equal(values, expected)
    row = draw.row(None)
    assert row.dtype == np.int64 and np.array_equal(row, np.bincount(expected))


@pytest.mark.parametrize("n", [1, 7])
def test_a_replicate_of_zeros_only_has_an_empty_base(n):
    cum = np.array([0.25, 0.5, 0.75, 1.0 - 1e-12])
    draw = dist._zero_mixed(1.0, dist._table_sampler(cum, n, start=1), n)
    assert np.array_equal(draw.values(np.random.default_rng(5)), np.zeros(n, dtype=np.int64))
    row = draw.row(np.random.default_rng(5))
    assert row.dtype == np.int64 and np.array_equal(row, [n])


# --- draws pinned by the sample corpus --------------------------------------

SAMPLE_CORPUS = json.loads((Path(__file__).parent / "data" / "sample_corpus.json").read_text())
# its table is past the size rule at every n of the corpus
_GAMMA_POISSON_NB = NegBinomial(p=0.05 / 1000.05, k=0.05)
# every log-pmf case, a deflated ZI over a Poisson base and a gamma-Poisson NB
_CORPUS_MODELS = {
    repr(m): m
    for m in (
        *_LOG_PMF_CASES,
        ZeroInflated(pi=-0.1, base=Poisson(mean=2.0)),
        _GAMMA_POISSON_NB,
    )
}


def test_the_sample_corpus_holds_every_model():
    assert {rec["model"] for rec in SAMPLE_CORPUS} == set(_CORPUS_MODELS)
    assert all(_nb_table(_GAMMA_POISSON_NB, n) is None for n in (1, 300, 5000))


@pytest.mark.parametrize(
    "rec", SAMPLE_CORPUS, ids=lambda rec: f"{rec['model']}-{rec['n']}-{rec['seed']}"
)
def test_sample_draws_the_recorded_histogram(rec):
    table = np.bincount(sample(_CORPUS_MODELS[rec["model"]], rec["n"], rec["seed"]))
    ys = np.flatnonzero(table)
    assert [list(cell) for cell in zip(ys.tolist(), table[ys].tolist())] == rec["hist"]
