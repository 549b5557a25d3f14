"""The samplers against independent oracles: scipy.stats pmfs and numpy's own draws.

Every test here has a fixed seed and is deterministic. The chi-squared tests
would each fail a correct sampler with probability ALPHA at a fresh seed;
over the six NB cases that is a false-alarm budget of 6 * ALPHA = 0.6%.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from countfit import sim
from countfit.dist import Geometric, NegBinomial, Poisson, ZeroInflated, log_pmf_array
from countfit.sim import sample

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
    table = sim._inverse_cdf_table(lambda ys: np.exp(log_pmf_array(model, ys)), n=N)
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
