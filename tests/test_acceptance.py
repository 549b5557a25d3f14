"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np

from conftest import CROFTON_ZIG, SEO_ZIG, recovered_n0
from likelihood_oracles import grid_oracle, pgf, score_residuals, zig_hg_reparam
from countfit.dist import (
    Hurdle,
    Geometric,
    NegBinomial,
    Poisson,
    ZeroInflated,
    moments,
    pmf,
)
from countfit.errors import AllZerosError, UnderDispersedError
from countfit.estimate import (
    FrequencySample,
    mle_geometric,
    mle_hg,
    mle_nb,
    mle_poisson,
    mle_zig,
    mom_nb,
    summarize,
)
from countfit.sim import sample
from countfit.specfn import chi2_survival

PARAM_TOL = 5e-3


def _report(name: str, ok: bool) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def _random_zig_sample(rng, n_max=500):
    model = ZeroInflated(
        pi=float(rng.uniform(0.0, 0.6)), base=Geometric(p=float(rng.uniform(0.2, 0.8)))
    )
    n = int(rng.integers(30, n_max + 1))
    s = summarize(sample(model, n, int(rng.integers(2**31))).tolist())
    if s.mean == 0.0 or s.n0 == 0 or s.mean * s.n - s.n + s.n0 <= 0:
        return _random_zig_sample(rng, n_max)
    return s


def test_ac1_seo_table_self_consistency():
    t0 = time.time()
    ok = True
    for label, (n, m, pi_ref, p_ref) in SEO_ZIG.items():
        n0 = recovered_n0(n, m, p_ref)
        fit = mle_zig(FrequencySample.from_summary(n, n0, m))
        ok &= abs(fit.model.pi - pi_ref) <= PARAM_TOL
        ok &= abs(fit.model.base.p - p_ref) <= PARAM_TOL
    ok &= (time.time() - t0) < 1.0
    _report("AC-1 Seo A-F ZIG self-consistency", ok)


def test_ac2_crofton_table_self_consistency():
    t0 = time.time()
    ok = True
    for label, (n, m, pi_ref, p_ref) in CROFTON_ZIG.items():
        n0 = recovered_n0(n, m, p_ref)
        fit = mle_zig(FrequencySample.from_summary(n, n0, m))
        pi_hat, p_hat = fit.model.pi, fit.model.base.p
        ok &= abs(pi_hat - pi_ref) <= PARAM_TOL
        ok &= abs(p_hat - p_ref) <= PARAM_TOL
        ok &= pi_hat >= -p_hat / (1.0 - p_hat) - 1e-12
    # sample A is zero-deflated, sample C strongly zero-inflated
    fit_a = mle_zig(
        FrequencySample.from_summary(549, recovered_n0(549, 2.2732, 0.3109), 2.2732)
    )
    ok &= abs(fit_a.model.pi - (-0.0256)) <= PARAM_TOL and fit_a.model.pi < 0
    fit_c = mle_zig(
        FrequencySample.from_summary(633, recovered_n0(633, 0.6003, 0.4605), 0.6003)
    )
    ok &= abs(fit_c.model.pi - 0.4875) <= PARAM_TOL
    ok &= (time.time() - t0) < 1.0
    _report("AC-2 Crofton A-F incl. zero-deflation", ok)


def test_ac3_p_value_function():
    ok = abs(chi2_survival(6.8092, 12) - 0.8699) <= 5e-4
    ok &= abs(chi2_survival(11.2927, 16) - 0.7911) <= 5e-4
    ok &= abs(chi2_survival(20.6558, 8) - 0.0081) <= 5e-4
    _report("AC-3 chi-squared survival reference values", ok)


def test_ac4_zig_hg_equivalence():
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(100):
        s = _random_zig_sample(rng)
        zig = mle_zig(s)
        hg = mle_hg(s)
        ok &= abs(zig.aic - hg.aic) < 1e-9
        pi_hg = zig_hg_reparam(zig.model.pi, zig.model.base.p)
        mapped = Hurdle(pi=pi_hg, base=zig.model.base)
        for y in range(0, 40):
            ok &= abs(pmf(zig.model, y) - pmf(mapped, y)) < 1e-14
        ok &= abs(pi_hg - hg.model.pi) < 1e-12
    _report("AC-4 ZIG<->HG equal AIC and pmf", ok)


def test_ac5_closed_form_vs_grid_oracle():
    t0 = time.time()
    rng = np.random.default_rng(505)
    ok = True
    for _ in range(25):
        s = _random_zig_sample(rng, n_max=500)
        fit = mle_zig(s)
        _, ll_oracle = grid_oracle(s, "zig", resolution=1000)
        ok &= fit.loglik >= ll_oracle - 1e-9
        ok &= bool(np.all(np.abs(score_residuals(fit.model, s)) < 1e-8 * max(1.0, s.n)))
    ok &= (time.time() - t0) < 60.0
    _report("AC-5 closed form beats 1000x1000 grid oracle", ok)


def test_ac6_nb_solver_correctness():
    t0 = time.time()
    m, k = 4.6102, 0.6193
    counts = sample(NegBinomial(p=k / (m + k), k=k), 100_000, 606)
    s = summarize(counts.tolist())
    fit = mle_nb(s)
    ok = 0.58 <= fit.model.k <= 0.66
    ok &= abs(fit.solver.residual) < 1e-10 * s.n
    geo_counts = sample(Geometric(p=0.4), 100_000, 607)
    geo_fit = mle_nb(summarize(geo_counts.tolist()))
    ok &= 0.9 <= geo_fit.model.k <= 1.1
    ok &= (time.time() - t0) < 30.0
    _report("AC-6 NB digamma-score solver", ok)


def test_ac7_distribution_layer():
    t0 = time.time()
    ok = True
    # normalization over a spread of compound models
    for pi, p in [(0.0, 0.3), (0.4, 0.5), (-0.2, 0.6), (0.7, 0.2)]:
        model = ZeroInflated(pi=pi, base=Geometric(p=p))
        total = sum(pmf(model, y) for y in range(2000))
        ok &= total >= 1.0 - 1e-12
    # PGF derivative vs moments
    model = ZeroInflated(pi=0.3, base=Geometric(p=0.5))
    mom = moments(model)
    h = 1e-5
    d1 = (pgf(model, 1.0) - pgf(model, 1.0 - 2 * h)) / (2 * h)
    d2 = (pgf(model, 1.0 - h) - pgf(model, 1.0 - 3 * h)) / (2 * h)
    ok &= abs((2 * d1 - d2) - mom.mean) / mom.mean < 1e-4
    # NB(k=1) == geometric
    for p in np.linspace(0.1, 0.9, 9):
        for y in range(101):
            ok &= abs(pmf(NegBinomial(p=float(p), k=1.0), y) - pmf(Geometric(p=float(p)), y)) < 1e-14
    # Poisson limit
    mlim, klim = 3.0, 1e6
    nb = NegBinomial(p=klim / (mlim + klim), k=klim)
    ok &= max(abs(pmf(nb, y) - pmf(Poisson(mean=3.0), y)) for y in range(51)) < 1e-5
    ok &= (time.time() - t0) < 30.0
    _report("AC-7 distribution-layer invariants", ok)


def test_ac8_estimator_failure_modes():
    under = summarize({0: 1, 1: 1})  # var 0.25 <= mean 0.5
    ok = True
    try:
        mle_nb(under)
        ok = False
    except UnderDispersedError:
        pass
    try:
        mom_nb(under)
        ok = False
    except UnderDispersedError:
        pass
    all_zero = summarize({0: 25})
    for est in (mle_zig, mle_hg):
        try:
            est(all_zero)
            ok = False
        except AllZerosError:
            pass
    try:
        mle_nb(all_zero)
        ok = False
    except (AllZerosError, UnderDispersedError):
        pass
    # one-parameter families degenerate gracefully instead
    ok &= mle_geometric(all_zero).model.p == 1.0
    ok &= mle_poisson(all_zero).model.mean == 0.0
    _report("AC-8 failure modes surface as errors", ok)
