import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_model
from likelihood_oracles import grid_oracle
from countfit import sim
from countfit.dist import Geometric, Hurdle, NegBinomial, Poisson, ZeroInflated, moments, pmf
from countfit.errors import CountFitError
from countfit.estimate import (
    FAMILY_TABLE,
    _summarize_rows,
    family_of,
    mle_geometric,
    mle_hg,
    mle_nb,
    mle_poisson,
    mle_zig,
    mom_nb,
    summarize,
)
from countfit.sim import recovery_experiment, sample


def test_sample_determinism(rng):
    for _ in range(10):
        model = random_model(rng)
        seed = int(rng.integers(2**31))
        a = sample(model, 500, seed)
        b = sample(model, 500, seed)
        assert np.array_equal(a, b)


def test_more_values_than_the_cap_are_refused_before_drawing(monkeypatch):
    def no_draw(model, n):
        raise AssertionError("a sampler was built")

    monkeypatch.setattr(sim, "_sampler", no_draw)
    model = NegBinomial(p=0.2, k=0.5)
    with pytest.raises(CountFitError, match=f"cap is {sim.MAX_VALUES}"):
        sample(model, 10**11, 0)
    with pytest.raises(CountFitError, match=f"n=1000000, replicates=10000.*cap is {sim.MAX_VALUES}"):
        recovery_experiment(model, 10**6, 10**4, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sample(Geometric(p=0.5), 10.5, 1), "sample size must be an integer"),
        (lambda: sample(Geometric(p=0.5), True, 1), "sample size must be an integer"),
        (lambda: sample(Geometric(p=0.5), 0, 1), "sample size must be an integer >= 1"),
        (lambda: recovery_experiment(Geometric(p=0.5), 10, 2.5, 0), "replicates must be"),
        (lambda: recovery_experiment(Geometric(p=0.5), 10, True, 0), "replicates must be"),
        (lambda: recovery_experiment(Geometric(p=0.5), 10, "3", 0), "replicates must be"),
        (lambda: sample(Geometric(p=0.5), 10, -1), "seed must be a non-negative integer"),
        (lambda: sample(Geometric(p=0.5), 10, 2.5), "seed must be a non-negative integer"),
        (lambda: recovery_experiment(Geometric(p=0.5), 10, 2, -1), "seed must be"),
        (lambda: recovery_experiment(Geometric(p=0.5), 10, 2, np.int64(-3)), "seed must be"),
        (lambda: sample(Geometric(p=0.5), 5, True), "seed must be a non-negative integer"),
        (lambda: recovery_experiment(Geometric(p=0.5), 20, 3, True), "seed must be"),
    ],
)
def test_sizes_and_seeds_numpy_refuses_are_typed_refusals(call, message):
    with pytest.raises(CountFitError, match=message):
        call()


def test_numpy_integers_and_seed_sequences_are_accepted():
    model = NegBinomial(p=0.3, k=1.5)
    child = np.random.SeedSequence(4).spawn(1)[0]
    assert np.array_equal(sample(model, np.int64(50), np.int64(4)), sample(model, 50, 4))
    assert np.array_equal(
        sample(model, 50, child), sample(model, 50, np.random.SeedSequence(4).spawn(1)[0])
    )
    assert recovery_experiment(model, np.int32(50), np.int64(3), np.uint64(4)) == (
        recovery_experiment(model, 50, 3, 4)
    )


def test_sample_degenerate_models():
    assert np.all(sample(Geometric(p=1.0), 50, 1) == 0)
    assert np.all(sample(NegBinomial(p=1.0, k=2.0), 50, 1) == 0)
    assert np.all(sample(Hurdle(pi=1.0, base=Geometric(p=0.5)), 100, 1) == 0)


def test_zig_sample_mean_clt():
    model = ZeroInflated(pi=0.3, base=Geometric(p=0.4))
    draws = sample(model, 1_000_000, 31)
    mom = moments(model)
    se = np.sqrt(mom.variance / draws.size)
    assert abs(draws.mean() - mom.mean) < 3 * se
    assert mom.mean == pytest.approx(1.05)


def test_empirical_pmf_matches(rng):
    n = 1_000_000
    for model in [
        Poisson(mean=2.5),
        Geometric(p=0.35),
        NegBinomial(p=0.3, k=0.7),
        ZeroInflated(pi=0.4, base=Geometric(p=0.5)),
        ZeroInflated(pi=-0.3, base=Geometric(p=0.6)),
        Hurdle(pi=0.25, base=NegBinomial(p=0.4, k=1.3)),
    ]:
        draws = sample(model, n, 99)
        counts = np.bincount(draws)
        for y in range(len(counts)):
            expected = pmf(model, y) * n
            if expected >= 100:
                assert abs(counts[y] / n - pmf(model, y)) < 4 / np.sqrt(n)


def test_zero_deflated_sample_has_fewer_zeros():
    p = 0.6
    model = ZeroInflated(pi=-0.3, base=Geometric(p=p))
    draws = sample(model, 200_000, 17)
    assert np.mean(draws == 0) < p


def test_sample_validations():
    with pytest.raises(CountFitError):
        sample(Geometric(p=0.5), 0, 1)


@pytest.mark.parametrize(
    "model",
    [
        Geometric(p=1e-300),
        Geometric(p=3.9e-18),
        ZeroInflated(pi=0.2, base=Geometric(p=1e-300)),
    ],
)
def test_sample_geometric_p_past_int64_is_a_typed_error(model):
    # floor(ln(1-U)/ln(1-p)) reaches 36.7/p, past 2**63 for p below about 3.98e-18
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CountFitError, match=r"p=.*e-"):
            sample(model, 5, 0)


@pytest.mark.parametrize(
    "base", [Poisson(mean=1e9), NegBinomial(p=0.5 / (1e9 + 0.5), k=0.5)]
)
def test_hurdle_table_past_the_cap_is_refused_up_front(base):
    # a base mean past the cap: the doubling built tables up to 10 million
    # counts (1.4 s, 560 MB) before it gave up
    start = time.perf_counter()
    with pytest.raises(CountFitError, match="inverse CDF"):
        sample(Hurdle(pi=0.3, base=base), 5, 0)
    assert time.perf_counter() - start < 0.5


_HEAVY_TAILED_NB = NegBinomial(p=1e-8, k=1e-3)


@pytest.mark.parametrize(
    "model",
    [Hurdle(pi=0.3, base=_HEAVY_TAILED_NB), ZeroInflated(pi=-1.0, base=_HEAVY_TAILED_NB)],
)
def test_nb_table_with_a_heavy_tail_is_refused_up_front(model):
    # mean 1e5 is within the cap, but about 2e-3 of the mass lies past 10
    # million counts: tables up to the cap took 1.8 s and 483 MB to give up
    start = time.perf_counter()
    with pytest.raises(CountFitError, match="inverse CDF"):
        sample(model, 5, 0)
    assert time.perf_counter() - start < 0.5


def test_sample_geometric_p_just_inside_int64():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = sample(Geometric(p=4.1e-18), 1000, 0)
    assert draws.min() >= 0


# --- grid oracle -----------------------------------------------------------


def test_grid_oracle_finds_known_optimum():
    s = summarize({0: 50, 1: 25, 2: 13, 3: 6, 4: 3, 5: 2, 6: 1})
    fit = mle_zig(s)
    params, ll = grid_oracle(s, "zig", resolution=400)
    step = 1.0 / 400 * 2  # conservative lattice spacing bound
    assert abs(params["p"] - fit.model.base.p) < step
    assert abs(params["pi"] - fit.model.pi) < 3 * step
    assert ll <= fit.loglik + 1e-9


def test_grid_oracle_refinement_monotone():
    s = summarize({0: 30, 1: 12, 2: 6, 3: 3, 5: 1})
    _, ll_coarse = grid_oracle(s, "zig", resolution=200)
    _, ll_fine = grid_oracle(s, "zig", resolution=400)
    assert ll_fine >= ll_coarse - 1e-12
    _, hg_coarse = grid_oracle(s, "hg", resolution=200)
    _, hg_fine = grid_oracle(s, "hg", resolution=400)
    assert hg_fine >= hg_coarse - 1e-12


def test_closed_form_beats_oracle(rng):
    for _ in range(10):
        n = int(rng.integers(30, 500))
        model = ZeroInflated(pi=float(rng.uniform(0, 0.6)), base=Geometric(p=float(rng.uniform(0.2, 0.8))))
        s = summarize(sample(model, n, int(rng.integers(2**31))).tolist())
        if s.mean == 0:
            continue
        _, ll_oracle = grid_oracle(s, "zig", resolution=300)
        assert mle_zig(s).loglik >= ll_oracle - 1e-9


def test_grid_oracle_validations():
    s = summarize({0: 5, 1: 5})
    with pytest.raises(CountFitError):
        grid_oracle(s, "zig", resolution=10)
    with pytest.raises(CountFitError):
        grid_oracle(s, "nb")


# --- recovery experiments --------------------------------------------------


def test_recovery_zig_consistency():
    report = recovery_experiment(
        ZeroInflated(pi=0.3, base=Geometric(p=0.4)), n=100_000, replicates=20, seed=4
    )
    assert report.abs_error["mle"]["pi"] < 0.01
    assert report.abs_error["mle"]["p"] < 0.01
    assert report.solver_failures == 0


def test_recovery_nb_table_params():
    m, k = 2.8235, 0.4240
    report = recovery_experiment(
        NegBinomial(p=k / (m + k), k=k), n=100_000, replicates=20, seed=5
    )
    assert report.abs_error["mle"]["k"] < 0.05
    # moments estimates are present for comparison and typically worse
    assert "moments" in report.estimates


def test_recovery_tiny_samples_complete():
    report = recovery_experiment(
        NegBinomial(p=0.5, k=0.8), n=10, replicates=50, seed=6
    )
    assert report.replicates == 50
    assert report.solver_failures >= 0


def test_recovery_determinism():
    model = Hurdle(pi=0.4, base=Geometric(p=0.5))
    a = recovery_experiment(model, n=200, replicates=5, seed=9)
    b = recovery_experiment(model, n=200, replicates=5, seed=9)
    assert a.estimates == b.estimates
    assert a.abs_error == b.abs_error


def test_recovery_tiny_geometric_p_is_a_typed_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CountFitError, match="p=1e-300"):
            recovery_experiment(Geometric(p=1e-300), n=5, replicates=3, seed=0)


def test_recovery_of_a_compound_over_a_non_geometric_base_is_refused():
    with pytest.raises(CountFitError, match="geometric-based compounds only"):
        recovery_experiment(ZeroInflated(pi=0.3, base=Poisson(mean=2.0)), 20, 2, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sample(object(), 5, 0), "cannot sample model object"),
        (lambda: family_of(object()), "unknown model type object"),
    ],
)
def test_an_object_that_is_no_model_is_refused(call, message):
    with pytest.raises(CountFitError, match=message):
        call()


def _scalar_recovery(model, n, reps, seed):
    """Per-replicate public calls: sample each spawned child, summarize, fit."""
    fitters = {
        Poisson: {"mle": mle_poisson},
        Geometric: {"mle": mle_geometric},
        NegBinomial: {"mle": mle_nb, "moments": mom_nb},
        ZeroInflated: {"mle": mle_zig},
        Hurdle: {"mle": mle_hg},
    }[type(model)]
    fits = {meth: [] for meth in fitters}
    for child in np.random.SeedSequence(seed).spawn(reps):
        s = summarize(sample(model, n, child))
        for meth, fit_fn in fitters.items():
            try:
                fits[meth].append(family_of(model).params(fit_fn(s).model))
            except CountFitError:
                fits[meth].append(None)
    return fits


@pytest.mark.parametrize(
    "model, n",
    [
        (Poisson(mean=2.5), 300),
        (Geometric(p=0.3), 300),
        (NegBinomial(p=0.6 / 3.1, k=0.6), 300),
        (NegBinomial(p=50 / 53.39, k=50.0), 200),  # near-Poisson: some replicates fail
        (ZeroInflated(pi=-0.0256, base=Geometric(p=0.3109)), 300),
        (ZeroInflated(pi=0.9, base=Geometric(p=0.9)), 40),  # nonzero counts often all 1
        (Hurdle(pi=0.05, base=Geometric(p=0.95)), 20),
        (NegBinomial(p=0.5 / 1e9, k=0.5), 20),  # counts far past the table rule
        (Hurdle(pi=0.6, base=Geometric(p=0.3)), 300),  # many zeros masked over the table
        (Hurdle(pi=0.999, base=Geometric(p=0.5)), 5),  # all-zero replicates: empty base rows
    ],
)
@pytest.mark.parametrize("seed", [13, 2**64 + 1, [1, 2]])
def test_recovery_matches_per_replicate_scalar_fits(model, n, seed):
    reps = 30
    report = recovery_experiment(model, n, reps, seed)
    fits = _scalar_recovery(model, n, reps, seed)
    failures = sum(f is None for per in fits.values() for f in per)
    assert report.solver_failures == failures
    for meth, per in fits.items():
        ok = [f for f in per if f is not None]
        if not ok:
            assert meth not in report.estimates
            continue
        for k, truth in report.true_params.items():
            values = [f[k] for f in ok]
            assert report.estimates[meth][k] == pytest.approx(np.mean(values), rel=1e-9)
            errors = [abs(v - truth) for v in values]
            assert report.abs_error[meth][k] == pytest.approx(np.mean(errors), rel=1e-9)


_SEEDS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 1, [1, 2**40]]),
    st.integers(0, 2**200),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.lists(st.integers(0, 2**70), max_size=6),
)


@given(seed=_SEEDS, b=st.integers(1, 300))
@settings(max_examples=150, deadline=None)
def test_batched_child_seed_words_are_the_spawned_childrens(seed, b):
    words = sim._child_seed_words(np.random.SeedSequence(seed), b)
    children = np.random.SeedSequence(seed).spawn(b)
    assert words.shape == (b, 4)
    for row, child in zip(words, children):
        assert (row == child.generate_state(4, np.uint64)).all()
        rng = np.random.Generator(np.random.PCG64(sim._SeedWords(row)))
        assert (rng.random(8) == np.random.default_rng(child).random(8)).all()


# --- batched row fits against the scalar estimators -----------------------

# {0: 65859, 1: 24609, 2: 9553}: var - mean = 1e-10, so the NB shape sits on
# the 1e8 cap (the Poisson limit)
_CAP_ROW = np.repeat([0, 1, 2], [65859, 24609, 9553])
# {0: 65850, 1: 24611, 2: 9560}, as many values: an interior NB shape near 1.17e6
_LARGE_K_ROW = np.repeat([0, 1, 2], [65850, 24611, 9560])
_ROW_KINDS = (
    "zeros", "ones", "no_zeros", "nb", "poisson", "binomial", "cap", "large_k", "huge"
)


def _row(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "zeros":
        return np.zeros(n, dtype=np.int64)
    if kind == "ones":  # every nonzero count is 1
        return rng.integers(0, 2, n)
    if kind == "no_zeros":
        return rng.geometric(rng.uniform(0.2, 0.9), n)
    if kind == "nb":
        return rng.negative_binomial(rng.uniform(0.1, 5.0), rng.uniform(0.1, 0.9), n)
    if kind == "poisson":  # near-Poisson: over- or under-dispersed by chance
        return rng.poisson(rng.uniform(0.5, 5.0), n)
    if kind == "binomial":  # under-dispersed
        return rng.binomial(4, 0.5, n)
    if kind == "cap":
        return rng.permutation(_CAP_ROW)
    if kind == "large_k":
        return rng.permutation(_LARGE_K_ROW)
    values = rng.integers(0, 5, n)  # "huge": one count far past the table rule
    values[0] = 10**12
    return values


@given(
    kinds=st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=5),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_row_fits_match_scalar_fits(kinds, n, seed):
    rng = np.random.default_rng(seed)
    if {"cap", "large_k"} & set(kinds):
        n = _CAP_ROW.size
    rows = [_row(kind, n, rng).astype(np.int64) for kind in kinds]
    b = len(rows)
    # each replicate's index stands in for its generator
    draw = sim._Draw(rows.__getitem__)
    table = sim._tally_replicates(map(draw.row, range(b)), b, n)
    if "huge" in kinds:
        assert table is None
    samples = [summarize(values) for values in rows]
    if table is not None:
        n_rows, n0, mean, var = _summarize_rows(table)
        for i, s in enumerate(samples):
            assert (n_rows, n0[i], mean[i]) == (s.n, s.n0, s.mean)
            assert var[i] == pytest.approx(s.var, rel=1e-12, abs=0.0)
    for family in FAMILY_TABLE.values():
        fits = sim._fit_replicates(draw, lambda: range(b), b, n, family)
        for meth, (fit_fn, _) in family.fits.items():
            name = f"{family.name} {meth}"
            params, ok = fits[meth]
            for i, s in enumerate(samples):
                try:
                    want = family.params(fit_fn(s).model)
                except CountFitError:
                    want = None
                assert bool(ok[i]) == (want is not None), (name, kinds[i])
                if want is None:
                    continue
                for k, v in want.items():
                    got = float(params[k][i])
                    if name == "nb mle":
                        assert got == pytest.approx(v, rel=1e-9), (name, k, kinds[i])
                    elif name == "nb moments":
                        assert got == pytest.approx(v, rel=1e-12), (name, k, kinds[i])
                    else:
                        assert got == v, (name, k, kinds[i])
                if name == "nb mle" and want["k"] in (1e8, 1e-8):
                    assert float(params["k"][i]) == want["k"]
